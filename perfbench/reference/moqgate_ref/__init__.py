"""Content-gated live streaming over a MoQ-style relay.

Analyzer subscribers inspect each media group and approve it per content
category; filtering subscribers receive a group only once every category they
filter on has been approved, trading roughly one group of extra latency for
the guarantee that flagged content never reaches them.
"""

from __future__ import annotations

__version__ = "0.1.0"
