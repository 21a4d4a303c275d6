"""Seeded workloads for the moqgate benchmark.

A workload is a list of :class:`moqgate.harness.Scenario` objects.  Every
scenario, bundled or synthetic, is built as a plain dict and validated by
``scenario_from_dict``, exactly as a user's scenario file would be.  In the
synthetic workloads the seed varies per-client link delays, where the
strobe groups fall and how filter sets are assigned to clients; it never
changes how much work a scenario holds, so runs on different seeds cost
about the same.

Links have no jitter: jitter of a group or more is a known open fault of
the simulator (gated bursts and approvals can reorder), and a benchmark
workload must be one on which no operation fails.
"""

from __future__ import annotations

import importlib
import json
import random
from pathlib import Path

#: At this seed the bundled scenarios run exactly as shipped and every
#: report must match its golden digest in ``golden.json``.
DEFAULT_SEED = 0

WORKLOADS = ("bundled", "live_fanout", "gated_fanout", "big_groups")

_BUNDLED = ("multi_category", "paper_replication", "random_delays", "strobe_impulse")
_BUNDLED_DIR = Path(__file__).resolve().parent.parent / "src" / "moqgate" / "scenarios"


def _bundled(seed: int) -> list[dict]:
    """The four bundled scenarios; off the default seed, the scenario seed
    and the ``random_delays`` draw seed both take the workload seed."""
    out = []
    for name in _BUNDLED:
        data = json.loads((_BUNDLED_DIR / f"{name}.json").read_text())
        if seed != DEFAULT_SEED:
            data["seed"] = seed
            if "delay_draws" in data:
                data["delay_draws"]["seed"] = seed
        out.append(data)
    return out


def _segments(rng: random.Random, n_groups: int, n_strobe: int) -> list[dict]:
    """One segment per one-second group: ``n_strobe`` 15 Hz strobe groups at
    seeded positions (never group 0), the rest alternating constant and
    ramp."""
    strobe_at = set(rng.sample(range(1, n_groups), n_strobe))
    segments = []
    for g in range(n_groups):
        if g in strobe_at:
            segments.append(
                {"kind": "strobe", "low": 16, "high": 240, "flash_hz": 15.0, "duration_ms": 1000}
            )
        elif g % 2:
            segments.append({"kind": "ramp", "start_level": 60, "end_level": 180, "duration_ms": 1000})
        else:
            segments.append({"kind": "constant", "level": 128, "duration_ms": 1000})
    return segments


def _link(rng: random.Random) -> dict:
    return {
        "to_relay_ms": float(rng.randint(0, 20)),
        "from_relay_ms": float(rng.randint(0, 20)),
        "jitter_ms": 0.0,
    }


def _synthetic(
    name: str,
    seed: int,
    *,
    size: int,
    fps: int,
    n_groups: int,
    n_strobe: int,
    filter_sets: list[list[str]],
    n_plain: int,
    retention: int,
    grid_dim: int = 16,
) -> dict:
    """One analyzer (strobe and smoking), the given filtered clients, and
    ``n_plain`` plain clients, on links drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    segments = _segments(rng, n_groups, n_strobe)
    filter_sets = list(filter_sets)
    rng.shuffle(filter_sets)
    clients = [
        {
            "name": "analyzer0",
            "analyze": ["strobe", "smoking"],
            "analysis_time_ms": 5.0,
            "detector": {"grid_dim": grid_dim},
        }
    ]
    clients += [{"name": f"filtered{i:03d}", "filter": f} for i, f in enumerate(filter_sets)]
    clients += [{"name": f"plain{i:03d}"} for i in range(n_plain)]
    return {
        "name": name,
        "track": "cam",
        "seed": seed,
        "source": {
            "width": size,
            "height": size,
            "fps": fps,
            "gop_duration_ms": 1000,
            "segments": segments,
        },
        "links": {
            "publisher": _link(rng),
            "clients": {c["name"]: _link(rng) for c in clients},
        },
        "clients": clients,
        "retention_groups": retention,
    }


def _live_fanout(seed: int) -> list[dict]:
    return [
        _synthetic(
            "live_fanout",
            seed,
            size=16,
            fps=30,
            n_groups=24,
            n_strobe=4,
            filter_sets=[["strobe"]],
            n_plain=64,
            retention=64,
        )
    ]


def _gated_fanout(seed: int) -> list[dict]:
    sets = [["strobe"], ["smoking"], ["strobe", "smoking"]]
    return [
        _synthetic(
            "gated_fanout",
            seed,
            size=16,
            fps=30,
            n_groups=36,
            n_strobe=6,
            filter_sets=sets * 32,
            n_plain=2,
            retention=256,
        )
    ]


def _big_groups(seed: int) -> list[dict]:
    return [
        _synthetic(
            "big_groups",
            seed,
            size=64,
            fps=500,
            n_groups=3,
            n_strobe=1,
            filter_sets=[["strobe"], ["strobe"], ["smoking"], ["strobe", "smoking"]],
            n_plain=1,
            retention=64,
        )
    ]


_BUILDERS = {
    "bundled": _bundled,
    "live_fanout": _live_fanout,
    "gated_fanout": _gated_fanout,
    "big_groups": _big_groups,
}


def scenario_dicts(workload: str, seed: int) -> list[dict]:
    """The workload's scenarios as raw dicts, before validation."""
    return _BUILDERS[workload](seed)


def load(workload: str, seed: int, package: str = "moqgate") -> list:
    """Build the workload's scenarios and validate them with ``package``'s
    ``scenario_from_dict`` (``moqgate``, or the frozen reference copy)."""
    harness = importlib.import_module(f"{package}.harness")
    return [harness.scenario_from_dict(d) for d in scenario_dicts(workload, seed)]
