"""Per-category content analysis of media groups.

The strobe detector downsamples each frame on a fixed grid, flags frames
whose sampled luma rises sharply versus the previous frame, and declares a
group risky when two such rises land close enough together in time to imply
a flash rate in the photosensitive range.  Detector state (previous samples
and the timestamp of the last rise) threads across group boundaries so
flashes that straddle two groups are still caught.

Both per-frame steps run in C-level loops.  `sample_luma` builds the grid's
pixel indices once per (width, height, grid_dim) and reads them with one
`operator.itemgetter`; when the grid covers every pixel (a 16x16 frame on
the default 16x16 grid) it returns the pixels as they are.
`is_significant_increase` counts the samples with ``cur - prev > t`` by SWAR
(SIMD within a register): each sample vector is spread into one big integer
of 16-bit lanes, sample ``i`` in the low byte of lane ``i`` counted from the
least significant end.  Adding ``511 - t`` to every lane of ``cur`` and
subtracting ``prev`` leaves each lane in [1, 766], so no lane carries into
or borrows from its neighbour, and bit 9 of a lane is set exactly when
``cur - prev > t``; one mask and `int.bit_count` count them.

`analyze_group_strobe` is the one detector loop.  Per group it looks up the
rise constants once and, for each distinct frame size, validates the grid
and looks up its sampler once; samples, lanes and the last rise time ride in
locals, and one `DetectorState` is built at the end.  `push_frame` is that
loop over a single frame.  `DetectorState` carries the previous frame's
lanes, so each frame is spread once, across group boundaries too.  A state
built by hand without lanes, or with samples of another length, goes
through the checked `is_significant_increase`.  A byte difference never
exceeds 255, so a threshold above 255 means "no rise" and skips the lane
arithmetic.

Other categories (smoking, alcohol) are represented by fixed-verdict stub
detectors so the approval plumbing can be exercised end to end.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Protocol

from .media import Group, LuminanceFrame, SourceConfig, iter_frame_levels
from .wire import Category, _as_category

__all__ = [
    "StrobeConfig",
    "DetectorState",
    "Verdict",
    "sample_luma",
    "is_significant_increase",
    "push_frame",
    "analyze_group_strobe",
    "Detector",
    "StrobeDetector",
    "FixedVerdictDetector",
    "DetectorRegistry",
    "default_registry",
    "analyze",
    "predict_risky_groups",
]


@dataclass(frozen=True)
class StrobeConfig:
    """Tuning knobs for the strobe detector."""

    grid_dim: int = 16
    pixel_delta_threshold: int = 20
    changed_fraction_threshold: float = 0.25
    max_interchange_gap_ms: int = 100

    def __post_init__(self) -> None:
        if self.grid_dim < 1:
            raise ValueError("grid_dim must be at least 1")
        if self.pixel_delta_threshold < 0:
            raise ValueError("pixel_delta_threshold must be non-negative")
        if not 0.0 <= self.changed_fraction_threshold <= 1.0:
            raise ValueError("changed_fraction_threshold must be within [0, 1]")
        if self.max_interchange_gap_ms < 0:
            raise ValueError("max_interchange_gap_ms must be non-negative")


@dataclass(frozen=True)
class DetectorState:
    """Detector memory carried between frames (and across groups)."""

    prev_samples: bytes | None = None
    last_change_ts: int | None = None
    # prev_samples spread into lanes, so each frame is spread once; derived
    # from prev_samples, so it takes no part in equality.
    prev_lanes: int | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Verdict:
    """Outcome of analyzing one group for a set of categories."""

    group_id: int
    approved: tuple[int, ...] = ()
    rejected: tuple[int, ...] = ()
    errors: tuple[tuple[int, str], ...] = ()  # (category, message) per failed detector


@lru_cache(maxsize=64)
def _grid_sampler(width: int, height: int, grid_dim: int) -> Callable[[bytes], bytes]:
    """The function that reads a frame's grid samples, row-major.

    Raises ValueError when the grid does not fit a width x height frame.
    """
    if grid_dim < 1:
        raise ValueError("grid_dim must be at least 1")
    if grid_dim > min(width, height):
        raise ValueError(
            f"grid_dim {grid_dim} exceeds frame dimensions {width}x{height}"
        )
    xs = [((2 * i + 1) * width) // (2 * grid_dim) for i in range(grid_dim)]
    ys = [((2 * j + 1) * height) // (2 * grid_dim) for j in range(grid_dim)]
    indices = [y * width + x for y in ys for x in xs]
    if indices == list(range(width * height)):
        return bytes
    if len(indices) > 1:
        getter = operator.itemgetter(*indices)
    else:
        # itemgetter of one index returns an int; a one-item slice does not.
        getter = operator.itemgetter(slice(indices[0], indices[0] + 1))
    return lambda pixels: bytes(getter(pixels))


def sample_luma(frame: LuminanceFrame, grid_dim: int) -> bytes:
    """Sample the frame's luma at the centers of a grid_dim x grid_dim grid.

    Samples are returned row-major (top row first).  The grid must fit the
    frame: grid_dim is capped by the smaller frame dimension.
    """
    return _grid_sampler(frame.width, frame.height, grid_dim)(frame.pixels)


def _lanes(samples: bytes) -> int:
    """Spread samples into 16-bit lanes, sample 0 in the lowest lane."""
    buf = bytearray(2 * len(samples))
    buf[::2] = samples
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=64)
def _rise_constants(count: int, threshold: float) -> tuple[int, int]:
    """(511 - t in every lane, bit 9 of every lane) for `count` lanes."""
    ones = int.from_bytes(b"\x01\x00" * count, "little")
    return (511 - math.floor(threshold)) * ones, 0x200 * ones


def is_significant_increase(prev: bytes, cur: bytes, config: StrobeConfig) -> bool:
    """True when the fraction of samples that brightened sharply is above
    the configured threshold.  Both comparisons are strictly greater-than.

    A byte can rise by at most 255, so a `pixel_delta_threshold` above 255
    always gives False.
    """
    if len(prev) != len(cur):
        raise ValueError(
            f"sample vectors differ in length: {len(prev)} vs {len(cur)}"
        )
    count = len(prev)
    if not count or config.pixel_delta_threshold > 255:
        return False
    offset, mask = _rise_constants(count, config.pixel_delta_threshold)
    changed = ((_lanes(cur) + offset - _lanes(prev)) & mask).bit_count()
    return changed / count > config.changed_fraction_threshold


def push_frame(
    frame: LuminanceFrame, state: DetectorState, config: StrobeConfig
) -> tuple[bool, DetectorState]:
    """Feed one frame to the detector: the group loop over that frame alone.

    Returns (risk, new_state) where risk is True iff this frame's brightness
    rise follows a previous rise within max_interchange_gap_ms.
    """
    return analyze_group_strobe(Group(0, (frame,), 0), state, config)


def analyze_group_strobe(
    group: Group, state: DetectorState, config: StrobeConfig
) -> tuple[bool, DetectorState]:
    """Analyze a whole group; True when any frame triggered the gap rule.

    Frames are handled in order exactly as a fold of single-frame steps
    would, raising the same errors at the same frame.
    """
    grid_dim = config.grid_dim
    count = grid_dim * grid_dim
    threshold = config.pixel_delta_threshold
    fraction = config.changed_fraction_threshold
    gap = config.max_interchange_gap_ms
    # No byte rises by more than 255: above that, a zero mask counts nothing.
    offset, mask = _rise_constants(count, threshold) if threshold <= 255 else (0, 0)
    prev = state.prev_samples
    prev_lanes = state.prev_lanes
    last_change = state.last_change_ts
    if prev is None or len(prev) != count:
        # No previous frame, or a hand-built state the checked path handles.
        prev_lanes = None
    samplers: dict[tuple[int, int], Callable[[bytes], bytes]] = {}
    buf = bytearray(2 * count)
    risk = False
    for frame in group.frames:
        size = (frame.width, frame.height)
        sampler = samplers.get(size)
        if sampler is None:
            sampler = samplers[size] = _grid_sampler(*size, grid_dim)
        samples = sampler(frame.pixels)
        buf[::2] = samples
        lanes = int.from_bytes(buf, "little")
        if prev_lanes is not None:
            changed = ((lanes + offset - prev_lanes) & mask).bit_count()
            event = changed / count > fraction
        else:
            event = prev is not None and is_significant_increase(prev, samples, config)
        if event:
            ts = frame.capture_ts
            if last_change is not None and ts - last_change <= gap:
                risk = True
            last_change = ts
        prev = samples
        prev_lanes = lanes
    return risk, DetectorState(prev, last_change, prev_lanes)


class Detector(Protocol):
    """Per-category group analyzer with explicit, caller-held state."""

    def initial_state(self) -> object: ...

    def analyze_group(self, group: Group, state: object) -> tuple[bool, object]:
        """Return (risk, new_state); risk True means reject for this category."""
        ...


class StrobeDetector:
    """Detector adapter around the strobe analysis functions."""

    def __init__(self, config: StrobeConfig | None = None) -> None:
        self.config = config if config is not None else StrobeConfig()

    def initial_state(self) -> DetectorState:
        return DetectorState()

    def analyze_group(self, group: Group, state: object) -> tuple[bool, DetectorState]:
        assert isinstance(state, DetectorState)
        return analyze_group_strobe(group, state, self.config)


class FixedVerdictDetector:
    """Stub detector that always approves (or always rejects)."""

    def __init__(self, approve: bool = True) -> None:
        self.approve = approve

    def initial_state(self) -> None:
        return None

    def analyze_group(self, group: Group, state: object) -> tuple[bool, None]:
        return (not self.approve), None


class DetectorRegistry:
    """Maps category codes to detectors."""

    def __init__(self) -> None:
        self._detectors: dict[int, Detector] = {}

    def register(self, category: int, detector: Detector) -> None:
        category = _as_category(category)
        if category in self._detectors:
            raise ValueError(f"category {category!r} already registered")
        self._detectors[category] = detector

    def detector(self, category: int) -> Detector:
        try:
            return self._detectors[_as_category(category)]
        except KeyError:
            raise LookupError(f"no detector registered for category {category!r}") from None

    @property
    def categories(self) -> frozenset[int]:
        return frozenset(self._detectors)


def default_registry(
    strobe_config: StrobeConfig | None = None,
    smoking_approve: bool = True,
    alcohol_approve: bool = True,
) -> DetectorRegistry:
    """Registry with the real strobe detector plus stubs for the rest."""
    registry = DetectorRegistry()
    registry.register(Category.STROBE, StrobeDetector(strobe_config))
    registry.register(Category.SMOKING, FixedVerdictDetector(approve=smoking_approve))
    registry.register(Category.ALCOHOL, FixedVerdictDetector(approve=alcohol_approve))
    return registry


def analyze(
    group: Group,
    categories: tuple[int, ...],
    registry: DetectorRegistry,
    states: Mapping[int, object],
) -> tuple[Verdict, dict[int, object]]:
    """Run every requested category's detector over the group.

    `states` maps category -> detector state from the previous group; the
    returned dict carries the updated states.  Category order in the verdict
    follows the order given.  A detector that raises fails closed: its
    category is rejected, keeps its previous state, and the error is
    reported in ``Verdict.errors``.
    """
    approved: list[int] = []
    rejected: list[int] = []
    errors: list[tuple[int, str]] = []
    new_states = dict(states)
    for raw in categories:
        category = _as_category(raw)
        detector = registry.detector(category)
        state = new_states.get(category, detector.initial_state())
        try:
            risk, new_states[category] = detector.analyze_group(group, state)
        except Exception as exc:  # fail closed: withhold the category
            errors.append((category, str(exc)))
            risk = True
        (rejected if risk else approved).append(category)
    verdict = Verdict(group.group_id, tuple(approved), tuple(rejected), tuple(errors))
    return verdict, new_states


def predict_risky_groups(config: SourceConfig, detector_config: StrobeConfig) -> set[int]:
    """Predict which group ids the strobe detector will flag for a source.

    Synthetic frames are spatially uniform, so the detector's verdict is
    fully determined by the scheduled per-frame luma level; this replays
    that schedule without rendering any pixels.
    """
    # A uniform frame either trips every sample or none of them.
    uniform_counts = 1.0 > detector_config.changed_fraction_threshold
    risky: set[int] = set()
    prev: int | None = None
    last_change: int | None = None
    for k, ts, level in iter_frame_levels(config):
        event = (
            prev is not None
            and level - prev > detector_config.pixel_delta_threshold
            and uniform_counts
        )
        if event:
            if (
                last_change is not None
                and ts - last_change <= detector_config.max_interchange_gap_ms
            ):
                risky.add(k // config.frames_per_group)
            last_change = ts
        prev = level
    return risky
