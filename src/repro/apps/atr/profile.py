"""The profiled task model of ATR: the paper's Fig. 6.

The distributed experiments do not simulate pixels — they consume a
:class:`TaskProfile`: per-block execution time at the peak clock rate
plus the payload each block emits. Fig. 6 gives these numbers for the
Itsy:

=================  ================  ==============
block              time @ 206.4 MHz  output payload
=================  ================  ==============
Target Detection   0.18 s            0.6 KB
FFT                0.19 s            7.5 KB
IFFT               0.32 s            7.5 KB
Compute Distance   0.53 s            0.1 KB
=================  ================  ==============

with a 10.1 KB input frame. The block times sum to 1.22 s while the
text states the whole iteration takes 1.1 s at full speed; the paper's
own partitioning arithmetic (scheme 1 -> 59 / 103.2 MHz) is consistent
with the 1.1 s total, so :data:`PAPER_PROFILE` scales the blocks by
1.1/1.22 and :data:`PAPER_PROFILE_RAW` keeps the raw figures. The
discrepancy and this choice are recorded in DESIGN.md.

:func:`measure_profile` re-derives a profile by timing the *real*
blocks (:mod:`repro.apps.atr.blocks`) on this machine and renormalizing
to the Itsy timescale — demonstrating the workflow the paper's authors
used to build Fig. 6.
"""

from __future__ import annotations

import dataclasses
import time
import typing as t

import numpy as np

from repro.apps.atr.image import SceneSpec, generate_scene
from repro.apps.atr.reference import ATRPipeline
from repro.errors import ConfigurationError
from repro.units import kb_to_bytes

__all__ = [
    "BlockProfile",
    "TaskProfile",
    "PAPER_PROFILE_RAW",
    "PAPER_PROFILE",
    "measure_profile",
]


@dataclasses.dataclass(frozen=True)
class BlockProfile:
    """One functional block's cost model.

    Attributes
    ----------
    name:
        Block label ("target_detection", ...).
    seconds_at_max:
        Execution time at the fastest DVS level.
    output_bytes:
        Payload the block hands to its successor (or the destination).
    """

    name: str
    seconds_at_max: float
    output_bytes: int

    def __post_init__(self) -> None:
        if self.seconds_at_max < 0:
            raise ConfigurationError(f"block {self.name}: negative time")
        if self.output_bytes < 0:
            raise ConfigurationError(f"block {self.name}: negative payload")


@dataclasses.dataclass(frozen=True)
class TaskProfile:
    """An ordered block chain with its input payload (Fig. 6).

    Attributes
    ----------
    blocks:
        The functional blocks in dataflow order.
    input_bytes:
        Size of the raw frame arriving from the source.
    """

    blocks: tuple[BlockProfile, ...]
    input_bytes: int

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ConfigurationError("a task profile needs at least one block")
        if self.input_bytes < 0:
            raise ConfigurationError("negative input payload")

    # -- whole-chain quantities -----------------------------------------
    @property
    def total_seconds_at_max(self) -> float:
        """End-to-end PROC time at the fastest level (paper: 1.1 s)."""
        return sum(b.seconds_at_max for b in self.blocks)

    @property
    def output_bytes(self) -> int:
        """Final result payload (paper: 0.1 KB)."""
        return self.blocks[-1].output_bytes

    @property
    def names(self) -> tuple[str, ...]:
        """Block names in order."""
        return tuple(b.name for b in self.blocks)

    # -- segment quantities (for partitioning) ----------------------------
    def segment_seconds(self, start: int, stop: int) -> float:
        """PROC time at f_max of blocks[start:stop]."""
        self._check_range(start, stop)
        return sum(b.seconds_at_max for b in self.blocks[start:stop])

    def segment_input_bytes(self, start: int) -> int:
        """Bytes entering blocks[start]: the predecessor's output."""
        if not 0 <= start < len(self.blocks):
            raise ConfigurationError(f"block index {start} out of range")
        return self.input_bytes if start == 0 else self.blocks[start - 1].output_bytes

    def segment_output_bytes(self, stop: int) -> int:
        """Bytes leaving blocks[stop-1]."""
        if not 0 < stop <= len(self.blocks):
            raise ConfigurationError(f"block index {stop} out of range")
        return self.blocks[stop - 1].output_bytes

    def _check_range(self, start: int, stop: int) -> None:
        if not 0 <= start < stop <= len(self.blocks):
            raise ConfigurationError(
                f"invalid block range [{start}, {stop}) for {len(self.blocks)} blocks"
            )

    def scaled(self, total_seconds: float) -> "TaskProfile":
        """Renormalize block times so the chain totals ``total_seconds``."""
        if total_seconds <= 0:
            raise ConfigurationError("total time must be positive")
        factor = total_seconds / self.total_seconds_at_max
        return TaskProfile(
            blocks=tuple(
                dataclasses.replace(b, seconds_at_max=b.seconds_at_max * factor)
                for b in self.blocks
            ),
            input_bytes=self.input_bytes,
        )

    def with_blocks_scaled(
        self, names: t.Collection[str], factor: float
    ) -> "TaskProfile":
        """Scale the compute time of the named blocks only.

        Models algorithm variants that grow specific stages — e.g.
        multi-scale/rotation template matching multiplies the FFT and
        IFFT correlation work by the variant count while detection and
        distance stay put. Payloads are unchanged.

        Raises
        ------
        ConfigurationError
            If the factor is non-positive or a name is unknown.
        """
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive: {factor}")
        unknown = set(names) - set(self.names)
        if unknown:
            raise ConfigurationError(f"unknown blocks: {sorted(unknown)}")
        return TaskProfile(
            blocks=tuple(
                dataclasses.replace(b, seconds_at_max=b.seconds_at_max * factor)
                if b.name in names
                else b
                for b in self.blocks
            ),
            input_bytes=self.input_bytes,
        )


#: Fig. 6 verbatim: raw per-block times (sum 1.22 s) and payloads.
PAPER_PROFILE_RAW = TaskProfile(
    blocks=(
        BlockProfile("target_detection", 0.18, kb_to_bytes(0.6)),
        BlockProfile("fft", 0.19, kb_to_bytes(7.5)),
        BlockProfile("ifft", 0.32, kb_to_bytes(7.5)),
        BlockProfile("compute_distance", 0.53, kb_to_bytes(0.1)),
    ),
    input_bytes=kb_to_bytes(10.1),
)

#: Fig. 6 normalized to the paper's stated 1.1 s total PROC time —
#: the profile every experiment uses.
PAPER_PROFILE = PAPER_PROFILE_RAW.scaled(1.1)


def measure_profile(
    pipeline: ATRPipeline | None = None,
    spec: SceneSpec | None = None,
    seed: int = 0,
    repeats: int = 5,
    itsy_total_seconds: float = 1.1,
    frames: int = 1,
) -> TaskProfile:
    """Derive a :class:`TaskProfile` by timing the real blocks.

    Runs the reference pipeline stage by stage on ``frames`` synthetic
    scenes, takes the median of ``repeats`` wall-clock timings per
    stage, and rescales so the chain totals ``itsy_total_seconds``
    (this machine is not a 206 MHz StrongARM). Payload sizes are taken
    from the actual intermediate objects, reported per frame.

    With ``frames > 1`` the stages run on the whole batch at once —
    exactly the :meth:`~repro.apps.atr.reference.ATRPipeline.run_batch`
    dataflow — so the profile reflects steady-state batched throughput:
    template spectra come from the warm cache and FFT/IFFT are stacked
    transforms. Block times are still whole-stage wall clock; since the
    profile is renormalized, only the relative weights matter.

    The relative block weights will differ from Fig. 6 — numpy's FFT is
    far better optimized relative to the scalar detection loop than the
    Itsy's code was — which is precisely why the paper-faithful
    experiments use :data:`PAPER_PROFILE` and this function exists for
    methodology demonstrations.
    """
    if frames < 1:
        raise ConfigurationError(f"frames must be >= 1, got {frames}")
    pipeline = pipeline or ATRPipeline()
    spec = spec or SceneSpec()
    rng = np.random.default_rng(seed)
    scenes = [generate_scene(spec, rng) for _ in range(frames)]

    def median_time(fn: t.Callable[[], t.Any]) -> tuple[float, t.Any]:
        times = []
        result = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times)), result

    t_detect, regions_per_frame = median_time(
        lambda: [pipeline.stage_detect(scene.image) for scene in scenes]
    )
    regions = [roi for frame in regions_per_frame for roi in frame]
    t_fft, spectra = median_time(lambda: pipeline.stage_fft(regions))
    t_ifft, peaks = median_time(lambda: pipeline.stage_ifft(spectra))
    t_dist, records = median_time(lambda: pipeline.stage_distance(peaks))

    def payload(objects: t.Any, fallback: int) -> int:
        try:
            arrays = []
            for obj in objects:
                for name, field in vars(obj).items():
                    if name == "stacked":
                        continue  # views of the per-template spectra dict
                    if isinstance(field, np.ndarray):
                        arrays.append(field.nbytes)
                    elif isinstance(field, dict):
                        arrays.extend(
                            v.nbytes for v in field.values() if isinstance(v, np.ndarray)
                        )
            return round(sum(arrays) / frames) or fallback
        except TypeError:
            return fallback

    measured = TaskProfile(
        blocks=(
            BlockProfile("target_detection", t_detect, payload(regions, 600)),
            BlockProfile("fft", t_fft, payload(spectra, 7500)),
            BlockProfile("ifft", t_ifft, payload(peaks, 7500)),
            BlockProfile(
                "compute_distance", t_dist, 16 + round(24 * len(records) / frames)
            ),
        ),
        input_bytes=scenes[0].nbytes,
    )
    return measured.scaled(itsy_total_seconds)
