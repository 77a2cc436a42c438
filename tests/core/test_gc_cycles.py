"""The exact simulation leaves no per-frame work for the cyclic GC.

Kernel conditions detach from constituents that did not fire and a
finished transfer does not point back at itself, so a frame's events,
conditions and transfers are freed by reference counting. Buffered
telemetry sits in a columnar buffer the collector does not track. Both
tests count objects with the collector switched off; no timing.
"""

from __future__ import annotations

import dataclasses
import functools
import gc

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
from repro.hw.battery.kibam import PAPER_KIBAM_PARAMETERS, KiBaM
from repro.obs import EventLog


def _frames_and_garbage(capacity_divisor: int) -> tuple[int, int]:
    """Frames of one exact telemetry run, and the cyclic garbage it left."""
    params = dataclasses.replace(
        PAPER_KIBAM_PARAMETERS,
        capacity_mah=PAPER_KIBAM_PARAMETERS.capacity_mah / capacity_divisor,
    )
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run = run_experiment(
            PAPER_EXPERIMENTS["1"],
            battery_factory=functools.partial(KiBaM, params),
            mode="exact",
            telemetry=True,
            monitor_interval_s=60.0,
        )
        frames = run.frames
        del run
        garbage = gc.collect()
    finally:
        if enabled:
            gc.enable()
    return frames, garbage


def test_exact_run_garbage_does_not_grow_with_frames():
    small_frames, small = _frames_and_garbage(100)
    big_frames, big = _frames_and_garbage(10)
    assert big_frames >= 8 * small_frames
    # A per-run constant: the simulator's own object graph plus a few
    # objects per battery-death solve, not a handful per frame.
    assert big < 400
    assert big - small < (big_frames - small_frames) / 4


def test_buffered_emits_add_no_tracked_objects():
    log = EventLog()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(10_000):
            log.emit(
                "link.xfer", i * 0.5, "node1",
                to="node2", bytes=600, duration_s=0.19, frame=i,
            )
        added = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(log) == 10_000
    assert added < 50
