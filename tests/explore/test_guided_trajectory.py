"""Pinned rung-0 trajectories of the guided sampler.

The sampler's proposals are a pure function of the space, the rung-0
budget and the scores seen so far, so its whole trajectory can be
pinned: the sampler report, every proposal batch, the set rung 0
promotes and, on the big space, every score it saw. The literals were
captured on the dict-based surrogate the array surrogate replaced; a
change to the sampler's arithmetic that moves any proposal fails here.

Rung 0 runs as the ladder runs it: ``RUNGS[0]`` over a guided ladder,
with the analytic prescreen as the scorer.
"""

import hashlib
import sys

import pytest

from repro.exec import SweepExecutor
from repro.explore import RUNGS, RungReport, default_space, halving
from repro.explore.halving import explore_fingerprint
from repro.explore.surrogate import guided_sample

KEEP = (512, 16, 1)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _rung0(space, monkeypatch):
    """Run rung 0 guided; return (sampler, batches, candidates, promoted)."""
    batches: list[list[int]] = []

    def recording(space, keep, evaluate, **kwargs):
        def evaluate_and_record(indices):
            batches.append(sorted(indices))
            return evaluate(indices)

        return guided_sample(space, keep, evaluate_and_record, **kwargs)

    monkeypatch.setattr(halving, "guided_sample", recording)
    ladder = halving._Ladder(
        space=space,
        keep=KEEP,
        limit=None,
        mode="guided",
        fingerprint=explore_fingerprint(space, KEEP, None),
        n_configs=space.size(),
        probe=2048,
        chunk_size=256,
        executor=SweepExecutor(jobs=1),
        registry=None,
    )
    rung = RUNGS[0]
    candidates = rung.score(ladder, [], RungReport(rung.name))
    promoted = rung.promotion(candidates, KEEP[0])
    return ladder.sampler, batches, candidates, promoted


def test_default_space_trajectory(monkeypatch):
    space = default_space()
    assert space.size() == 103_680
    sampler, batches, candidates, promoted = _rung0(space, monkeypatch)
    assert sampler == {
        "universe": 103_680,
        "probed": 28_830,
        "rounds": 5,
        "proposals": 28_830,
        "stop_reason": "stable",
    }
    assert [_digest(batch) for batch in batches] == [
        "00d5c15a7b9bb8e51e52e2b9265fcb4c46b52d97edb47aeeeebe58789e8fff69",
        "0cd754901edca55ad7c7eecb1ff4e8784c8a85fa2b56b4a9c5818d26925b8cc2",
        "997563a6edb9a6bdfbb171cf6cc7e10aa4f1a9f17dd8fd48e1cab3987bcecd2c",
        "d13ea2c63d3872e19a7fb50e166665d7dda00050c94e28d033463b0b0afbe66c",
        "0d14027a0d9ff00555ce007541167c0cd92998bb94914eb4301bd178a92c255d",
    ]
    assert len(candidates) == 21_563
    indices = sorted(c.config.index for c in promoted)
    assert len(indices) == KEEP[0]
    assert _digest(indices) == (
        "440fccb2a5387a4f747c684151329623619c092ccd188521064e8ee12dc39441"
    )


#: sha256 of ``sorted(scores.items())`` on the 1.24M space. CPython 3.12
#: made float ``sum()`` compensated (Neumaier), which moves the last bit
#: of some analytic prescreen scores; the sampler's own arithmetic uses
#: no ``sum()``, and its trajectory is the same on both. The 3.12 value
#: was computed on 3.11 with ``builtins.sum`` replaced by a Python
#: transcription of 3.12's float loop.
_BIG_SCORES = (
    "f0fdfe7347ec71ab27760aff9adc906a5297a62974784657534ab7e176f430f0"
    if sys.version_info < (3, 12)
    else "d78ab36f7b19c6b2016320497a403f345c0d496ef3d903b3d296d7f1d1ebdd39"
)


@pytest.mark.tier2
def test_big_space_trajectory(monkeypatch):
    space = default_space(
        chemistries=("kibam", "linear", "peukert"),
        deadlines=(1.8, 2.3, 3.0, 4.0),
    )
    assert space.size() == 1_244_160
    sampler, batches, candidates, _ = _rung0(space, monkeypatch)
    assert sampler == {
        "universe": 1_244_160,
        "probed": 58_755,
        "rounds": 6,
        "proposals": 58_755,
        "stop_reason": "stable",
    }
    assert [_digest(batch) for batch in batches] == [
        "c55b6508f045df2e4751d24b9a6202bba69b966f905eac17848c5b5b14ce3399",
        "0295d4742c3bd98a257eb5e028a0bfd191a29b3fb467dac91c0f4b3c6829d6d0",
        "ffaf442fc3229b5efcd77fa0aa4fe7fc652b6bfa1d459f448b93db47f0fac750",
        "e93835b1d939ffe8412926eecdc9b65066bcbe888268c2eae895cf4ba2b0325a",
        "1ab09f4dd38fa7cdaa136c211edd8f753c930d2664b74b51f38ec3366a114f1d",
        "a3b364cb7f37b49ebd70a13dfeaa6f637d780377e6405926837dedd7f1d81028",
    ]
    scores = sorted((c.config.index, c.score) for c in candidates)
    assert len(scores) == 45_650
    assert _digest(scores) == _BIG_SCORES
