"""Exact-mode fingerprints of the eight paper experiments.

Exact simulation is the reference every other mode is checked against,
so any change to its per-event code (node power states, kernel pushes,
link rendezvous, engine hops) must leave every simulated number and
every kernel event where it was. The literals below pin, per
experiment on the tiny test cell:

- frames, ``repr(t_hours)`` and the per-node death times;
- kernel events dispatched, link transactions per direction (in link
  creation order), per-node rendezvous stalls (``io_stalls``, reported
  as ``stage_stalls``) and DVS level switches;
- the sha256 of the delivered-result timestamps;
- the sha256 of the ``trace=True`` segment list.

The tier2 class pins the paper-scale kernel event counts (with frames,
lifetimes and death times) of all eight experiments.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.experiments import PAPER_EXPERIMENTS, run_experiment
from tests.conftest import tiny_battery_factory


def _sha256(payload: object) -> str:
    """Digest of a JSON-encodable value; floats encode by ``repr``."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


#: Tiny-cell fingerprints of every paper experiment in exact mode.
TINY = {
    "0A": {
        "frames": 143,
        "t_hours": "0.043826952562462065",
        "death_times_s": {"node1": "157.77702922486344"},
        "events": 153,
        "trace_sha256": "0684536cce5c5d94b9e0c0651f31b06aa509807fedb4a93d83df81dbed5a6b54",
    },
    "0B": {
        "frames": 154,
        "t_hours": "0.09456104191026166",
        "death_times_s": {"node1": "340.419750876942"},
        "events": 164,
        "trace_sha256": "84888cb9679623340b67e072fcc2827d986bb8afb8cb58309577381906a9f5d5",
    },
    "1": {
        "frames": 96,
        "t_hours": "0.06133333333333333",
        "death_times_s": {"node1": "222.88219797111987"},
        "events": 1075,
        "trace_sha256": "baa1b4af71820ac7a576c99904bf26e9c8c4e5228dceea2a2bc4ccd24ea5787c",
        "link_transactions": {"host->node1": 97, "node1->host": 96},
        "stage_stalls": {"node1": 55},
        "level_switches": {"node1": 1},
        "result_times_sha256": "18ab32ac236aa4508216a90b664cd7eab05d3b24a026ed6b22a21f825f195903",
    },
    "1A": {
        "frames": 113,
        "t_hours": "0.07219444444444444",
        "death_times_s": {"node1": "260.1998651636498"},
        "events": 1260,
        "trace_sha256": "b39020d4b25e7ebfb3fe61f9ee0c75f7fb50f664e88169b89f30ceb8bb298382",
        "link_transactions": {"host->node1": 114, "node1->host": 113},
        "stage_stalls": {"node1": 70},
        "level_switches": {"node1": 226},
        "result_times_sha256": "9f811b64c83da688945680f0c2d759c042f8f7d7a656ceefe3602a99aecee544",
    },
    "2": {
        "frames": 160,
        "t_hours": "0.10286111111111111",
        "death_times_s": {"node2": "370.4555554976656"},
        "events": 2272,
        "trace_sha256": "7f0576f8c9e282deeffe8eb0dccbcb52d8df6a2d86f62d172ada61a52fdb110e",
        "link_transactions": {
            "host->node1": 162,
            "node1->host": 0,
            "host->node2": 0,
            "node2->host": 160,
            "node1->node2": 161,
            "node2->node1": 0,
        },
        "stage_stalls": {"node1": 162, "node2": 161},
        "level_switches": {"node1": 0, "node2": 1},
        "result_times_sha256": "a3381fa8df263832106f70cfcb869b848ab1d7530b085cab703bda47033ba59c",
    },
    "2A": {
        "frames": 162,
        "t_hours": "0.10413888888888888",
        "death_times_s": {"node2": "374.8517389915723"},
        "events": 2301,
        "trace_sha256": "ece638bb5e3f6477cf777eb1e81320d2d0eb0f0bd95cefc8e5000f62e1a889a1",
        "link_transactions": {
            "host->node1": 164,
            "node1->host": 0,
            "host->node2": 0,
            "node2->host": 162,
            "node1->node2": 163,
            "node2->node1": 0,
        },
        "stage_stalls": {"node1": 164, "node2": 163},
        "level_switches": {"node1": 0, "node2": 325},
        "result_times_sha256": "a85788d7fcb7c8d83ae583746624ee73dcca3fe8dc40a2a20b9b3be4edfa8647",
    },
    "2B": {
        "frames": 196,
        "t_hours": "0.1258611111111111",
        "death_times_s": {"node1": "466.1419552836968", "node2": "357.2492138695642"},
        "events": 4684,
        "trace_sha256": "a443f0a4bee2820c64bd57adde46e4b9a6cdf7d0d8a8da6b78f5b20f9cb97307",
        "link_transactions": {
            "host->node1": 199,
            "node1->host": 42,
            "host->node2": 0,
            "node2->host": 154,
            "node1->node2": 155,
            "node2->node1": 155,
        },
        "stage_stalls": {"node1": 311, "node2": 155},
        "level_switches": {"node1": 396, "node2": 309},
        "result_times_sha256": "048ce0fc8ebd7b2ba9e4852c1465b6151a4d567f2a8e3cddfc1c6c9f6c2314e3",
    },
    "2C": {
        "frames": 199,
        "t_hours": "0.12777777777777777",
        "death_times_s": {"node1": "458.9231111087762", "node2": "462.02362223821115"},
        "events": 2816,
        "trace_sha256": "cbd681e997cfef05c577cf2ac490f509828abd25f296aa22329c461e92bd6b9f",
        "link_transactions": {
            "host->node1": 100,
            "node1->host": 99,
            "host->node2": 100,
            "node2->host": 100,
            "node1->node2": 99,
            "node2->node1": 99,
        },
        "stage_stalls": {"node1": 198, "node2": 200},
        "level_switches": {"node1": 199, "node2": 200},
        "result_times_sha256": "7fa3caf610c8b2d8e9823045fbc7c6309733177e51473ae1831a0de550ae51eb",
    },
}

#: Paper-scale (default battery) exact runs: kernel events, frames,
#: lifetime and death times.
PAPER = {
    "0A": (11244, 11218, "3.4280118926982417", {"node1": "12340.84281371367"}),
    "0B": (20561, 20507, "12.532124459220007", {"node1": "45115.648053192024"}),
    "1": (104671, 9509, "6.075194444444444", {"node1": "21872.122927927827"}),
    "1A": (137233, 12467, "7.965027777777777", {"node1": "28675.815811168977"}),
    "2": (312394, 22307, "14.252333333333334", {"node2": "51308.84029005006"}),
    "2A": (318052, 22711, "14.510444444444444", {"node2": "52238.50073938821"}),
    "2B": (
        620965,
        25724,
        "16.435416666666665",
        {"node1": "59594.045160177244", "node2": "48528.02174457514"},
    ),
    "2C": (428399, 30653, "19.5845", {"node2": "70505.31900566531"}),
}


def _deaths(run) -> dict[str, str]:
    return {name: repr(t) for name, t in sorted(run.death_times_s.items())}


@pytest.mark.parametrize("label", sorted(TINY))
def test_tiny_cell_fingerprint(label):
    expected = TINY[label]
    run = run_experiment(PAPER_EXPERIMENTS[label], battery_factory=tiny_battery_factory)
    assert run.frames == expected["frames"]
    assert repr(run.t_hours) == expected["t_hours"]
    assert _deaths(run) == expected["death_times_s"]
    assert run.sim_events == expected["events"]
    result = run.pipeline
    if result is None:
        assert "link_transactions" not in expected
    else:
        assert result.events_processed == expected["events"]
        # Key order too: it is link creation order, which tables print.
        assert list(result.link_transactions.items()) == list(
            expected["link_transactions"].items()
        )
        assert result.stage_stalls == expected["stage_stalls"]
        assert result.level_switches == expected["level_switches"]
        assert _sha256(result.result_times_s) == expected["result_times_sha256"]

    traced = run_experiment(
        PAPER_EXPERIMENTS[label], battery_factory=tiny_battery_factory, trace=True
    )
    # Recording a trace observes the run without changing it.
    assert (traced.frames, traced.sim_events) == (run.frames, run.sim_events)
    assert _sha256(traced.trace.as_dict()) == expected["trace_sha256"]


@pytest.mark.tier2
class TestPaperScale:
    """Full paper battery, exact mode: about ten seconds for all eight."""

    @pytest.mark.parametrize("label", sorted(PAPER))
    def test_events_processed(self, label):
        events, frames, t_hours, deaths = PAPER[label]
        run = run_experiment(PAPER_EXPERIMENTS[label])
        assert run.sim_events == events
        assert run.frames == frames
        assert repr(run.t_hours) == t_hours
        assert _deaths(run) == deaths
