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
        "events": 1274,
        "trace_sha256": "033a4a5991f6a6c239a9c0f40994845a14e84095cc9614ee35c8d4480fed6334",
        "link_transactions": {"host->node1": 97, "node1->host": 96},
        "stage_stalls": {"node1": 55},
        "level_switches": {"node1": 1},
        "result_times_sha256": "18ab32ac236aa4508216a90b664cd7eab05d3b24a026ed6b22a21f825f195903",
    },
    "1A": {
        "frames": 113,
        "t_hours": "0.07219444444444444",
        "death_times_s": {"node1": "260.1998651636498"},
        "events": 1493,
        "trace_sha256": "7699611dc80328e01762bf46c95e8b447c594842baad4302e0e65eea05f45f8e",
        "link_transactions": {"host->node1": 114, "node1->host": 113},
        "stage_stalls": {"node1": 70},
        "level_switches": {"node1": 226},
        "result_times_sha256": "9f811b64c83da688945680f0c2d759c042f8f7d7a656ceefe3602a99aecee544",
    },
    "2": {
        "frames": 160,
        "t_hours": "0.10286111111111111",
        "death_times_s": {"node2": "370.4555554976656"},
        "events": 2615,
        "trace_sha256": "036b06041feb48cb4e220794a28994a102fa36674de061c3e4da62f349e02485",
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
        "events": 2648,
        "trace_sha256": "02061e67255e0d059c32e6ff58c8224e192fabb975d6859bd4b789af28c48d58",
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
        "events": 5088,
        "trace_sha256": "98e375a00f1ae3513a6a116d969a1804c79c37ac0a1ec1934ce1c576ae032564",
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
        "events": 3220,
        "trace_sha256": "cb1eb73c53850d3fdaf2121fe2119ebd5e292ef416e1ccab0124b3563084bcb0",
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
    "1": (123697, 9509, "6.075194444444444", {"node1": "21872.122927927827"}),
    "1A": (162174, 12467, "7.965027777777777", {"node1": "28675.815811168977"}),
    "2": (357031, 22307, "14.252333333333334", {"node2": "51308.84029005006"}),
    "2A": (363497, 22711, "14.510444444444444", {"node2": "52238.50073938821"}),
    "2B": (
        672365,
        25724,
        "16.435416666666665",
        {"node1": "59594.045160177244", "node2": "48528.02174457514"},
    ),
    "2C": (490034, 30653, "19.5845", {"node2": "70505.31900566531"}),
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
