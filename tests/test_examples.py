"""Smoke tests: the fast example scripts must run end to end.

Only the examples that finish in a few seconds run here (the
quickstart fast-forwards); the discharge-heavy demos (rotation study,
recovery, variable workload) are exercised indirectly by the benchmark
suite and documented in README.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    ("partitioning_explorer.py", []),
    ("yds_scheduling_demo.py", []),
    ("battery_models_demo.py", []),
    ("atr_image_demo.py", ["3"]),
    ("video_decode_demo.py", ["IBBP"]),
    ("quickstart.py", ["--fast"]),
]


@pytest.mark.parametrize("script,args", FAST_EXAMPLES, ids=lambda p: str(p))
def test_example_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"


def test_all_examples_have_docstrings_and_main():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.lstrip().startswith(('#!/usr/bin/env python3\n"""', '"""')), script
        assert 'if __name__ == "__main__":' in text, script
        assert "Usage::" in text, f"{script} lacks a usage block"
