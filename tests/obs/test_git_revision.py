"""``git_revision`` forks ``git`` once per process and directory."""

from __future__ import annotations

import os

from repro.obs import store
from repro.obs.store import git_revision


def test_resolved_once_per_directory(tmp_path, monkeypatch):
    calls = []
    run = store.subprocess.run

    def counting(*args, **kwargs):
        calls.append(kwargs["cwd"])
        return run(*args, **kwargs)

    monkeypatch.setattr(store.subprocess, "run", counting)
    store._git_revision.cache_clear()
    try:
        sha = git_revision()
        assert git_revision() == sha == git_revision(os.getcwd())
        assert calls == [os.getcwd()]
        git_revision(tmp_path)
        git_revision(tmp_path)
        assert calls == [os.getcwd(), str(tmp_path)]
    finally:
        store._git_revision.cache_clear()
