"""Content-addressed result caching for experiment sweeps.

A cache key is a SHA-256 digest of a *canonical encoding* of whatever
configuration objects produced a result — experiment specs, policies,
power models, plain kwargs — plus a code-version salt. Two runs with
identical configuration hash to the same key; any change to the
configuration (or to the salt, bumped when simulation semantics change)
produces a different key and therefore a miss. Values are JSON
payloads stored one-file-per-key under a cache directory, safe to
delete at any time. A run's events are one compressed column blob in
its payload (:meth:`repro.obs.events.EventLog.as_dict`); to read them,
export the run with ``repro trace --export jsonl``.

The encoding is intentionally *structural*: dataclasses encode as
their type plus field values, generic objects as their type plus public
attributes, functions and classes by qualified name. Anything the
encoder does not understand raises — silently mis-keying a cache entry
is the one failure mode a result cache must never have.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import typing as t

from repro.errors import ConfigurationError

__all__ = ["CACHE_SALT", "canonical", "stable_key", "ResultCache"]

#: Bumped whenever a change alters simulation results without altering
#: any configuration object (kernel semantics, battery integration,
#: protocol fixes). Stale entries then miss instead of lying. Payload
#: formats identify themselves instead: a hit whose payload does not
#: decode (:class:`~repro.errors.PayloadFormatError`) is recounted as a
#: miss and recomputed, and the salt, which flight-journal rows carry in
#: their cache keys, stays put.
CACHE_SALT = "substrate-3"

_PRIMITIVES = (str, int, bool, type(None))


def canonical(obj: t.Any) -> t.Any:
    """Encode ``obj`` as a JSON-stable structure for hashing.

    Raises
    ------
    ConfigurationError
        If ``obj`` (or anything it contains) has no canonical form.
    """
    if isinstance(obj, _PRIMITIVES):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; json.dumps floats do too,
        # but being explicit keeps the key independent of json details.
        return ["f", repr(obj)]
    if isinstance(obj, enum.Enum):
        return ["enum", f"{type(obj).__module__}.{type(obj).__qualname__}", obj.name]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        items = sorted(
            (canonical(item) for item in obj),
            key=lambda e: json.dumps(e, sort_keys=True),
        )
        return ["set", items]
    if isinstance(obj, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in obj.items()]
        pairs.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["map", pairs]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = [
            [f.name, canonical(getattr(obj, f.name))]
            for f in dataclasses.fields(obj)
        ]
        return ["dc", f"{type(obj).__module__}.{type(obj).__qualname__}", fields]
    if isinstance(obj, type) or callable(obj):
        module = getattr(obj, "__module__", None)
        qualname = getattr(obj, "__qualname__", None)
        if module is None or qualname is None or "<locals>" in qualname:
            raise ConfigurationError(
                f"cannot canonically encode {obj!r}: only module-level "
                "functions and classes have a stable identity"
            )
        return ["fn", f"{module}.{qualname}"]
    # Generic object: type identity + public attribute state. Private
    # (underscore) attributes are derived caches by this codebase's
    # convention and must not leak into the key.
    state: dict[str, t.Any] = {}
    if hasattr(obj, "__dict__"):
        state.update(obj.__dict__)
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                state.setdefault(slot, getattr(obj, slot))
    if not state and not hasattr(obj, "__dict__"):
        raise ConfigurationError(f"cannot canonically encode {obj!r}")
    public = [
        [name, canonical(value)]
        for name, value in sorted(state.items())
        if not name.startswith("_")
    ]
    return ["obj", f"{type(obj).__module__}.{type(obj).__qualname__}", public]


def stable_key(*parts: t.Any, salt: str = "") -> str:
    """SHA-256 hex digest of the canonical encoding of ``parts``."""
    encoded = json.dumps(
        [salt, [canonical(p) for p in parts]],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class ResultCache:
    """One-file-per-key JSON store under a cache directory.

    Parameters
    ----------
    root:
        Cache directory (created lazily). Default ``.repro-cache`` in
        the current working directory.
    salt:
        Extra key material mixed into every key. Defaults to the
        package version plus :data:`CACHE_SALT`, so upgrading the code
        or bumping the salt invalidates every prior entry without
        touching the files.

    Notes
    -----
    The cache is *tolerant*: a corrupted, truncated, or unreadable
    entry behaves as a miss (and is removed when possible), never as an
    error — a cache must only ever trade time, not correctness.
    """

    def __init__(self, root: str | os.PathLike = ".repro-cache", salt: str | None = None):
        if salt is None:
            import repro

            salt = f"{repro.__version__}/{CACHE_SALT}"
        self.root = pathlib.Path(root)
        self.salt = salt
        self.hits = 0
        self.misses = 0

    # -- keys -----------------------------------------------------------
    def key_for(self, *parts: t.Any) -> str:
        """Stable key for a configuration, mixed with this cache's salt."""
        return stable_key(*parts, salt=self.salt)

    def path_for(self, key: str) -> pathlib.Path:
        """Where ``key``'s payload lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    # -- store ----------------------------------------------------------
    def get(self, key: str) -> t.Any | None:
        """The payload stored under ``key``, or None on miss/corruption.

        Only :meth:`put`'s envelope is a hit. Anything else under the
        key (unparseable bytes, a bare JSON value, an envelope without
        ``payload``) is a counted miss and is unlinked, so the caller
        recomputes and rewrites the entry.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, UnicodeDecodeError):
            entry = None
        if (
            isinstance(entry, dict)
            and entry.get("__repro_cache__") == 1
            and "payload" in entry
        ):
            self.hits += 1
            return entry["payload"]
        # Corrupted or foreign entry: drop it and recompute.
        self.misses += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing cleanup
            pass
        return None

    def reject(self, key: str) -> None:
        """Undo a :meth:`get` hit whose payload did not decode.

        The lookup is recounted as a miss and the entry unlinked, so the
        caller recomputes and rewrites it, as for a corrupted entry.
        """
        self.hits -= 1
        self.misses += 1
        try:
            self.path_for(key).unlink()
        except OSError:  # pragma: no cover - racing cleanup
            pass

    def put(self, key: str, payload: t.Any) -> None:
        """Store ``payload`` (JSON-serializable) under ``key``.

        The write is atomic (temp file + rename), so a killed process
        can truncate at most its own temp file, never a live entry.
        Payloads are wrapped in a small envelope carrying the writing
        salt — the salt is already part of the key, so this changes no
        lookup, but it lets :meth:`info`/:meth:`prune` attribute and
        evict entries stranded by a salt bump.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        envelope = {"__repro_cache__": 1, "salt": self.salt, "payload": payload}
        # One-shot dumps: json.dump streams through the pure-Python
        # encoder, dumps takes the C one (same bytes, ~4x faster).
        text = json.dumps(envelope, separators=(",", ":"))
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except OSError:
            # A read-only or full disk degrades to "no cache", silently.
            try:
                tmp.unlink()
            except OSError:
                pass

    # -- lifecycle -------------------------------------------------------
    def _entries(self) -> list[tuple[pathlib.Path, int, float, str]]:
        """(path, bytes, mtime, salt) per entry; unreadable ones skipped."""
        out: list[tuple[pathlib.Path, int, float, str]] = []
        if not self.root.exists():
            return out
        for path in sorted(self.root.rglob("*.json")):
            try:
                stat = path.stat()
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError, UnicodeDecodeError):
                continue
            salt = "(unversioned)"
            if isinstance(payload, dict) and payload.get("__repro_cache__") == 1:
                salt = str(payload.get("salt", "(unversioned)"))
            out.append((path, stat.st_size, stat.st_mtime, salt))
        return out

    def info(self) -> dict[str, t.Any]:
        """Entry counts and sizes, overall and per writing salt.

        Entries whose salt differs from this cache's current salt can
        never hit again (the salt is key material) — they are the
        stranded mass ``prune(stale_only=True)`` reclaims.
        """
        entries = self._entries()
        by_salt: dict[str, dict[str, int]] = {}
        for _, size, _, salt in entries:
            bucket = by_salt.setdefault(salt, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        stale = sum(
            bucket["entries"]
            for salt, bucket in by_salt.items()
            if salt != self.salt
        )
        return {
            "root": str(self.root),
            "current_salt": self.salt,
            "entries": len(entries),
            "bytes": sum(size for _, size, _, _ in entries),
            "stale_entries": stale,
            "salts": {salt: by_salt[salt] for salt in sorted(by_salt)},
        }

    def prune(
        self,
        max_age_days: float | None = None,
        max_bytes: int | None = None,
        stale_only: bool = False,
    ) -> int:
        """Evict entries; returns the number of files removed.

        ``stale_only`` removes entries written under a different salt
        (unversioned ones included). ``max_age_days`` removes entries
        older than the cutoff (by mtime). ``max_bytes`` then evicts
        oldest-first until the remainder fits. Criteria compose; with
        none given this is a no-op.
        """
        import time

        entries = self._entries()
        doomed: set[pathlib.Path] = set()
        if stale_only:
            doomed.update(p for p, _, _, salt in entries if salt != self.salt)
        if max_age_days is not None:
            cutoff = time.time() - max_age_days * 86400.0
            doomed.update(p for p, _, mtime, _ in entries if mtime < cutoff)
        if max_bytes is not None:
            survivors = [e for e in entries if e[0] not in doomed]
            total = sum(size for _, size, _, _ in survivors)
            # Oldest first; path as tie-break keeps eviction deterministic.
            for path, size, _, _ in sorted(
                survivors, key=lambda e: (e[2], str(e[0]))
            ):
                if total <= max_bytes:
                    break
                doomed.add(path)
                total -= size
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number of files removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultCache {self.root} hits={self.hits} misses={self.misses}>"
