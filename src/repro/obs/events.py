"""The structured event bus: typed telemetry records with a null sink.

The paper's entire evidence chain is instrumentation — Itsy's on-board
power monitor plus the timing/power traces of Figs. 2, 3, 7 and 9.
:class:`EventLog` is the machine-readable generalization: every layer
of the testbed (sim kernel, links, nodes, pipeline protocols) publishes
:class:`TelemetryEvent` records into one ordered log, timestamped in
*simulated* seconds so identical seeds produce identical logs.

Null-sink contract
------------------
Emitters guard every publication with ``if obs:``: a disabled log (or
``None``) is falsy, so wired-in instrumentation costs one truthiness
check. The tier-1 null-sink test pins it: a run with events off stores,
buffers and drops no records and makes no energy-ledger adds, while its
metrics stay live.

Event kinds are dotted strings, namespaced by layer:

=====================  ====================================================
kind                   emitted by
=====================  ====================================================
``kernel.run``         :class:`repro.sim.kernel.Simulator` (run loop exit)
``kernel.process``     :class:`repro.sim.kernel.Simulator` (process start)
``link.xfer``          :class:`repro.hw.link.SerialLink` (rendezvous match)
``link.stall``         :class:`repro.hw.node.ItsyNode` (blocked rendezvous)
``dvs.switch``         :class:`repro.hw.node.ItsyNode` (level change)
``battery.draw``       :class:`repro.hw.node.ItsyNode` (state-of-charge sample)
``battery.dead``       :class:`repro.hw.node.ItsyNode`
``frame.emit``         :class:`repro.pipeline.engine.PipelineEngine`
``frame.result``       :class:`repro.pipeline.engine.PipelineEngine`
``proc.block``         :class:`repro.pipeline.engine.PipelineEngine`
``recovery.migrate``   :class:`repro.pipeline.engine.PipelineEngine`
``rotation.reconfig``  :class:`repro.pipeline.engine.PipelineEngine`
``ff.epoch``           :class:`repro.sim.fastforward.FastForwardController`
``log.truncated``      :class:`EventLog` (terminal marker, see :meth:`~EventLog.seal`)
=====================  ====================================================

``ff.epoch`` is the coalesced record of one fast-forward jump
(``mode="fast"`` only): the frames, periods, per-node drain, per-sender
link busy time and post-jump charge fractions that epoch skipping took
out of the stream; :mod:`repro.obs.checks` monitors fold them back into
their counts. ``battery.draw`` events are the discharge samples (the
paper's power-monitor view), one per battery segment closing at least
``monitor_interval_s`` after the node's previous sample.
:func:`discharge_curves` turns them, and each ``ff.epoch``'s post-jump
charge, into per-node curves for the figures, reports and exporters.
"""

from __future__ import annotations

import base64
import collections
import dataclasses
import hashlib
import itertools
import json
import typing as t
import zlib
from operator import itemgetter

import numpy as np

from repro.errors import decoding

__all__ = ["TelemetryEvent", "EventLog", "NULL_LOG", "discharge_curves"]


@dataclasses.dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """One structured telemetry record.

    Attributes
    ----------
    kind:
        Dotted event type (``"link.xfer"``, ``"dvs.switch"``, ...).
    ts:
        Simulated time of the event in seconds.
    actor:
        Name of the node/link/process the event belongs to ("" if none).
    data:
        JSON-serializable details (payload sizes, levels, frame ids...).
    """

    kind: str
    ts: float
    actor: str = ""
    data: dict[str, t.Any] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> dict[str, t.Any]:
        """JSON-stable dict form (see :func:`from_dict`)."""
        return {"kind": self.kind, "ts": self.ts, "actor": self.actor,
                "data": dict(self.data)}

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "TelemetryEvent":
        """Rebuild an event from :meth:`as_dict` output (bit-identical)."""
        return cls(payload["kind"], payload["ts"], payload.get("actor", ""),
                   dict(payload.get("data", {})))


class EventLog:
    """Ordered, bounded store of telemetry events, kept as four columns.

    Parameters
    ----------
    enabled:
        ``False`` makes the log a null sink: it is falsy and :meth:`emit`
        is a no-op, so wired-in instrumentation costs one branch.
    max_events:
        Hard cap on stored records; further emissions are counted in
        :attr:`dropped` instead, bounding memory on very long runs.

    Notes
    -----
    Truthiness is the null-sink check: ``bool(log)`` is ``enabled``, so
    emitters write ``if obs: obs.emit(...)``. (Hot-loop emitters
    normalize a falsy log to ``None``, so the per-emit branch is a
    C-level ``None`` test.) The log holds *simulated* time only, which
    makes event logs comparable across ``--jobs 1`` and ``--jobs 4``.

    The four parallel ``kind``/``ts``/``actor``/``data`` column lists
    that :meth:`emit` appends to are the only store: dataclass
    construction is the largest cost of full telemetry, and a per-event
    container would stay tracked by the cyclic collector (an atomic
    ``data`` dict is not). :meth:`stream` (and iteration) builds each
    :class:`TelemetryEvent` as it is read and keeps none; :meth:`digest`,
    :meth:`as_dict`, the summaries and a pickle read the columns as they
    are. Monitors check a stored log with :func:`repro.obs.checks.replay`.
    """

    __slots__ = ("enabled", "max_events", "_kinds", "_ts", "_actors", "_data", "dropped")

    def __init__(self, enabled: bool = True, max_events: int = 1_000_000):
        self.enabled = enabled
        self.max_events = max_events
        self._kinds: list[str] = []
        self._ts: list[float] = []
        self._actors: list[str] = []
        self._data: list[dict[str, t.Any]] = []
        self.dropped = 0

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> t.Iterator[TelemetryEvent]:
        return self.stream()

    def stream(self, kinds: t.Container[str] | None = None) -> t.Iterator[TelemetryEvent]:
        """Stored events in order (only ``kinds``, if given), uncached.

        Events are built one at a time and dropped after use, so a pass
        over a long log (a monitor replay) leaves no object per event
        behind; events of other ``kinds`` are never built at all.
        """
        for kind, ts, actor, data in zip(self._kinds, self._ts, self._actors, self._data):
            if kinds is None or kind in kinds:
                yield TelemetryEvent(kind, ts, actor, data)

    def emit(self, kind: str, ts: float, actor: str = "", /, **data: t.Any) -> None:
        """Publish one event (no-op when disabled; counted when full)."""
        if not self.enabled:
            return
        if len(self._kinds) < self.max_events:
            self._kinds.append(kind)
            self._ts.append(ts)
            self._actors.append(actor)
            self._data.append(data)
        else:
            self.dropped += 1

    def seal(self, ts: float) -> None:
        """Make a hit storage cap visible as a terminal record.

        A full log counts further emissions in :attr:`dropped` silently,
        so sealing appends one ``log.truncated`` event carrying that count
        (bypassing the cap): replayed monitors then return *inconclusive*
        verdicts and summaries flag the gap. No-op when nothing was
        dropped; re-sealing refreshes the record in place.
        """
        if not self.enabled or not self.dropped:
            return
        data = {"dropped": self.dropped}
        if self._kinds and self._kinds[-1] == "log.truncated":
            self._ts[-1], self._data[-1] = ts, data
            return
        self._kinds.append("log.truncated")
        self._ts.append(ts)
        self._actors.append("")
        self._data.append(data)

    # -- queries ---------------------------------------------------------
    def counts_by_kind(self) -> dict[str, int]:
        """kind -> number of records, sorted by kind."""
        return dict(sorted(collections.Counter(self._kinds).items()))

    def actors(self) -> list[str]:
        """Distinct actors in first-seen order (excluding "")."""
        seen = dict.fromkeys(self._actors)
        seen.pop("", None)
        return list(seen)

    def clear(self) -> None:
        """Drop all records (the cap and enabled flag are unchanged)."""
        for column in (self._kinds, self._ts, self._actors, self._data):
            column.clear()
        self.dropped = 0

    # -- serialization ---------------------------------------------------
    def as_dict(self) -> dict[str, t.Any]:
        """JSON payload that :meth:`from_dict` restores bit-identically.

        Per positional chunk, ``shapes`` holds the shape table (kinds,
        each with its data keys as a JSON object in emission order) and
        ``columns`` the :meth:`digest` columns (nested dicts in order),
        framed, zlib-compressed and base64-encoded under :data:`_CODEC`.
        Key order lives in JSON object order alone, so the canonical JSON
        of two payloads is equal exactly when their digests are. A chunk
        replays one key order per kind and key set, the first emitted;
        every emitter here keeps one order.
        """
        shapes, framed = [], []
        for chunk in self._chunks():
            ids, columns = _encode_chunk(chunk, _ORDERED)
            shapes.append([[kind, dict.fromkeys(keys)] for kind, keys in ids.first])
            framed.append(_frame(columns))
        blob = zlib.compress(b"".join(framed), 1)
        return {"enabled": self.enabled, "max_events": self.max_events,
                "dropped": self.dropped, "codec": _CODEC, "shapes": shapes,
                "columns": base64.b64encode(blob).decode()}

    def digest(self) -> str:
        """SHA-256 hex digest of a typed, columnar encoding of the log.

        Equal exactly when the events are equal as JSON values (kinds and
        data keys being strings, dict order ignored), however the log was
        built or shipped. A domain tag, a header (``enabled``,
        ``max_events``, ``dropped``, stored count), then per positional
        chunk of :data:`_CHUNK` events the shape table (kind plus sorted
        data keys) and the :func:`_encode_chunk` columns, all framed.
        """
        sha = hashlib.sha256(b"repro-events/2")
        header = [self.enabled, self.max_events, self.dropped, len(self)]
        sha.update(_frame([_CANONICAL.encode(header).encode()]))
        for chunk in self._chunks():
            ids, columns = _encode_chunk(chunk, _CANONICAL)
            sha.update(_frame([_CANONICAL.encode(list(ids.shapes)).encode(), *columns]))
        return sha.hexdigest()

    def _chunks(self) -> t.Iterator[tuple[list, list, list, list]]:
        """Stored events as ``(kinds, ts, actors, data)`` lists per chunk."""
        columns = (self._kinds, self._ts, self._actors, self._data)
        for lo in range(0, len(self), _CHUNK):
            yield tuple(column[lo:lo + _CHUNK] for column in columns)

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "EventLog":
        """Rebuild a log from :meth:`as_dict` output, into the columns. Any
        other payload (the older per-event ``records`` form, another codec,
        a truncated blob, a wrong shape) raises ``PayloadFormatError``."""
        with decoding("event log"):
            if payload["codec"] != _CODEC:
                raise ValueError(f"unknown codec {payload['codec']!r}")
            log = cls(payload["enabled"], payload["max_events"])
            log.dropped = payload["dropped"]
            pieces = _split(zlib.decompress(base64.b64decode(payload["columns"])))
            for shapes in payload["shapes"]:
                sids, stamps, actors = (_uncolumn(pieces) for _ in range(3))
                rows = [_rows(order, sids.count(sid), pieces)
                        for sid, (_, order) in enumerate(shapes)]
                if not len(sids) == len(stamps) == len(actors) == sum(map(len, rows)):
                    raise ValueError("chunk columns do not match its shape table")
                log._kinds += map([kind for kind, _ in shapes].__getitem__, sids)
                log._ts += stamps
                log._actors += actors
                log._data += map(next, map(list(map(iter, rows)).__getitem__, sids))
            if next(pieces, None) is not None:
                raise ValueError("trailing pieces after the last chunk")
        return log

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<EventLog {state} n={len(self)} dropped={self.dropped}>"


#: Stored events per :meth:`EventLog.digest` chunk: per-chunk overhead
#: vanishes, and a chunk's columns stay a few hundred kilobytes.
_CHUNK = 8192

#: Canonical JSON, the same settings as ``repro.obs.store._canonical_json``.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: :meth:`EventLog.as_dict`'s JSON columns, which keep nested dict order.
_ORDERED = json.JSONEncoder(separators=(",", ":"))

#: Tag of :meth:`EventLog.as_dict`'s column encoding.
_CODEC = "repro-columns/1"


class _ShapeIds(dict):
    """``(kind, data keys)`` -> shape id within one chunk.

    :attr:`shapes` holds each kind plus *sorted* keys in first-seen order
    and :attr:`first` each as first emitted. Only a new key order sorts.
    """

    def __init__(self) -> None:
        super().__init__()
        self.shapes: dict[tuple[str, tuple[str, ...]], int] = {}
        self.first: list[tuple[str, tuple[str, ...]]] = []

    def __missing__(self, raw: tuple[str, tuple[str, ...]]) -> int:
        shape = (raw[0], tuple(sorted(raw[1])))
        self[raw] = sid = self.shapes.setdefault(shape, len(self.shapes))
        if sid == len(self.first):
            self.first.append(raw)
        return sid


def _encode_chunk(chunk: tuple[list, list, list, list],
                  encoder: json.JSONEncoder) -> tuple[_ShapeIds, list[bytes]]:
    """One chunk's shapes and :func:`_column` pieces: the shape ids,
    ``ts`` and actors, then one column per shape and sorted key."""
    kinds, stamps, actors, datas = chunk
    ids = _ShapeIds()
    sids = list(map(ids.__getitem__, zip(kinds, map(tuple, datas))))
    buckets: list[list[dict]] = [[] for _ in ids.shapes]
    for data, sid in zip(datas, sids):
        buckets[sid].append(data)
    columns = [sids, stamps, actors]
    for (_, keys), bucket in zip(ids.shapes, buckets):
        columns.extend(list(map(itemgetter(k), bucket)) for k in keys)
    return ids, [piece for column in columns for piece in _column(column, encoder)]


def _column(values: list, encoder: json.JSONEncoder = _CANONICAL) -> tuple[bytes, ...]:
    """A type tag, then the payload: ``<f8`` floats (one NaN), ``<i8``
    ints (no bools), strings as a JSON table plus ``<u4`` ids, else JSON.
    """
    types = set(map(type, values))
    if all(issubclass(tp, float) for tp in types):
        array = np.array(values, dtype="<f8")
        array[np.isnan(array)] = np.nan
        return b"f", array.tobytes()
    if bool not in types and all(issubclass(tp, int) for tp in types):
        try:
            return b"i", np.array(values, dtype="<i8").tobytes()
        except OverflowError:
            pass
    elif all(issubclass(tp, str) for tp in types):
        table = dict(zip(dict.fromkeys(values), itertools.count()))
        ids = np.array(list(map(table.__getitem__, values)), dtype="<u4")
        return b"s", _CANONICAL.encode(list(table)).encode(), ids.tobytes()
    return b"j", encoder.encode(values).encode()


def _uncolumn(pieces: t.Iterator[memoryview]) -> list:
    """The values of the next :func:`_column` in ``pieces``."""
    tag, body = bytes(next(pieces, None)), next(pieces, None)
    if tag in (b"f", b"i"):
        return np.frombuffer(body, f"<{tag.decode()}8").tolist()
    if tag == b"s":
        ids = np.frombuffer(next(pieces, None), "<u4").tolist()
        return list(map(json.loads(bytes(body)).__getitem__, ids))
    if tag != b"j":
        raise ValueError(f"unknown column tag {tag!r}")
    return json.loads(bytes(body))


def _rows(order: dict[str, None], n: int, pieces: t.Iterator[memoryview]) -> list[dict]:
    """``n`` data dicts, keys in ``order``, from the next (sorted) columns."""
    cols = {key: _uncolumn(pieces) for key in sorted(order)}
    if any(len(column) != n for column in cols.values()):
        raise ValueError("data column length differs from its shape's count")
    # range(n) sizes a shape without keys; zip(order, row) drops the index.
    return [dict(zip(order, row)) for row in zip(*map(cols.__getitem__, order), range(n))]


def _frame(pieces: t.Iterable[bytes]) -> bytes:
    """``pieces``, each prefixed by its ``<u8`` length."""
    return b"".join(len(piece).to_bytes(8, "little") + piece for piece in pieces)


def _split(blob: bytes) -> t.Iterator[memoryview]:
    """The length-prefixed pieces of ``blob``, in order."""
    view, at = memoryview(blob), 0
    while at < len(view):
        size, at = int.from_bytes(view[at:at + 8], "little"), at + 8
        if at + size > len(view):
            raise ValueError("truncated piece")
        yield view[at:at + size]
        at += size


#: Shared always-off log for call sites that want an object, not None.
NULL_LOG = EventLog(enabled=False, max_events=0)


def discharge_curves(
    events: EventLog | t.Iterable[TelemetryEvent],
) -> dict[str, list[tuple[float, float]]]:
    """node -> [(time_s, charge fraction)] from ``battery.draw`` events.

    A fast-forward jump (``ff.epoch``) adds each node's post-jump charge
    fraction at the jump's end ``t1``: charge falls linearly in time
    under the periodic load it skipped, so the curve stays exact at its
    samples. Nodes appear in first-sample order, each curve in event
    order. A log is streamed, building only those two kinds.
    """
    if isinstance(events, EventLog):
        events = events.stream({"battery.draw", "ff.epoch"})
    curves: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        if event.kind == "battery.draw":
            curves.setdefault(event.actor, []).append(
                (event.ts, event.data["charge_fraction"])
            )
        elif event.kind == "ff.epoch":
            t1 = event.data["t1"]
            for node, fraction in event.data["charge_fraction"].items():
                curves.setdefault(node, []).append((t1, fraction))
    return curves
