"""Counters, gauges, and histograms with deterministic merging.

The registry absorbs the loose per-run counters the pipeline result
used to surface ad hoc (link transactions, stalls, level switches,
kernel events) and adds latency histograms: the pipeline engine
observes each frame's latency into ``frame.latency_s`` as the frame
completes. Two properties drive the design:

- **Deterministic aggregation.** A sweep fans runs over worker
  processes; each run carries its own registry home and the caller
  merges them. Merging is commutative and associative for counters and
  histograms (sums of counts), and iteration is always name-sorted, so
  ``--jobs 4`` aggregates to exactly what ``--jobs 1`` produces.
- **Bounded memory.** Histograms never store observations — they keep
  count/total/min/max plus power-of-two bucket counts, so a histogram
  of a million frame latencies costs a few dozen integers.
"""

from __future__ import annotations

import math
import typing as t

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing integer/float count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Absorb another shard of the same counter (sum)."""
        self.value += other.value

    def as_dict(self) -> dict[str, t.Any]:
        return {"type": "counter", "name": self.name, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A last-written value (merge keeps the maximum, which is
    order-independent — the deterministic choice for shard merging)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float | None = None):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        if other.value is None:
            return
        if self.value is None or other.value > self.value:
            self.value = other.value

    def as_dict(self) -> dict[str, t.Any]:
        return {"type": "gauge", "name": self.name, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Power-of-two bucketed distribution of non-negative samples.

    A sample ``v`` lands in bucket ``i`` where ``2**(i-1) * base < v <=
    2**i * base`` (bucket index 0 holds ``v <= base``; zeros and
    negatives count in a dedicated underflow bucket). ``base`` defaults
    to one microsecond, which gives ~40 buckets across nine decades of
    latency — plenty of resolution for percentile estimates while
    keeping the histogram a handful of integers.
    """

    __slots__ = ("name", "base", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str, base: float = 1e-6):
        if base <= 0:
            raise ValueError(f"histogram {name}: base must be positive")
        self.name = name
        self.base = base
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: bucket index -> sample count; index -1 is the underflow
        #: bucket (v <= 0).
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = self._bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def _bucket_index(self, value: float) -> int:
        if value <= 0:
            return -1
        return max(0, math.ceil(math.log2(value / self.base)))

    def bucket_upper_bound(self, index: int) -> float:
        """Inclusive upper edge of bucket ``index`` (0.0 for underflow)."""
        return 0.0 if index < 0 else self.base * (2.0 ** index)

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of all samples, or None if empty."""
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> float | None:
        """Upper bound of the bucket containing the q-th percentile.

        ``q`` is in [0, 100]. The estimate is conservative (an upper
        bound within one bucket width, i.e. a factor of two).
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.count:
            return None
        target = math.ceil(self.count * q / 100.0) or 1
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return self.bucket_upper_bound(index)
        return self.bucket_upper_bound(max(self.buckets))  # pragma: no cover

    def merge(self, other: "Histogram") -> None:
        """Absorb another shard (bucket-wise sum; exact, order-free)."""
        if other.base != self.base:
            raise ValueError(
                f"cannot merge histograms with different bases: "
                f"{self.base} vs {other.base}"
            )
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def summary(self) -> dict[str, t.Any]:
        """Headline statistics for tables and reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def as_dict(self) -> dict[str, t.Any]:
        return {
            "type": "histogram",
            "name": self.name,
            "base": self.base,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            # JSON keys are strings; sort for stable output.
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean}>"


class MetricsRegistry:
    """A name-keyed collection of counters, gauges, and histograms.

    Instruments are created on first touch (``registry.counter("x")``)
    and iterated in sorted-name order so every rendering — tables, JSON
    exports, merge results — is deterministic.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ----------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created at zero on first use)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created unset on first use)."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, base: float = 1e-6) -> Histogram:
        """The histogram named ``name`` (created empty on first use)."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, base=base)
        return h

    # -- views -----------------------------------------------------------
    @property
    def counters(self) -> list[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    @property
    def gauges(self) -> list[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    @property
    def histograms(self) -> list[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def top_histograms(self, n: int = 5) -> list[Histogram]:
        """The ``n`` histograms with the most samples (ties by name)."""
        ranked = sorted(self.histograms, key=lambda h: (-h.count, h.name))
        return ranked[:n]

    def as_rows(self) -> list[dict[str, t.Any]]:
        """Flat table rows (counters and gauges first, then histograms)."""
        rows: list[dict[str, t.Any]] = []
        for c in self.counters:
            rows.append({"metric": c.name, "kind": "counter", "value": c.value})
        for g in self.gauges:
            rows.append({"metric": g.name, "kind": "gauge", "value": g.value})
        for h in self.histograms:
            rows.append(
                {
                    "metric": h.name,
                    "kind": "histogram",
                    "value": (
                        f"n={h.count} mean={h.mean:.4g} "
                        f"p50={h.percentile(50):.4g} p99={h.percentile(99):.4g}"
                    ),
                }
            )
        return rows

    # -- merging ----------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Absorb ``other``'s shards into this registry; returns self.

        Commutative up to gauge semantics (max) and exact for counters
        and histograms, so per-worker registries aggregate identically
        in any order.
        """
        for name in sorted(other._counters):
            self.counter(name).merge(other._counters[name])
        for name in sorted(other._gauges):
            self.gauge(name).merge(other._gauges[name])
        for name in sorted(other._histograms):
            shard = other._histograms[name]
            self.histogram(name, base=shard.base).merge(shard)
        return self

    # -- serialization ---------------------------------------------------
    def as_dict(self) -> dict[str, t.Any]:
        """JSON payload; :meth:`from_dict` restores it bit-identically."""
        return {
            "counters": [c.as_dict() for c in self.counters],
            "gauges": [g.as_dict() for g in self.gauges],
            "histograms": [h.as_dict() for h in self.histograms],
        }

    @classmethod
    def from_dict(cls, payload: t.Mapping[str, t.Any]) -> "MetricsRegistry":
        registry = cls()
        for cd in payload.get("counters", []):
            registry.counter(cd["name"]).value = cd["value"]
        for gd in payload.get("gauges", []):
            registry.gauge(gd["name"]).value = gd["value"]
        for hd in payload.get("histograms", []):
            h = registry.histogram(hd["name"], base=hd.get("base", 1e-6))
            h.count = hd["count"]
            h.total = hd["total"]
            h.min = hd["min"]
            h.max = hd["max"]
            h.buckets = {int(k): v for k, v in hd.get("buckets", {}).items()}
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
