"""The serial/PPP link model.

The Itsy network is built from serial ports running PPP (§4.2):
115.2 Kbps nominal, ~80 Kbps measured goodput, and a 50-100 ms startup
cost per communication transaction. Those three numbers fully determine
the Fig. 6 communication delays::

    duration(payload) = startup + payload_bytes * 8 / bandwidth_bps

The startup residual implied by Fig. 6's end-to-end anchors (10.1 KB
in 1.1 s, 0.1 KB in 0.1 s) at the 80 Kbps wire rate is 0.09 s, inside
the paper's 50-100 ms range; that is the deterministic default, and it
makes the baseline budget exact: 1.1 s RECV + 0.1 s SEND + 1.1 s PROC
= D = 2.3 s. A stochastic mode draws each startup
uniformly from [50 ms, 100 ms] instead.

Transfer semantics
------------------
A transfer is a *rendezvous*: the sender offers a message, the receiver
offers readiness, and the transaction starts when both are present
(matching Figs. 2/3, where a SEND on one node overlaps the RECV on the
next). Both sides learn the :class:`Transfer` at start time and both
complete together at ``start + duration``.

The link is full-duplex: each direction has its own rendezvous queue,
so a reverse-direction acknowledgment (used by the §5.4 power-failure
recovery protocol) does not contend with forward data.
"""

from __future__ import annotations

import collections
import dataclasses
import typing as t

import numpy as np

from repro.errors import LinkError
from repro.sim import Event, Simulator
from repro.units import transfer_seconds

__all__ = ["TransactionTiming", "Transfer", "SerialLink", "PAPER_LINK_TIMING"]


@dataclasses.dataclass(frozen=True)
class TransactionTiming:
    """Timing parameters of one serial hop.

    Attributes
    ----------
    bandwidth_bps:
        Effective goodput in bits/second (paper: 80 Kbps measured).
    startup_s:
        Deterministic per-transaction startup cost in seconds.
    startup_jitter_s:
        Half-width of the uniform startup jitter; 0 means deterministic.
        With jitter ``j``, startups are uniform in
        ``[startup_s - j, startup_s + j]``.
    corruption_prob:
        Probability that a transaction attempt is corrupted and must be
        retransmitted whole (stop-and-wait at transaction granularity —
        the reliability the paper's TCP sockets provide over a noisy
        serial line). 0 disables the error model.
    """

    bandwidth_bps: float = 80_000.0
    startup_s: float = 0.09
    startup_jitter_s: float = 0.0
    corruption_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise LinkError(f"bandwidth must be positive: {self.bandwidth_bps}")
        if self.startup_s < 0:
            raise LinkError(f"startup must be non-negative: {self.startup_s}")
        if not 0 <= self.startup_jitter_s <= self.startup_s:
            raise LinkError(
                "startup jitter must be in [0, startup_s]: "
                f"{self.startup_jitter_s} vs {self.startup_s}"
            )
        if not 0.0 <= self.corruption_prob < 1.0:
            raise LinkError(
                f"corruption probability must be in [0, 1): {self.corruption_prob}"
            )

    def nominal_duration(self, payload_bytes: int) -> float:
        """Expected transaction time (mean over jitter and retries).

        What static schedule analysis and required-frequency arithmetic
        use — planning against the mean, as the paper's fixed frame
        budget does. With corruption probability ``p`` a stop-and-wait
        transaction takes ``1/(1-p)`` attempts in expectation.
        """
        if payload_bytes < 0:
            raise LinkError(f"payload must be non-negative: {payload_bytes}")
        per_attempt = self.startup_s + transfer_seconds(
            payload_bytes, self.bandwidth_bps
        )
        return per_attempt / (1.0 - self.corruption_prob)

    def _attempt_duration(self, payload_bytes: int, rng: np.random.Generator | None) -> float:
        attempt = self.startup_s + transfer_seconds(payload_bytes, self.bandwidth_bps)
        if self.startup_jitter_s > 0:
            assert rng is not None
            attempt += float(
                rng.uniform(-self.startup_jitter_s, self.startup_jitter_s)
            )
        return attempt

    def duration(self, payload_bytes: int, rng: np.random.Generator | None = None) -> float:
        """Total transaction time: jitter plus any retransmissions."""
        if payload_bytes < 0:
            raise LinkError(f"payload must be non-negative: {payload_bytes}")
        stochastic = self.startup_jitter_s > 0 or self.corruption_prob > 0
        if stochastic and rng is None:
            raise LinkError("stochastic timing requires an RNG stream")
        total = self._attempt_duration(payload_bytes, rng)
        while self.corruption_prob > 0 and float(rng.uniform()) < self.corruption_prob:
            total += self._attempt_duration(payload_bytes, rng)
        return total


#: Paper-faithful timing: 80 Kbps measured goodput, 90 ms startup
#: (the startup residual of Fig. 6's end-to-end delay anchors, inside
#: the quoted 50-100 ms range).
PAPER_LINK_TIMING = TransactionTiming()

#: Timing with the paper's quoted startup spread, for stochastic runs:
#: uniform in [50 ms, 100 ms].
PAPER_LINK_TIMING_JITTERED = TransactionTiming(startup_s=0.075, startup_jitter_s=0.025)


@dataclasses.dataclass(slots=True)
class Transfer:
    """One in-flight (or completed) transaction.

    Attributes
    ----------
    message:
        The payload object (opaque to the link).
    payload_bytes:
        Size used for timing.
    start_s:
        Simulated time the rendezvous matched.
    duration_s:
        Startup + wire time.
    done:
        Event firing with ``None`` at ``start_s + duration_s``. It does
        not carry the transfer back: ``done._value is transfer`` would
        be a Transfer <-> done reference cycle on every transaction,
        left for the cyclic collector. Callers already hold the
        transfer from the grant and write a bare ``yield transfer.done``.
    """

    message: t.Any
    payload_bytes: int
    start_s: float
    duration_s: float
    done: Event

    @property
    def end_s(self) -> float:
        """Completion timestamp."""
        return self.start_s + self.duration_s


@dataclasses.dataclass(slots=True)
class _Offer:
    """A queued side of a rendezvous (pending send or recv)."""

    event: Event
    message: t.Any = None
    payload_bytes: int = 0
    cancelled: bool = False


class SerialLink:
    """Full-duplex point-to-point serial link between two named endpoints.

    Parameters
    ----------
    sim:
        Owning simulator.
    a, b:
        Endpoint names; every offer must name one of them.
    timing:
        Transaction timing parameters.
    rng:
        RNG stream for startup jitter (required if timing is jittered).

    Examples
    --------
    Sender and receiver rendezvous; both observe the same transfer::

        grant_r = link.offer_recv(to="node2")
        grant_s = link.offer_send("frame", 600, frm="node1")
        # ... in processes:
        transfer = yield grant_s      # fires at transaction start
        yield transfer.done           # fires at completion
    """

    def __init__(
        self,
        sim: Simulator,
        a: str,
        b: str,
        timing: TransactionTiming = PAPER_LINK_TIMING,
        rng: np.random.Generator | None = None,
        obs: t.Any = None,
    ):
        if a == b:
            raise LinkError(f"link endpoints must differ, got {a!r} twice")
        self.sim = sim
        self.a = a
        self.b = b
        self.timing = timing
        self.rng = rng
        #: Optional telemetry event bus; every matched rendezvous
        #: publishes one ``link.xfer`` record. Falsy (disabled) buses
        #: are normalized to None so the per-rendezvous guard is free.
        self.obs = obs if obs else None
        # Per-direction rendezvous queues, keyed by the *sending* endpoint.
        self._sends: dict[str, collections.deque[_Offer]] = {
            a: collections.deque(),
            b: collections.deque(),
        }
        self._recvs: dict[str, collections.deque[_Offer]] = {
            a: collections.deque(),
            b: collections.deque(),
        }
        #: Completed-transfer count per direction (diagnostics).
        self.transfer_count: dict[str, int] = {a: 0, b: 0}
        #: Total payload bytes moved per direction (diagnostics).
        self.bytes_moved: dict[str, int] = {a: 0, b: 0}
        # payload bytes -> transaction duration. Only a deterministic
        # timing is memoised: a jittered or lossy one draws from the RNG
        # on every transaction, and those draws must all happen.
        deterministic = timing.startup_jitter_s == 0 and timing.corruption_prob == 0
        self._durations: dict[int, float] | None = {} if deterministic else None

    # -- public API ---------------------------------------------------------
    def peer_of(self, endpoint: str) -> str:
        """The other endpoint's name."""
        self._check_endpoint(endpoint)
        return self.b if endpoint == self.a else self.a

    def offer_send(self, message: t.Any, payload_bytes: int, *, frm: str) -> Event:
        """Offer a message for transmission from endpoint ``frm``.

        Returns an event that fires with the :class:`Transfer` at
        *transaction start*; wait on ``transfer.done`` for completion.
        """
        if frm != self.a and frm != self.b:
            raise self._not_an_endpoint(frm)
        if payload_bytes < 0:
            raise LinkError(f"payload must be non-negative: {payload_bytes}")
        offer = _Offer(Event(self.sim), message, payload_bytes)
        self._sends[frm].append(offer)
        self._try_match(frm)
        return offer.event

    def offer_recv(self, *, to: str) -> Event:
        """Declare endpoint ``to`` ready to receive.

        Returns an event that fires with the :class:`Transfer` at
        transaction start (same object the sender sees).
        """
        if to == self.a:
            direction = self.b
        elif to == self.b:
            direction = self.a
        else:
            raise self._not_an_endpoint(to)
        offer = _Offer(Event(self.sim))
        self._recvs[direction].append(offer)
        self._try_match(direction)
        return offer.event

    def cancel(self, grant: Event) -> bool:
        """Withdraw a not-yet-matched offer identified by its grant event.

        Returns True if the offer was found pending and cancelled; False
        if it already matched (the transaction is happening regardless).
        Used by failure-detection timeouts.
        """
        for queue in (*self._sends.values(), *self._recvs.values()):
            for offer in queue:
                if offer.event is grant and not offer.cancelled:
                    offer.cancelled = True
                    return True
        return False

    def pending_sends(self, frm: str) -> int:
        """Number of unmatched send offers from ``frm`` (diagnostics)."""
        self._check_endpoint(frm)
        return sum(not o.cancelled for o in self._sends[frm])

    # -- internals --------------------------------------------------------
    def _check_endpoint(self, name: str) -> None:
        if name not in (self.a, self.b):
            raise self._not_an_endpoint(name)

    def _not_an_endpoint(self, name: str) -> LinkError:
        return LinkError(f"{name!r} is not an endpoint of link {self.a!r}<->{self.b!r}")

    def _try_match(self, direction: str) -> None:
        """Match the oldest live send with the oldest live recv, if both exist.

        Cancelled offers are discarded lazily as they surface at the
        head of their queue, so matching is O(1) amortized per offer
        rather than a full scan per attempt.
        """
        sends, recvs = self._sends[direction], self._recvs[direction]
        while sends and recvs:
            if sends[0].cancelled:
                sends.popleft()
                continue
            if recvs[0].cancelled:
                recvs.popleft()
                continue
            send = sends.popleft()
            recv = recvs.popleft()
            durations = self._durations
            if durations is None:
                duration = self.timing.duration(send.payload_bytes, self.rng)
            else:
                duration = durations.get(send.payload_bytes)
                if duration is None:
                    duration = durations[send.payload_bytes] = self.timing.duration(
                        send.payload_bytes
                    )
            transfer = Transfer(
                send.message, send.payload_bytes, self.sim._now, duration, Event(self.sim)
            )
            send.event.succeed(transfer)
            recv.event.succeed(transfer)
            transfer.done.succeed(None, delay=duration)
            self.transfer_count[direction] += 1
            self.bytes_moved[direction] += send.payload_bytes
            if self.obs is not None:
                # Frame correlation: data payloads are Frame objects
                # (``id``), recovery acknowledgments carry ``frame_id``;
                # anything else (opaque test payloads) stays untagged.
                message = send.message
                frame_id = getattr(message, "id", None)
                if frame_id is None:
                    frame_id = getattr(message, "frame_id", None)
                if frame_id is None:
                    self.obs.emit(
                        "link.xfer",
                        self.sim._now,
                        direction,
                        to=self.b if direction == self.a else self.a,
                        bytes=send.payload_bytes,
                        duration_s=duration,
                        startup_s=self.timing.startup_s,
                    )
                else:
                    self.obs.emit(
                        "link.xfer",
                        self.sim._now,
                        direction,
                        to=self.b if direction == self.a else self.a,
                        bytes=send.payload_bytes,
                        duration_s=duration,
                        startup_s=self.timing.startup_s,
                        frame=frame_id,
                    )
