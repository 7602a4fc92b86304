"""A bidirectional network path: drop-tail queue + trace-driven capacity.

This is the emulation equivalent of the cellular/WiFi links in the
paper's testbed.  Data packets experience:

1. stochastic loss (the radio-loss process, :mod:`repro.net.loss`),
2. a byte-limited drop-tail bottleneck queue served at the capacity the
   bandwidth trace reports for the current instant,
3. a fixed propagation delay plus small random delivery jitter.

The reverse direction (RTCP feedback) is a delay-only channel by
default because control traffic is tiny compared to path capacity, but
faults can give it loss and outage windows: the paper's whole
control loop (scheduler weights, Eq. 2 budgets, path re-enablement,
per-path FEC) rides on RTCP, and a cellular uplink that blacks out
takes the control traffic down with it.  Feedback delivery is FIFO —
delivery times are monotone per path — matching real in-order
transport of compound RTCP over one socket.

Both directions accept runtime fault overrides (capacity, loss, delay,
queue size, feedback outage) driven by :mod:`repro.faults`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional, Protocol

from repro.net.loss import LossModel, NoLoss
from repro.net.trace import BandwidthTrace
from repro.simulation.simulator import Simulator


class SizedPacket(Protocol):
    """Anything the path can carry: only the wire size matters here."""

    size_bytes: int

# Below this capacity the forward link counts as in outage and is
# polled every _OUTAGE_POLL_INTERVAL until it recovers, rather than
# computing absurd serialization delays.
_OUTAGE_CAPACITY_BPS = 1_000.0
_OUTAGE_POLL_INTERVAL = 0.02


@dataclass(slots=True)
class PathConfig:
    """Static configuration for one emulated path.

    The reverse (RTCP) channel has no loss process of its own: it is
    lossless until a fault plan calls :meth:`Path.set_feedback_loss` or
    :meth:`Path.set_feedback_outage`.
    """

    path_id: int
    trace: BandwidthTrace
    propagation_delay: float = 0.025
    loss_model: LossModel = field(default_factory=NoLoss)
    queue_capacity_bytes: int = 256_000
    jitter_max: float = 0.002
    name: str = ""

    def __post_init__(self) -> None:
        if self.propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if self.queue_capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        if not self.name:
            self.name = f"path-{self.path_id}"


@dataclass(slots=True)
class PathStats:
    """Counters the emulator keeps per path."""

    sent_packets: int = 0
    sent_bytes: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    random_losses: int = 0
    queue_drops: int = 0
    feedback_sent: int = 0
    feedback_delivered: int = 0
    feedback_dropped: int = 0

    @property
    def loss_rate(self) -> float:
        if self.sent_packets == 0:
            return 0.0
        return (self.random_losses + self.queue_drops) / self.sent_packets


class Path:
    """One emulated path between sender and receiver.

    Forward direction carries media; the reverse direction carries
    RTCP.  Fault overrides (set by :class:`repro.faults.FaultInjector`)
    layer on top of the static configuration and are all reversible.
    """

    __slots__ = (
        "sim",
        "config",
        "path_id",
        "stats",
        "on_deliver",
        "on_feedback_deliver",
        "_rng",
        "_jitter_rng",
        "_feedback_rng",
        "_queue",
        "_queued_bytes",
        "_serving",
        "_feedback_horizon",
        "_capacity_cap",
        "_loss_override",
        "_extra_delay",
        "_queue_capacity_override",
        "_feedback_outage",
        "_feedback_loss_override",
    )

    def __init__(self, sim: Simulator, config: PathConfig) -> None:
        self.sim = sim
        self.config = config
        self.path_id = config.path_id
        self.stats = PathStats()
        self.on_deliver: Optional[Callable[[SizedPacket], None]] = None
        self.on_feedback_deliver: Optional[Callable[[object], None]] = None
        self._rng = sim.streams.stream(f"path-loss-{config.path_id}-{config.name}")
        self._jitter_rng = sim.streams.stream(
            f"path-jitter-{config.path_id}-{config.name}"
        )
        # Feedback loss draws come from their own stream so enabling a
        # reverse-channel fault does not perturb forward-loss draws.
        self._feedback_rng = sim.streams.stream(
            f"path-feedback-{config.path_id}-{config.name}"
        )
        self._queue: Deque[SizedPacket] = deque()
        self._queued_bytes = 0
        self._serving = False
        # FIFO horizon of the reverse channel: feedback never delivers
        # before a message scheduled earlier (monotone delivery times).
        self._feedback_horizon = 0.0
        # -- runtime fault overrides (None / neutral when healthy) ----
        self._capacity_cap: Optional[float] = None
        self._loss_override: Optional[LossModel] = None
        self._extra_delay = 0.0
        self._queue_capacity_override: Optional[int] = None
        self._feedback_outage = False
        self._feedback_loss_override: Optional[LossModel] = None

    # -- fault hooks ---------------------------------------------------

    def set_capacity_cap(self, bps: Optional[float]) -> None:
        """Clamp forward capacity to ``bps`` (0 = blackout); None clears."""
        if bps is not None and bps < 0:
            raise ValueError("capacity cap must be non-negative")
        self._capacity_cap = bps

    def set_loss_override(self, model: Optional[LossModel]) -> None:
        """Replace the forward loss process for the fault window."""
        self._loss_override = model

    def set_extra_delay(self, seconds: float) -> None:
        """Add one-way delay to both directions (delay spike)."""
        if seconds < 0:
            raise ValueError("extra delay must be non-negative")
        self._extra_delay = seconds

    def set_queue_capacity_override(self, capacity_bytes: Optional[int]) -> None:
        """Shrink (or restore) the bottleneck queue (queue flap)."""
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("queue capacity override must be positive")
        self._queue_capacity_override = capacity_bytes

    def set_feedback_outage(self, active: bool) -> None:
        """Black out the reverse (RTCP) channel entirely."""
        self._feedback_outage = active

    def set_feedback_loss(self, model: Optional[LossModel]) -> None:
        """Replace the reverse-channel loss process for the fault window."""
        self._feedback_loss_override = model

    # -- data direction ------------------------------------------------

    def send(self, packet: SizedPacket) -> bool:
        """Offer ``packet`` (must expose ``size_bytes``) to the path.

        Returns ``True`` if the packet entered the link (it may still be
        randomly lost in flight), ``False`` on queue overflow.
        """
        size = packet.size_bytes
        stats = self.stats
        stats.sent_packets += 1
        stats.sent_bytes += size
        capacity = self._queue_capacity_override
        if capacity is None:
            capacity = self.config.queue_capacity_bytes
        if self._queued_bytes + size > capacity:
            stats.queue_drops += 1
            return False
        self._queue.append(packet)
        self._queued_bytes += size
        if not self._serving:
            self._serving = True
            self._serve_next()
        return True

    def _serve_next(self) -> None:
        # Packets wait whenever this runs: send() has just queued one,
        # _transmitted() checks, and the outage poll re-runs it with
        # nothing dequeued in between.
        sim = self.sim
        config = self.config
        capacity = config.trace.capacity_at(sim.now)
        if self._capacity_cap is not None:
            capacity = min(capacity, self._capacity_cap)
        if capacity < _OUTAGE_CAPACITY_BPS:
            sim.schedule(_OUTAGE_POLL_INTERVAL, self._serve_next)
            return
        packet = self._queue.popleft()
        size = packet.size_bytes
        self._queued_bytes -= size
        sim.post(size * 8 / capacity, self._transmitted, packet)

    def _transmitted(self, packet: SizedPacket) -> None:
        # Start the next packet's service as soon as this one leaves
        # the transmitter, then propagate this one.
        if self._queue:
            self._serve_next()
        else:
            self._serving = False
        config = self.config
        loss_model = self._loss_override or config.loss_model
        sim = self.sim
        if loss_model.should_drop(self._rng, sim.now):
            self.stats.random_losses += 1
            return
        # Bit-identical to ``uniform(0.0, jitter_max)``, which CPython
        # computes as ``a + (b - a) * random()``, without its Python
        # frame (tests/test_hot_path.py pins the equality).
        jitter = config.jitter_max * self._jitter_rng.random()
        delay = config.propagation_delay + self._extra_delay + jitter
        sim.post(delay, self._deliver, packet)

    def _deliver(self, packet: SizedPacket) -> None:
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        if self.on_deliver is not None:
            self.on_deliver(packet)

    # -- feedback direction ---------------------------------------------

    def send_feedback(self, message: object) -> None:
        """Carry an RTCP message back to the sender after one-way delay.

        Subject to the reverse-channel loss model and outage faults;
        surviving messages deliver in FIFO order (a message never
        overtakes one sent before it).
        """
        self.stats.feedback_sent += 1
        if self._feedback_outage:
            self.stats.feedback_dropped += 1
            return
        loss_model = self._feedback_loss_override
        if loss_model is not None and loss_model.should_drop(
            self._feedback_rng, self.sim.now
        ):
            self.stats.feedback_dropped += 1
            return
        delay = (
            self.config.propagation_delay
            + self._extra_delay
            + self.config.jitter_max * self._jitter_rng.random()
        )
        deliver_at = max(self.sim.now + delay, self._feedback_horizon)
        self._feedback_horizon = deliver_at
        self.sim.schedule_at(deliver_at, self._deliver_feedback, message)

    def _deliver_feedback(self, message: object) -> None:
        self.stats.feedback_delivered += 1
        if self.on_feedback_deliver is not None:
            self.on_feedback_deliver(message)

    # -- introspection ---------------------------------------------------

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def capacity_now(self) -> float:
        """Current link capacity in bits per second (fault-adjusted)."""
        capacity = self.config.trace.capacity_at(self.sim.now)
        if self._capacity_cap is not None:
            capacity = min(capacity, self._capacity_cap)
        return capacity

    @property
    def base_rtt(self) -> float:
        """Propagation-only round-trip time (no queueing)."""
        return 2 * self.config.propagation_delay
