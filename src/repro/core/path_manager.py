"""Sender-side per-path state: GCC, Eq. 2 budgets, disable/re-enable.

The path manager owns, per path:

- one uncoupled GCC instance fed by transport feedback and receiver
  reports,
- the multipath sequence counters (``mp_seq`` / ``mp_transport_seq``)
  bound into each packet's header extension,
- the Eq. 2 feedback adjustment ``alpha`` accumulated from QoE
  feedback, with slow decay so a penalized path can earn traffic back,
- the disable logic (budget reaches zero) and the Eq. 3 re-enable
  check ``(rtt_fast - rtt_i)/2 <= FCD`` driven by probe duplicates,
- the feedback-silence watchdog: the whole control loop rides on RTCP,
  so when a path's feedback goes silent the sender must not trust (or
  wedge on) stale state.  Silence past ``WATCHDOG_DEGRADE_TIMEOUT``
  freezes the path's rate at its last-known-good value and decays it
  multiplicatively while demoting the path from priority-packet
  eligibility; past ``WATCHDOG_SILENCE_TIMEOUT`` the path is disabled and
  re-probed with exponential backoff (cap + jitter).  If silence would
  take down the *last* enabled path, the sender falls back to
  last-known-good single-path operation instead of wedging.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.cc.gcc import GccConfig, GoogleCongestionControl
from repro.core.config import (
    WATCHDOG_DEGRADE_TIMEOUT,
    WATCHDOG_PROBE_BACKOFF_FACTOR,
    WATCHDOG_PROBE_INTERVAL_INITIAL,
    WATCHDOG_PROBE_INTERVAL_MAX,
    WATCHDOG_PROBE_JITTER_FRACTION,
    WATCHDOG_RATE_DECAY_FACTOR,
    WATCHDOG_RATE_DECAY_INTERVAL,
    WATCHDOG_REENABLE_BACKOFF_INITIAL,
    WATCHDOG_REENABLE_BACKOFF_MAX,
    WATCHDOG_SILENCE_TIMEOUT,
)
from repro.metrics.collector import MetricsCollector
from repro.net.multipath import PathSet
from repro.rtp.packets import RtpPacket
from repro.rtp.rtcp import QoeFeedback, ReceiverReport, TransportFeedback
from repro.rtp.sequence import SEQ_MOD
from repro.scheduling.base import PathSnapshot
from repro.simulation.process import PeriodicProcess
from repro.simulation.simulator import Simulator

# How far behind the newest acked transport seq a recorded send must be
# before we declare it lost (tolerates delivery jitter reordering).
_LOSS_REORDER_MARGIN = 3
_ADJUST_DECAY_INTERVAL = 1.0
_ADJUST_DECAY_FACTOR = 0.9
_ADJUST_LIMIT = 200
_BUDGET_HEADROOM = 1.25
# How strongly the Eq. 1 media split is discounted by per-path loss.
_LOSS_AVERSION = 4.0


@dataclass
class _PathState:
    gcc: GoogleCongestionControl
    next_mp_seq: int = 0
    next_transport_seq: int = 0
    sent: Dict[int, Tuple[float, int]] = field(default_factory=dict)
    highest_acked_tseq: int = -1
    adjust: float = 0.0
    zero_budget_rounds: int = 0
    # Fractional packet carry so a path whose Eq. 1 share is below one
    # packet per round still receives its long-run proportion (without
    # this, integer rounding starves the path and its GCC estimate can
    # never grow — the multipath bootstrap deadlock).
    share_carry: float = 0.0
    enabled: bool = True
    disabled_at: float = -1.0
    last_feedback_time: float = -1.0
    last_probe_time: float = -1.0
    # Exponential backoff for blind re-enables of a silent path.
    reenable_backoff: float = WATCHDOG_REENABLE_BACKOFF_INITIAL
    last_send_time: float = -1.0
    # Media sends only (padding probes excluded): paths that carry no
    # media are not capacity-probed, or an unused path's inflated
    # estimate would leak into the encoder budget.
    last_media_send_time: float = -1.0
    # -- feedback-silence watchdog state ------------------------------
    # Degraded: feedback silent past the degrade timeout; the rate below is
    # the last-known-good GCC target frozen at degrade time, decayed
    # multiplicatively while silence persists.
    degraded: bool = False
    frozen_rate: float = 0.0
    degraded_at: float = -1.0
    # Failsafe: this is the last enabled path and its feedback is
    # silent — the call runs on it at decayed last-known-good rate
    # rather than wedging with zero paths.
    failsafe: bool = False
    # Probe backoff (disabled paths): current interval and the jittered
    # wait actually applied before the next probe.
    probe_interval: float = WATCHDOG_PROBE_INTERVAL_INITIAL
    probe_wait: float = WATCHDOG_PROBE_INTERVAL_INITIAL
    # Graceful teardown: the path takes no new media (zero Eq. 1
    # weight, invisible to schedulers) but keeps processing feedback so
    # in-flight packets can still be acknowledged before removal.
    draining: bool = False


class PathManager:
    """Aggregates sender-side state across all paths of one call."""

    def __init__(
        self,
        sim: Simulator,
        paths: PathSet,
        gcc_config: GccConfig | None = None,
        metrics: MetricsCollector | None = None,
    ) -> None:
        self.sim = sim
        self.paths = paths
        self.metrics = metrics
        self._gcc_config = gcc_config
        self._states: Dict[int, _PathState] = {
            pid: self._new_state(pid) for pid in paths.path_ids
        }
        self.last_fcd: float = 0.0
        self._decay_process = PeriodicProcess(
            sim, _ADJUST_DECAY_INTERVAL, self._decay_adjustments
        )
        # Jitter draws for the probe backoff come from a named stream
        # so adding the watchdog does not perturb other consumers.
        self._probe_rng = sim.streams.stream("path-manager-probe-jitter")
        # The most recent packet bound per path, used as probe material.
        self._last_bound: Optional[RtpPacket] = None

    def _new_state(self, path_id: int) -> _PathState:
        return _PathState(
            gcc=GoogleCongestionControl(path_id, self._gcc_config)
        )

    # -- path lifecycle ----------------------------------------------------

    def add_path(self, path_id: int) -> None:
        """Create fresh sender-side state for a path born mid-call.

        The new path starts enabled with a bootstrap GCC estimate;
        Eq. 1 re-normalizes on the next scheduling round, so survivors
        shed share to the newcomer only as its estimate earns it.
        """
        if path_id in self._states:
            raise ValueError(f"path {path_id} already managed")
        self._states[path_id] = self._new_state(path_id)

    def begin_drain(self, path_id: int) -> None:
        """Stop offering new media to ``path_id`` but keep feedback.

        The drain leg of graceful removal: schedulers no longer see the
        path (its Eq. 1 weight is zero and it is excluded from
        snapshots), while transport feedback for packets already on the
        wire keeps flowing so they are acked rather than presumed lost.
        """
        self._states[path_id].draining = True

    def remove_path(self, path_id: int) -> List[int]:
        """Drop all state for ``path_id``; returns in-flight seq numbers.

        The returned multipath transport sequence numbers identify
        packets sent on the dying path that were never acknowledged —
        the sender reroutes those to surviving paths as priority
        retransmissions.  Removing the state removes the path's Eq. 1
        weight, Eq. 2 adjustment and fractional carry, so budgets
        re-normalize across the survivors on the next round.
        """
        state = self._states.pop(path_id)
        return sorted(state.sent)

    def has_path(self, path_id: int) -> bool:
        return path_id in self._states

    def is_draining(self, path_id: int) -> bool:
        return self._states[path_id].draining

    def draining_path_ids(self) -> List[int]:
        return [pid for pid, s in self._states.items() if s.draining]

    def managed_path_ids(self) -> List[int]:
        return list(self._states)

    # -- packet binding ----------------------------------------------------

    def bind(self, packet: RtpPacket, path_id: int, now: float) -> RtpPacket:
        """Assign multipath header fields and record the send."""
        state = self._states[path_id]
        packet.path_id = path_id
        packet.mp_seq = state.next_mp_seq
        packet.mp_transport_seq = state.next_transport_seq
        packet.send_time = now
        state.next_mp_seq = (state.next_mp_seq + 1) % SEQ_MOD
        state.next_transport_seq += 1
        state.sent[packet.mp_transport_seq] = (now, packet.size_bytes)
        state.last_send_time = now
        if packet.ssrc != 0:
            state.last_media_send_time = now
        self._last_bound = packet
        return packet

    def make_probe(self, path_id: int, now: float) -> Optional[RtpPacket]:
        """Duplicate the most recent packet as a probe for ``path_id``.

        §4.2: probing a disabled path with duplicates lets GCC keep
        measuring its RTT/loss without risking media on it; the
        receiver's packet buffer discards the duplicate.
        """
        if self._last_bound is None:
            return None
        probe = dataclasses.replace(self._last_bound)
        return self.bind(probe, path_id, now)

    # -- feedback handling -----------------------------------------------------

    def on_transport_feedback(self, message: TransportFeedback) -> None:
        state = self._states.get(message.path_id)
        if state is None:
            return
        now = self.sim.now
        self._mark_feedback(state, message.path_id, now)
        acked: List[Tuple[float, float, int]] = []
        max_tseq = state.highest_acked_tseq
        sent_pop = state.sent.pop
        acked_append = acked.append
        for tseq, arrival in message.packets:
            record = sent_pop(tseq, None)
            if record is None:
                continue
            acked_append((record[0], arrival, record[1]))
            if tseq > max_tseq:
                max_tseq = tseq
        state.highest_acked_tseq = max_tseq
        lost = self._collect_losses(state, now)
        acked.sort(key=itemgetter(1))
        state.gcc.on_transport_feedback(acked, lost, now)

    def _collect_losses(self, state: _PathState, now: float) -> int:
        threshold = state.highest_acked_tseq - _LOSS_REORDER_MARGIN
        stale = [
            tseq
            for tseq, (send_time, _) in state.sent.items()
            if tseq < threshold and now - send_time > state.gcc.srtt
        ]
        for tseq in stale:
            del state.sent[tseq]
        return len(stale)

    def on_receiver_report(self, message: ReceiverReport) -> None:
        state = self._states.get(message.path_id)
        if state is None:
            return
        self._mark_feedback(state, message.path_id, self.sim.now)
        state.gcc.on_receiver_report(message.fraction_lost, self.sim.now)

    def _mark_feedback(
        self, state: _PathState, path_id: int, now: float
    ) -> None:
        """Feedback arrived: the path is alive again."""
        state.last_feedback_time = now
        state.probe_interval = WATCHDOG_PROBE_INTERVAL_INITIAL
        state.probe_wait = WATCHDOG_PROBE_INTERVAL_INITIAL
        state.failsafe = False
        if state.degraded:
            state.degraded = False
            state.frozen_rate = 0.0
            state.degraded_at = -1.0
            self._record_event(now, path_id, "restored")

    def on_qoe_feedback(self, message: QoeFeedback) -> None:
        """Apply Eq. 2: shift the path's packet budget by ``alpha``.

        Positive feedback only *restores* a previously penalized path
        (Eq. 2 caps the budget at ``P_max`` anyway); letting it push a
        path above its Eq. 1 share would grow exposure on a path whose
        only credential is having been early once.
        """
        state = self._states.get(message.path_id)
        if state is None:
            return
        if message.alpha >= 0:
            state.adjust = min(state.adjust + message.alpha, 0.0)
        else:
            state.adjust = max(state.adjust + message.alpha, -_ADJUST_LIMIT)
        self.last_fcd = message.fcd

    # -- feedback-silence watchdog ---------------------------------------------

    def _silence_age(self, state: _PathState, now: float) -> float:
        """Seconds of feedback silence while sends were outstanding.

        Returns 0 when the path is not silently failing (no sends
        newer than the last feedback, or no sends at all).
        """
        if state.last_send_time < 0:
            return 0.0
        if state.last_feedback_time < 0:
            # Never any feedback: silence measured from first send is
            # handled by the bootstrap-dead check, not the watchdog.
            return 0.0
        if state.last_send_time <= state.last_feedback_time:
            return 0.0
        return now - state.last_feedback_time

    def _update_watchdog(self, now: float) -> None:
        """Degrade enabled paths whose feedback has gone silent."""
        for path_id, state in self._states.items():
            if not state.enabled or state.degraded or state.draining:
                continue
            if self._silence_age(state, now) > WATCHDOG_DEGRADE_TIMEOUT:
                state.degraded = True
                state.frozen_rate = state.gcc.target_rate
                state.degraded_at = now
                self._record_event(now, path_id, "degraded")

    def _effective_rate(self, state: _PathState, now: float) -> float:
        """GCC target rate, frozen and decayed while feedback is silent."""
        if not state.degraded:
            return state.gcc.target_rate
        silent_for = max(now - state.degraded_at, 0.0)
        periods = silent_for / WATCHDOG_RATE_DECAY_INTERVAL
        decayed = state.frozen_rate * (WATCHDOG_RATE_DECAY_FACTOR ** periods)
        return max(decayed, state.gcc.config.min_rate)

    def effective_rate(self, path_id: int) -> float:
        """The rate the rest of the sender should trust for ``path_id``."""
        return self._effective_rate(self._states[path_id], self.sim.now)

    def pacing_rate(self, path_id: int) -> float:
        """Alias of :meth:`effective_rate` for the pacer wiring."""
        return self.effective_rate(path_id)

    def is_degraded(self, path_id: int) -> bool:
        return self._states[path_id].degraded

    def feedback_starved(self) -> bool:
        """True when no enabled path has live (non-silent) feedback."""
        live = [
            s
            for s in self._states.values()
            if s.enabled and not s.draining
        ]
        return bool(live) and all(s.degraded for s in live)

    def _record_event(self, now: float, path_id: int, event: str) -> None:
        if self.metrics is not None:
            self.metrics.record_path_event(now, path_id, event)

    # -- budgets / snapshots ------------------------------------------------------

    def snapshots(
        self, num_media_packets: int, avg_packet_size: int, now: float
    ) -> List[PathSnapshot]:
        """Per-path scheduling snapshots for one round (one frame)."""
        self._update_watchdog(now)
        self._update_enablement(now)
        states = self._states
        # §4.3: "if there is a path with a higher loss rate, we reduce
        # the number of packets on that path" — the Eq. 1 weights are
        # loss-discounted so media migrates toward cleaner paths
        # instead of being FEC-protected harder on lossy ones.
        def weight(state: _PathState) -> float:
            penalty = max(1.0 - _LOSS_AVERSION * state.gcc.loss_estimate, 0.2)
            return self._effective_rate(state, now) * penalty

        total_rate = sum(
            weight(s)
            for s in states.values()
            if s.enabled and not s.draining
        )
        snapshots: List[PathSnapshot] = []
        for path_id, state in states.items():
            if state.draining:
                # A draining path is invisible to schedulers: no new
                # media rides it, only in-flight acks drain off.
                continue
            rate = self._effective_rate(state, now)
            interval = 1.0 / 30.0  # one scheduling round per frame tick
            max_packets = max(
                int(
                    math.ceil(
                        rate * interval * _BUDGET_HEADROOM
                        / (8 * max(avg_packet_size, 1))
                    )
                ),
                1,
            )
            if state.enabled and total_rate > 0:
                share = num_media_packets * weight(state) / total_rate
            else:
                share = 0.0
            with_carry = share + state.share_carry + state.adjust
            budget = int(with_carry)
            state.share_carry = min(max(with_carry - budget - state.adjust, 0.0), 1.0)
            budget = min(max(budget, 0), max_packets)
            # Eq. 2: a path whose feedback-adjusted budget stays at
            # zero while media is flowing gets disabled outright.
            if state.enabled and share > 0 and budget == 0:
                state.zero_budget_rounds += 1
            else:
                state.zero_budget_rounds = 0
            age = (
                now - state.last_feedback_time
                if state.last_feedback_time >= 0
                else now
            )
            snapshots.append(
                PathSnapshot(
                    path_id=path_id,
                    srtt=state.gcc.srtt,
                    loss=state.gcc.loss_estimate,
                    send_rate=rate,
                    goodput=state.gcc.goodput,
                    budget_packets=budget,
                    max_packets=max_packets,
                    enabled=state.enabled,
                    last_feedback_age=age,
                    degraded=state.degraded,
                )
            )
        return snapshots

    def _update_enablement(self, now: float) -> None:
        fast_srtt = min(
            (
                s.gcc.srtt
                for s in self._states.values()
                if s.enabled and not s.draining
            ),
            default=0.1,
        )
        enabled_count = sum(
            1 for s in self._states.values() if s.enabled and not s.draining
        )
        for path_id, state in self._states.items():
            if state.draining:
                # Lifecycle transitions are pointless on a path being
                # torn down; it leaves the state machine as-is.
                continue
            if state.enabled:
                silent = (
                    self._silence_age(state, now) > WATCHDOG_SILENCE_TIMEOUT
                )
                bootstrap_dead = (
                    state.last_feedback_time < 0
                    and state.last_send_time >= 0
                    and now - state.last_send_time < 0.5
                    and now > 3.0
                )
                if not (
                    state.zero_budget_rounds >= 5
                    or state.adjust <= -_ADJUST_LIMIT * 0.9
                    or silent
                    or bootstrap_dead
                ):
                    continue
                if (silent or bootstrap_dead) and enabled_count <= 1:
                    # Total feedback starvation: this is the last
                    # enabled path.  Disabling it would wedge the call,
                    # so run on it at decayed last-known-good rate and
                    # keep the disable backoff armed for when another
                    # path returns.
                    if not state.failsafe:
                        state.failsafe = True
                        if not state.degraded:
                            state.degraded = True
                            state.frozen_rate = state.gcc.target_rate
                            state.degraded_at = now
                        self._record_event(now, path_id, "failsafe")
                    continue
                state.enabled = False
                state.disabled_at = now
                state.zero_budget_rounds = 0
                enabled_count -= 1
                self._record_event(now, path_id, "disabled")
                if silent or bootstrap_dead:
                    state.reenable_backoff = min(
                        state.reenable_backoff * 2,
                        WATCHDOG_REENABLE_BACKOFF_MAX,
                    )
                continue
            # Eq. 3 re-enable: the disabled path's extra one-way delay
            # must fit inside the tolerated frame construction delay.
            # Requires fresh probe feedback so a path in outage (whose
            # stale srtt looks fine) cannot sneak back in.
            extra_delay = (state.gcc.srtt - fast_srtt) / 2
            fresh = (
                state.last_feedback_time >= 0
                and now - state.last_feedback_time < 0.5
            )
            recovered = fresh and extra_delay <= max(self.last_fcd, 0.02)
            timed_out = now - state.disabled_at > state.reenable_backoff
            if recovered or timed_out:
                state.enabled = True
                state.adjust = 0.0
                enabled_count += 1
                self._record_event(now, path_id, "enabled")
                if recovered:
                    state.reenable_backoff = WATCHDOG_REENABLE_BACKOFF_INITIAL

    def _decay_adjustments(self) -> None:
        for state in self._states.values():
            state.adjust *= _ADJUST_DECAY_FACTOR
            if abs(state.adjust) < 0.5:
                state.adjust = 0.0

    # -- aggregate views ----------------------------------------------------------

    def aggregate_rate(self) -> float:
        """Sum of per-path GCC rates over *live* enabled paths (§4.1).

        A path that has never produced feedback (e.g. the unused second
        network of a single-path call) still holds its initial GCC rate;
        counting it would make the encoder overshoot the real capacity,
        so only paths with recent feedback contribute — a degraded
        (feedback-silent) path contributes its decayed last-known-good
        rate rather than dropping off a cliff or inflating the budget.
        """
        now = self.sim.now
        total = 0.0
        any_live = False
        for state in self._states.values():
            if not state.enabled or state.draining:
                continue
            if state.degraded:
                any_live = True
                total += self._effective_rate(state, now)
                continue
            live = (
                state.last_feedback_time >= 0
                and now - state.last_feedback_time < 1.0
            )
            if live:
                any_live = True
                total += state.gcc.target_rate
        if not any_live:
            # Bootstrap: no feedback yet anywhere, start conservative.
            # (Falls back over every state — draining included — so a
            # transient all-draining window cannot raise on min().)
            return min(
                s.gcc.target_rate
                for s in self._states.values()
            )
        return total

    def effective_aggregate_rate(
        self, avg_packet_bytes: int = 1224, frame_rate: float = 30.0
    ) -> float:
        """Aggregate rate net of negative Eq. 2 budget adjustments.

        Feedback that removes packets from a path removes real
        capacity from the call; the encoder must track it or the
        displaced packets overload the remaining paths and get shed.
        """
        now = self.sim.now
        packet_rate = avg_packet_bytes * 8 * frame_rate
        total = 0.0
        any_live = False
        for state in self._states.values():
            if not state.enabled or state.draining:
                continue
            if state.degraded:
                any_live = True
                total += self._effective_rate(state, now)
                continue
            live = (
                state.last_feedback_time >= 0
                and now - state.last_feedback_time < 1.0
            )
            if not live:
                continue
            any_live = True
            rate = state.gcc.target_rate
            if state.adjust < 0:
                rate = max(rate + state.adjust * packet_rate, 0.0)
            total += rate
        if not any_live:
            return min(s.gcc.target_rate for s in self._states.values())
        return total

    def enabled_path_ids(self) -> List[int]:
        return [
            pid
            for pid, s in self._states.items()
            if s.enabled and not s.draining
        ]

    def disabled_path_ids(self) -> List[int]:
        return [
            pid
            for pid, s in self._states.items()
            if not s.enabled and not s.draining
        ]

    def loss_estimate(self, path_id: int) -> float:
        return self._states[path_id].gcc.loss_estimate

    def loss_for_fec(self, path_id: int) -> float:
        """Loss rate to protect against: peak-hold over recent reports.

        When the path shows a standing queue, the loss is self-inflicted
        congestion — FEC against it only deepens the queue, so fall
        back to a small bound and let GCC drain it (§4.3's trade-off).
        """
        gcc = self._states[path_id].gcc
        min_rtt = gcc.min_rtt if not math.isinf(gcc.min_rtt) else gcc.srtt
        if gcc.srtt > min_rtt + 0.08:
            return min(gcc.loss_estimate, 0.05)
        return max(gcc.loss_estimate, gcc.loss_peak)

    def target_rate(self, path_id: int) -> float:
        return self._states[path_id].gcc.target_rate

    def srtt(self, path_id: int) -> float:
        return self._states[path_id].gcc.srtt

    def min_rtt(self, path_id: int) -> float:
        value = self._states[path_id].gcc.min_rtt
        return value if not math.isinf(value) else 0.0

    def aggregate_loss(self) -> float:
        """Packet-weighted aggregate loss across paths (application level)."""
        states = list(self._states.values())
        total_rate = sum(s.gcc.target_rate for s in states)
        if total_rate <= 0:
            return 0.0
        return sum(
            s.gcc.loss_estimate * s.gcc.target_rate for s in states
        ) / total_rate

    def carries_media(self, path_id: int, now: float, window: float = 1.0) -> bool:
        """Whether ``path_id`` recently carried media (not just padding)."""
        state = self._states[path_id]
        return (
            state.last_media_send_time >= 0
            and now - state.last_media_send_time < window
        )

    def should_probe(self, path_id: int, now: float) -> bool:
        """Whether to send a probe duplicate on a disabled path now.

        Probe cadence backs off exponentially (with jitter, so probes
        across paths do not synchronize) while the path stays silent;
        any feedback arrival resets the cadence via
        :meth:`_mark_feedback`.
        """
        state = self._states[path_id]
        if state.enabled:
            return False
        if (
            state.last_probe_time >= 0
            and now - state.last_probe_time < state.probe_wait
        ):
            return False
        state.last_probe_time = now
        jitter = 1.0 + self._probe_rng.uniform(
            -WATCHDOG_PROBE_JITTER_FRACTION, WATCHDOG_PROBE_JITTER_FRACTION
        )
        state.probe_wait = state.probe_interval * jitter
        # Back off for the round after this one: the first retry keeps
        # the initial cadence, then each silent round stretches it.
        state.probe_interval = min(
            state.probe_interval * WATCHDOG_PROBE_BACKOFF_FACTOR,
            WATCHDOG_PROBE_INTERVAL_MAX,
        )
        return True

    def adjustment(self, path_id: int) -> float:
        return self._states[path_id].adjust

    def stop(self) -> None:
        self._decay_process.stop()
