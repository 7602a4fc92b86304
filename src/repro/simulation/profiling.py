"""Per-subsystem time and event accounting for simulation runs.

The simulator itself only counts dispatched events; this module adds an
optional :class:`SimProfiler` that hooks the run loop (via
``Simulator.profile_hook``), times every callback, and attributes the
cost to a subsystem bucket derived from the callback's defining module:

========== ====================================================
bucket     modules
========== ====================================================
simulator  ``repro.simulation.*`` (timer plumbing itself)
paths      ``repro.net.*`` (link serve/deliver, traces, loss)
sender     ``repro.core.*`` (sender session, path manager, RTCP)
receiver   ``repro.receiver.*`` (buffers, NACK, playout)
scheduler  ``repro.scheduling.*``
fec        ``repro.fec.*``
cc         ``repro.cc.*`` (GCC, pacer, probing)
video      ``repro.video.*`` (encoder, packetizer)
========== ====================================================

Scheduler assignment, FEC sizing, and GCC feedback processing run
*inside* sender-side callbacks rather than as their own events, so the
event buckets alone would hide them.  :meth:`SimProfiler.attach_call`
additionally wraps those entry points as named *sections*; section time
is reported separately and is a subset of the enclosing event bucket's
time, not additive with it.

The hook costs two ``perf_counter()`` calls per event, so a profiled
run is slower than a plain one — use it to find where time goes, and
the perf ledger's ``packet-figs`` workload (``benchmarks/ledger``,
which times unhooked runs) to measure absolute throughput.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.simulation.events import _NO_ARG
from repro.simulation.process import PeriodicProcess
from repro.simulation.simulator import Simulator

if TYPE_CHECKING:
    from repro.core.session import ConferenceCall

_BUCKET_BY_PREFIX = (
    ("repro.net.", "paths"),
    ("repro.receiver.", "receiver"),
    ("repro.cc.", "cc"),
    ("repro.fec.", "fec"),
    ("repro.scheduling.", "scheduler"),
    ("repro.core.", "sender"),
    ("repro.video.", "video"),
    ("repro.simulation.", "simulator"),
)


def _bucket_of(module: str) -> str:
    for prefix, bucket in _BUCKET_BY_PREFIX:
        if module.startswith(prefix):
            return bucket
    return "other"


class SimProfiler:
    """Attributes simulation wall time to subsystems.

    Usage::

        profiler = SimProfiler()
        run_call(config, paths, profiler=profiler)
        print(profiler.format_report())
    """

    def __init__(self) -> None:
        self._event_seconds: Dict[str, float] = {}
        self._event_counts: Dict[str, int] = {}
        self._section_seconds: Dict[str, float] = {}
        self._section_counts: Dict[str, int] = {}
        # Bound-method callbacks are recreated per schedule, so the
        # cache keys on the *owning class* (stable across events).
        self._class_buckets: Dict[type, str] = {}
        self._wrapped: List[Tuple[object, str, Callable[..., object]]] = []

    # -- attachment --------------------------------------------------------

    def attach(self, sim: Simulator) -> None:
        """Install the per-event hook on ``sim``."""
        sim.profile_hook = self._on_event

    def attach_call(self, call: "ConferenceCall") -> None:
        """Hook a :class:`~repro.core.session.ConferenceCall` fully.

        Installs the event hook plus section wrappers around the
        synchronous hot entry points that run inside sender callbacks.
        """
        self.attach(call.sim)
        self.wrap_section("scheduler.assign", call.sender.scheduler, "assign")
        self.wrap_section(
            "fec.converge", call.sender._converge_fec, "num_fec_packets"
        )
        self.wrap_section(
            "fec.webrtc", call.sender._webrtc_fec, "num_fec_packets"
        )
        for state in call.sender.path_manager._states.values():
            self.wrap_section("cc.gcc", state.gcc, "on_transport_feedback")

    def wrap_section(self, name: str, obj: object, method_name: str) -> None:
        """Time every call to ``obj.method_name`` under section ``name``."""
        original = getattr(obj, method_name)
        seconds = self._section_seconds
        counts = self._section_counts
        seconds.setdefault(name, 0.0)
        counts.setdefault(name, 0)

        def timed(*args: object, **kwargs: object) -> object:
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                counts[name] += 1

        setattr(obj, method_name, timed)
        self._wrapped.append((obj, method_name, original))

    def detach_sections(self) -> None:
        """Restore every method wrapped by :meth:`wrap_section`."""
        for obj, method_name, original in self._wrapped:
            setattr(obj, method_name, original)
        self._wrapped.clear()

    # -- the hook ----------------------------------------------------------

    def _on_event(self, callback: Callable[..., None], arg: object) -> None:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicProcess):
            # Periodic ticks belong to the subsystem whose callback the
            # process wraps, not to the timer plumbing.
            inner = owner._callback
            owner = getattr(inner, "__self__", inner)
        key = type(owner) if owner is not None else type(callback)
        bucket = self._class_buckets.get(key)
        if bucket is None:
            target = owner if owner is not None else callback
            module = getattr(target, "__module__", None) or key.__module__
            bucket = _bucket_of(module)
            self._class_buckets[key] = bucket
        start = perf_counter()
        if arg is _NO_ARG:
            callback()
        else:
            callback(arg)
        elapsed = perf_counter() - start
        self._event_seconds[bucket] = (
            self._event_seconds.get(bucket, 0.0) + elapsed
        )
        self._event_counts[bucket] = self._event_counts.get(bucket, 0) + 1

    # -- reporting ---------------------------------------------------------

    @property
    def events_total(self) -> int:
        return sum(self._event_counts.values())

    @property
    def seconds_total(self) -> float:
        return sum(self._event_seconds.values())

    def report(self) -> dict:
        """The accounting as a JSON-ready dict."""
        total = self.seconds_total
        return {
            "events_total": self.events_total,
            "seconds_total": total,
            "subsystems": {
                bucket: {
                    "events": self._event_counts[bucket],
                    "seconds": self._event_seconds[bucket],
                    "share": (
                        self._event_seconds[bucket] / total if total else 0.0
                    ),
                }
                for bucket in sorted(
                    self._event_counts,
                    key=lambda b: self._event_seconds[b],
                    reverse=True,
                )
            },
            "sections": {
                name: {
                    "calls": self._section_counts[name],
                    "seconds": self._section_seconds[name],
                }
                for name in sorted(self._section_counts)
            },
        }

    def format_report(self) -> str:
        """The accounting as an aligned text table."""
        report = self.report()
        lines = [
            f"{'subsystem':<12} {'events':>10} {'seconds':>10} {'share':>7}"
        ]
        for bucket, row in report["subsystems"].items():
            lines.append(
                f"{bucket:<12} {row['events']:>10} "
                f"{row['seconds']:>10.4f} {100 * row['share']:>6.1f}%"
            )
        lines.append(
            f"{'total':<12} {report['events_total']:>10} "
            f"{report['seconds_total']:>10.4f} {100.0:>6.1f}%"
        )
        if report["sections"]:
            lines.append("")
            lines.append(
                f"{'section (inside events above)':<30} "
                f"{'calls':>10} {'seconds':>10}"
            )
            for name, row in report["sections"].items():
                lines.append(
                    f"{name:<30} {row['calls']:>10} {row['seconds']:>10.4f}"
                )
        return "\n".join(lines)
