"""Tests for the discrete-event simulation core."""

import pytest

from repro.simulation import (
    PeriodicProcess,
    RandomStreams,
    SimProfiler,
    Simulator,
)
from repro.simulation.events import _COMPACT_MIN_ENTRIES, Event, EventQueue
from repro.simulation.random import derive_seed


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append("first"))
        queue.push(1.0, lambda: order.append("second"))
        queue.pop().callback()
        queue.pop().callback()
        assert order == ["first", "second"]

    def test_posted_entry_pops_as_an_event(self):
        queue = EventQueue()
        seen = []
        queue.push(2.0, lambda: seen.append("pushed"))
        queue.post(1.0, seen.append, "posted")
        assert queue.peek_time() == 1.0
        assert queue.live == 2
        first = queue.pop()
        assert first.time == 1.0
        first.dispatch()
        queue.pop().dispatch()
        assert seen == ["posted", "pushed"]
        assert queue.pop() is None

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancel()
        assert queue.pop() is None

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0

    def test_cancel_then_peek_empty(self):
        queue = EventQueue()
        only = queue.push(1.0, lambda: None)
        only.cancel()
        assert queue.peek_time() is None
        assert queue.live == 0

    def test_live_excludes_cancelled(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(4)]
        events[1].cancel()
        assert len(queue) == 4
        assert queue.live == 3

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.live == 1

    def test_cancel_after_pop_does_not_corrupt_live(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is event
        event.cancel()  # already out of the heap: must not count
        assert queue.live == 1
        assert queue.pop() is not None

    def test_compaction_trims_heap_and_preserves_order(self):
        queue = EventQueue()
        events = [
            queue.push(float(i), lambda i=i: i)
            for i in range(2 * _COMPACT_MIN_ENTRIES)
        ]
        # Cancelling just over half the entries crosses the compaction
        # threshold; the heap should shrink to the survivors.
        for event in events[: _COMPACT_MIN_ENTRIES + 1]:
            event.cancel()
        assert len(queue) == _COMPACT_MIN_ENTRIES - 1
        assert queue.live == len(queue)
        times = []
        while True:
            event = queue.pop()
            if event is None:
                break
            times.append(event.time)
        assert times == sorted(times)
        assert len(times) == _COMPACT_MIN_ENTRIES - 1

    def test_compaction_below_min_entries_is_lazy(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events[:8]:
            event.cancel()
        # Under the size floor nothing is rebuilt; cancelled entries
        # stay until popped over.
        assert len(queue) == 10
        assert queue.live == 2

    def test_explicit_compact_resets_counter(self):
        queue = EventQueue()
        keep = queue.push(5.0, lambda: None)
        for i in range(5):
            queue.push(float(i), lambda: None).cancel()
        queue.compact()
        assert len(queue) == 1
        assert queue.live == 1
        assert queue.pop() is keep

    def test_reschedule_reuses_event_object(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("tick"))
        assert queue.pop() is event
        event.dispatch()
        again = queue.reschedule(event, 2.0)
        assert again is event
        assert queue.peek_time() == 2.0
        queue.pop().dispatch()
        assert fired == ["tick", "tick"]

    def test_reschedule_while_queued_rejected(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        with pytest.raises(RuntimeError):
            queue.reschedule(event, 2.0)

    def test_rescheduled_event_ties_break_by_rearm_order(self):
        queue = EventQueue()
        order = []
        event = queue.push(0.0, lambda: order.append("rearmed"))
        queue.pop()
        queue.push(1.0, lambda: order.append("fresh"))
        queue.reschedule(event, 1.0)
        queue.pop().dispatch()
        queue.pop().dispatch()
        assert order == ["fresh", "rearmed"]


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_event_at_until_boundary_runs(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [2]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_stop_halts_dispatch(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == []

    def test_stop_mid_event_keeps_queue_resumable(self):
        for until in (None, 10.0):
            sim = Simulator()
            fired = []

            def stop_and_record():
                fired.append(sim.now)
                sim.stop()

            sim.schedule(1.0, stop_and_record)
            sim.schedule(2.0, lambda: fired.append(sim.now))
            # A stopped run ends where it stopped, not at `until`: the
            # clock never passes an event that is still queued.
            assert sim.run(until=until) == 1.0
            assert sim.now == 1.0
            assert fired == [1.0]
            assert sim.pending_events() == 1
            sim.schedule_at(1.5, lambda: fired.append(sim.now))
            # A second run picks up exactly where the stop left off.
            assert sim.run(until=until) == (2.0 if until is None else until)
            assert fired == [1.0, 1.5, 2.0]

    def test_schedule_at_exactly_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        assert sim.run(until=2.0) == 2.0
        assert fired == [2.0]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_pending_events_reports_live_only(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        doomed = sim.schedule(2.0, lambda: None)
        doomed.cancel()
        assert sim.pending_events() == 1

    def test_events_dispatched_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None).cancel()
        sim.schedule(3.0, lambda: None)
        sim.run()
        assert sim.events_dispatched == 2

    def test_schedule_with_arg_passes_it(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "payload")
        sim.schedule_at(2.0, seen.append, None)
        sim.run()
        assert seen == ["payload", None]

    def test_simulator_reschedule_rearms_event(self):
        sim = Simulator()
        ticks = []
        holder = {}

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 3:
                holder["event"] = sim.reschedule(holder["event"], 1.0)

        holder["event"] = sim.schedule(1.0, tick)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_profile_hook_sees_every_dispatch(self):
        sim = Simulator()
        seen = []
        fired = []

        def hook(callback, arg):
            seen.append(sim.now)
            Event(sim.now, callback, arg).dispatch()

        sim.profile_hook = hook
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, fired.append, "b")
        sim.post(3.0, fired.append, "c")
        sim.post(4.0, lambda: fired.append("d"))
        sim.schedule(5.0, fired.append, "never").cancel()
        sim.run()
        assert seen == [1.0, 2.0, 3.0, 4.0]
        assert fired == ["a", "b", "c", "d"]
        assert sim.events_dispatched == 4

    def test_post_and_schedule_share_one_tie_break_counter(self):
        sim = Simulator()
        order = []
        sim.post(1.0, order.append, "posted-first")
        sim.schedule(1.0, order.append, "scheduled")
        sim.post(1.0, order.append, "posted-last")
        sim.schedule_at(1.0, order.append, "at")
        sim.run()
        assert order == ["posted-first", "scheduled", "posted-last", "at"]

    def test_post_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.post(-0.1, lambda: None)

    def test_posted_entries_survive_compaction_in_order(self):
        sim = Simulator()
        order = []
        doomed = [
            sim.schedule(1.0, order.append, "cancelled")
            for _ in range(2 * _COMPACT_MIN_ENTRIES)
        ]
        for index in range(4):
            sim.post(1.0, order.append, index)
        for event in doomed:
            event.cancel()
        assert sim.pending_events() == 4
        assert len(sim._queue) < len(doomed)  # compacted, posts kept
        sim.run()
        assert order == [0, 1, 2, 3]


class TestPeriodicProcess:
    def test_fires_at_interval(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 0.5, lambda: ticks.append(sim.now))
        sim.run(until=2.0)
        assert ticks == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now), start_delay=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_cancels_future_ticks(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 0.5, lambda: ticks.append(sim.now))
        sim.schedule(1.1, process.stop)
        sim.run(until=3.0)
        assert ticks == [0.0, 0.5, 1.0]
        assert not process.running

    def test_interval_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)


class TestSimProfiler:
    def test_accounts_events_and_buckets(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]
        report = profiler.report()
        assert report["events_total"] == 2
        assert report["seconds_total"] >= 0.0
        # Test-local lambdas don't belong to any repro subsystem.
        assert set(report["subsystems"]) == {"other"}
        assert report["subsystems"]["other"]["events"] == 2

    def test_periodic_ticks_attributed_to_wrapped_callback(self):
        sim = Simulator()
        profiler = SimProfiler()
        profiler.attach(sim)
        ticks = []
        PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.0)
        report = profiler.report()
        # The tick callback lives in this test module, not in
        # repro.simulation: the profiler must unwrap PeriodicProcess.
        assert set(report["subsystems"]) == {"other"}
        assert report["subsystems"]["other"]["events"] == len(ticks)

    def test_wrap_section_times_and_detaches(self):
        class Worker:
            def compute(self, value):
                return value * 2

        worker = Worker()
        original = worker.compute
        profiler = SimProfiler()
        profiler.wrap_section("work", worker, "compute")
        assert worker.compute(21) == 42
        report = profiler.report()
        assert report["sections"]["work"]["calls"] == 1
        assert report["sections"]["work"]["seconds"] >= 0.0
        profiler.detach_sections()
        assert worker.compute == original

    def test_attach_call_profiles_a_real_run(self):
        from repro.core.api import build_call_config, run_call
        from repro.core.config import SystemKind
        from repro.experiments.common import scenario_paths

        duration, seed = 2.0, 1
        profiler = SimProfiler()
        baseline = run_call(
            build_call_config(SystemKind("converge"), duration=duration,
                              seed=seed),
            scenario_paths("driving", duration, seed),
        )
        profiled = run_call(
            build_call_config(SystemKind("converge"), duration=duration,
                              seed=seed),
            scenario_paths("driving", duration, seed),
            profiler=profiler,
        )
        # Profiling must not perturb behaviour.
        assert profiled.summary.average_fps == baseline.summary.average_fps
        assert (
            profiled.summary.frames_rendered == baseline.summary.frames_rendered
        )
        report = profiler.report()
        assert report["events_total"] > 0
        assert "paths" in report["subsystems"]
        assert report["sections"]["scheduler.assign"]["calls"] > 0
        assert profiler.format_report().startswith("subsystem")


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("loss")
        b = RandomStreams(7).stream("loss")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_of_creation_order(self):
        one = RandomStreams(7)
        two = RandomStreams(7)
        one.stream("x")
        draw_one = one.stream("y").random()
        draw_two = two.stream("y").random()
        assert draw_one == draw_two

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        assert streams.stream("a").random() != streams.stream("b").random()

    def test_stream_is_cached(self):
        streams = RandomStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_fork_derives_new_seed(self):
        root = RandomStreams(7)
        child = root.fork("exp1")
        assert child.seed != root.seed
        assert child.seed == RandomStreams(7).fork("exp1").seed

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")
