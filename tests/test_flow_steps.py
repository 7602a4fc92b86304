"""Per-step tables and edges of the scalar flow loop (hypothesis).

The flow loop reads capacities from tables built once per call and
re-applies fault windows only where they change, so both must agree
with the per-step rules they replace:

- *Step tables*: ``BandwidthTrace.sample_steps`` fills one run per
  trace segment, yet equals ``capacity_at(i * dt)`` step for step, on
  looping traces and traces whose first sample is after 0 too; and
  ``FlowLink.step_caps`` equals ``FlowLink.capacity(i * dt)`` with no
  fault on the link.  Segment starts on a step (``k * dt``) or a
  round decimal (``k / 10``) are where a boundary found by
  ``ceil(t / dt)`` alone goes wrong, so the strategy draws them often.
  The array program's factored table (a segment position per step and
  lane, gathered from the lanes' segment values) equals
  ``FlowLink.step_caps`` bit for bit, lane by lane.
- *Fault edges*: a path born while a fault window on its id is open
  takes that window at birth, not at the window's next edge.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.api import build_call_config
from repro.core.config import SystemKind
from repro.experiments.common import constant_paths
from repro.faults.plan import (
    ChurnAction,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PathChurnEvent,
)
from repro.flow.batch import _CapacityTable
from repro.flow.link import FlowLink
from repro.flow.session import FlowCall
from repro.net.path import _OUTAGE_CAPACITY_BPS, PathConfig
from repro.net.trace import BandwidthTrace

STEP_DTS = (1 / 30, 1 / 24, 0.1, 1 / 7)


@st.composite
def step_traces(draw, dt):
    """A step function for steps of ``dt``: 1-12 segments, some of zero
    length, most starting on a step (``k * dt``) or a round decimal
    (``k / 10``), where a ``ceil``-only boundary slips; a first sample
    after 0 now and then; values around the outage threshold; looping
    or not."""
    starts = st.one_of(
        st.integers(0, 300).map(lambda k: k * dt),
        st.integers(0, 300).map(lambda k: k / 10),
        st.floats(0.0, 30.0),
    )
    times = draw(st.lists(starts, min_size=1, max_size=12))
    if draw(st.booleans()):
        times.append(0.0)
    values = draw(
        st.lists(
            st.one_of(
                st.floats(0.0, 2.0 * _OUTAGE_CAPACITY_BPS),
                st.floats(0.0, 2e7),
            ),
            min_size=len(times),
            max_size=len(times),
        )
    )
    samples = list(zip(times, values))
    if draw(st.booleans()):
        samples.append(samples[-1])  # a zero-length segment
    loop = draw(st.booleans())
    return BandwidthTrace(samples, loop=loop)


@st.composite
def traces_and_steps(draw):
    """:func:`step_traces` with its step size."""
    dt = draw(st.sampled_from(STEP_DTS))
    return draw(step_traces(dt)), dt


@given(traces_and_steps(), st.integers(0, 1000))
@settings(max_examples=400, deadline=None)
def test_sample_steps_equals_capacity_at_every_step(case, steps):
    trace, dt = case
    expected = [trace.capacity_at(i * dt) for i in range(steps)]
    assert trace.sample_steps(dt, steps) == expected
    runs = trace.step_runs(dt, steps)
    assert all(count > 0 for _value, count in runs)
    assert sum(count for _value, count in runs) == steps


@given(traces_and_steps(), st.integers(0, 1000))
@settings(max_examples=200, deadline=None)
def test_step_caps_equal_capacity_with_no_fault(case, steps):
    trace, dt = case
    link = FlowLink(PathConfig(path_id=0, trace=trace))
    link.precompute(dt, steps)
    assert link.step_caps == [link.capacity(i * dt) for i in range(steps)]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@given(
    st.sampled_from(STEP_DTS).flatmap(
        lambda dt: st.tuples(
            st.just(dt), st.lists(step_traces(dt), min_size=1, max_size=5)
        )
    ),
    st.integers(1, 600),
)
@settings(max_examples=200, deadline=None)
@example((1 / 30, [BandwidthTrace.constant(4e6)]), 90)
@example(
    (
        1 / 30,
        [
            # Segments starting on step 10 and on step 20, one under
            # the outage threshold, beside a looping and a dark trace.
            BandwidthTrace([(0.0, 2e6), (10 * (1 / 30), 999.0), (20 / 30, 3e6)]),
            BandwidthTrace([(0.0, 1e6), (0.5, 5e5), (1.0, 1e6)], loop=True),
            BandwidthTrace.constant(0.0),
        ],
    ),
    120,
)
def test_batch_capacity_gather_equals_step_caps(case, steps):
    dt, traces = case
    links = [FlowLink(PathConfig(path_id=0, trace=trace)) for trace in traces]
    table = _CapacityTable(links, np.arange(steps, dtype=np.float64) * dt)
    for link in links:
        link.precompute(dt, steps)
    for step in range(steps):
        assert _bits(table.at(step)) == _bits(
            [link.step_caps[step] for link in links]
        )


def test_a_path_born_inside_a_blackout_is_dark_at_birth():
    # Path 2 is born at 2 s into a blackout open from 1 s to 7 s: with
    # the window applied only at its edges, the born path would run
    # unfaulted until 7 s and its watchdog would never fire.
    plan = FaultPlan(
        events=[FaultEvent(FaultKind.BLACKOUT, 2, start=1.0, duration=6.0)],
        churn=[
            PathChurnEvent(
                action=ChurnAction.BIRTH, path_id=2, time=2.0, network="lte"
            )
        ],
    )
    config = build_call_config(SystemKind.CONVERGE, duration=8.0, seed=1)
    paths = constant_paths([8e6, 8e6], [0.02, 0.03], [0.0, 0.0])
    call = FlowCall(config, paths, fault_plan=plan, churn_scenario="migration")
    call.run()
    events = [
        (event, time)
        for time, pid, event in call.metrics.path_events
        if pid == 2
    ]
    assert [event for event, _time in events][:2] == ["degraded", "disabled"]
    assert events[0][1] < 3.0
