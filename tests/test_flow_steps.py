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
- *Fault edges*: a path born while a fault window on its id is open
  takes that window at birth, not at the window's next edge.
"""

from hypothesis import given, settings
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
from repro.flow.link import FlowLink
from repro.flow.session import FlowCall
from repro.net.path import _OUTAGE_CAPACITY_BPS, PathConfig
from repro.net.trace import BandwidthTrace

STEP_DTS = (1 / 30, 1 / 24, 0.1, 1 / 7)


@st.composite
def traces_and_steps(draw):
    """A step function and a step size: 1-12 segments, some of zero
    length, most starting on a step of ``dt`` (``k * dt``) or a round
    decimal (``k / 10``), where a ``ceil``-only boundary slips; a first
    sample after 0 now and then; values around the outage threshold;
    looping or not."""
    dt = draw(st.sampled_from(STEP_DTS))
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
    return BandwidthTrace(samples, loop=loop), dt


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
