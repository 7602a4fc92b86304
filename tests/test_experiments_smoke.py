"""Smoke tests for every experiment module at miniature scale.

The paper's orderings are judged over seeds by ``repro claims``
(tests/test_claims.py); here we only verify each module's plumbing —
its grid, the structure of its rows, its labels, and that the CLI
prints its tables — so a refactor cannot silently break an
experiment.  The one exception is the trace statistics, whose
Appendix D envelopes are single-trace properties and are checked at
full length in ``test_traces``.
"""

import hashlib

import pytest

from repro.cli import EXPERIMENTS, main
from repro.core.config import SystemKind
from repro.experiments import (
    fig01_motivation,
    fig03_multipath_not_enough,
    fig09_10_wild,
    fig11_feedback,
    fig12_13_fec,
    fig14_15_comparison,
    fig16_17_stationary,
    sweeps,
    traces_appendix,
)
from repro.experiments.cells import canonical_json
from repro.experiments.figures import run_experiment

TINY = 8.0

# What `repro experiment <name>` must print, whatever the numbers are.
TITLES = {
    "fig01": ["Figure 1 — WebRTC over a single cellular network", "FPS tmobile"],
    "fig03": ["Figure 3 — WebRTC and multipath variants", "Table 1 — frame drops"],
    "fig09": [
        "Figure 10 — normalized QoE (walking)",
        "Table 3 — E2E / FEC (walking)",
        "Figure 10 — normalized QoE (driving)",
        "Table 3 — E2E / FEC (driving)",
    ],
    "fig11": [
        "Figure 11 / Table 4 — the benefit of QoE feedback",
        "received rate Mbps (with-feedback)",
        "received rate Mbps (without-feedback)",
    ],
    "fig12": [
        "Figure 12 — FEC overhead/utilization vs loss",
        "Figure 13 — throughput vs E2E trade-off",
        "Table 5 — % QoE improvement, path-specific FEC vs table FEC",
    ],
    "fig14": [
        "Figure 14(a) — normalized QoE (driving)",
        "Figure 14(b,c) — FEC and E2E",
        "Figure 15 — PSNR",
    ],
    "fig16": [
        "Figure 17 — normalized QoE (stationary)",
        "Table 6 — E2E / FEC (stationary)",
    ],
    "sweeps": [
        # At flow fidelity there is no packet-buffer block (see
        # test_flow_sweep_has_no_packet_buffer_row); the receiver
        # defaults print as a deadline.
        "Design-parameter sweeps (Converge, driving)",
        "playout_deadline  0.800",
        "bernoulli",
        "gilbert-elliott",
    ],
    "traces": ["Figures 20-22 — scenario trace statistics"],
}

# sha256 of canonical_json([c.resolved() for c in cells()]) per default
# grid, computed at the commit before the modules were rewritten onto
# the driver (fig09: walking then driving; sweeps: buffer, deadline,
# loss-model).  The cache key of every figure cell hangs off these
# bytes, so a re-ordered or re-labelled grid — and the cold cache it
# causes — fails here.  Independent of cells.code_version().
GRID_DIGESTS = {
    "fig01": "73358926a1cffc1103c0c38ce44be2b24e045d713cbbfea28b0df55f43731fb2",
    "fig03": "956ac554e4b15fb44026f0bb531ab81297672f77b28b933a99f27078a8efb646",
    "fig09": "5d06308ab0d7c8c2cf0e6495ecc459d0087fcf53cf1576cbe59382055af0aef4",
    "fig11": "92da815637963fa48d27c2883e846ed8c13a6f59b83d58cef775af1165997530",
    "fig12": "9fd96760f04483fa39d691eadce4a9c86bfcd461dbc4f9ac382837238fae90a7",
    "fig14": "54665a16713997bd710a9e5e1abed609d5d245b8067ee6ce595fe0a0eeb03785",
    "fig16": "10dd3fda847701f6203bd7493e2d527db65cc72ce8ba6c65783c8b05ac4a2cf2",
    # The sweeps grid carries ReceiverConfig objects, so this digest
    # also moves when a field is added to or removed from that
    # dataclass or the configs nested in it.
    "sweeps": "d1daf8f6dea02d252919f73257df9b5bdd023006311070b645203dd8ccb6371e",
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_renders(name, capsys):
    code = main([
        "experiment", name, "--fidelity", "flow", "--duration", "4",
        "--seed", "2", "--jobs", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    for title in TITLES[name]:
        assert title in out
    assert "%%" not in out


def test_flow_sweep_has_no_packet_buffer_row():
    # The flow model has no packet buffer: its grid leaves that block
    # out, and the receiver defaults still label as the sweep they sit
    # in even when they open the grid.
    def labels(grid):
        return [p for p, _, _ in sweeps.points([(c, None) for c in grid])]

    flow = sweeps.cells(duration=4.0, fidelity="flow", deadlines=(0.8, 1.6))
    assert labels(flow) == ["playout_deadline"] * 2 + ["loss_model"] * 2
    packet = labels(sweeps.cells(duration=4.0))
    assert packet.count("packet_buffer") == 4
    assert packet.count("playout_deadline") == 4


def test_every_grid_is_pinned():
    # traces simulates no calls: no grid, nothing cached.
    with_cells = {n for n, m in EXPERIMENTS.items() if hasattr(m, "cells")}
    assert with_cells == set(GRID_DIGESTS) == set(EXPERIMENTS) - {"traces"}


@pytest.mark.parametrize("name", sorted(GRID_DIGESTS))
def test_default_grid_is_the_parents(name):
    resolved = [cell.resolved() for cell in EXPERIMENTS[name].cells()]
    digest = hashlib.sha256(canonical_json(resolved).encode()).hexdigest()
    assert digest == GRID_DIGESTS[name]


@pytest.mark.slow
class TestExperimentPlumbing:
    def test_fig01(self):
        rows = run_experiment(fig01_motivation, TINY, 2)
        networks = [fig01_motivation.network_of(s) for _, s in rows]
        assert networks == ["tmobile", "verizon"]
        for _, summary in rows:
            assert summary.average_fps >= 0
            assert len(summary.series_values("fps")) == int(TINY)

    def test_fig03(self):
        rows = run_experiment(
            fig03_multipath_not_enough, TINY, 2, stream_counts=(1,),
            systems=(SystemKind.WEBRTC, SystemKind.CONVERGE),
        )
        assert {s.label for _, s in rows} == {"webrtc", "converge"}
        converge = [c for c, s in rows if s.label == "converge"]
        assert converge[0].num_streams == 1

    def test_fig09(self):
        rows = run_experiment(
            fig09_10_wild, TINY, 2, scenarios=("walking",),
            stream_counts=(1,),
        )
        systems = {s.label for _, s in rows}
        assert systems == {"webrtc-w", "webrtc-t", "converge"}
        for _, summary in rows:
            assert set(summary.normalized()) == {
                "throughput", "fps", "stall", "qp",
            }

    def test_fig09_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            fig09_10_wild.cells(scenarios=("flying",))

    def test_fig11(self):
        rows = run_experiment(fig11_feedback, 40.0, 2, num_seeds=1)
        arms = fig11_feedback.arms(rows)
        assert list(arms) == ["with-feedback", "without-feedback"]
        assert arms["without-feedback"][0].series_pairs("ifd")
        assert arms["with-feedback"][0].series_pairs("receive_rate")
        # Either arm holds the ~33 ms inter-frame delay target, fade
        # onset included (a property of each arm, not an ordering).
        for summaries in arms.values():
            assert fig11_feedback.seed_means(summaries)["mean_ifd"] < 0.05

    def test_fig12(self):
        rows = run_experiment(fig12_13_fec, TINY, 2, loss_percents=(2,))
        assert len(rows) == 2
        assert {s.label for _, s in rows} == {"converge", "webrtc-table"}
        table5 = fig12_13_fec.table5(rows)
        assert table5[0]["loss_percent"] == 2

    def test_fig14(self):
        rows = run_experiment(fig14_15_comparison, TINY, 2)
        assert {s.label for _, s in rows} == {
            "webrtc-t", "webrtc-v", "webrtc-cm", "srtt", "m-tput",
            "m-rtp", "converge",
        }

    def test_fig16(self):
        rows = run_experiment(
            fig16_17_stationary, TINY, 2, stream_counts=(1,)
        )
        assert len(rows) == 3

    def test_traces(self):
        rows = traces_appendix.rows(duration=180.0, seed=1)
        assert len(rows) == 6
        for stats in rows:
            assert stats.mean_mbps > 0
            assert 0 <= stats.outage_fraction <= 1
        # Appendix D's envelopes, properties of one trace rather than
        # orderings of two arms.  Fig. 20: stationary WiFi is stable
        # and ample.
        stats = {(s.scenario, s.network): s for s in rows}
        wifi = stats[("stationary", "wifi")]
        assert wifi.mean_mbps > 20
        assert wifi.below_required_fraction < 0.05
        # Fig. 22: each driving network misses the 10 Mbps requirement
        # a large share of the time.
        for network in ("tmobile", "verizon"):
            driving = stats[("driving", network)]
            assert driving.below_required_fraction > 0.2
            assert driving.p10_mbps < 5
        # Fig. 21: walking sits between the two.
        walking = stats[("walking", "wifi")]
        assert (
            wifi.below_required_fraction
            <= walking.below_required_fraction
            <= stats[("driving", "tmobile")].below_required_fraction
        )

    def test_sweep_structures(self):
        rows = run_experiment(
            sweeps, TINY, 2, capacities=(), deadlines=(0.4, 0.8)
        )
        points = sweeps.points(rows)
        deadlines = [v for p, v, _ in points if p == "playout_deadline"]
        assert deadlines == [0.4, 0.8]
        assert [p for p, _, _ in points].count("loss_model") == 2

    def test_mains_print(self, capsys):
        rows = traces_appendix.rows(duration=30.0, seed=2)
        print(traces_appendix.render(rows))
        out = capsys.readouterr().out
        assert "stationary" in out and "driving" in out
