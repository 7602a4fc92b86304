"""The claims ledger: its verdict rule, the committed CLAIMS.json, and
the summary table of EXPERIMENTS.md that is rendered from it."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import claims
from repro.experiments.cells import Fidelity

ROOT = Path(__file__).resolve().parent.parent
LEDGER = json.loads((ROOT / "CLAIMS.json").read_text())
BY_NAME = {row["name"]: row for row in LEDGER["claims"]}


class TestVerdict:
    @pytest.mark.parametrize(
        "lo, hi, direction, expected",
        [
            (1.5, 3.0, claims.ABOVE, "holds"),
            (-3.0, -1.5, claims.ABOVE, "inverted"),
            (-3.0, -1.5, claims.BELOW, "holds"),
            (1.5, 3.0, claims.BELOW, "inverted"),
            # Clear of zero, not clear of the smallest effect.
            (0.5, 3.0, claims.ABOVE, "inconclusive"),
            (-3.0, 0.5, claims.BELOW, "inconclusive"),
            (-0.5, 0.5, claims.ABOVE, "inconclusive"),
        ],
    )
    def test_the_interval_must_clear_the_smallest_effect(
        self, lo, hi, direction, expected
    ):
        assert claims.verdict([lo, hi], lo, hi, direction, 1.0) == expected

    def test_identical_arms_are_unresolved_not_inconclusive(self):
        assert (
            claims.verdict([0.0] * 20, 0.0, 0.0, claims.BELOW, 0.0)
            == "unresolved-at-fidelity"
        )
        # One seed that differs is data, whatever the interval says.
        assert (
            claims.verdict([0.0] * 19 + [4.0], 0.0, 0.4, claims.BELOW, 0.0)
            == "inconclusive"
        )

    def test_a_failed_seed_drops_its_pair(self):
        claim = claims.CLAIMS[0]
        entry = claims._entry(
            claim, Fidelity.FLOW, [(1.0, 2.0), (None, 2.0), (1.0, 3.0)]
        )
        assert (entry["n"], entry["failed"]) == (2, 1)
        assert entry["mean"] == -1.5
        assert entry["means"] == [1.0, 2.5]


class TestLedger:
    def test_every_claim_at_twenty_seeds_at_both_fidelities(self):
        assert LEDGER["seeds"] == list(range(1, 21))
        assert list(BY_NAME) == [claim.name for claim in claims.CLAIMS]
        for row in LEDGER["claims"]:
            assert row["packet"]["n"] == 20, row["name"]
            assert row["packet"]["verdict"] in claims.VERDICTS
            if row["flow"] is not None:
                assert row["flow"]["n"] == 20, row["name"]
                assert row["flow"]["verdict"] in claims.VERDICTS
        # The flow model has no NACK switch: that arm has no flow cell.
        assert BY_NAME["ablation-no-nack"]["flow"] is None

    @pytest.mark.parametrize("metric", ["drops", "kfr"])
    def test_flow_cannot_see_table5(self, metric):
        for mbps in (15, 4):
            for percent in (1, 3, 5):
                row = BY_NAME[f"table5-{metric}-{percent}pct-{mbps}mbps"]
                assert row["flow"]["verdict"] == "unresolved-at-fidelity"
                assert row["packet"]["verdict"] != "unresolved-at-fidelity"

    def test_the_summary_table_is_the_ledger(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        section = text.split("\n## Overall fidelity summary\n", 1)[1]
        section = section.split("\n#", 1)[0]
        table = [line for line in section.splitlines() if line.startswith("|")]
        assert "\n".join(table) == claims.markdown(LEDGER)

    def test_flow_verdicts_recompute_byte_for_byte(self):
        names = (
            "fig3-fps-vs-srtt", "fig3-drops-vs-srtt",
            "table5-drops-3pct-15mbps",
        )
        payload, stats = claims.run_claims(
            [claim for claim in claims.CLAIMS if claim.name in names],
            LEDGER["seeds"],
            [Fidelity.FLOW],
        )
        assert stats.errors == 0
        assert [row["name"] for row in payload["claims"]] == list(names)
        for row in payload["claims"]:
            assert json.dumps(row["flow"], sort_keys=True) == json.dumps(
                BY_NAME[row["name"]]["flow"], sort_keys=True
            )
        # The Fig. 3 prose is inverted at flow fidelity.
        assert BY_NAME["fig3-fps-vs-srtt"]["flow"]["verdict"] == "inverted"


class TestCommand:
    def test_claims_prints_the_table_and_writes_the_payload(
        self, tmp_path, capsys
    ):
        out = tmp_path / "claims.json"
        argv = ["claims", "--fidelity", "flow", "--seeds", "1"]
        assert main([*argv, "--json", str(out)]) == 0
        printed = capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert claims.markdown(payload) in printed
        assert payload["seeds"] == [1]
        for row in payload["claims"]:
            assert "flow" in row and "packet" not in row

    def test_both_is_a_fidelity_of_claims_only(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "fig12", "--fidelity", "both"])
        assert exit_info.value.code == 2
