"""Tests for full-duplex calls."""

import dataclasses

import pytest

from repro.analysis.export import result_to_dict
from repro.core.config import SystemKind
from repro.core.api import build_call_config, run_call
from repro.core.duplex import DuplexCall
from repro.experiments.cells import canonical_json
from repro.experiments.common import constant_paths, scenario_paths


def _payload(result):
    return canonical_json(result_to_dict(result))


class TestDuplexCall:
    def test_both_directions_render(self):
        config = build_call_config(SystemKind.CONVERGE, duration=10.0, seed=3)
        paths = constant_paths([10e6, 10e6], [0.02, 0.03], [0.0, 0.0])
        call = DuplexCall(config, paths)
        forward, reverse = call.run()
        assert forward.summary.frames_rendered > 200
        assert reverse.summary.frames_rendered > 200

    def test_directions_are_independent(self):
        """A dead reverse uplink must not affect the forward video."""
        config = build_call_config(SystemKind.CONVERGE, duration=10.0, seed=3)
        forward_paths = constant_paths([10e6, 10e6], [0.02, 0.03], [0.0, 0.0])
        reverse_paths = constant_paths([0.4e6, 0.4e6], [0.02, 0.03], [0.05, 0.05])
        call = DuplexCall(config, forward_paths, reverse_paths=reverse_paths)
        forward, reverse = call.run()
        assert forward.summary.average_fps > 25
        assert reverse.summary.throughput_bps < forward.summary.throughput_bps

    def test_asymmetric_systems(self):
        """One Converge endpoint talking to a single-path peer."""
        config_fwd = build_call_config(SystemKind.CONVERGE, duration=10.0, seed=3)
        config_rev = build_call_config(SystemKind.WEBRTC, duration=10.0, seed=3)
        paths = constant_paths([10e6, 10e6], [0.02, 0.03], [0.0, 0.0])
        call = DuplexCall(config_fwd, paths, config_reverse=config_rev)
        forward, reverse = call.run()
        assert forward.label == "converge"
        assert reverse.label == "webrtc"
        assert reverse.summary.frames_rendered > 200

    def test_mirror_paths_do_not_share_loss_state(self):
        config = build_call_config(SystemKind.CONVERGE, duration=5.0, seed=3)
        paths = scenario_paths("driving", duration=5.0, seed=3)
        call = DuplexCall(config, paths)
        fwd_models = [p.loss_model for p in call.forward_paths]
        rev_models = [p.loss_model for p in call.reverse_paths]
        for a, b in zip(fwd_models, rev_models):
            assert a is not b

    def test_duplex_on_scenario_traces(self):
        config = build_call_config(SystemKind.CONVERGE, duration=12.0, seed=5)
        paths = scenario_paths("walking", duration=12.0, seed=5)
        forward, reverse = DuplexCall(config, paths).run()
        for result in (forward, reverse):
            assert result.summary.average_fps > 10

    @pytest.mark.parametrize("reverse", ["mirrored-walking", "weak-constant"])
    def test_each_direction_is_its_one_way_call(self, reverse):
        """Neither direction sees the other: the forward payload is the
        one-way call's byte for byte whatever the reverse paths are, and
        the reverse payload is the one-way call of ``config_reverse``.
        Loss models carry state through a call, so every call gets
        freshly built paths."""
        config = build_call_config(SystemKind.CONVERGE, duration=12.0, seed=5)

        def forward_paths():
            return scenario_paths("walking", duration=12.0, seed=5)

        def reverse_paths():
            if reverse == "weak-constant":
                return constant_paths(
                    [0.4e6, 0.4e6], [0.02, 0.03], [0.05, 0.05]
                )
            return [
                dataclasses.replace(p, name=f"{p.name}-rev")
                for p in forward_paths()
            ]

        call = DuplexCall(
            config, forward_paths(), reverse_paths=reverse_paths()
        )
        forward, backward = call.run()
        assert _payload(forward) == _payload(run_call(config, forward_paths()))
        assert _payload(backward) == _payload(
            run_call(call.config_reverse, reverse_paths())
        )
