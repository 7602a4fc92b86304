"""Scenario presets: stationary, walking, driving (Appendix D)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel
from repro.net.path import PathConfig
from repro.net.trace import BandwidthTrace
from repro.simulation.random import RandomStreams
from repro.traces.generator import (
    combine_trace,
    markov_fade_envelope,
    ou_capacity_trace,
)


@dataclass(frozen=True)
class NetworkProfile:
    """Envelope parameters for one network in one scenario."""

    mean_bps: float
    std_bps: float
    p_enter_fade: float
    fade_duration: Tuple[float, float]
    fade_depth: Tuple[float, float]
    base_loss: float
    bursty_loss: bool
    propagation_delay: float


@dataclass(frozen=True)
class Scenario:
    """One mobility scenario with per-network profiles."""

    name: str
    networks: Dict[str, NetworkProfile]


def _mbps(x: float) -> float:
    return x * 1_000_000.0


STATIONARY = Scenario(
    name="stationary",
    networks={
        # Fig. 20: WiFi stable around 25-30 Mbps with rare short dips;
        # T-Mobile slightly failing the required level a few times.
        "wifi": NetworkProfile(
            mean_bps=_mbps(27),
            std_bps=_mbps(2),
            p_enter_fade=0.002,
            fade_duration=(2.0, 4.0),
            fade_depth=(0.2, 0.5),
            base_loss=0.001,
            bursty_loss=False,
            propagation_delay=0.010,
        ),
        "tmobile": NetworkProfile(
            mean_bps=_mbps(14),
            std_bps=_mbps(3),
            p_enter_fade=0.004,
            fade_duration=(2.0, 5.0),
            fade_depth=(0.3, 0.6),
            base_loss=0.004,
            bursty_loss=False,
            propagation_delay=0.030,
        ),
    },
)

WALKING = Scenario(
    name="walking",
    networks={
        # Fig. 21: moderate variation; each network occasionally falls
        # below the required level at coverage edges.
        "wifi": NetworkProfile(
            mean_bps=_mbps(19),
            std_bps=_mbps(6),
            p_enter_fade=0.012,
            fade_duration=(3.0, 8.0),
            fade_depth=(0.05, 0.3),
            base_loss=0.006,
            bursty_loss=True,
            propagation_delay=0.012,
        ),
        "tmobile": NetworkProfile(
            mean_bps=_mbps(13),
            std_bps=_mbps(4),
            p_enter_fade=0.010,
            fade_duration=(3.0, 8.0),
            fade_depth=(0.05, 0.3),
            base_loss=0.008,
            bursty_loss=True,
            propagation_delay=0.032,
        ),
    },
)

DRIVING = Scenario(
    name="driving",
    networks={
        # Fig. 22: large swings, deep multi-second fades; even the two
        # networks combined briefly miss the requirement.
        "tmobile": NetworkProfile(
            mean_bps=_mbps(14),
            std_bps=_mbps(7),
            p_enter_fade=0.013,
            fade_duration=(3.0, 9.0),
            fade_depth=(0.04, 0.35),
            base_loss=0.012,
            bursty_loss=True,
            propagation_delay=0.035,
        ),
        "verizon": NetworkProfile(
            mean_bps=_mbps(12),
            std_bps=_mbps(6),
            p_enter_fade=0.015,
            fade_duration=(3.0, 9.0),
            fade_depth=(0.04, 0.35),
            base_loss=0.015,
            bursty_loss=True,
            propagation_delay=0.040,
        ),
    },
)

MIGRATION = Scenario(
    name="migration",
    networks={
        # WiFi↔LTE migration envelope (LoLa-style dual-carrier walk):
        # WiFi is strong but degrades toward the coverage edge; LTE is
        # the slower, burstier carrier the call migrates onto.  Used by
        # the path-churn / wifi-lte-migration chaos scenarios, whose
        # BIRTH events reference these profiles by name.
        "wifi": NetworkProfile(
            mean_bps=_mbps(22),
            std_bps=_mbps(4),
            p_enter_fade=0.008,
            fade_duration=(2.0, 6.0),
            fade_depth=(0.1, 0.4),
            base_loss=0.004,
            bursty_loss=False,
            propagation_delay=0.012,
        ),
        "lte": NetworkProfile(
            mean_bps=_mbps(11),
            std_bps=_mbps(3),
            p_enter_fade=0.010,
            fade_duration=(2.0, 6.0),
            fade_depth=(0.1, 0.4),
            base_loss=0.006,
            bursty_loss=True,
            propagation_delay=0.035,
        ),
    },
)

_SCENARIOS = {s.name: s for s in (STATIONARY, WALKING, DRIVING, MIGRATION)}


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(_SCENARIOS)}"
        ) from None


def scenario_networks(name: str) -> List[str]:
    return list(get_scenario(name).networks)


def make_scenario_trace(
    scenario_name: str,
    network: str,
    duration: float,
    streams: RandomStreams,
) -> BandwidthTrace:
    """Generate the capacity trace for ``network`` in a scenario."""
    scenario = get_scenario(scenario_name)
    try:
        profile = scenario.networks[network]
    except KeyError:
        raise ValueError(
            f"scenario {scenario_name!r} has no network {network!r}; "
            f"choose from {sorted(scenario.networks)}"
        ) from None
    rng = streams.stream(f"trace-{scenario_name}-{network}")
    base = ou_capacity_trace(
        rng,
        duration,
        mean_bps=profile.mean_bps,
        std_bps=profile.std_bps,
    )
    envelope = markov_fade_envelope(
        rng,
        duration,
        p_enter_fade=profile.p_enter_fade,
        fade_duration_range=profile.fade_duration,
        fade_depth_range=profile.fade_depth,
    )
    return combine_trace(base, envelope)


def make_loss_model(scenario_name: str, network: str) -> LossModel:
    """The radio loss process matching the scenario's character."""
    profile = get_scenario(scenario_name).networks[network]
    if profile.bursty_loss:
        # Scale the bad-state dwell so the long-run rate matches the
        # profile's base loss with bursts of ~10-30% in the bad state.
        bad_loss = 0.2
        p_bad_to_good = 0.1
        p_good_to_bad = (
            profile.base_loss
            * p_bad_to_good
            / max(bad_loss - profile.base_loss, 1e-6)
        )
        return GilbertElliottLoss(
            p_good_to_bad=min(p_good_to_bad, 0.5),
            p_bad_to_good=p_bad_to_good,
            good_loss=0.0,
            bad_loss=bad_loss,
        )
    return BernoulliLoss(profile.base_loss)


def propagation_delay(scenario_name: str, network: str) -> float:
    return get_scenario(scenario_name).networks[network].propagation_delay


def scenario_path(
    scenario_name: str,
    network: str,
    path_id: int,
    duration: float,
    streams: RandomStreams,
) -> PathConfig:
    """One emulated path: the network's trace, delay and loss process."""
    return PathConfig(
        path_id=path_id,
        trace=make_scenario_trace(scenario_name, network, duration, streams),
        propagation_delay=propagation_delay(scenario_name, network),
        loss_model=make_loss_model(scenario_name, network),
        name=network,
    )


def birth_path(
    scenario_name: str,
    network: str,
    path_id: int,
    duration: float,
    streams: RandomStreams,
) -> PathConfig:
    """A path born mid-call (a churn BIRTH event), at either fidelity.

    Chaos plans name the migration scenario's WiFi/LTE profiles; under
    any other scenario the birth attaches to a profile the scenario
    has, chosen by path id, so churn composes with every trace
    scenario.  The trace rides a forked stream namespace, so its
    randomness never perturbs the draws of the initial paths.
    """
    networks = scenario_networks(scenario_name)
    if network not in networks:
        network = sorted(networks)[path_id % len(networks)]
    return scenario_path(
        scenario_name,
        network,
        path_id,
        duration,
        streams.fork(f"churn-path-{path_id}-{network}"),
    )
