"""Full-duplex conference calls: both endpoints send video.

The paper's conferencing setup is two-way (§6 runs calls between
laptops/phones); uplink and downlink of a cellular/WiFi attachment are
separate radio resources, so each direction is its own one-way call on
its own emulated paths, with its own random streams, and each
endpoint's QoE is summarized independently over its own duration.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.core.api import run_call
from repro.core.config import CallConfig
from repro.core.session import CallResult
from repro.net.path import PathConfig


class DuplexCall:
    """A two-way call between endpoints A and B: two independent calls."""

    def __init__(
        self,
        config: CallConfig,
        forward_paths: Sequence[PathConfig],
        reverse_paths: Optional[Sequence[PathConfig]] = None,
        config_reverse: Optional[CallConfig] = None,
    ) -> None:
        self.config_forward = config
        self.config_reverse = config_reverse or dataclasses.replace(
            config, label=f"{config.label}-reverse"
        )
        self.forward_paths: List[PathConfig] = list(forward_paths)
        self.reverse_paths: List[PathConfig] = (
            list(reverse_paths)
            if reverse_paths is not None
            else [_mirror(pc) for pc in self.forward_paths]
        )

    def run(self) -> Tuple[CallResult, CallResult]:
        """Run both directions to completion; returns (forward, reverse)."""
        forward = run_call(self.config_forward, self.forward_paths)
        reverse = run_call(self.config_reverse, self.reverse_paths)
        return forward, reverse


def _mirror(config: PathConfig) -> PathConfig:
    """The reverse direction of a network attachment.

    Uplink and downlink are distinct resources; by default the mirror
    keeps the same profile but gets independent loss/jitter draws
    (the Path seeds its streams from path id + name, so a distinct
    name suffices).
    """
    return dataclasses.replace(
        config,
        name=f"{config.name}-rev",
        # Stateful loss models (Gilbert-Elliott) must not share state
        # across directions.
        loss_model=copy.deepcopy(config.loss_model),
    )
