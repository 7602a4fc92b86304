"""SDP/ICE-lite multipath negotiation (§5, "Connections management").

Converge extends ICE to gather candidates for every available network
and SDP to advertise multipath capability.  Crucially it is backward
compatible: if either endpoint does not advertise multipath, the
negotiation falls back to a single path and the call proceeds as
standard WebRTC.  This module models that handshake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

MULTIPATH_SDP_ATTRIBUTE = "a=x-converge-multipath"


@dataclass(frozen=True)
class IceCandidate:
    """One transport candidate (one local network interface)."""

    path_id: int
    network_name: str
    priority: int = 0


@dataclass
class IceAgent:
    """Gathers candidates from the locally available networks."""

    networks: Sequence[str]

    def gather_candidates(self) -> List[IceCandidate]:
        """One candidate per network, priority by listing order."""
        return [
            IceCandidate(
                path_id=index,
                network_name=name,
                priority=len(self.networks) - index,
            )
            for index, name in enumerate(self.networks)
        ]


@dataclass
class SdpOffer:
    """The caller's session description."""

    ssrcs: List[int]
    candidates: List[IceCandidate]
    multipath_supported: bool = True

    def attributes(self) -> List[str]:
        attrs = [f"a=ssrc:{ssrc}" for ssrc in self.ssrcs]
        if self.multipath_supported:
            attrs.append(MULTIPATH_SDP_ATTRIBUTE)
        return attrs


@dataclass
class SdpAnswer:
    """The callee's session description."""

    candidates: List[IceCandidate]
    multipath_supported: bool = True

    def attributes(self) -> List[str]:
        attrs: List[str] = []
        if self.multipath_supported:
            attrs.append(MULTIPATH_SDP_ATTRIBUTE)
        return attrs


@dataclass
class NegotiationResult:
    """Outcome of the offer/answer exchange."""

    multipath: bool
    agreed_path_ids: List[int]
    fallback_reason: Optional[str] = None


def negotiate_multipath(offer: SdpOffer, answer: SdpAnswer) -> NegotiationResult:
    """Agree on the paths a call may use.

    Multipath requires both endpoints to advertise support and at
    least one network pairing on each side; otherwise the negotiation
    falls back to the single highest-priority candidate pair, exactly
    like a legacy WebRTC endpoint would see.
    """
    offer_paths = {c.path_id for c in offer.candidates}
    answer_paths = {c.path_id for c in answer.candidates}
    common = sorted(offer_paths & answer_paths)
    if not common:
        raise ValueError("no common transport candidates; call cannot form")
    if not offer.multipath_supported:
        return NegotiationResult(
            multipath=False,
            agreed_path_ids=[_best_path(offer.candidates, common)],
            fallback_reason="offerer lacks multipath support",
        )
    if not answer.multipath_supported:
        return NegotiationResult(
            multipath=False,
            agreed_path_ids=[_best_path(offer.candidates, common)],
            fallback_reason="answerer lacks multipath support",
        )
    if len(common) == 1:
        return NegotiationResult(
            multipath=False,
            agreed_path_ids=common,
            fallback_reason="only one common network",
        )
    return NegotiationResult(multipath=True, agreed_path_ids=common)


def _best_path(candidates: Sequence[IceCandidate], allowed: Sequence[int]) -> int:
    usable = [c for c in candidates if c.path_id in allowed]
    return max(usable, key=lambda c: c.priority).path_id

