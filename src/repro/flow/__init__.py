"""Flow-level simulation backend (``fidelity=flow``).

A frame-interval abstraction of the packet-level core: same cells,
same trace scenarios, same scheduler/FEC configuration, same QoE
payload shape out — at a fraction of the cost.  See DESIGN.md for the
model's assumptions and known divergences, and EXPERIMENTS.md for
when to trust it.
"""

from repro.flow.frames import PathFec, binomial_draw
from repro.flow.link import FlowLink
from repro.flow.rate_control import SteadyStateGcc
from repro.flow.session import FlowCall, run_flow_call

__all__ = [
    "FlowCall",
    "FlowLink",
    "PathFec",
    "SteadyStateGcc",
    "binomial_draw",
    "run_flow_call",
]
