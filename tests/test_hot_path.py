"""The per-packet path and the per-step flow loop: no Enum member
lookups, no Enum hashing, no keyword-built records.

Every packet passes pacer release -> ``Path`` transmit -> delivery into
the receiver.  On CPython <= 3.11 ``PacketType.FEC`` runs
``EnumType.__getattr__`` (~5x a module global), and on every version
``Enum.__hash__`` is Python code, so the functions below name members
through the constants defined beside each Enum (``repro.rtp.packets``,
``repro.cc.aimd``, ``repro.core.config``) and never key a dict or set
by a member.  The jitter draw skips ``random.uniform`` for the same
reason; a test pins that the two agree bit for bit.

The flow loop's body (``for step in range(steps)`` in
``FlowCall.run``) runs ~30 times per simulated second per call and
keeps the same budget, plus one rule: it builds no class with keyword
arguments.  ``RenderedFrame`` is built positionally, so its field
order is pinned here.
"""

import ast
import inspect
import random
import textwrap
import builtins
import dataclasses
from enum import Enum

import pytest

from repro.cc.aimd import BandwidthUsage, RateControlState
from repro.cc.delay_based import OveruseDetector, TrendlineEstimator
from repro.cc.pacing import Pacer
from repro.core.api import build_call_config, run_call
from repro.core.config import FecMode, SystemKind
from repro.core.sender import SenderSession
from repro.experiments.common import scenario_paths
from repro.flow.session import FlowCall
from repro.metrics.collector import RenderedFrame
from repro.net.path import Path
from repro.receiver.packet_buffer import PacketBuffer
from repro.receiver.session import ReceiverSession
from repro.rtp.packets import PacketType, priority_of
from repro.scheduling.converge import ConvergeScheduler
from repro.video.packetizer import Packetizer

PER_PACKET = [
    Pacer._release,
    Path.send,
    Path._serve_next,
    Path._transmitted,
    Path._deliver,
    SenderSession._send_on_path,
    ReceiverSession.on_packet,
    ReceiverSession._on_media_packet,
    ReceiverSession._on_fec_packet,
    ReceiverSession._inject_recovered,
    PacketBuffer.insert,
    Packetizer.packetize,
    TrendlineEstimator.update,
    OveruseDetector.detect,
    ConvergeScheduler.assign,
    priority_of,
]

HOT_ENUMS = [PacketType, BandwidthUsage, RateControlState, FecMode]


def _resolve(node, namespace):
    """What a name or dotted name refers to in ``namespace``, else None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, namespace)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


def member_loads(source, namespace):
    """Every ``Enum.MEMBER`` attribute load in ``source`` (text or AST)."""
    tree = source
    if isinstance(source, str):
        tree = ast.parse(textwrap.dedent(source))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        owner = _resolve(node.value, namespace)
        if (
            isinstance(owner, type)
            and issubclass(owner, Enum)
            and node.attr in owner.__members__
        ):
            found.append(f"{owner.__name__}.{node.attr}")
    return found


@pytest.mark.parametrize(
    "function", PER_PACKET, ids=[f.__qualname__ for f in PER_PACKET]
)
def test_no_enum_member_lookup_per_packet(function):
    source = inspect.getsource(function)
    assert member_loads(source, function.__globals__) == []


def test_the_check_sees_a_member_lookup():
    source = """
        def on_packet(self, packet):
            fec_type = packets.PacketType.FEC
            if packet.packet_type is PacketType.FEC:
                return self.state is BandwidthUsage.NORMAL
            return PacketType.FEC.value, PacketType.__members__
    """
    namespace = {
        "packets": inspect.getmodule(PacketType),
        "PacketType": PacketType,
        "BandwidthUsage": BandwidthUsage,
    }
    assert member_loads(source, namespace) == [
        "PacketType.FEC",
        "PacketType.FEC",
        "BandwidthUsage.NORMAL",
        "PacketType.FEC",
    ]


def test_priority_of_hashes_no_enum(monkeypatch):
    def refuse(self):
        raise AssertionError(f"hashed {self!r}")

    monkeypatch.setattr(PacketType, "__hash__", refuse)
    levels = {member.value: priority_of(member) for member in PacketType}
    assert levels == {
        "rtx": 1, "keyframe": 2, "sps": 3, "pps": 4, "fec": 5, "media": None,
    }


@pytest.mark.parametrize("system", [SystemKind.CONVERGE, SystemKind.WEBRTC])
def test_a_packet_call_hashes_no_hot_enum(monkeypatch, system):
    hashed = []

    def counting(self):
        hashed.append(self)
        return hash(self._name_)

    for enum_class in HOT_ENUMS:
        monkeypatch.setattr(enum_class, "__hash__", counting)
    config = build_call_config(system, duration=3.0, seed=5)
    result = run_call(config, scenario_paths("driving", 3.0, 5))
    assert result.summary.frames_rendered > 0
    assert hashed == []


@pytest.mark.parametrize("jitter_max", [0.0, 0.002, 0.01])
def test_jitter_draw_equals_uniform_bit_for_bit(jitter_max):
    # Path draws its jitter as ``jitter_max * rng.random()``, and the
    # packet goldens hold only while that is the float
    # ``rng.uniform(0.0, jitter_max)`` returns: CPython computes it as
    # ``a + (b - a) * random()``.
    for seed in range(1000):
        uniform = random.Random(seed).uniform(0.0, jitter_max)
        scaled = jitter_max * random.Random(seed).random()
        assert uniform.hex() == scaled.hex(), seed


def _step_loop(function):
    """The ``for step in range(steps)`` loop of ``function``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and node.target.id == "step"
        ):
            return node
    raise AssertionError(f"no step loop in {function.__qualname__}")


def keyword_constructions(tree, namespace):
    """Every ``SomeClass(..., name=value)`` call in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.keywords):
            continue
        target = _resolve(node.func, namespace)
        if target is None and isinstance(node.func, ast.Name):
            target = getattr(builtins, node.func.id, None)
        if isinstance(target, type):
            found.append(target.__name__)
    return found


def test_the_flow_step_loop_builds_no_keyword_record_and_loads_no_member():
    loop = _step_loop(FlowCall.run)
    namespace = FlowCall.run.__globals__
    assert keyword_constructions(loop, namespace) == []
    assert member_loads(loop, namespace) == []


def test_the_step_check_sees_a_keyword_record():
    source = """
        def run(self):
            for step in range(steps):
                rendered_append(RenderedFrame(ssrc=0, frame_id=step))
                frame = RenderedFrame(0, step, 0.0, 0.0, 1, False, False)
                best = min(paths, key=len)
                if self.kind is FecMode.NONE:
                    pass
    """
    namespace = {"RenderedFrame": RenderedFrame, "FecMode": FecMode}
    loop = next(
        node for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.For)
    )
    assert keyword_constructions(loop, namespace) == ["RenderedFrame"]
    assert member_loads(loop, namespace) == ["FecMode.NONE"]


def test_rendered_frame_field_order_is_pinned():
    # The flow loop and the packet receiver build RenderedFrame
    # positionally: a reorder here would silently swap their fields.
    assert [field.name for field in dataclasses.fields(RenderedFrame)] == [
        "ssrc",
        "frame_id",
        "capture_time",
        "render_time",
        "size_bytes",
        "is_keyframe",
        "fec_recovered",
        "qp",
    ]
