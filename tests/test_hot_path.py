"""The per-packet path: no Enum member lookups, no Enum hashing.

Every packet passes pacer release -> ``Path`` transmit -> delivery into
the receiver.  On CPython <= 3.11 ``PacketType.FEC`` runs
``EnumType.__getattr__`` (~5x a module global), and on every version
``Enum.__hash__`` is Python code, so the functions below name members
through the constants defined beside each Enum (``repro.rtp.packets``,
``repro.cc.aimd``, ``repro.core.config``) and never key a dict or set
by a member.  The jitter draw skips ``random.uniform`` for the same
reason; the last test pins that the two agree bit for bit.
"""

import ast
import inspect
import random
import textwrap
from enum import Enum

import pytest

from repro.cc.aimd import BandwidthUsage, RateControlState
from repro.cc.delay_based import OveruseDetector, TrendlineEstimator
from repro.cc.pacing import Pacer
from repro.core.api import build_call_config, run_call
from repro.core.config import FecMode, SystemKind
from repro.core.sender import SenderSession
from repro.experiments.common import scenario_paths
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
    """Every ``Enum.MEMBER`` attribute load in ``source``."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
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
