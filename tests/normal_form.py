"""Shared assertions for the payload normal form.

The normal form (owned by ``repro.analysis.export``) is what
``json.loads(canonical_json(x))`` returns: str keys in sorted order,
lists not tuples, and nothing but dict/list/str/int/float/bool/None.
"""

import json

from repro.experiments.cells import canonical_json


def types_of(value):
    """Structural type fingerprint: catches np scalars and tuples."""
    if isinstance(value, dict):
        return {k: types_of(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [type(value).__name__] + [types_of(v) for v in value]
    return type(value).__name__


def key_order_of(value):
    """Every dict's keys in iteration order, depth first."""
    if isinstance(value, dict):
        return [list(value)] + [key_order_of(v) for v in value.values()]
    if isinstance(value, (list, tuple)):
        return [key_order_of(v) for v in value]
    return None


def assert_normal_form(payload):
    """``payload`` is unchanged by a canonical-JSON round trip.

    Value (where no NaN makes ``==`` false for equal payloads), type
    tree and key order.
    """
    text = canonical_json(payload)
    normal = json.loads(text)
    assert "NaN" in text or payload == normal
    assert types_of(payload) == types_of(normal)
    assert key_order_of(payload) == key_order_of(normal)


def assert_same_payload(left, right):
    """Two payloads for one cell: same canonical bytes, plain ``==``,
    same type tree and same key order — no normalization in between."""
    text = canonical_json(left)
    assert text == canonical_json(right)
    assert "NaN" in text or left == right
    assert types_of(left) == types_of(right)
    assert key_order_of(left) == key_order_of(right)
