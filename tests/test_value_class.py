"""`probcore._value_class` against stdlib `dataclasses` as an oracle.

Each twin below is declared with `dataclasses.dataclass(frozen=True)`, and
`order=True` where the class is ordered, with the same name, fields,
defaults and `__post_init__`. The twins are the reference: repr, equality, hash,
ordering, frozen fields and argument errors must come out the same for the
package's class and its twin.
"""

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Callable, Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontolab import probcore, quantum
from ontolab.cli import main as climain
from ontolab.cli import zoo


@dataclass(frozen=True, order=True)
class JointOutcome:
    pairs: tuple
    __post_init__ = probcore.JointOutcome.__post_init__


@dataclass(frozen=True)
class Dist:
    weights: Mapping
    __post_init__ = probcore.Dist.__post_init__


@dataclass(frozen=True)
class Check:
    ok: bool
    witness: Any = None


@dataclass(frozen=True)
class Verdict:
    check: str
    outcome: str
    ok: bool
    millis: float
    detail: str = ""
    artifact: Any = None
    decision: bool = False


@dataclass(frozen=True)
class Ket:
    amplitudes: tuple
    __post_init__ = quantum.Ket.__post_init__


@dataclass(frozen=True)
class ZooEntry:
    name: str
    kind: str
    summary: str
    build: Callable
    expected: Mapping
    knobs: tuple = ()


H = 1 / math.sqrt(2)
CASES = {
    "JointOutcome": (
        probcore.JointOutcome,
        JointOutcome,
        [((("b", "1"), ("a", "0")),), ((("a", "0"), ("b", "1")),), ((("a", "1"),),)],
    ),
    "Dist": (
        probcore.Dist,
        Dist,
        [({"x": Fraction(1, 3), "y": Fraction(2, 3), "z": 0},), ({"y": Fraction(2, 3), "x": Fraction(1, 3)},), ({"x": 1},)],
    ),
    "Check": (probcore.Check, Check, [(True,), (True, None), (False, "why"), (False, ("a", 1))]),
    "Verdict": (
        climain.Verdict,
        Verdict,
        [("ns", "pass", True, 1.5), ("ns", "pass", True, 1.5, "", None, False), ("dl", "non-local", False, 2.0, "d", (1,), True)],
    ),
    "Ket": (quantum.Ket, Ket, [((1, 0),), ((1, 0),), ((H, H),)]),
    "ZooEntry": (
        zoo.ZooEntry,
        ZooEntry,
        [("n", "empirical", "s", zoo.pr_box, {"decision": "local"}), ("n", "empirical", "s", zoo.pr_box, {"decision": "local"}, ()), ("m", "property", "t", len, {}, ("q",))],
    ),
}
IDS = list(CASES)


def built(name):
    ours, twin, args = CASES[name]
    return [ours(*a) for a in args], [twin(*a) for a in args]


@pytest.mark.parametrize("name", IDS)
def test_same_fields_and_repr(name):
    ours, twin, _ = CASES[name]
    assert ours.__value_fields__ == tuple(f.name for f in fields(twin))
    for x, y in zip(*built(name)):
        assert repr(x) == repr(y)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as e:
        return str(e)


@pytest.mark.parametrize("name", IDS)
def test_same_equality_and_hash(name):
    xs, ys = built(name)
    other = object()
    for i, (x, y) in enumerate(zip(xs, ys)):
        for j, (x2, y2) in enumerate(zip(xs, ys)):
            assert (x == x2, x != x2) == (y == y2, y != y2), (i, j)
        # Against an instance of another class, the twin included.
        assert (x == other, x != other, x == y, y == x) == (y == other, y != other, False, False)
        if type(y).__hash__ is object.__hash__:
            assert type(x).__hash__ is object.__hash__
        else:
            assert hash_or_error(x) == hash_or_error(y)


@pytest.mark.parametrize("name", IDS)
def test_same_frozenness(name):
    xs, ys = built(name)
    for x, y in zip(xs, ys):
        field = x.__value_fields__[-1]
        value = getattr(y, field)
        for obj in (x, y):
            with pytest.raises(AttributeError):
                setattr(obj, field, value)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            with pytest.raises(AttributeError):
                obj.not_a_field = 1
        assert repr(x) == repr(y)


@pytest.mark.parametrize("name", IDS)
def test_same_argument_errors(name):
    ours, twin, args = CASES[name]
    full = args[-1]
    first = ours.__value_fields__[0]
    calls = [
        ((), {}),  # missing
        (full, {"bogus": 1}),  # unknown
        (full, {first: full[0]}),  # repeated
        ((*full, *full, 1), {}),  # too many
    ]
    for a, kw in calls:
        for cls in (ours, twin):
            with pytest.raises(TypeError):
                cls(*a, **kw)
    # Keyword arguments bind as they do on the twin.
    kwargs = dict(zip(ours.__value_fields__, full))
    assert repr(ours(**kwargs)) == repr(twin(**kwargs))


outcome_pairs = st.lists(
    st.tuples(st.sampled_from("abcd"), st.sampled_from(["0", "1", "2"])),
    min_size=1,
    max_size=4,
    unique_by=lambda p: p[0],
)


@given(outcome_pairs, outcome_pairs)
def test_same_order_on_joint_outcomes(p, q):
    x, x2 = probcore.JointOutcome(tuple(p)), probcore.JointOutcome(tuple(q))
    y, y2 = JointOutcome(tuple(p)), JointOutcome(tuple(q))
    assert (x < x2, x <= x2, x > x2, x >= x2, x == x2) == (y < y2, y <= y2, y > y2, y >= y2, y == y2)
    assert hash(x) == hash(y)
    assert [repr(v) for v in sorted([x2, x])] == [repr(v) for v in sorted([y2, y])]
    for a, b in ((x, y), (x, p)):
        with pytest.raises(TypeError):
            a < b


def test_a_post_init_rebound_after_decoration_is_the_one_called(monkeypatch):
    calls = []
    original = probcore.JointOutcome.__post_init__

    def traced(self):
        calls.append(self.pairs)
        original(self)

    monkeypatch.setattr(probcore.JointOutcome, "__post_init__", traced)
    assert probcore.JointOutcome((("b", 1), ("a", 0))).pairs == (("a", 0), ("b", 1))
    assert calls == [(("b", 1), ("a", 0))]
