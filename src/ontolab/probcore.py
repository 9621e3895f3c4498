"""Exact probability substrate for finite operational models.

Weights are `fractions.Fraction`, so every comparison in this package is
an exact equality, never a tolerance test. Distributions drop zero-weight
elements on construction; absence of an element always means exactly zero.

Values are immutable once built and all operations are pure functions, so
everything defined here can be shared freely across threads.

Five rules used across the package live here once. `labels` and
`checked_tables` give every model its shape: a label list is a non-empty
tuple without repeats, and a model holds exactly one table per key, with
every support element inside its key's carrier. `checked_tables` counts
the keys and tests each one, so no constructor lists a product of labels
to compare against. Besides the scenarios and models, `labels` checks
the carrier of `Dist.uniform`, the measurements of a `JointOutcome`, the
effect labels of a `quantum.Povm` and the relabelled effects of each
context in `quantum.psi_complete_model`; that function and
`prepscen.product_preparation_model` leave an empty input to the model
they build. `first_disagreement` walks families of keys and
finds the first key whose marginal differs from that of its family's first
key; no-signalling, parameter independence, well-defined observable
properties and no-preparation-signalling are all that comparison. The
measurement families come from `MeasurementScenario.context_index`, the
contexts holding each measurement, which validation builds once, so
`contexts_with` is a lookup and no check scans the cover per measurement.
`product_mismatch` finds the first cell where a table differs from the
product of its per-axis marginals; factorization of responses and
preparation independence are both that comparison, and it visits only the
product of the marginals' supports. `MeasurementScenario.is_event` says
whether a value is a joint outcome of a context in time proportional to
the context. So neither model validation nor any check enumerates an outcome carrier.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

Rational = Fraction


class OntolabError(Exception):
    """Base class for all errors raised by this package."""


class InternalError(OntolabError):
    """The solver or a numerical routine broke its own contract; the input
    is not at fault."""


class InvariantViolation(OntolabError):
    """A value failed one of its structural invariants."""


class NegativeWeight(InvariantViolation):
    """A probability weight was negative."""


class SumNotOne(InvariantViolation):
    """Weights of a distribution do not sum to one.

    Carries the offending total and the exact deficit ``1 - total``.
    """

    def __init__(self, total: Fraction | int):
        self.total = Fraction(total)
        self.deficit = 1 - self.total
        super().__init__(f"weights sum to {self.total}, deficit {self.deficit}")


class DimensionMismatch(OntolabError):
    """Operands have shapes that do not fit together: a constraint matrix
    and its right-hand side, or states and operators of different
    dimension."""


class NotASubcontext(OntolabError):
    """Requested restriction target is not a non-empty sub-context."""


def _value_class(cls=None, /, *, order=False):
    """Class decorator for the package's value types.

    The annotated names of the class body are the fields, in order; a class
    attribute of the same name is that field's default. The decorator adds
    what a frozen ``dataclasses.dataclass`` with the same ``order`` adds,
    and behaves alike: ``__init__`` takes the fields by position or
    keyword and then calls ``self.__post_init__()`` if the class has one,
    looked up at each construction; ``__repr__``; ``__eq__`` on the fields
    between instances of the same class (a lone field is compared bare, not
    as a 1-tuple, which differs only for a value unequal to itself, such as
    a NaN); fields that cannot be assigned or deleted; the hash of the
    tuple of the fields; with ``order``, the four orderings. The methods
    are closures over the field names and one ``operator.attrgetter``, so
    no source is compiled and neither ``dataclasses`` nor ``inspect`` is
    imported. The field names are kept as ``__value_fields__``.
    """
    if cls is None:
        return lambda c: _value_class(c, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    get = operator.attrgetter(*names)
    assign = object.__setattr__
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        # Keyword arguments and defaults, refused as a plain signature would.
        where = f"{cls.__qualname__}.__init__()"
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names) + 1} positional arguments but {len(args) + 1} were given")
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
        values = {**defaults, **given, **kwargs}
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{where} missing required arguments {', '.join(map(repr, missing))}")
        return [values[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            assign(self, name, value)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def compare(op):
        def method(self, other):
            if other.__class__ is self.__class__:
                return op(get(self), get(other))
            return NotImplemented

        return method

    def refuse(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    methods = {
        "__value_fields__": names,
        "__init__": __init__,
        "__repr__": __repr__,
        "__eq__": compare(operator.eq),
        "__hash__": (lambda self: hash((get(self),))) if len(names) == 1 else (lambda self: hash(get(self))),
        "__setattr__": refuse,
        "__delattr__": refuse,
    }
    if order:
        for name in ("lt", "le", "gt", "ge"):
            methods[f"__{name}__"] = compare(getattr(operator, name))
    for name, value in methods.items():
        setattr(cls, name, value)
    return cls


def _ordered(items: Iterable) -> list:
    # Deterministic iteration wherever the elements admit an order.
    try:
        return sorted(items)
    except TypeError:
        return list(items)


def labels(items: Iterable, what: str) -> tuple:
    """The items as a tuple, in the caller's order; refuses an empty or
    repeating one."""
    out = tuple(items)
    if not out:
        raise InvariantViolation(f"no {what}")
    if len(set(out)) != len(out):
        raise InvariantViolation(f"repeated {what}")
    return out


def checked_tables(tables: Mapping, count: int, is_key, is_element, what: str) -> dict:
    """The tables in `_ordered` key order, after checking their shape.

    There must be exactly ``count`` keys, each passing ``is_key``, and every
    support element ``x`` of the table at ``key`` must pass
    ``is_element(key, x)``. Keys are distinct, so ``count`` valid keys are
    the whole key set: the expected keys are never listed.
    """
    stray = [k for k in tables if not is_key(k)]
    if stray:
        raise InvariantViolation(f"{what} have unknown keys {_ordered(stray)[:3]}")
    if len(tables) != count:
        raise InvariantViolation(
            f"{what} need one table for each of {count} keys, got {len(tables)}"
        )
    for k, d in tables.items():
        bad = [x for x in d.support if not is_element(k, x)]
        if bad:
            raise InvariantViolation(
                f"{what} at {k!r} weight elements outside the carrier: {_ordered(bad)[:3]}"
            )
    return {k: tables[k] for k in _ordered(tables)}


@_value_class
class Dist:
    """Finite probability distribution with exact rational weights.

    The stored mapping contains only strictly positive weights, summing to
    exactly 1; looking up an absent element returns exact zero. The carrier
    is implicit: any element not stored has weight zero.
    """

    weights: Mapping[Any, Fraction]

    def __post_init__(self):
        cleaned: dict = {}
        total = Fraction(0)
        for x, w in self.weights.items():
            w = Fraction(w)
            if w < 0:
                raise NegativeWeight(f"weight {w} of {x!r} is negative")
            if w > 0:
                cleaned[x] = w
            total += w
        if total != 1:
            raise SumNotOne(total)
        object.__setattr__(self, "weights", {x: cleaned[x] for x in _ordered(cleaned)})

    def weight(self, x: Any) -> Fraction:
        return self.weights.get(x, Fraction(0))

    @property
    def support(self) -> frozenset:
        return frozenset(self.weights)

    def items(self) -> Iterator[tuple[Any, Fraction]]:
        return iter(self.weights.items())

    def map_elements(self, fn) -> "Dist":
        """Push the distribution forward along ``fn``, summing collisions."""
        out: dict = {}
        for x, w in self.weights.items():
            y = fn(x)
            out[y] = out.get(y, Fraction(0)) + w
        return Dist(out)

    @staticmethod
    def delta(x: Any) -> "Dist":
        return Dist({x: Fraction(1)})

    @staticmethod
    def uniform(elements: Iterable) -> "Dist":
        elems = labels(elements, "elements of a uniform carrier")
        w = Fraction(1, len(elems))
        return Dist({x: w for x in elems})

    @staticmethod
    def from_counts(counts: Mapping[Any, Fraction | int]) -> "Dist":
        """Normalise non-negative weights by their sum."""
        total = sum(Fraction(w) for w in counts.values())
        if total <= 0:
            raise SumNotOne(total)
        return Dist({x: Fraction(w) / total for x, w in counts.items()})

    @staticmethod
    def mix(components: Iterable[tuple[Fraction | int, "Dist"]]) -> "Dist":
        """Convex combination; coefficients must be non-negative and sum to 1."""
        acc: dict = {}
        for c, d in components:
            c = Fraction(c)
            if c < 0:
                raise NegativeWeight(f"mixture coefficient {c} is negative")
            if c == 0:
                continue
            for x, w in d.weights.items():
                acc[x] = acc.get(x, Fraction(0)) + c * w
        return Dist(acc)


def make_dist(weights: Mapping[Any, Fraction | int]) -> Dist:
    """Validate a weight map into a distribution.

    Raises NegativeWeight on any negative entry and SumNotOne (with the
    exact deficit) when the total is not 1.
    """
    return Dist(dict(weights))


def is_delta(d: Dist) -> Optional[Any]:
    """Return the certain element of a point mass, else None."""
    if len(d.weights) == 1:
        return next(iter(d.weights))
    return None


def product_dist(*dists: Dist) -> Dist:
    """Independent product on the tuple carrier: ``product_dist(d1, d2)``
    weighs the pair ``(x, y)`` by ``d1.weight(x) * d2.weight(y)``."""
    return Dist(
        {
            tuple(x for x, _ in cell): math.prod(w for _, w in cell)
            for cell in itertools.product(*(d.items() for d in dists))
        }
    )


@_value_class(order=True)
class JointOutcome:
    """Assignment of one outcome to each measurement of a context.

    Stored as pairs sorted by measurement label, which makes joint
    outcomes hashable, orderable, and safe as distribution elements.
    """

    pairs: tuple

    def __post_init__(self):
        pairs = tuple(sorted(map(tuple, self.pairs)))
        labels([m for m, _ in pairs], "measurements in a joint outcome")
        object.__setattr__(self, "pairs", pairs)

    @staticmethod
    def of(context: Sequence, outcomes: Sequence) -> "JointOutcome":
        if len(context) != len(outcomes):
            raise InvariantViolation("context and outcome tuple lengths differ")
        return JointOutcome(tuple(zip(context, outcomes)))

    @staticmethod
    def from_mapping(assignment: Mapping) -> "JointOutcome":
        return JointOutcome(tuple(assignment.items()))

    @property
    def context(self) -> tuple:
        return tuple(m for m, _ in self.pairs)

    @property
    def outcomes(self) -> tuple:
        """Outcomes in the order of the (sorted) context."""
        return tuple(o for _, o in self.pairs)

    def outcome(self, measurement: Any) -> Any:
        for m, o in self.pairs:
            if m == measurement:
                return o
        raise NotASubcontext(f"{measurement!r} not in context {self.context}")

    def restrict(self, sub: Sequence) -> "JointOutcome":
        """Keep only the measurements in ``sub``; they must all be present."""
        sub_set = set(sub)
        if not sub_set:
            raise NotASubcontext("empty sub-context")
        missing = sub_set - set(self.context)
        if missing:
            raise NotASubcontext(f"{sorted(missing)} not in context {self.context}")
        return JointOutcome(tuple((m, o) for m, o in self.pairs if m in sub_set))


def marginalize(d: Dist, sub: Sequence) -> Dist:
    """Marginal of a joint-outcome distribution on a non-empty sub-context.

    Compositional: restricting to s then to s' equals restricting to s'
    directly, for s' a subset of s.
    """
    sub = tuple(sub)
    return d.map_elements(lambda event: event.restrict(sub))


@_value_class
class MeasurementScenario:
    """Finite measurements, their outcome sets, and a cover of maximal contexts.

    Contexts are stored as sorted tuples and the cover is sorted, so equal
    scenarios compare equal regardless of the order they were written in.
    Outcome sets keep their declared order; it fixes enumeration order
    everywhere downstream. ``context_index`` maps each measurement to the
    contexts holding it, in cover order.
    """

    measurements: tuple
    outcomes: Mapping[Any, tuple]
    cover: tuple

    def __post_init__(self):
        ms = labels(_ordered(self.measurements), "measurement labels")
        if set(self.outcomes) != set(ms):
            raise InvariantViolation("outcome sets must be given for exactly the measurements")
        outs = {m: labels(self.outcomes[m], f"outcomes for {m!r}") for m in ms}
        contexts = {labels(_ordered(c), "measurements in a context") for c in self.cover}
        cover = labels(_ordered(contexts), "contexts")
        by_measurement = {m: [] for m in ms}
        for ctx in cover:
            unknown = [m for m in ctx if m not in by_measurement]
            if unknown:
                raise InvariantViolation(f"context {ctx} uses unknown measurements {unknown}")
            for m in ctx:
                by_measurement[m].append(ctx)
        idle = [m for m in ms if not by_measurement[m]]
        if idle:
            raise InvariantViolation(f"measurements {idle} appear in no context")
        # A context strictly inside another shares its first measurement and
        # is shorter, so each context is compared only with the longer ones
        # holding its first measurement, visited longest first.
        longest_first = {m: sorted(cs, key=len, reverse=True) for m, cs in by_measurement.items()}
        for c1 in cover:
            longer = itertools.takewhile(lambda c2: len(c2) > len(c1), longest_first[c1[0]])
            outer = [c2 for c2 in longer if set(c1).issubset(c2)]
            if outer:
                first = min(outer, key=cover.index)
                raise InvariantViolation(f"context {c1} is strictly contained in {first}")
        object.__setattr__(self, "measurements", ms)
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "cover", cover)
        # Not a field: derived from the cover, so equality ignores it.
        object.__setattr__(self, "context_index", {m: tuple(cs) for m, cs in by_measurement.items()})

    @staticmethod
    def make(outcomes: Mapping[Any, Sequence], cover: Iterable[Iterable]) -> "MeasurementScenario":
        return MeasurementScenario(tuple(outcomes), {m: tuple(v) for m, v in outcomes.items()}, tuple(tuple(c) for c in cover))

    def is_event(self, context: tuple, x: Any) -> bool:
        """Is ``x`` a joint outcome of exactly this (sorted) context, with
        every outcome drawn from its measurement's outcome set?"""
        return (
            isinstance(x, JointOutcome)
            and x.context == context
            and all(o in self.outcomes[m] for m, o in x.pairs)
        )

    def events(self, context: Sequence) -> list:
        """All joint outcomes of a context, in lexicographic order."""
        ctx = tuple(_ordered(context))
        pools = []
        for m in ctx:
            if m not in self.outcomes:
                raise InvariantViolation(f"unknown measurement {m!r}")
            pools.append(self.outcomes[m])
        return [JointOutcome.of(ctx, combo) for combo in itertools.product(*pools)]

    def contexts_with(self, measurement: Any) -> tuple:
        """The contexts holding the measurement, in cover order; empty for
        an undeclared one, since every declared measurement is in some
        context."""
        return self.context_index.get(measurement, ())

    def assignment_space_size(self) -> int:
        n = 1
        for m in self.measurements:
            n *= len(self.outcomes[m])
        return n


@_value_class
class Check:
    """Outcome of a verification: truthy on pass, witness attached on failure."""

    ok: bool
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


PASS = Check(True)


@_value_class
class SignallingWitness:
    """One measurement whose marginal differs between two contexts."""

    measurement: Any
    context_a: tuple
    context_b: tuple
    marginal_a: Dist
    marginal_b: Dist


@_value_class
class EmpiricalModel:
    """One outcome distribution per maximal context of a scenario."""

    scenario: MeasurementScenario
    tables: Mapping[tuple, Dist]

    def __post_init__(self):
        sc = self.scenario
        cover = set(sc.cover)
        tables = {tuple(_ordered(c)): d for c, d in self.tables.items()}
        tables = checked_tables(tables, len(cover), cover.__contains__, sc.is_event, "tables")
        object.__setattr__(self, "tables", tables)

    def table(self, context: Sequence) -> Dist:
        return self.tables[tuple(_ordered(context))]


def first_disagreement(families: Mapping, marginal) -> Optional[tuple]:
    """First key whose marginal differs exactly from that of its family's
    first key.

    ``families`` maps each label to its keys, both in visiting order, and
    ``marginal(label, key)`` computes one marginal. Returns
    ``(label, key_a, key_b, marginal_a, marginal_b)`` with ``key_a`` the
    family's first key, or None when every family agrees.
    """
    for label, keys in families.items():
        base = marginal(label, keys[0])
        for k in keys[1:]:
            other = marginal(label, k)
            if other != base:
                return label, keys[0], k, base, other
    return None


def product_mismatch(pools: Sequence[Sequence], marginals: Sequence[Dist], weight) -> Optional[tuple]:
    """First cell of ``itertools.product(*pools)`` whose ``weight(cell)``
    differs from the product of the per-axis ``marginals``, as
    ``(cell, actual, product)``; None when the table is that product.

    Only cells inside the product of the marginals' supports are visited.
    A table's support lies inside that product, and every cell outside it
    is zero on both sides, so the first mismatch is the same as over the
    full carrier, in the same order, and a table that factorizes costs
    one visit per cell of its support.
    """
    supported = [[x for x in pool if marg.weight(x)] for pool, marg in zip(pools, marginals)]
    for cell in itertools.product(*supported):
        product = Fraction(1)
        for x, marg in zip(cell, marginals):
            product *= marg.weight(x)
        actual = weight(cell)
        if actual != product:
            return cell, actual, product
    return None


def check_no_signalling(e: EmpiricalModel) -> Check:
    """Marginals of each measurement must agree across every context containing it.

    Comparisons are exact. Each marginal is compared as its lowest common
    denominator and a plain ``{outcome: int}`` map of numerators over it,
    summed over the table's own lcm from the outcome at the measurement's
    position in the table's events; only the witness, which names the
    measurement, the two contexts, and both differing marginals, holds
    `marginalize`'s distributions. A model-wide lcm would grow with every
    distinct denominator of the model and make the check quadratic.
    """

    def marginal(m, ctx):
        at = ctx.index(m)
        weights = e.tables[ctx].weights
        den = math.lcm(*(w.denominator for w in weights.values()))
        out: dict = {}
        for ev, w in weights.items():
            o = ev.pairs[at][1]
            out[o] = out.get(o, 0) + w.numerator * (den // w.denominator)
        g = math.gcd(den, *out.values())
        return den // g, {o: v // g for o, v in out.items()}

    odd = first_disagreement(e.scenario.context_index, marginal)
    if not odd:
        return PASS
    m, a, b = odd[:3]
    return Check(False, SignallingWitness(m, a, b, marginalize(e.tables[a], (m,)), marginalize(e.tables[b], (m,))))


def mix_empirical(components: Sequence[tuple[Fraction | int, EmpiricalModel]]) -> EmpiricalModel:
    """Context-wise convex mixture of models over one shared scenario."""
    if not components:
        raise InvariantViolation("empty mixture")
    scenario = components[0][1].scenario
    for _, e in components:
        if e.scenario != scenario:
            raise InvariantViolation("mixture components live on different scenarios")
    tables = {
        ctx: Dist.mix([(c, e.tables[ctx]) for c, e in components])
        for ctx in scenario.cover
    }
    return EmpiricalModel(scenario, tables)
