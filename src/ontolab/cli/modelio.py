"""JSON encoding of models, with strict parsing.

Wire format: a model file is an object with "format_version" (currently
1), "kind" (one of empirical, ontological, preparation, property,
quantum-demo-config), and "payload". Rationals are strings "num/den" (or
"num" for integers) in ASCII digits; distributions are maps from encoded
events to such strings; composite keys join labels with commas, so labels
themselves are non-empty strings without commas. No object may repeat a
key.

Parse failures are graded: malformed JSON, or bytes that are not UTF-8,
raise ModelSyntaxError with line and column; structural mismatches raise
SchemaError naming the offending path, as do a document nested too deeply
to parse, a repeated object key and a number with more digits than the
interpreter reads; and well-formed payloads whose numbers break a model
invariant raise InvariantViolation carrying the underlying detail (for a
bad distribution, the exact deficit).

Importing this module loads only `probcore`: each decoder imports the
layer of the model it builds when it runs, and the type tables are keyed
by qualified type name (`type_name`).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Union

from ..probcore import (
    Dist,
    EmpiricalModel,
    InvariantViolation,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
)

if TYPE_CHECKING:
    from ..ontomodel import CanonicalLocalModel, OntologicalModel
    from ..prepscen import PreparationModel
    from ..properties import Property

FORMAT_VERSION = 1

KIND_EMPIRICAL = "empirical"
KIND_ONTOLOGICAL = "ontological"
KIND_PREPARATION = "preparation"
KIND_PROPERTY = "property"
KIND_DEMO = "quantum-demo-config"

KNOWN_KINDS = (
    KIND_EMPIRICAL,
    KIND_ONTOLOGICAL,
    KIND_PREPARATION,
    KIND_PROPERTY,
    KIND_DEMO,
)


class ModelSyntaxError(OntolabError):
    """The file is not valid JSON; carries line and column."""

    def __init__(self, line: int, col: int, detail: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {detail}")


class SchemaError(OntolabError):
    """The JSON shape does not match the model schema; carries the path."""

    def __init__(self, path: str, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")


DEMOS = ("chsh", "steering", "epr")
BASES = ("z", "x")


@dataclass(frozen=True)
class DemoConfig:
    """File-borne parameters for the quantum demos."""

    demo: str
    basis: str = "z"
    max_denominator: int = 10**6

    def __post_init__(self):
        if self.demo not in DEMOS:
            raise InvariantViolation(f"unknown demo {self.demo!r}; pick one of {DEMOS}")
        if self.basis not in BASES:
            raise InvariantViolation(f"basis must be one of {BASES}")
        if not isinstance(self.max_denominator, int) or self.max_denominator < 1:
            raise InvariantViolation("max_denominator must be a positive integer")


Payload = Union[EmpiricalModel, "OntologicalModel", "PreparationModel", "Property", DemoConfig]


@dataclass(frozen=True)
class ModelFile:
    """A kind tag, a format version, and the decoded payload."""

    kind: str
    payload: Payload
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise InvariantViolation(f"unknown kind {self.kind!r}")
        expected = _KIND_OF_TYPE[type_name(self.payload)]
        if expected != self.kind:
            raise InvariantViolation(
                f"payload of type {type(self.payload).__name__} does not match kind {self.kind!r}"
            )
        if self.format_version != FORMAT_VERSION:
            raise InvariantViolation(f"unsupported format_version {self.format_version}")


def type_name(obj: Any) -> str:
    """Qualified name of `obj`'s type: the key of every type-dispatch table,
    so that a lookup needs no import of the layer that defines the type."""
    t = type(obj)
    return f"{t.__module__}.{t.__qualname__}"


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def rational_to_str(x: Fraction) -> str:
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as e:  # beyond the interpreter's int-string digit limit
        raise OntolabError("a rational has too many digits to write") from e


def parse_rational(text: Any, path: str = "value") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SchemaError(path, f"expected a rational like \"3/4\", got {text!r}")
    try:
        return Fraction(text)
    except ValueError as e:  # beyond the interpreter's int-string digit limit
        raise SchemaError(path, f"too many digits to read in {text[:20]}...") from e


def _expect(obj: Any, typ: type, path: str):
    if not isinstance(obj, typ) or (typ is int and isinstance(obj, bool)):
        raise SchemaError(path, f"expected {typ.__name__}, got {type(obj).__name__}")
    return obj


def _label(obj: Any, path: str) -> str:
    _expect(obj, str, path)
    if not obj or "," in obj:
        raise SchemaError(path, f"labels must be non-empty and comma-free, got {obj!r}")
    return obj


def _label_list(obj: Any, path: str) -> list:
    _expect(obj, list, path)
    return [_label(x, f"{path}[{i}]") for i, x in enumerate(obj)]


@contextmanager
def _guard(path: str):
    """Re-raise construction-time invariant failures with the path attached."""
    try:
        yield
    except (SchemaError, ModelSyntaxError):
        raise
    except OntolabError as exc:
        raise InvariantViolation(f"{path}: {exc}") from exc


def scenario_to_obj(s: MeasurementScenario) -> dict:
    return {
        "measurements": list(s.measurements),
        "outcomes": {m: list(s.outcomes[m]) for m in s.measurements},
        "cover": [list(c) for c in s.cover],
    }


def scenario_from_obj(obj: Any, path: str) -> MeasurementScenario:
    _expect(obj, dict, path)
    for key in ("measurements", "outcomes", "cover"):
        if key not in obj:
            raise SchemaError(path, f"missing key {key!r}")
    ms = _label_list(obj["measurements"], f"{path}/measurements")
    outs_obj = _expect(obj["outcomes"], dict, f"{path}/outcomes")
    outcomes = {}
    for m, val in outs_obj.items():
        _label(m, f"{path}/outcomes key")
        outcomes[m] = tuple(_label_list(val, f"{path}/outcomes/{m}"))
    cover_obj = _expect(obj["cover"], list, f"{path}/cover")
    cover = [tuple(_label_list(c, f"{path}/cover[{i}]")) for i, c in enumerate(cover_obj)]
    if set(ms) != set(outcomes):
        raise SchemaError(path, "measurements and outcome keys disagree")
    with _guard(path):
        return MeasurementScenario.make(outcomes, cover)


def _dist_to_obj(d: Dist, key_of) -> dict:
    return {key_of(x): rational_to_str(w) for x, w in d.items()}


def _dist_from_obj(obj: Any, path: str, key_from) -> Dist:
    _expect(obj, dict, path)
    weights = {}
    for key, val in obj.items():
        weights[key_from(key, f"{path}/{key}")] = parse_rational(val, f"{path}/{key}")
    with _guard(path):
        return Dist(weights)


def _event_key(event: JointOutcome) -> str:
    return ",".join(str(o) for o in event.outcomes)


def _event_from_key(key: str, context: tuple, path: str) -> JointOutcome:
    parts = key.split(",")
    if len(parts) != len(context):
        raise SchemaError(path, f"event {key!r} does not match context {context}")
    return JointOutcome.of(context, tuple(parts))


def _context_key(ctx: tuple) -> str:
    return ",".join(ctx)


def empirical_to_obj(e: EmpiricalModel) -> dict:
    return {
        "scenario": scenario_to_obj(e.scenario),
        "tables": {
            _context_key(ctx): _dist_to_obj(e.tables[ctx], _event_key)
            for ctx in e.scenario.cover
        },
    }


def empirical_from_obj(obj: Any, path: str) -> EmpiricalModel:
    _expect(obj, dict, path)
    if "scenario" not in obj or "tables" not in obj:
        raise SchemaError(path, "missing 'scenario' or 'tables'")
    scenario = scenario_from_obj(obj["scenario"], f"{path}/scenario")
    tables_obj = _expect(obj["tables"], dict, f"{path}/tables")
    tables = {}
    for key, val in tables_obj.items():
        ctx = tuple(sorted(key.split(",")))
        if ctx in tables:
            raise SchemaError(f"{path}/tables/{key}", "duplicate context")
        tables[ctx] = _dist_from_obj(
            val,
            f"{path}/tables/{key}",
            lambda k, p, c=ctx: _event_from_key(k, c, p),
        )
    with _guard(path):
        return EmpiricalModel(scenario, tables)


def ontological_to_obj(h: OntologicalModel) -> dict:
    responses: dict = {}
    for (lam, ctx), d in h.responses.items():
        responses.setdefault(str(lam), {})[_context_key(ctx)] = _dist_to_obj(d, _event_key)
    return {
        "scenario": scenario_to_obj(h.scenario),
        "preparations": list(h.preparations),
        "ontic_space": list(h.ontic_space),
        "prep_dists": {
            p: _dist_to_obj(h.prep_dists[p], str) for p in h.preparations
        },
        "responses": responses,
    }


def ontological_from_obj(obj: Any, path: str) -> OntologicalModel:
    from ..ontomodel import OntologicalModel

    _expect(obj, dict, path)
    for key in ("scenario", "preparations", "ontic_space", "prep_dists", "responses"):
        if key not in obj:
            raise SchemaError(path, f"missing key {key!r}")
    scenario = scenario_from_obj(obj["scenario"], f"{path}/scenario")
    preps = _label_list(obj["preparations"], f"{path}/preparations")
    states = _label_list(obj["ontic_space"], f"{path}/ontic_space")
    pd_obj = _expect(obj["prep_dists"], dict, f"{path}/prep_dists")
    prep_dists = {
        p: _dist_from_obj(val, f"{path}/prep_dists/{p}", lambda k, _p: k)
        for p, val in pd_obj.items()
    }
    resp_obj = _expect(obj["responses"], dict, f"{path}/responses")
    responses = {}
    for lam, by_ctx in resp_obj.items():
        _expect(by_ctx, dict, f"{path}/responses/{lam}")
        for key, val in by_ctx.items():
            ctx = tuple(sorted(key.split(",")))
            if (lam, ctx) in responses:
                raise SchemaError(f"{path}/responses/{lam}/{key}", "duplicate context")
            responses[(lam, ctx)] = _dist_from_obj(
                val,
                f"{path}/responses/{lam}/{key}",
                lambda k, p, c=ctx: _event_from_key(k, c, p),
            )
    with _guard(path):
        return OntologicalModel(scenario, tuple(preps), tuple(states), prep_dists, responses)


def preparation_to_obj(m: PreparationModel) -> dict:
    sc = m.scenario
    return {
        "sites": list(sc.sites),
        "preparations": {s: list(sc.preparations[s]) for s in sc.sites},
        "ontic_spaces": {s: list(sc.ontic_spaces[s]) for s in sc.sites},
        "tables": {
            ",".join(jp): _dist_to_obj(m.tables[jp], lambda js: ",".join(js))
            for jp in m.tables
        },
    }


def preparation_from_obj(obj: Any, path: str) -> PreparationModel:
    from ..prepscen import PreparationModel, PreparationScenario

    _expect(obj, dict, path)
    for key in ("sites", "preparations", "ontic_spaces", "tables"):
        if key not in obj:
            raise SchemaError(path, f"missing key {key!r}")
    sites = _label_list(obj["sites"], f"{path}/sites")
    preps_obj = _expect(obj["preparations"], dict, f"{path}/preparations")
    spaces_obj = _expect(obj["ontic_spaces"], dict, f"{path}/ontic_spaces")
    preps = {
        s: tuple(_label_list(v, f"{path}/preparations/{s}")) for s, v in preps_obj.items()
    }
    spaces = {
        s: tuple(_label_list(v, f"{path}/ontic_spaces/{s}")) for s, v in spaces_obj.items()
    }
    with _guard(f"{path}/sites"):
        scenario = PreparationScenario(tuple(sites), preps, spaces)
    tables_obj = _expect(obj["tables"], dict, f"{path}/tables")
    tables = {}
    for key, val in tables_obj.items():
        jp = tuple(key.split(","))
        if len(jp) != len(sites):
            raise SchemaError(f"{path}/tables/{key}", "joint preparation does not name every site")

        def js_from(k: str, p: str, n=len(sites)) -> tuple:
            parts = tuple(k.split(","))
            if len(parts) != n:
                raise SchemaError(p, "joint state does not name every site")
            return parts

        tables[jp] = _dist_from_obj(val, f"{path}/tables/{key}", js_from)
    with _guard(path):
        return PreparationModel(scenario, tables)


def property_to_obj(p: Property) -> dict:
    return {
        "ontic_space": list(p.ontic_space),
        "values": list(p.values),
        "f": {
            str(lam): _dist_to_obj(p.value_dists[lam], str) for lam in p.ontic_space
        },
    }


def property_from_obj(obj: Any, path: str) -> Property:
    from ..properties import Property

    _expect(obj, dict, path)
    for key in ("ontic_space", "values", "f"):
        if key not in obj:
            raise SchemaError(path, f"missing key {key!r}")
    states = _label_list(obj["ontic_space"], f"{path}/ontic_space")
    values = _label_list(obj["values"], f"{path}/values")
    f_obj = _expect(obj["f"], dict, f"{path}/f")
    dists = {
        lam: _dist_from_obj(val, f"{path}/f/{lam}", lambda k, _p: k)
        for lam, val in f_obj.items()
    }
    with _guard(path):
        return Property(tuple(states), tuple(values), dists)


def demo_config_to_obj(c: DemoConfig) -> dict:
    return {"demo": c.demo, "basis": c.basis, "max_denominator": c.max_denominator}


def demo_config_from_obj(obj: Any, path: str) -> DemoConfig:
    _expect(obj, dict, path)
    if "demo" not in obj:
        raise SchemaError(path, "missing key 'demo'")
    demo = _expect(obj["demo"], str, f"{path}/demo")
    basis = obj.get("basis", "z")
    _expect(basis, str, f"{path}/basis")
    maxden = obj.get("max_denominator", 10**6)
    _expect(maxden, int, f"{path}/max_denominator")
    with _guard(path):
        return DemoConfig(demo, basis, maxden)


def canonical_to_obj(c: CanonicalLocalModel) -> dict:
    """Canonical local model: scenario plus weights over assignment strings.

    Assignment keys list the outcomes for every measurement, in scenario
    order, joined by commas.
    """
    return {
        "scenario": scenario_to_obj(c.scenario),
        "weights": {
            p: {
                ",".join(omega.outcomes): rational_to_str(w)
                for omega, w in c.weights[p].items()
            }
            for p in c.weights
        },
    }


# The one type -> wire-encoder dispatch, shared with the CLI's JSON output;
# keyed by `type_name`.
ENCODERS = {
    "ontolab.probcore.EmpiricalModel": empirical_to_obj,
    "ontolab.ontomodel.OntologicalModel": ontological_to_obj,
    "ontolab.prepscen.PreparationModel": preparation_to_obj,
    "ontolab.properties.Property": property_to_obj,
    "ontolab.cli.modelio.DemoConfig": demo_config_to_obj,
    "ontolab.ontomodel.CanonicalLocalModel": canonical_to_obj,
}

_KIND_OF_TYPE = {
    "ontolab.probcore.EmpiricalModel": KIND_EMPIRICAL,
    "ontolab.ontomodel.OntologicalModel": KIND_ONTOLOGICAL,
    "ontolab.prepscen.PreparationModel": KIND_PREPARATION,
    "ontolab.properties.Property": KIND_PROPERTY,
    "ontolab.cli.modelio.DemoConfig": KIND_DEMO,
}

_FROM_OBJ = {
    KIND_EMPIRICAL: empirical_from_obj,
    KIND_ONTOLOGICAL: ontological_from_obj,
    KIND_PREPARATION: preparation_from_obj,
    KIND_PROPERTY: property_from_obj,
    KIND_DEMO: demo_config_from_obj,
}


def model_file_for(payload: Payload) -> ModelFile:
    return ModelFile(_KIND_OF_TYPE[type_name(payload)], payload)


def serialize_model_file(mf: ModelFile) -> str:
    doc = {
        "format_version": mf.format_version,
        "kind": mf.kind,
        "payload": ENCODERS[type_name(mf.payload)](mf.payload),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise SchemaError("document", f"key {key!r} appears twice in one object")
    return obj


def parse_model_file(text: Union[str, bytes]) -> ModelFile:
    """Decode and validate a model file; see the module docstring for the
    error grading."""
    try:
        doc = json.loads(
            text.decode("utf-8") if isinstance(text, bytes) else text,
            object_pairs_hook=_unique_keys,
        )
    except json.JSONDecodeError as e:
        raise ModelSyntaxError(e.lineno, e.colno, e.msg) from e
    except UnicodeDecodeError as e:
        line = text.count(b"\n", 0, e.start) + 1
        col = e.start - text.rfind(b"\n", 0, e.start)
        raise ModelSyntaxError(line, col, f"not UTF-8 text ({e.reason})") from e
    except ValueError as e:  # an int literal beyond the interpreter's digit limit
        raise SchemaError("document", "a number has too many digits to read") from e
    except RecursionError as e:
        raise SchemaError("document", "nested too deeply to parse") from e
    _expect(doc, dict, "document")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaError("document/format_version", f"expected {FORMAT_VERSION}, got {version!r}")
    kind = doc.get("kind")
    if kind not in KNOWN_KINDS:
        raise SchemaError("document/kind", f"expected one of {list(KNOWN_KINDS)}, got {kind!r}")
    if "payload" not in doc:
        raise SchemaError("document", "missing key 'payload'")
    payload = _FROM_OBJ[kind](doc["payload"], "payload")
    return ModelFile(kind, payload)
