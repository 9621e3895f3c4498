"""JSON encoding of models, with strict parsing.

Wire format: a model file is an object with "format_version" (currently
1), "kind" (one of empirical, ontological, preparation, property), and
"payload". Rationals are strings "num/den" (or "num" for integers) in
ASCII digits; distributions are maps from encoded events to such strings;
composite keys join labels with commas, so labels themselves are
non-empty strings without commas. No object may repeat a key.

Parse failures are graded: malformed JSON, or bytes that are not UTF-8,
raise ModelSyntaxError with line and column; structural mismatches raise
SchemaError naming the offending path, as do a document nested too deeply
to parse, a repeated object key and a number with more digits than the
interpreter reads; and well-formed payloads whose numbers break a model
invariant raise InvariantViolation carrying the underlying detail (for a
bad distribution, the exact deficit).

Three tables carry the dispatch. `KINDS` maps each kind, in the order
above, to its payload's type and its decoder. `ENCODERS` maps a type to
its JSON form: the model encoders that write model files, and the
encoders of rationals, distributions, joint outcomes, witnesses and
certificates that the CLI's `--json` reports use. A joint outcome is
keyed by its outcomes joined with commas (`_event_key`) in both.

One codec carries the composite keys: `_key` is the one join of labels
with commas, for contexts, events, joint preparations and joint states,
and `_parts` the one split, which checks each part with `_label` and
refuses an event or joint key that does not hold one label per context
measurement or per site, each refusal at the key's own path.
`_label_lists` reads the three maps from a label to a label list: a
scenario's outcomes and a preparation model's preparations and ontic
spaces.

A `ModelFile` holds only its payload. Its `kind` is read off the
payload's type, so a tag that disagrees with the payload cannot be built,
and every file is written with format version `FORMAT_VERSION`;
`model_file_for` is another name for the class.

Importing this module loads only `probcore`: each decoder imports the
layer of the model it builds when it runs, and the type tables are keyed
by qualified type name (`type_name`).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Optional, Union

from ..probcore import (
    Dist,
    EmpiricalModel,
    InvariantViolation,
    JointOutcome,
    MeasurementScenario,
    OntolabError,
    _value_class,
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


Payload = Union[EmpiricalModel, "OntologicalModel", "PreparationModel", "Property"]


@_value_class
class ModelFile:
    """A decoded model; its kind is read off the payload's type."""

    payload: Payload

    def __post_init__(self):
        _kind_of(self.payload)

    @property
    def kind(self) -> str:
        return _kind_of(self.payload)


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


def _require(obj: Any, path: str, *keys: str) -> dict:
    _expect(obj, dict, path)
    for key in keys:
        if key not in obj:
            raise SchemaError(path, f"missing key {key!r}")
    return obj


def _label(obj: Any, path: str) -> str:
    _expect(obj, str, path)
    if not obj or "," in obj:
        raise SchemaError(path, f"labels must be non-empty and comma-free, got {obj!r}")
    return obj


def _label_list(obj: Any, path: str) -> list:
    _expect(obj, list, path)
    return [_label(x, f"{path}[{i}]") for i, x in enumerate(obj)]


def _label_lists(obj: Any, path: str) -> dict:
    """A map from labels to label lists, each list as a tuple."""
    _expect(obj, dict, path)
    return {_label(k, f"{path}/{k}"): tuple(_label_list(v, f"{path}/{k}")) for k, v in obj.items()}


def _key(parts) -> str:
    """The one join of labels into a composite key."""
    return ",".join(map(str, parts))


def _parts(key: str, path: str, n: Optional[int] = None, what: str = "") -> tuple:
    """The one split of a composite key into labels, each checked by
    `_label`; given ``n``, the key must hold ``n`` of them."""
    parts = key.split(",")
    if n is not None and len(parts) != n:
        raise SchemaError(path, f"key {key!r} does not match {what}")
    return tuple(_label(part, path) for part in parts)


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
    _require(obj, path, "measurements", "outcomes", "cover")
    ms = _label_list(obj["measurements"], f"{path}/measurements")
    outcomes = _label_lists(obj["outcomes"], f"{path}/outcomes")
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
    return _key(event.outcomes)


def distribution_to_obj(d: Dist) -> dict:
    """A distribution over joint outcomes as its context and table, any
    other as a plain table."""
    first = next(iter(d.items()), (None,))[0]
    if isinstance(first, JointOutcome):
        return {"context": list(first.context), "table": _dist_to_obj(d, _event_key)}
    return _dist_to_obj(d, str)


def certificate_to_obj(c) -> dict:
    return {
        "coefficients": [
            {"context": list(ev.context), "event": _event_key(ev), "coefficient": rational_to_str(v)}
            for ev, v in c.coefficients.items()
        ],
        "model_value": rational_to_str(c.model_value),
        "local_bound": rational_to_str(c.local_bound),
    }


def _event_from_key(key: str, context: tuple, path: str) -> JointOutcome:
    return JointOutcome.of(context, _parts(key, path, len(context), f"context {context}"))


def _context_tables(obj: Any, path: str) -> dict:
    """Tables keyed by comma-joined contexts, each key sorted into its
    context. Each part of a key must be a label and no measurement may
    repeat in it; a context given twice, in any label order, is refused."""
    _expect(obj, dict, path)
    tables = {}
    for key, val in obj.items():
        ctx = tuple(sorted(_parts(key, f"{path}/{key}")))
        if len(set(ctx)) != len(ctx):
            raise SchemaError(f"{path}/{key}", "repeated measurement in context")
        if ctx in tables:
            raise SchemaError(f"{path}/{key}", "duplicate context")
        tables[ctx] = _dist_from_obj(val, f"{path}/{key}", lambda k, p, c=ctx: _event_from_key(k, c, p))
    return tables


def empirical_to_obj(e: EmpiricalModel) -> dict:
    return {
        "scenario": scenario_to_obj(e.scenario),
        "tables": {
            _key(ctx): _dist_to_obj(e.tables[ctx], _event_key)
            for ctx in e.scenario.cover
        },
    }


def empirical_from_obj(obj: Any, path: str) -> EmpiricalModel:
    _require(obj, path, "scenario", "tables")
    scenario = scenario_from_obj(obj["scenario"], f"{path}/scenario")
    tables = _context_tables(obj["tables"], f"{path}/tables")
    with _guard(path):
        return EmpiricalModel(scenario, tables)


def ontological_to_obj(h: OntologicalModel) -> dict:
    responses: dict = {}
    for (lam, ctx), d in h.responses.items():
        responses.setdefault(str(lam), {})[_key(ctx)] = _dist_to_obj(d, _event_key)
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

    _require(obj, path, "scenario", "preparations", "ontic_space", "prep_dists", "responses")
    scenario = scenario_from_obj(obj["scenario"], f"{path}/scenario")
    preps = _label_list(obj["preparations"], f"{path}/preparations")
    states = _label_list(obj["ontic_space"], f"{path}/ontic_space")
    pd_obj = _expect(obj["prep_dists"], dict, f"{path}/prep_dists")
    prep_dists = {
        p: _dist_from_obj(val, f"{path}/prep_dists/{p}", lambda k, _p: k)
        for p, val in pd_obj.items()
    }
    resp_obj = _expect(obj["responses"], dict, f"{path}/responses")
    responses = {
        (lam, ctx): d
        for lam, by_ctx in resp_obj.items()
        for ctx, d in _context_tables(by_ctx, f"{path}/responses/{lam}").items()
    }
    with _guard(path):
        return OntologicalModel(scenario, tuple(preps), tuple(states), prep_dists, responses)


def preparation_to_obj(m: PreparationModel) -> dict:
    sc = m.scenario
    return {
        "sites": list(sc.sites),
        "preparations": {s: list(sc.preparations[s]) for s in sc.sites},
        "ontic_spaces": {s: list(sc.ontic_spaces[s]) for s in sc.sites},
        "tables": {_key(jp): _dist_to_obj(m.tables[jp], _key) for jp in m.tables},
    }


def preparation_from_obj(obj: Any, path: str) -> PreparationModel:
    from ..prepscen import PreparationModel, PreparationScenario

    _require(obj, path, "sites", "preparations", "ontic_spaces", "tables")
    sites = tuple(_label_list(obj["sites"], f"{path}/sites"))
    preps = _label_lists(obj["preparations"], f"{path}/preparations")
    spaces = _label_lists(obj["ontic_spaces"], f"{path}/ontic_spaces")
    with _guard(f"{path}/sites"):
        scenario = PreparationScenario(sites, preps, spaces)
    tables_obj = _expect(obj["tables"], dict, f"{path}/tables")
    what = f"sites {sites}"
    joint = lambda key, p: _parts(key, p, len(sites), what)
    tables = {
        joint(key, f"{path}/tables/{key}"): _dist_from_obj(val, f"{path}/tables/{key}", joint)
        for key, val in tables_obj.items()
    }
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

    _require(obj, path, "ontic_space", "values", "f")
    states = _label_list(obj["ontic_space"], f"{path}/ontic_space")
    values = _label_list(obj["values"], f"{path}/values")
    f_obj = _expect(obj["f"], dict, f"{path}/f")
    dists = {
        lam: _dist_from_obj(val, f"{path}/f/{lam}", lambda k, _p: k)
        for lam, val in f_obj.items()
    }
    with _guard(path):
        return Property(tuple(states), tuple(values), dists)


def canonical_to_obj(c: CanonicalLocalModel) -> dict:
    """Canonical local model: scenario plus weights over assignment strings.

    Assignment keys list the outcomes for every measurement, in scenario
    order, joined by commas.
    """
    return {
        "scenario": scenario_to_obj(c.scenario),
        "weights": {p: _dist_to_obj(c.weights[p], _event_key) for p in c.weights},
    }


# The one type -> JSON dispatch, for model files and the CLI's reports;
# keyed by `type_name`.
ENCODERS = {
    "fractions.Fraction": rational_to_str,
    "ontolab.probcore.Dist": distribution_to_obj,
    "ontolab.probcore.JointOutcome": lambda ev: {"context": list(ev.context), "outcomes": list(ev.outcomes)},
    "ontolab.probcore.EmpiricalModel": empirical_to_obj,
    "ontolab.ontomodel.OntologicalModel": ontological_to_obj,
    "ontolab.ontomodel.CanonicalLocalModel": canonical_to_obj,
    "ontolab.prepscen.PreparationModel": preparation_to_obj,
    "ontolab.properties.Property": property_to_obj,
    "ontolab.localdecide.LocalWitness": lambda w: {"weights": distribution_to_obj(w.dist)},
    "ontolab.localdecide.NonlocalityCertificate": certificate_to_obj,
}

# Kind -> (payload type name, decoder), in the order of the docstring.
KINDS = {
    KIND_EMPIRICAL: ("ontolab.probcore.EmpiricalModel", empirical_from_obj),
    KIND_ONTOLOGICAL: ("ontolab.ontomodel.OntologicalModel", ontological_from_obj),
    KIND_PREPARATION: ("ontolab.prepscen.PreparationModel", preparation_from_obj),
    KIND_PROPERTY: ("ontolab.properties.Property", property_from_obj),
}
_KIND_OF_TYPE = {name: kind for kind, (name, _) in KINDS.items()}


def _kind_of(payload: Any) -> str:
    kind = _KIND_OF_TYPE.get(type_name(payload))
    if kind is None:
        raise InvariantViolation(f"a payload of type {type(payload).__name__} is not a model")
    return kind


model_file_for = ModelFile


def serialize_model_file(mf: ModelFile) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
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
    if not isinstance(kind, str) or kind not in KINDS:
        raise SchemaError("document/kind", f"expected one of {list(KINDS)}, got {kind!r}")
    _require(doc, "document", "payload")
    return ModelFile(KINDS[kind][1](doc["payload"], "payload"))
