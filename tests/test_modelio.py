"""Model files: round-trips, error grading, and rational parsing."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontolab import (
    EmpiricalModel,
    InvariantViolation,
    MeasurementScenario,
    OntologicalModel,
    PBRParams,
    Property,
    pbr_counterexample,
)
from ontolab.cli.main import jsonable
from ontolab.cli.modelio import (
    _event_from_key,
    FORMAT_VERSION,
    KIND_EMPIRICAL,
    ModelFile,
    ModelSyntaxError,
    SchemaError,
    model_file_for,
    parse_model_file,
    parse_rational,
    rational_to_str,
    serialize_model_file,
)
from ontolab.cli.zoo import fuzzy_coin_property, hardy_model, pr_box
from ontolab.localdecide import NonlocalityCertificate

from test_prepscen import dists, preparation_models

F = Fraction


def small_ontological():
    from conftest import rand_bell_model
    import random

    return rand_bell_model(random.Random(7), "local")


def roundtrip(payload):
    return parse_model_file(serialize_model_file(model_file_for(payload))).payload


class TestRoundTrip:
    def test_empirical(self):
        e = pr_box()
        assert roundtrip(e) == e

    def test_empirical_with_zero_cells(self):
        e = hardy_model()
        assert roundtrip(e) == e

    def test_ontological(self):
        h = small_ontological()
        assert roundtrip(h) == h

    def test_preparation(self):
        m = pbr_counterexample(PBRParams(F(1, 4)))
        assert roundtrip(m) == m

    def test_property(self):
        p = fuzzy_coin_property()
        assert roundtrip(p) == p

    def test_serialized_form_is_stable(self):
        text = serialize_model_file(model_file_for(pr_box()))
        again = serialize_model_file(parse_model_file(text))
        assert text == again

    def test_kind_tag_matches_payload(self):
        mf = model_file_for(pr_box())
        assert mf.kind == KIND_EMPIRICAL
        assert json.loads(serialize_model_file(mf))["format_version"] == FORMAT_VERSION

    @pytest.mark.parametrize("make", [lambda: ModelFile(42), lambda: model_file_for(42)])
    def test_a_non_model_payload_is_refused_by_its_type(self, make):
        with pytest.raises(InvariantViolation, match="type int"):
            make()


# Comma-free labels that JSON and the comma-joined keys must carry intact.
WIRE_LABELS = ("a", "b:c", "x y", "é")


def names(max_size):
    return st.lists(st.sampled_from(WIRE_LABELS), min_size=1, max_size=max_size, unique=True).map(tuple)


@st.composite
def scenarios(draw):
    """The maximal ones among 1-3 drawn contexts, over the measurements
    they use."""
    drawn = draw(st.lists(st.frozensets(st.sampled_from(WIRE_LABELS), min_size=1, max_size=3), min_size=1, max_size=3))
    cover = [sorted(c) for c in set(drawn) if not any(c < d for d in drawn)]
    measurements = sorted(set().union(*cover))
    return MeasurementScenario.make({m: draw(names(2)) for m in measurements}, cover)


@st.composite
def empirical_models(draw):
    sc = draw(scenarios())
    return EmpiricalModel(sc, {ctx: draw(dists(sc.events(ctx))) for ctx in sc.cover})


@st.composite
def ontological_models(draw):
    sc, preps, states = draw(scenarios()), draw(names(2)), draw(names(3))
    responses = {(lam, ctx): draw(dists(sc.events(ctx))) for lam in states for ctx in sc.cover}
    return OntologicalModel(sc, preps, states, {p: draw(dists(states)) for p in preps}, responses)


@st.composite
def properties(draw):
    states, values = draw(names(4)), draw(names(3))
    return Property(states, values, {lam: draw(dists(values)) for lam in states})


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        empirical_models(),
        ontological_models(),
        preparation_models(pool=WIRE_LABELS),
        properties(),
    )
)
def test_drawn_models_round_trip(payload):
    assert roundtrip(payload) == payload


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.data())
def test_reports_key_joint_outcomes_as_model_files_do(sc, data):
    """`--json` reports write a joint outcome under the key a model file
    uses, so the model-file decoder reads it back as the same outcome."""
    events = [ev for ctx in sc.cover for ev in sc.events(ctx)]
    picked = data.draw(st.lists(st.sampled_from(events), min_size=1, unique=True))
    cert = NonlocalityCertificate({ev: F(i + 1) for i, ev in enumerate(picked)}, F(1), F(0))
    coefficients = jsonable(cert)["coefficients"]
    read = [_event_from_key(c["event"], tuple(c["context"]), "event") for c in coefficients]
    assert read == list(cert.coefficients)

    d = data.draw(dists(sc.events(data.draw(st.sampled_from(sc.cover)))))
    obj = jsonable(d)
    table = {_event_from_key(k, tuple(obj["context"]), "table"): parse_rational(v) for k, v in obj["table"].items()}
    assert table == dict(d.items())


class TestParseRational:
    @pytest.mark.parametrize(
        "text,value",
        [("3/4", F(3, 4)), ("7", F(7)), ("-2/4", F(-1, 2)), ("0", F(0))],
    )
    def test_accepted(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text", ["1/0", "1.5", "+1/2", "1 / 2", "", "a", None, 3, "3/4\n", "1\u0660"]
    )
    def test_rejected(self, text):
        with pytest.raises(SchemaError):
            parse_rational(text)

    def test_to_str_drops_unit_denominator(self):
        assert rational_to_str(F(4, 2)) == "2"
        assert rational_to_str(F(-1, 3)) == "-1/3"


def doc_for(payload):
    return json.loads(serialize_model_file(model_file_for(payload)))


class TestErrorGrading:
    def test_bad_json_carries_line_and_column(self):
        with pytest.raises(ModelSyntaxError) as e:
            parse_model_file('{"format_version": 1,\n  "kind": }')
        assert e.value.line == 2
        assert e.value.col > 0

    def test_wrong_format_version(self):
        doc = doc_for(pr_box())
        doc["format_version"] = 99
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert e.value.path == "document/format_version"

    def test_unknown_kind(self):
        doc = doc_for(pr_box())
        doc["kind"] = "mystery"
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert e.value.path == "document/kind"

    @pytest.mark.parametrize("kind", [["empirical"], {"empirical": 1}, 1, None])
    def test_kind_of_another_json_type(self, kind):
        doc = doc_for(pr_box())
        doc["kind"] = kind
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert e.value.path == "document/kind"

    def test_missing_payload(self):
        with pytest.raises(SchemaError) as e:
            parse_model_file('{"format_version": 1, "kind": "empirical"}')
        assert e.value.path == "document"

    def test_missing_scenario_key(self):
        doc = doc_for(pr_box())
        del doc["payload"]["scenario"]
        with pytest.raises(SchemaError):
            parse_model_file(json.dumps(doc))

    def test_non_rational_weight(self):
        doc = doc_for(pr_box())
        table = next(iter(doc["payload"]["tables"].values()))
        key = next(iter(table))
        table[key] = "0.5"
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert "payload/tables" in e.value.path

    def test_comma_in_label(self):
        doc = doc_for(pr_box())
        doc["payload"]["scenario"]["measurements"][0] = "a,0"
        with pytest.raises(SchemaError):
            parse_model_file(json.dumps(doc))

    def test_empty_label(self):
        doc = doc_for(pr_box())
        doc["payload"]["scenario"]["measurements"][0] = ""
        with pytest.raises(SchemaError):
            parse_model_file(json.dumps(doc))

    def test_event_arity_mismatch(self):
        doc = doc_for(pr_box())
        table = next(iter(doc["payload"]["tables"].values()))
        table["0"] = table.pop(next(iter(table)))
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert "does not match context" in str(e.value)

    def test_duplicate_context_keys(self):
        doc = doc_for(pr_box())
        tables = doc["payload"]["tables"]
        first = next(iter(tables))
        a, b = first.split(",")
        tables[f"{b},{a}"] = tables[first]
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert "duplicate context" in str(e.value)

    def test_duplicate_response_context_keys(self):
        doc = doc_for(small_ontological())
        state, by_ctx = next(iter(doc["payload"]["responses"].items()))
        first = next(iter(by_ctx))
        a, b = first.split(",")
        by_ctx[f"{b},{a}"] = by_ctx[first]
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert e.value.path == f"payload/responses/{state}/{b},{a}"
        assert "duplicate context" in str(e.value)

    @pytest.mark.parametrize(
        "key,detail",
        [("a0,a0,b1,b1", "repeated measurement in context"), ("a0,", "non-empty")],
    )
    @pytest.mark.parametrize("where", ["tables", "responses"])
    def test_context_key_is_checked_label_by_label(self, key, detail, where):
        """The refusal names the context key, not an event key under it or
        the table set as a whole."""
        if where == "tables":
            doc = doc_for(pr_box())
            by_ctx, path = doc["payload"]["tables"], "payload/tables"
        else:
            doc = doc_for(small_ontological())
            state, by_ctx = next(iter(doc["payload"]["responses"].items()))
            path = f"payload/responses/{state}"
        by_ctx[key] = by_ctx.pop(next(iter(by_ctx)))
        with pytest.raises(SchemaError) as e:
            parse_model_file(json.dumps(doc))
        assert e.value.path == f"{path}/{key}"
        assert detail in str(e.value)

    def test_weights_not_summing_to_one(self):
        doc = doc_for(pr_box())
        table = next(iter(doc["payload"]["tables"].values()))
        keys = list(table)
        table[keys[0]] = "2/3"
        table[keys[1]] = "1/2"
        for k in keys[2:]:
            del table[k]
        with pytest.raises(InvariantViolation) as e:
            parse_model_file(json.dumps(doc))
        assert "-1/6" in str(e.value)

    def test_property_with_bad_value_dist(self):
        doc = doc_for(fuzzy_coin_property())
        state = next(iter(doc["payload"]["f"]))
        doc["payload"]["f"][state] = {"heads": "1/3"}
        with pytest.raises(InvariantViolation):
            parse_model_file(json.dumps(doc))

    def test_top_level_must_be_an_object(self):
        with pytest.raises(SchemaError):
            parse_model_file("[1, 2]")
