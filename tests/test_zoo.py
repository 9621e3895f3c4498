"""The built-in zoo: every entry must build, carry the right kind, and
reproduce its shipped verdicts."""

from fractions import Fraction

import pytest

from ontolab import (
    EPISTEMIC,
    EmpiricalModel,
    OntologicalModel,
    PreparationModel,
    Property,
    classify,
    decide_local,
    factorizes,
    is_deterministic,
    is_local,
    is_no_preparation_signalling,
    check_no_signalling,
    is_parameter_independent,
    is_preparation_independent,
    onticity_report,
    overlap_event_probability,
    quasi_local_decomposition,
    verify_certificate,
    verify_witness,
)
from ontolab.probcore import JointOutcome, OntolabError
from ontolab.properties import Epistemic
from ontolab.localdecide import LocalWitness, NonlocalityCertificate
from ontolab.cli.modelio import (
    KIND_EMPIRICAL,
    KIND_ONTOLOGICAL,
    KIND_PREPARATION,
    KIND_PROPERTY,
    parse_model_file,
    serialize_model_file,
)
from ontolab.cli.zoo import (
    UnknownZooEntry,
    get_entry,
    hardy_model,
    load_model,
    zoo_names,
)

F = Fraction

_KIND_TYPE = {
    KIND_EMPIRICAL: EmpiricalModel,
    KIND_ONTOLOGICAL: OntologicalModel,
    KIND_PREPARATION: PreparationModel,
    KIND_PROPERTY: Property,
}


def test_catalogue_is_complete():
    names = zoo_names()
    assert len(names) == 30
    assert "prbox" in names
    assert sum(1 for n in names if n.startswith("prbox")) == 8
    assert sum(1 for n in names if n.startswith("deterministic-222-")) == 16
    for expected in (
        "hardy",
        "specker-triangle",
        "chsh-quantum",
        "psi-complete-chsh",
        "fuzzy-coin-property",
        "pbr-q",
    ):
        assert expected in names


@pytest.mark.parametrize("name", zoo_names())
def test_entry_builds_with_declared_kind(name):
    entry = get_entry(name)
    payload = entry.build()
    assert isinstance(payload, _KIND_TYPE[entry.kind])
    assert entry.summary
    mf = load_model(name)
    assert mf.kind == entry.kind


@pytest.mark.parametrize(
    "name",
    [n for n in zoo_names() if get_entry(n).kind == KIND_EMPIRICAL],
)
def test_empirical_expected_verdicts(name):
    entry = get_entry(name)
    e = entry.build()
    assert entry.expected["no-signalling"] == "pass"
    assert check_no_signalling(e)
    res = decide_local(e)
    if entry.expected["decision"] == "local":
        assert isinstance(res, LocalWitness)
        assert verify_witness(e, res)
    else:
        assert isinstance(res, NonlocalityCertificate)
        assert verify_certificate(e, res)
    if "quasi-local" in entry.expected:
        sw = quasi_local_decomposition(e)
        assert sw.negative_part()


def test_hardy_zeros_frozen():
    e = hardy_model()
    zeros = [
        (("a0", "b1"), ("0", "0")),
        (("a1", "b0"), ("0", "0")),
        (("a1", "b1"), ("1", "1")),
    ]
    assert e.tables[("a0", "b0")].weight(
        JointOutcome.of(("a0", "b0"), ("0", "0"))
    ) == F(1, 3)
    for ctx, pair in zeros:
        assert e.tables[ctx].weight(JointOutcome.of(ctx, pair)) == 0


def test_psi_complete_expected_verdicts():
    h = get_entry("psi-complete-chsh").build()
    assert not is_deterministic(h)
    assert is_parameter_independent(h)
    assert not factorizes(h)
    assert not is_local(h)
    statuses = onticity_report(h)
    assert statuses
    assert set(statuses.values()) == {EPISTEMIC}


def test_chsh_quantum_value():
    import math

    e = get_entry("chsh-quantum").build()
    total = F(0)
    for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ctx = (f"a{x}", f"b{y}")
        corr = F(0)
        for event, w in e.tables[ctx].items():
            outcomes = dict(zip(event.context, event.outcomes))
            sign = 1 if outcomes[ctx[0]] == outcomes[ctx[1]] else -1
            corr += sign * w
        total += -corr if (x, y) == (1, 1) else corr
    assert abs(float(total) - 2 * math.sqrt(2)) < 1e-4


def test_fuzzy_coin_expected_verdict():
    p = get_entry("fuzzy-coin-property").build()
    assert isinstance(classify(p), Epistemic)


def test_pbr_q_expected_verdicts():
    m = get_entry("pbr-q").build()
    assert is_no_preparation_signalling(m)
    assert not is_preparation_independent(m)
    probs = overlap_event_probability(
        m, {s: ("overlap",) for s in m.scenario.sites}
    )
    assert set(probs.values()) == {F(0)}


class TestLoadModel:
    def test_unknown_name(self):
        with pytest.raises(UnknownZooEntry):
            load_model("unicorn")

    def test_pbr_q_knob(self):
        mf = load_model("pbr-q", q=F(1, 3))
        t = mf.payload.table(("psi0", "psi0"))
        assert t.weight(("overlap", "outside")) == F(1, 3)
        assert t.weight(("outside", "outside")) == F(1, 3)

    def test_max_denominator_knob(self):
        coarse = load_model("chsh-quantum", max_denominator=100).payload
        fine = load_model("chsh-quantum").payload
        assert check_no_signalling(coarse)
        for ctx in coarse.scenario.cover:
            for event, w in coarse.tables[ctx].items():
                assert abs(float(w) - float(fine.tables[ctx].weight(event))) < 1e-2

    @pytest.mark.parametrize(
        "name, knobs",
        [
            ("prbox", {"q": F(1, 3)}),
            ("hardy", {"max_denominator": 9}),
            ("pbr-q", {"max_denominator": 9}),
            ("chsh-quantum", {"q": F(1, 3)}),
        ],
    )
    def test_knobs_apply_only_to_their_entries(self, name, knobs):
        with pytest.raises(OntolabError, match="does not take"):
            load_model(name, **knobs)

    def test_exports_round_trip(self):
        for name in ("prbox", "psi-complete-chsh", "fuzzy-coin-property", "pbr-q"):
            mf = load_model(name)
            text = serialize_model_file(mf)
            assert parse_model_file(text).payload == mf.payload
