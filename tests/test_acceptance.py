"""Acceptance sweep: ten timed end-to-end checks.

Each check prints exactly one [PASS]/[FAIL] line with its elapsed time;
run with `pytest tests/test_acceptance.py -s` to watch them go by. A
check fails if any assertion inside it fails or if it overruns its time
budget.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ontolab import (
    EPISTEMIC,
    ONTIC,
    Epistemic,
    LocalWitness,
    NondeterministicWitness,
    NonlocalityCertificate,
    OVERLAP,
    PBRParams,
    Signalling,
    bayes_invert,
    canonicalize,
    check_no_signalling,
    classify,
    decide_local,
    factorizes,
    is_local,
    onticity_report,
    operational_probabilities,
    overlap_event_probability,
    pbr_counterexample,
    quasi_local_decomposition,
    supports_overlap,
    verify_certificate,
    verify_signed_weights,
    verify_witness,
)
from ontolab.quantum import (
    EpistemicValues,
    observable_epistemicity,
    pauli_z,
    plus_state,
    steering_demo,
)
from ontolab.cli.main import main
from ontolab.cli.zoo import chsh_psi_complete, deterministic_box, pr_box

from conftest import rand_bell_model, rand_property
from test_cli import signalling_box

F = Fraction


class criterion:
    """Times a block, prints its verdict line, and enforces the budget."""

    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed <= self.budget_s
        print(
            f"[{'PASS' if ok else 'FAIL'}] {self.label} "
            f"({elapsed:.2f} s, budget {self.budget_s:g} s)"
        )
        if exc_type is None and elapsed > self.budget_s:
            pytest.fail(
                f"{self.label}: {elapsed:.2f} s exceeded the {self.budget_s:g} s budget"
            )
        return False


def chsh(e) -> Fraction:
    """Agree-minus-disagree CHSH combination, evaluated directly from the
    tables; independent of everything under test."""

    def corr(x, y):
        ctx = (f"a{x}", f"b{y}")
        total = F(0)
        for ev, w in e.tables[ctx].items():
            a, b = ev.outcomes
            total += w if a == b else -w
        return total

    return corr(0, 0) + corr(0, 1) + corr(1, 0) - corr(1, 1)


def test_01_overlap_counterexample_cli(capsys):
    with criterion("01 overlap counter-example, exact, via the CLI", 1.0):
        code = main(["pbr", "--q", "1/4"])
        out = capsys.readouterr().out
        assert code == 4
        for a, b in itertools.product(("psi0", "psi1"), repeat=2):
            assert f"joint preparation ({a}, {b}):" in out
        for cell in (
            "(overlap, overlap): 0",
            "(overlap, outside): 1/4",
            "(outside, overlap): 1/4",
            "(outside, outside): 1/2",
        ):
            assert out.count(cell) == 4
        assert "no-preparation-signalling  pass" in out
        assert "preparation-independence   fail" in out
        assert "joint_state (overlap, overlap), actual 0, product 1/16" in out

        m = pbr_counterexample(PBRParams(F(1, 4)))
        probs = overlap_event_probability(
            m, {s: (OVERLAP,) for s in m.scenario.sites}
        )
        assert set(probs.values()) == {F(0)}


def test_02_property_classification_equivalence():
    with criterion("02 classification = support overlap, 1000 properties", 5.0):
        rng = random.Random(1002)
        for _ in range(1000):
            p = rand_property(rng)
            epistemic = isinstance(classify(p), Epistemic)
            overlap = supports_overlap(bayes_invert(p))
            assert epistemic == (overlap is not None)


def test_03_local_iff_all_properties_ontic():
    with criterion("03 local = all observable properties ontic, 500 models", 10.0):
        rng = random.Random(1003)
        kinds = ("random", "local", "factorizing", "neardet")
        seen = set()
        for i in range(500):
            h = rand_bell_model(rng, kinds[i % len(kinds)])
            local = bool(is_local(h))
            status = onticity_report(h)
            all_ontic = all(s == ONTIC for s in status.values())
            assert local == all_ontic
            seen.add(local)
        assert seen == {True, False}


def test_04_canonicalization_preserves_statistics():
    with criterion("04 canonical form + operational witness, 200 models", 10.0):
        rng = random.Random(1004)
        for _ in range(200):
            h = rand_bell_model(rng, "local")
            c = canonicalize(h)
            back = c.as_ontological_model()
            for p in h.preparations:
                assert operational_probabilities(h, p) == operational_probabilities(back, p)
            e = operational_probabilities(h, h.preparations[0])
            res = decide_local(e)
            assert isinstance(res, LocalWitness)
            assert verify_witness(e, res)


def test_05_extremal_box_certificate():
    with criterion("05 extremal box: certificate and the exact gap", 1.0):
        box = pr_box()
        assert check_no_signalling(box)
        cert = decide_local(box)
        assert isinstance(cert, NonlocalityCertificate)
        assert cert.model_value > cert.local_bound
        assert verify_certificate(box, cert)
        # gap 2 in the familiar normalization: the box reaches 4, while
        # the best of all 16 deterministic assignments reaches 2
        assert chsh(box) == 4
        best = max(
            chsh(deterministic_box("".join(bits)))
            for bits in itertools.product("01", repeat=4)
        )
        assert best == 2


def test_06_entangled_pair_tables():
    with criterion("06 entangled-pair tables: certificate and the value", 5.0):
        h = chsh_psi_complete()
        e = operational_probabilities(h, "entangled-pair")
        cert = decide_local(e)
        assert isinstance(cert, NonlocalityCertificate)
        assert verify_certificate(e, cert)
        assert abs(float(chsh(e)) - 2 * math.sqrt(2)) < 1e-4


def test_07_state_fails_to_fix_values():
    with criterion("07 unbiased state: exact epistemic masses", 1.0):
        res = observable_epistemicity(plus_state(), pauli_z())
        assert isinstance(res, EpistemicValues)
        assert res.masses == (F(1, 2), F(1, 2))

        loc = is_local(chsh_psi_complete())
        assert not loc
        assert isinstance(loc.witness, NondeterministicWitness)


def test_08_factorization_locality_bridge():
    with criterion("08 factorizing -> local, deterministic -> factorizing", 20.0):
        rng = random.Random(1008)
        for _ in range(200):
            h = rand_bell_model(rng, "factorizing")
            e = operational_probabilities(h, h.preparations[0])
            res = decide_local(e)
            assert isinstance(res, LocalWitness)
            assert verify_witness(e, res)
        for _ in range(200):
            h = rand_bell_model(rng, "local")
            assert factorizes(h)


def test_09_signed_decompositions():
    with criterion("09 signed decompositions of the eight box variants", 5.0):
        for alpha, beta, gamma in itertools.product((0, 1), repeat=3):
            box = pr_box(alpha, beta, gamma)
            sw = quasi_local_decomposition(box)
            assert verify_signed_weights(box, sw)
            assert sw.negative_part()
        with pytest.raises(Signalling) as e:
            quasi_local_decomposition(signalling_box())
        assert e.value.witness is not None


def test_10_steering_ensembles():
    with criterion("10 steering ensembles in both bases", 1.0):
        from ontolab.quantum import minus_state, qubit0, qubit1

        targets = {
            "z": (qubit0(), qubit1()),
            "x": (plus_state(), minus_state()),
        }
        reduced = {}
        for basis, pair in targets.items():
            ensemble = steering_demo(basis)
            rho = [[0j, 0j], [0j, 0j]]
            for (p, state), target in zip(ensemble, pair):
                a, b = target.amplitudes, state.amplitudes
                fidelity = abs(sum(x.conjugate() * y for x, y in zip(a, b))) ** 2
                assert fidelity >= 1 - 1e-12
                for i, j in itertools.product(range(2), repeat=2):
                    rho[i][j] += p * b[i] * b[j].conjugate()
            reduced[basis] = rho
        drift = max(abs(reduced["z"][i][j] - reduced["x"][i][j]) for i in range(2) for j in range(2))
        assert drift <= 1e-12
