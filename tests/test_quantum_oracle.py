"""The quantum layer against numpy as an oracle: the Jacobi eigensolver,
the `Observable` projectors, and the Born values behind
`psi_complete_model`.

numpy is a test-only dependency. Without it this module skips and the
rest of the suite runs unchanged.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontolab import is_parameter_independent
from ontolab.probcore import JointOutcome
from ontolab.quantum import (
    Ket,
    Observable,
    _eigh,
    _matrix,
    projective_povm,
    psi_complete_model,
    tensor,
)

coords = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian(draw, max_size=6):
    n = draw(st.integers(1, max_size))
    a = np.zeros((n, n), dtype=complex)
    for i in range(n):
        a[i, i] = draw(coords)
        for j in range(i + 1, n):
            a[i, j] = complex(draw(coords), draw(coords))
            a[j, i] = a[i, j].conjugate()
    return a


TINY = complex(5e-324, 5e-324)  # abs() rounds it to 5e-324, so TINY / abs(TINY) has modulus sqrt(2)


@settings(max_examples=300, deadline=None)
@given(hermitian())
@example(np.array([[0, TINY, 0], [TINY.conjugate(), 0.5, 0.5], [0, 0.5, 0.5]]))
def test_eigh_matches_numpy(a):
    pairs = _eigh(_matrix(a))
    values = np.array([value for value, _ in pairs])
    vecs = np.array([vec for _, vec in pairs]).T
    scale = 1 + np.linalg.norm(a)
    assert np.all(np.diff(values) >= 0)
    assert np.max(np.abs(values - np.linalg.eigvalsh(a))) <= 1e-10 * scale
    assert np.max(np.linalg.norm(a @ vecs - vecs * values, axis=0)) <= 1e-10 * scale
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(a)))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True),
    st.integers(0, 2**32 - 1),
)
def test_observable_projectors_match_numpy(eigenvalues, seed):
    """Eigenvalues at least 1/4 apart, in a random unitary basis."""
    n = len(eigenvalues)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a = u @ np.diag(np.array(eigenvalues) / 4) @ u.conj().T
    a = (a + a.conj().T) / 2
    spectrum = Observable(a).spectrum
    values, vecs = np.linalg.eigh(a)
    assert len(spectrum) == n
    for (ev, proj), value, vec in zip(spectrum, values, vecs.T):
        assert ev == pytest.approx(value, abs=1e-10)
        assert np.max(np.abs(np.array(proj) - np.outer(vec, vec.conj()))) <= 1e-9


def _direction(theta, phi):
    """Outcome "0" along the Bloch direction (theta, phi), "1" opposite."""
    up = [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)]
    down = [-np.exp(-1j * phi) * math.sin(theta / 2), math.cos(theta / 2)]
    return {"0": np.array(up), "1": np.array(down)}


angles = st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(-1, 1), min_size=8, max_size=8).filter(
        lambda xs: sum(x * x for x in xs) > 0.1
    ),
    st.lists(angles, min_size=4, max_size=4),
    st.integers(10, 10**6),
)
def test_psi_complete_model_is_exact_at_any_denominator(coords8, directions, max_denominator):
    """Product POVMs on a two-qubit pure state give an exactly parameter
    independent model at every denominator cap, each cell near trace(rho E)."""
    psi = np.array(coords8[:4]) + 1j * np.array(coords8[4:])
    psi = psi / np.linalg.norm(psi)
    bases = {
        name: _direction(*angle) for name, angle in zip(("a0", "a1", "b0", "b1"), directions)
    }

    def povm(name):
        return projective_povm([(o, Ket(vec)) for o, vec in bases[name].items()])

    contexts = [(a, b) for a in ("a0", "a1") for b in ("b0", "b1")]
    h = psi_complete_model(
        {"s": Ket(psi)}, {ctx: tensor(povm(ctx[0]), povm(ctx[1])) for ctx in contexts}, max_denominator
    )
    assert is_parameter_independent(h)
    rho = np.outer(psi, psi.conj())
    for a, b in contexts:
        table = h.response("s", (a, b))
        assert sum(w for _, w in table.items()) == 1
        for oa, va in bases[a].items():
            for ob, vb in bases[b].items():
                v = np.kron(va, vb)
                born = np.trace(rho @ np.outer(v, v.conj())).real
                cell = table.weight(JointOutcome.of((a, b), (oa, ob)))
                assert abs(float(cell) - born) <= 4 / max_denominator
