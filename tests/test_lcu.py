import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bechain.encoding import BlockEncoding, dilate_hermitian, hermitian_test_encoding
from bechain.lcu import (
    SIN_PI_14,
    _asym_prep_pair,
    _w_lcu,
    _w_uh_grids,
    lcu,
    lcu_i_minus_h2,
    lcu_w_uh,
    pair_select,
)
from bechain.linalg import (
    HADAMARD,
    PAULI_X,
    Tolerance,
    haar_unitary,
    is_unitary,
    opnorm,
    random_hermitian,
    select_qubit,
)


def test_coefficient_identity():
    # the Lemma's error chain: X-branch weight times eps/9 stays within eps/14
    assert math.sqrt(8.0) * SIN_PI_14 / 9.0 <= 1.0 / 14.0


def _dense_lcu(p_l, p_r, terms):
    # the reference sandwich kron(P_L, I) @ blockdiag(T) @ kron(P_R, I)
    dim = terms[0].shape[0]
    select = np.zeros((len(terms) * dim,) * 2, dtype=complex)
    for j, t in enumerate(terms):
        select[j * dim : (j + 1) * dim, j * dim : (j + 1) * dim] = t
    eye = np.eye(dim)
    return np.kron(p_l, eye) @ select @ np.kron(p_r, eye)


@settings(deadline=None, max_examples=60)
@given(
    prep=st.sampled_from(["hadamard", "asym", "haar"]),
    nterms=st.integers(2, 4),
    dim=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_lcu_matches_dense_sandwich(prep, nterms, dim, seed):
    rng = np.random.default_rng(seed)
    if prep == "hadamard":
        nterms = 2
        p_l = p_r = HADAMARD
    elif prep == "asym":
        nterms = 2
        w1 = rng.uniform(-1.0, 1.0)
        p_l, p_r = _asym_prep_pair(w1, rng.uniform(-1.0, 1.0) * (1.0 - abs(w1)))
    else:
        p_l = haar_unitary(nterms, rng)
        p_r = p_l.conj().T
    terms = [haar_unitary(dim, rng) for _ in range(nterms)]
    np.testing.assert_allclose(lcu(p_l, p_r, terms), _dense_lcu(p_l, p_r, terms), atol=1e-13)


def test_lcu_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="prep shapes"):
        lcu(np.eye(4), np.eye(4), (eye, eye))
    with pytest.raises(ValueError, match="prep shapes"):
        lcu(HADAMARD, np.eye(3), (eye, eye))
    with pytest.raises(ValueError, match="prep shapes"):
        lcu(np.zeros((0, 0)), np.zeros((0, 0)), ())
    with pytest.raises(ValueError, match="one size"):
        lcu(HADAMARD, HADAMARD, (eye, np.eye(4)))
    with pytest.raises(ValueError, match="one size"):
        lcu(HADAMARD, HADAMARD, (np.ones((2, 3)), np.ones((2, 3))))
    with pytest.raises(ValueError, match="every term is None"):
        lcu(HADAMARD, HADAMARD, (None, None))


@pytest.mark.parametrize("zero_at", [0, 1, 2])
def test_lcu_none_term_equals_zero_term(zero_at):
    rng = np.random.default_rng(7 + zero_at)
    p_l, p_r = haar_unitary(3, rng), haar_unitary(3, rng)
    terms = [haar_unitary(4, rng) for _ in range(3)]
    with_zero = list(terms)
    with_zero[zero_at] = np.zeros((4, 4))
    with_none = list(terms)
    with_none[zero_at] = None
    assert np.array_equal(lcu(p_l, p_r, with_none), lcu(p_l, p_r, with_zero))


def test_pair_select_weights():
    rng = np.random.default_rng(3)
    t1, t2 = haar_unitary(4, rng), haar_unitary(4, rng)
    w = pair_select(0.55, t1, 0.3, t2)
    assert is_unitary(w, Tolerance(1e-12))
    np.testing.assert_allclose(w[:4, :4], 0.55 * t1 + 0.3 * t2, atol=1e-12)
    # signed weights
    w2 = pair_select(0.25, t1, -0.25, t2)
    np.testing.assert_allclose(w2[:4, :4], 0.25 * t1 - 0.25 * t2, atol=1e-12)


@settings(deadline=None, max_examples=200)
@given(w1=st.floats(-1.0, 1.0), frac=st.floats(-1.0, 1.0))
@example(w1=0.0, frac=1.0)
@example(w1=0.0, frac=-1.0)
@example(w1=1.0, frac=0.0)
@example(w1=-1.0, frac=0.0)
@example(w1=0.0, frac=0.0)
@example(w1=0.5, frac=1e-9)
def test_asym_prep_pair_domain(w1, frac):
    # every (w1, w2) with |w1| + |w2| <= 1, edges and corners included
    w2 = frac * (1.0 - abs(w1))
    p_l, p_r = _asym_prep_pair(w1, w2)
    for p in (p_l, p_r):
        np.testing.assert_allclose(p @ p.conj().T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(p_l[0, :] * p_r[:, 0], [w1, w2], atol=1e-12)


@pytest.mark.parametrize(
    "w1, w2, match",
    [
        (math.nan, 0.2, "w1 = nan is not finite"),
        (0.2, math.nan, "w2 = nan is not finite"),
        (math.inf, 0.0, "w1 = inf is not finite"),
        (0.0, -math.inf, "w2 = -inf is not finite"),
        (0.6, -0.5, "must not exceed 1"),
    ],
)
def test_pair_select_rejects_bad_weights(w1, w2, match):
    eye = np.eye(2)
    with pytest.raises(ValueError, match=match):
        pair_select(w1, eye, w2, eye)


def test_lcu_i_minus_h2_scalars():
    be0 = lcu_i_minus_h2(dilate_hermitian(np.array([[0.0]])))
    np.testing.assert_allclose(be0.block(), np.array([[0.5]]), atol=1e-12)
    be6 = lcu_i_minus_h2(dilate_hermitian(np.array([[0.6]])))
    np.testing.assert_allclose(be6.block(), np.array([[0.32]]), atol=1e-12)


def test_lcu_i_minus_h2_random():
    h = random_hermitian(4, 0.9, np.random.default_rng(4))
    vh = hermitian_test_encoding(h, 2, 9)
    out = lcu_i_minus_h2(vh)
    assert out.a == vh.a + 1
    np.testing.assert_allclose(out.block(), (np.eye(4) - h @ h) / 2, atol=1e-10)


def test_lcu_i_minus_h2_spectrum_floor():
    # all eigenvalues of (I−H²)/2 at least (1−(1−δ)²)/2 when ‖H‖ ≤ 1−δ
    delta = 0.3
    h = random_hermitian(4, 1 - delta, np.random.default_rng(5))
    out = lcu_i_minus_h2(dilate_hermitian(h))
    evals = np.linalg.eigvalsh(out.block())
    assert evals.min() >= (1 - (1 - delta) ** 2) / 2 - 1e-12
    assert evals.max() <= 0.5 + 1e-12


def test_lcu_i_minus_h2_rejects_non_hermitian_block():
    u = haar_unitary(4, np.random.default_rng(6))
    with pytest.raises(ValueError, match="Hermitian"):
        lcu_i_minus_h2(BlockEncoding(u, 1, 1))


def _exact_sqrt_encoding(h: np.ndarray) -> BlockEncoding:
    # an exact encoding of sqrt(I−H²)/sqrt(8) for testing lcu_w_uh in isolation
    from bechain.linalg import sqrt_one_minus_sq

    target = sqrt_one_minus_sq(h) / math.sqrt(8.0)
    from bechain.encoding import dilate_general, normalize_selectors, pad_ancillas

    return pad_ancillas(normalize_selectors(dilate_general(target)), 3)


def test_lcu_w_uh_zero_h():
    vh = dilate_hermitian(np.array([[0.0]]))
    w = lcu_w_uh(vh, _exact_sqrt_encoding(np.array([[0.0]])))
    np.testing.assert_allclose(w.block(), SIN_PI_14 * PAULI_X, atol=1e-12)


def test_lcu_w_uh_scalar():
    h = np.array([[0.6]])
    w = lcu_w_uh(dilate_hermitian(h), _exact_sqrt_encoding(h))
    u_h = np.array([[0.6, 0.8], [0.8, -0.6]])
    np.testing.assert_allclose(w.block(), SIN_PI_14 * u_h, atol=1e-12)


def test_lcu_w_uh_error_budget():
    # an eps/9 error on the sqrt branch inflates the block by at most sqrt(8)·s·eps/9
    from bechain.encoding import dilate_general, normalize_selectors, pad_ancillas
    from bechain.linalg import sqrt_one_minus_sq

    h = np.array([[0.4]])
    eps9 = 1e-3
    off_target = sqrt_one_minus_sq(h) / math.sqrt(8.0) + eps9 * np.eye(1)
    perturbed = pad_ancillas(normalize_selectors(dilate_general(off_target)), 3)
    w = lcu_w_uh(dilate_hermitian(h), perturbed)
    u_h = dilate_hermitian(h).u
    err = opnorm(w.block() - SIN_PI_14 * u_h)
    assert err <= math.sqrt(8.0) * SIN_PI_14 * eps9 + 1e-12
    assert err <= (9 * eps9) / 14.0  # the Lemma's eps/14 budget at eps = 9·eps9


@pytest.mark.parametrize("a2", [0, 1, 2])
def test_w_lcu_quadrants_match_pair_select(a2):
    # W written quadrant by quadrant equals pair_select of the two whole selects;
    # the grids overlap in some cells and leave others to one branch
    rng = np.random.default_rng(a2)
    n = 1
    u1, u2, u3, u4 = (haar_unitary(2 ** (a2 + n), rng) for _ in range(4))
    c, s = math.cos(0.3), math.sin(0.3)
    root = [[u1, None], [None, u2]]
    inp = [[c * u3, -s * u3], [s * u4, c * u4]]
    w = _w_lcu(root, inp, a2, n)
    s14 = SIN_PI_14
    expected = pair_select(math.sqrt(8.0) * s14, select_qubit(root, split=a2),
                           s14, select_qubit(inp, split=a2))
    assert np.array_equal(w, expected)


@pytest.mark.parametrize("a_h", [1, 4])
def test_lcu_w_uh_returns_validated_encoding(a_h, monkeypatch):
    # lcu_w_uh wraps _w_lcu's array on [prep 1][anc a2][dilation qubit][n] and
    # validates it: a column scaled by 1 + 1e-6 is refused
    import importlib

    lcu_module = importlib.import_module("bechain.lcu")  # bechain.lcu is also a function

    h = np.array([[0.6]])
    vh, vs = hermitian_test_encoding(h, a_h, 5), _exact_sqrt_encoding(h)
    a2, n = max(a_h, vs.a), vh.n
    w = lcu_w_uh(vh, vs)
    assert isinstance(w, BlockEncoding)
    assert (w.a, w.n) == (1 + a2, n + 1)
    assert np.array_equal(w.u, _w_lcu(*_w_uh_grids(vh, vs), n))
    build = lcu_module._w_lcu

    def skewed(*args):
        out = build(*args)
        out[:, 3] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(lcu_module, "_w_lcu", skewed)
    with pytest.raises(ValueError, match="^u is not unitary within 1e-10$"):
        lcu_w_uh(vh, vs)


def test_lcu_w_uh_register_mismatch():
    vh = dilate_hermitian(np.array([[0.0, 0.0], [0.0, 0.0]]))
    vs = _exact_sqrt_encoding(np.array([[0.0]]))
    with pytest.raises(ValueError, match="mismatch"):
        lcu_w_uh(vh, vs)
