import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bechain.linalg as linalg_module
from bechain.linalg import (
    PAULI_X,
    PAULI_Z,
    Tolerance,
    haar_unitary,
    herm_funcmat,
    is_hermitian,
    is_unitary,
    kron,
    mat_embed_block,
    opnorm,
    permute_qubits,
    random_hermitian,
    select_qubit,
    sqrt_one_minus_sq,
)


def test_opnorm_diagonal():
    assert opnorm(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-14)


def test_opnorm_pauli_x():
    assert opnorm(PAULI_X) == pytest.approx(1.0, abs=1e-14)


def test_opnorm_rank_one():
    # singular values of [[0.6, 0.8], [0, 0]] computed by hand: sqrt(0.36+0.64)
    m = np.array([[0.6, 0.8], [0.0, 0.0]])
    assert opnorm(m) == pytest.approx(1.0, abs=1e-14)


def test_opnorm_empty_matrix():
    with pytest.raises(ValueError, match="empty"):
        opnorm(np.zeros((0, 0)))


def test_is_unitary_examples():
    tol = Tolerance(1e-12)
    assert is_unitary(np.eye(4), tol)
    assert is_unitary(np.array([[0.6, 0.8], [0.8, -0.6]]), tol)
    assert not is_unitary(np.diag([1.0, 0.5]), tol)
    with pytest.raises(ValueError):
        is_unitary(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="empty"):
        is_unitary(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="non-negative"):
        Tolerance(-1e-12)


def test_kron_examples():
    np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    np.testing.assert_allclose(kron(PAULI_Z, np.array([[0.5]])), np.diag([0.5, -0.5]))
    got = kron(PAULI_X, np.diag([1.0, 2.0]))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[2, 0] = 1.0
    expected[1, 3] = expected[3, 1] = 2.0
    np.testing.assert_allclose(got, expected)


def test_herm_funcmat_examples():
    h = np.diag([0.6, 0.0])
    got = herm_funcmat(h, lambda x: np.sqrt(1 - x**2))
    np.testing.assert_allclose(got, np.diag([0.8, 1.0]), atol=1e-14)

    np.testing.assert_allclose(
        herm_funcmat(np.zeros((4, 4)), lambda x: np.sqrt(1 - x**2)), np.eye(4), atol=1e-14
    )
    # squaring 0.5·X by hand: X² = I
    np.testing.assert_allclose(
        herm_funcmat(0.5 * PAULI_X, lambda x: x**2), 0.25 * np.eye(2), atol=1e-14
    )


def test_herm_funcmat_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        herm_funcmat(np.array([[0, 1], [0, 0]], dtype=complex), lambda x: x)


def test_herm_funcmat_domain_error_names_eigenvalue():
    with pytest.raises(ValueError, match="outside the domain"):
        herm_funcmat(np.diag([2.0, 0.0]), lambda x: np.sqrt(1 - x**2))
    with pytest.raises(ValueError, match="-4"):
        herm_funcmat(np.diag([-4.0, 1.0]), np.sqrt)


def test_mat_embed_block_examples():
    np.testing.assert_allclose(mat_embed_block(np.eye(4), "0", "0", 1, 1), np.eye(2))
    np.testing.assert_allclose(
        mat_embed_block(kron(PAULI_X, np.eye(2)), "0", "1", 1, 1), np.eye(2)
    )
    cnot = np.eye(4)[:, [0, 1, 3, 2]]  # control = ancilla qubit
    np.testing.assert_allclose(mat_embed_block(cnot, "1", "1", 1, 1), PAULI_X)
    with pytest.raises(ValueError):
        mat_embed_block(np.eye(4), "00", "00", 2, 1)


def test_permute_qubits_swaps_kron_factors():
    rng = np.random.default_rng(3)
    a = haar_unitary(2, rng)
    b = haar_unitary(4, rng)
    full = kron(a, b)  # qubits [0][1, 2]
    swapped = permute_qubits(full, [1, 2, 0])
    np.testing.assert_allclose(swapped, kron(b, a), atol=1e-14)


def test_select_qubit():
    rng = np.random.default_rng(4)
    v = haar_unitary(4, rng)  # 2 qubits
    got = select_qubit([[None, v], [v, None]], split=1)
    # layout [q0 of v][X qubit][q1 of v]
    direct = permute_qubits(kron(v, PAULI_X), [0, 2, 1])
    np.testing.assert_allclose(got, direct, atol=1e-14)


def _select_qubit_reference(blocks, split):
    """The dense construction: the 2×2 grid at split 0, then a qubit permutation."""
    dim = next(b for row in blocks for b in row if b is not None).shape[0]
    k = dim.bit_length() - 1
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for i, row in enumerate(blocks):
        for j, b in enumerate(row):
            if b is not None:
                out[i * dim : (i + 1) * dim, j * dim : (j + 1) * dim] = b
    return permute_qubits(out, list(range(1, split + 1)) + [0] + list(range(split + 1, k + 1)))


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(0, 6),
    split=st.integers(0, 6),
    mask=st.integers(1, 15),
    seed=st.integers(0, 10**6),
)
def test_select_qubit_matches_permuted_reference(k, split, mask, seed):
    rng = np.random.default_rng(seed)
    dim, split = 2**k, min(split, k)
    blocks = [
        [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            if mask >> (2 * i + j) & 1 else None
            for j in range(2)
        ]
        for i in range(2)
    ]
    got = select_qubit(blocks, split)
    expected = _select_qubit_reference(blocks, split)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def test_select_qubit_grid():
    rng = np.random.default_rng(6)
    blocks = [[haar_unitary(4, rng), None], [haar_unitary(4, rng), haar_unitary(4, rng)]]
    expected = np.zeros((8, 8), dtype=complex)
    for i in range(2):
        for j in range(2):
            if blocks[i][j] is not None:
                unit = np.zeros((2, 2))
                unit[i, j] = 1.0
                expected += kron(blocks[i][j], unit)  # layout [block qubits][new qubit]
    np.testing.assert_array_equal(select_qubit(blocks, split=2), expected)
    np.testing.assert_array_equal(
        select_qubit(blocks), permute_qubits(expected, [2, 0, 1])
    )
    with pytest.raises(ValueError, match="split"):
        select_qubit(blocks, split=3)
    with pytest.raises(ValueError, match="dimension"):
        select_qubit([[np.eye(4), None], [None, np.eye(2)]])
    with pytest.raises(ValueError, match="2x2"):
        select_qubit([[None, None], [None, None]])


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), nq=st.integers(1, 3))
def test_haar_unitary_is_unitary_with_norm_one(seed, nq):
    u = haar_unitary(2**nq, np.random.default_rng(seed))
    assert is_unitary(u, Tolerance(1e-12))
    assert abs(opnorm(u) - 1.0) <= 1e-10


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_herm_funcmat_identity_function(seed):
    h = random_hermitian(4, 0.9, np.random.default_rng(seed))
    np.testing.assert_allclose(herm_funcmat(h, lambda x: x), h, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_sqrt_conservation(seed):
    # f(H)² + H² = I for f = sqrt(1 − x²), the identity the dilation relies on
    h = random_hermitian(4, 1.0, np.random.default_rng(seed))
    s = sqrt_one_minus_sq(h)
    np.testing.assert_allclose(s @ s + h @ h, np.eye(4), atol=1e-10)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6))
def test_kron_associativity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-14)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6))
def test_unitary_submatrix_subnormalized(seed):
    u = haar_unitary(8, np.random.default_rng(seed))
    assert opnorm(mat_embed_block(u, "00", "00", 2, 1)) <= 1.0 + 1e-10


# Expected verdict per regime of the deviation spectrum d (see _deviation_spectrum).
DEVIATION_REGIMES = {"frobenius": True, "svd": True, "reject": False}


def _deviation_spectrum(regime: str, dim: int, atol: float, rng) -> np.ndarray:
    """Eigenvalues d of a deviation E = V·diag(d)·V†: ‖E‖₂ = max|d|, ‖E‖_F = ‖d‖."""
    signs = rng.choice([-1.0, 1.0], dim)
    if regime == "frobenius":  # ‖E‖_F ≤ 0.05·√64·atol = 0.4·atol
        return signs * rng.uniform(0.0, 0.05, dim) * atol
    if regime == "svd":  # ‖E‖₂ = 0.9·atol ≤ atol < ‖E‖_F = 0.9·√dim·atol
        return signs * 0.9 * atol
    d = signs * rng.uniform(0.0, 0.5, dim) * atol  # reject: one |d_i| = 1.1·atol
    d[rng.integers(dim)] = 1.1 * atol * signs[0]
    return d


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    dim=st.sampled_from([2, 8, 64]),
    regime=st.sampled_from(sorted(DEVIATION_REGIMES)),
    atol=st.floats(5e-7, 2e-6),
)
def test_is_unitary_matches_svd_definition(seed, dim, regime, atol):
    # M = W·diag(√(1 + d))·V†, so both M†M − I and MM† − I have eigenvalues d
    rng = np.random.default_rng(seed)
    d = _deviation_spectrum(regime, dim, atol, rng)
    w, v = haar_unitary(dim, rng), haar_unitary(dim, rng)
    m = (w * np.sqrt(1.0 + d)) @ v.conj().T
    eye = np.eye(dim)
    gram_devs = (m.conj().T @ m - eye, m @ m.conj().T - eye)
    assert (np.linalg.norm(gram_devs[0]) <= atol) == (regime == "frobenius")
    by_svd = all(opnorm(e) <= atol for e in gram_devs)
    assert is_unitary(m, Tolerance(atol)) == by_svd == DEVIATION_REGIMES[regime]


@pytest.mark.parametrize("dim", [63, 65, 130])
@pytest.mark.parametrize("regime", sorted(DEVIATION_REGIMES))
def test_is_unitary_short_last_panel_matches_svd_definition(dim, regime, monkeypatch):
    # dimensions off the ROW_PANEL grid leave a short last panel of MM† − I
    assert dim % linalg_module.ROW_PANEL
    atol = 1e-6
    rng = np.random.default_rng(dim)
    d = _deviation_spectrum(regime, dim, atol, rng)
    w, v = haar_unitary(dim, rng), haar_unitary(dim, rng)
    m = (w * np.sqrt(1.0 + d)) @ v.conj().T
    eye = np.eye(dim)
    by_svd = all(opnorm(e) <= atol for e in (m.conj().T @ m - eye, m @ m.conj().T - eye))
    svd_calls = []
    counted = linalg_module.opnorm
    monkeypatch.setattr(linalg_module, "opnorm", lambda e: svd_calls.append(1) or counted(e))
    assert is_unitary(m, Tolerance(atol)) == by_svd == DEVIATION_REGIMES[regime]
    assert len(svd_calls) == (regime != "frobenius")


@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 130])
def test_unitarity_frobenius_sum_covers_every_panel(dim, monkeypatch):
    # the panelled sum is ‖MM† − I‖_F² = ‖M†M − I‖_F²: a tolerance a hair above
    # that norm accepts without the SVD, one a hair below needs it
    rng = np.random.default_rng(dim)
    m = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
    frobenius = np.linalg.norm(m.conj().T @ m - np.eye(dim))
    svd_calls = []
    counted = linalg_module.opnorm
    monkeypatch.setattr(linalg_module, "opnorm", lambda e: svd_calls.append(1) or counted(e))
    assert linalg_module._unitary_within(m, frobenius * (1.0 + 1e-9))
    assert not svd_calls
    linalg_module._unitary_within(m, frobenius * (1.0 - 1e-9))
    assert len(svd_calls) == 1


def _captured_unitarity_deviation(m, monkeypatch):
    """The deviation matrix the unitarity kernel hands to the SVD, and its verdict."""
    seen, svd = [], linalg_module.opnorm

    def capture(dev):
        seen.append(dev)
        return svd(dev)

    with monkeypatch.context() as patch:
        patch.setattr(linalg_module, "opnorm", capture)
        verdict = is_unitary(m)
    return seen[0], verdict


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 64, 512])
def test_is_unitary_real_gram_matches_complex_gram(dim, monkeypatch):
    # past a Frobenius reject the SVD gets M†M − I itself, against the reference product
    rng = np.random.default_rng(dim)
    for m in (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
              haar_unitary(dim, rng) * np.sqrt(rng.uniform(0.5, 1.5, dim))):
        reference = m.conj().T @ m - np.eye(dim)
        dev, verdict = _captured_unitarity_deviation(m, monkeypatch)
        assert not verdict
        scale = np.linalg.norm(reference)
        assert abs(np.linalg.norm(dev) - scale) <= 1e-12 * scale
        assert np.max(np.abs(dev - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("dim", [1, 2, 8, 64, 512])
def test_is_unitary_verdict_at_default_tolerance(dim, monkeypatch):
    # M = W·diag(√(1 + d))·V†: the defect's spectrum is d, on both sides of 1e-10
    rng = np.random.default_rng(100 + dim)
    w, v = haar_unitary(dim, rng), haar_unitary(dim, rng)
    signs = rng.choice([-1.0, 1.0], dim)
    spectra = {
        "frobenius accepts": (signs * 0.02e-10, True),
        "svd accepts": (signs * 0.9e-10, True),  # ‖d‖ = 0.9e-10·√dim > 1e-10 for dim ≥ 2
        "rejects": (np.where(np.arange(dim) == dim // 2, 1.1e-10, signs * 0.02e-10), False),
    }
    svd_calls = []
    counted = linalg_module.opnorm
    monkeypatch.setattr(linalg_module, "opnorm", lambda e: svd_calls.append(1) or counted(e))
    for name, (d, expected) in spectra.items():
        m = (w * np.sqrt(1.0 + d)) @ v.conj().T
        svd_calls.clear()
        assert is_unitary(m) == expected, name
        reference = m.conj().T @ m - np.eye(dim)
        frobenius_over = np.linalg.norm(reference) > 1e-10
        assert len(svd_calls) == frobenius_over, name  # the SVD runs only past ‖·‖_F
        assert (opnorm(reference) <= 1e-10) == expected, name
        if name == "svd accepts" and dim > 1:
            assert frobenius_over


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    dim=st.sampled_from([2, 8, 64]),
    regime=st.sampled_from(sorted(DEVIATION_REGIMES)),
    atol=st.floats(5e-7, 2e-6),
)
def test_is_hermitian_matches_svd_definition(seed, dim, regime, atol):
    # M = H + (i/2)·V·diag(d)·V†, an anti-Hermitian perturbation: M − M† = i·V·diag(d)·V†
    rng = np.random.default_rng(seed)
    d = _deviation_spectrum(regime, dim, atol, rng)
    v = haar_unitary(dim, rng)
    m = random_hermitian(dim, 0.9, rng) + 0.5j * (v * d) @ v.conj().T
    dev = m - m.conj().T
    assert (np.linalg.norm(dev) <= atol) == (regime == "frobenius")
    assert is_hermitian(m, Tolerance(atol)) == (opnorm(dev) <= atol) == DEVIATION_REGIMES[regime]
