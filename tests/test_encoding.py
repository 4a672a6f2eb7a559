import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bechain.encoding import (
    BlockEncoding,
    deviation,
    deviation_profile,
    dilate_general,
    dilate_hermitian,
    hermitian_test_encoding,
    normalize_selectors,
    pad_ancillas,
    random_block_encoding,
    random_near_identity,
    scramble_ancillas,
    verify_encoding,
)
from bechain.linalg import (
    PAULI_X,
    PAULI_Z,
    Tolerance,
    haar_unitary,
    is_unitary,
    kron,
    mat_embed_block,
    opnorm,
    random_hermitian,
)


def test_verify_encoding_examples():
    be = BlockEncoding(PAULI_X.astype(complex), 1, 0)
    assert verify_encoding(be, np.array([[0.0]])) == pytest.approx(0.0, abs=1e-14)

    be2 = BlockEncoding(np.eye(4, dtype=complex), 1, 1)
    assert verify_encoding(be2, np.eye(2)) == pytest.approx(0.0, abs=1e-14)

    be3 = BlockEncoding(np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex), 1, 0)
    assert verify_encoding(be3, np.array([[0.5]])) == pytest.approx(0.1, abs=1e-12)

    with pytest.raises(ValueError):
        verify_encoding(be2, np.eye(4))


def test_dilate_hermitian_scalar():
    be = dilate_hermitian(np.array([[0.6]]))
    np.testing.assert_allclose(be.u, np.array([[0.6, 0.8], [0.8, -0.6]]), atol=1e-14)


def test_dilate_hermitian_zero():
    be = dilate_hermitian(np.zeros((2, 2)))
    np.testing.assert_allclose(be.u, kron(PAULI_X, np.eye(2)), atol=1e-14)


def test_dilate_hermitian_half_z():
    h = 0.5 * PAULI_Z
    be = dilate_hermitian(h)
    np.testing.assert_allclose(be.u @ be.u, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(be.block(), h, atol=1e-12)


def test_dilate_hermitian_rejects():
    with pytest.raises(ValueError, match="subnormalized"):
        dilate_hermitian(np.diag([1.5, 0.0]))
    with pytest.raises(ValueError, match="Hermitian"):
        dilate_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dilate_general_scalar_imaginary():
    be = dilate_general(np.array([[0.6j]]))
    np.testing.assert_allclose(be.u, np.array([[0.8, -0.6j], [0.6j, -0.8]]), atol=1e-14)
    assert (be.bra_sel, be.ket_sel) == ("1", "0")


def test_dilate_general_zero():
    be = dilate_general(np.zeros((2, 2)))
    expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    np.testing.assert_allclose(be.u, expected, atol=1e-14)


def test_dilate_general_nonnormal():
    a = np.array([[0.3, 0.6 + 0.2j], [0.0, 0.4]], dtype=complex)
    a = 0.8 * a / opnorm(a)
    be = dilate_general(a)
    np.testing.assert_allclose(be.u @ be.u, np.eye(4), atol=1e-10)
    assert verify_encoding(be, a) <= 1e-10


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6))
def test_dilate_hermitian_identities(seed):
    h = random_hermitian(4, 1.0, np.random.default_rng(seed))
    u = dilate_hermitian(h).u
    np.testing.assert_allclose(u, u.conj().T, atol=1e-10)
    np.testing.assert_allclose(u @ u, np.eye(8), atol=1e-10)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6))
def test_dilate_general_block_identities(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = rng.uniform(0.2, 1.0) * a / opnorm(a)
    u = dilate_general(a).u
    s_right = u[:4, :4]   # sqrt(I − A†A)
    s_left = -u[4:, 4:]   # sqrt(I − AA†)
    np.testing.assert_allclose(u @ u, np.eye(8), atol=1e-10)
    np.testing.assert_allclose(s_right @ a.conj().T, a.conj().T @ s_left, atol=1e-10)
    np.testing.assert_allclose(a @ s_right, s_left @ a, atol=1e-10)
    np.testing.assert_allclose(s_right @ s_right + a.conj().T @ a, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(s_left @ s_left + a @ a.conj().T, np.eye(4), atol=1e-10)


def test_random_block_encoding_deterministic():
    b1 = random_block_encoding(1, 1, 7)
    b2 = random_block_encoding(1, 1, 7)
    np.testing.assert_array_equal(b1.u, b2.u)
    assert is_unitary(b1.u, Tolerance(1e-10))
    assert opnorm(b1.block()) <= 1.0 + 1e-10
    with pytest.raises(ValueError):
        random_block_encoding(6, 5, 0)


@pytest.mark.parametrize("bra, ket", [("00", "00"), ("10", "01"), ("11", "10")])
def test_block_is_a_copy_of_the_selected_slice(bra, ket):
    be = BlockEncoding(haar_unitary(16, np.random.default_rng(4)), 2, 2, bra_sel=bra, ket_sel=ket)
    blk = be.block()
    assert np.array_equal(blk, mat_embed_block(be.u, bra, ket, 2, 2))
    blk[:] = 0
    assert np.array_equal(be.block(), mat_embed_block(be.u, bra, ket, 2, 2))


def test_random_near_identity_properties():
    eta = 0.1
    be = random_near_identity(1, 1, eta, 3)
    dev = deviation(be)
    assert 0.8 * eta <= dev <= eta + 1e-12
    # the four blocks obey the near-identity block-norm constraints
    b = mat_embed_block(be.u, "0", "1", 1, 1)
    c = mat_embed_block(be.u, "1", "0", 1, 1)
    d = mat_embed_block(be.u, "1", "1", 1, 1)
    assert opnorm(b) <= eta + 1e-10
    assert opnorm(c) <= eta + 1e-10
    assert 1 - eta - 1e-10 <= opnorm(d) <= 1 + eta + 1e-10
    a_blk = be.block()
    assert 1 - eta - 1e-10 <= opnorm(a_blk) <= 1 + eta + 1e-10


def test_random_near_identity_zero_eta():
    be = random_near_identity(1, 1, 0.0, 5)
    assert deviation(be) == pytest.approx(0.0, abs=1e-14)


def test_deviation_examples():
    assert deviation(BlockEncoding(np.eye(2, dtype=complex), 1, 0)) == pytest.approx(0.0)
    assert deviation(BlockEncoding(PAULI_X.astype(complex), 1, 0)) == pytest.approx(2.0)
    theta = 0.01
    u = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * PAULI_X
    got = deviation(BlockEncoding(u, 1, 0))
    assert got == pytest.approx(2 * abs(np.sin(theta / 2)), abs=1e-12)


def test_normalize_selectors_moves_block():
    be = dilate_general(np.array([[0.5j]]))
    norm = normalize_selectors(be)
    assert (norm.bra_sel, norm.ket_sel) == ("0", "0")
    np.testing.assert_allclose(norm.block(), np.array([[0.5j]]), atol=1e-14)


def test_normalize_selectors_matches_x_string_conjugation():
    rng = np.random.default_rng(21)
    be = BlockEncoding(haar_unitary(16, rng), 3, 1, bra_sel="101", ket_sel="011")

    def x_string(bits):  # X on every ancilla whose selector bit is 1, I on the system
        return kron(*[PAULI_X if b == "1" else np.eye(2) for b in bits], np.eye(2))

    norm = normalize_selectors(be)
    np.testing.assert_allclose(
        norm.u, x_string(be.bra_sel) @ be.u @ x_string(be.ket_sel), atol=1e-15
    )
    np.testing.assert_array_equal(norm.block(), be.block())


def test_deviation_of_general_dilation_uses_normalized_unitary():
    # near-identity A read at <1|.|0>: the stored unitary is about 2 away from I,
    # the selector-normalized one about as far as A itself
    a_mat = np.array([[0.9, 0.1j], [0.05, 0.95]])
    be = dilate_general(a_mat)
    expected = opnorm(normalize_selectors(be).u - np.eye(be.dim))
    assert deviation(be) == pytest.approx(expected, abs=1e-15)
    assert deviation(be) < 1.0 < opnorm(be.u - np.eye(be.dim))


def test_pad_and_scramble_preserve_block():
    h = random_hermitian(2, 0.7, np.random.default_rng(11))
    be = hermitian_test_encoding(h, 3, 42)
    assert be.a == 3
    np.testing.assert_allclose(be.block(), h, atol=1e-12)
    padded = pad_ancillas(dilate_hermitian(h), 2)
    np.testing.assert_allclose(padded.block(), h, atol=1e-12)
    scr = scramble_ancillas(padded, 1)
    np.testing.assert_allclose(scr.block(), h, atol=1e-12)


def test_deviation_profile_measures_max():
    encs = [random_near_identity(1, 1, 0.05, s) for s in range(4)]
    prof = deviation_profile(encs)
    assert prof.eta_max == pytest.approx(max(prof.etas))
    assert all(e <= 0.05 + 1e-12 for e in prof.etas)


def test_deviation_profile_stacked_svd_equals_per_matrix_norms():
    rng = np.random.default_rng(13)
    encs = [random_near_identity(1, 1, 0.1, 1), random_near_identity(2, 1, 0.2, 2)]
    encs.append(dilate_general(np.array([[0.9, 0.1j], [0.05, 0.95]])))
    encs += [random_near_identity(1, 1, 0.3, 3), random_block_encoding(2, 1, 4)]
    encs.append(dilate_general(0.5 * haar_unitary(4, rng)))
    assert {be.dim for be in encs} == {4, 8}
    assert {be.bra_sel for be in encs} == {"0", "1"}
    etas = deviation_profile(encs).etas
    assert list(etas) == [deviation(be) for be in encs]
    assert list(etas) == [opnorm(normalize_selectors(be).u - np.eye(be.dim)) for be in encs]
    empty = deviation_profile([])
    assert empty.etas == () and empty.eta_max == 0.0


def test_block_encoding_validation():
    with pytest.raises(ValueError, match="unitary"):
        BlockEncoding(np.diag([1.0, 0.5]).astype(complex), 1, 0)
    with pytest.raises(ValueError, match="alpha"):
        BlockEncoding(np.eye(2, dtype=complex), 1, 0, alpha=0.0)


def test_block_encoding_rejects_non_finite_alpha_and_non_bitstring_selectors():
    # NaN compares False with everything: a bare `alpha <= 0` check lets it
    # through, and verify_encoding then returns NaN
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha"):
            BlockEncoding(np.eye(4, dtype=complex), 1, 1, alpha=alpha)
    with pytest.raises(ValueError, match="bra_sel"):
        BlockEncoding(np.eye(4), 1, 1, bra_sel="x")
    with pytest.raises(ValueError, match="ket_sel"):
        BlockEncoding(np.eye(8), 2, 1, ket_sel="0 ")
    be = BlockEncoding(np.eye(8), 2, 1, bra_sel="10", ket_sel="10")
    assert (be.bra_sel, be.ket_sel) == ("10", "10")


def test_random_near_identity_deterministic():
    a = random_near_identity(1, 1, 0.05, 9)
    b = random_near_identity(1, 1, 0.05, 9)
    np.testing.assert_array_equal(a.u, b.u)
