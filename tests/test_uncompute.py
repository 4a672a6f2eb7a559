import numpy as np
import pytest

from bechain.encoding import (
    BlockEncoding,
    dilate_general,
    dilate_hermitian,
    hermitian_test_encoding,
    normalize_selectors,
    pad_ancillas,
    scramble_ancillas,
    verify_encoding,
)
from bechain.linalg import PAULI_X, PAULI_Z, Tolerance, is_unitary, opnorm, random_hermitian
from bechain.uncompute import (
    UncomputeReport,
    phase_correct_twisted,
    single_ancilla_unitary,
    uncompute_general,
    uncompute_hermitian,
)


def twisted(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [
            [np.cos(theta), 1j * np.sin(theta) * np.exp(1j * phi)],
            [1j * np.sin(theta) * np.exp(-1j * phi), np.cos(theta)],
        ]
    )


def test_uncompute_zero_hamiltonian():
    vh = BlockEncoding(PAULI_X.astype(complex), 1, 0)
    result, report = uncompute_hermitian(vh, 1.0, 1e-2)
    assert report.eps_measured <= 1e-2
    # the recovered single-ancilla unitary is close to X (U_H at H = 0)
    assert opnorm(single_ancilla_unitary(result) - PAULI_X) <= 1e-2


def test_uncompute_half_z_embedded():
    h = 0.5 * PAULI_Z
    vh = hermitian_test_encoding(h, 2, 31)
    result, report = uncompute_hermitian(vh, 0.25, 1e-2)
    assert report.eps_w <= 1e-2 / 14.0
    assert report.eps_dilation <= 1e-2
    assert verify_encoding(result, h) <= 1e-2
    u_h = dilate_hermitian(h).u
    assert opnorm(single_ancilla_unitary(result) - u_h) <= 1e-2
    assert report.eps_measured <= report.eps_requested


def test_uncompute_query_scaling():
    h = random_hermitian(2, 0.6, np.random.default_rng(8))
    vh = hermitian_test_encoding(h, 2, 17)
    queries = {}
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        _, rep = uncompute_hermitian(vh, 0.25, eps)
        queries[eps] = rep.queries_vh
        # structural bookkeeping: 7 W-applications, each with one bare V_H
        # query plus the two-branch QSVT at 2 queries per step-1 application
        assert rep.queries_vh == 7 * (4 * rep.qsvt_degree + 1)
    assert queries[1e-2] <= queries[1e-3] <= queries[1e-4]
    # halving eps grows queries by a bounded additive step (log scaling)
    inc1 = queries[1e-3] - queries[1e-2]
    inc2 = queries[1e-4] - queries[1e-3]
    assert inc2 <= inc1 + 7 * 4 * 4


def test_uncompute_rejects_large_h():
    h = np.diag([0.9, -0.9])
    vh = dilate_hermitian(h)
    with pytest.raises(ValueError, match="1 − delta"):
        uncompute_hermitian(vh, 0.25, 1e-2)


def test_uncompute_report_invariants():
    with pytest.raises(ValueError, match="eps_measured"):
        UncomputeReport(1e-3, 2e-3, 0.25, 10, 5)


def test_uncompute_general_scalar():
    va = dilate_general(np.array([[0.6j]]))
    result, report = uncompute_general(va, 0.4, 1e-2)
    assert verify_encoding(result, np.array([[0.6j]])) <= 1e-2
    assert result.bra_sel.endswith("1") and set(result.ket_sel) == {"0"}


def test_uncompute_general_zero():
    va = dilate_general(np.zeros((2, 2)))
    result, _ = uncompute_general(va, 1.0, 1e-2)
    u_a = single_ancilla_unitary(result)
    expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    assert opnorm(u_a - expected) <= 1e-2


def test_uncompute_general_random_wrapped():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = 0.7 * a / opnorm(a)
    va = scramble_ancillas(pad_ancillas(normalize_selectors(dilate_general(a)), 3), 99)
    result, report = uncompute_general(va, 0.25, 1e-2)
    assert verify_encoding(result, a) <= 1e-2
    assert report.eps_measured <= 1e-2
    # 7 amplification steps, each with two QSVT square roots plus V_A and V_A†
    assert report.queries_vh == 7 * (8 * report.qsvt_degree + 2)


def test_phase_correct_identity_when_untwisted():
    u = twisted(0.9, 0.0)
    out = phase_correct_twisted(u, 0.3, 1e-2)
    assert opnorm(out - u) <= 1e-2


def test_phase_correct_twisted_example():
    out = phase_correct_twisted(twisted(np.pi / 3, 1.1), 0.4, 1e-2)
    s3 = np.sqrt(3) / 2
    target = np.array([[0.5, 1j * s3], [1j * s3, 0.5]])
    assert opnorm(out - target) <= 1e-2
    assert is_unitary(out, Tolerance(2e-2))


def test_phase_correct_cos_zero():
    out = phase_correct_twisted(twisted(np.pi / 2, 0.7), 0.5, 1e-2)
    assert opnorm(out - 1j * PAULI_X) <= 1e-2


def test_phase_correct_rejects_malformed():
    bad = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)  # unequal diagonal
    with pytest.raises(ValueError, match="twisted"):
        phase_correct_twisted(bad, 0.3, 1e-2)
    with pytest.raises(ValueError, match="cos"):
        phase_correct_twisted(twisted(0.1, 0.3), 0.3, 1e-2)  # |cos| > 1 - delta


def test_uncompute_accuracy_over_eps_grid():
    rng = np.random.default_rng(77)
    for a, n in ((2, 1), (3, 2)):
        h = random_hermitian(2**n, 0.7, rng)
        vh = hermitian_test_encoding(h, a, int(rng.integers(1 << 20)))
        for eps in (1e-1, 1e-2):
            result, rep = uncompute_hermitian(vh, 0.25, eps)
            assert rep.eps_measured <= eps
            assert rep.eps_w <= eps / 14.0
            assert rep.eps_dilation <= eps
            assert rep.ancillae_peak == a + 4


def test_uncompute_general_stage_budgets():
    rng = np.random.default_rng(78)
    for a, n in ((2, 1), (3, 2)):
        mat = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        mat = 0.7 * mat / opnorm(mat)
        va = scramble_ancillas(pad_ancillas(normalize_selectors(dilate_general(mat)), a), 5 + a)
        u_a = dilate_general(mat).u
        for eps in (1e-1, 1e-2):
            result, rep = uncompute_general(va, 0.25, eps)
            assert rep.eps_measured <= eps
            assert rep.eps_w <= eps / 14.0
            assert rep.eps_dilation <= eps
            # the recorded stage error is the amplified dilation's distance from U_A
            assert rep.eps_dilation == pytest.approx(
                opnorm(single_ancilla_unitary(result) - u_a), abs=1e-15
            )


def test_single_ancilla_unitary_is_the_working_zero_corner():
    from bechain.linalg import haar_unitary, mat_embed_block

    result = BlockEncoding(haar_unitary(32, np.random.default_rng(6)), 3, 2, bra_sel="001")
    assert np.array_equal(
        single_ancilla_unitary(result), mat_embed_block(result.u, "00", "00", 2, 3)
    )
    with pytest.raises(ValueError, match="dilation qubit"):
        single_ancilla_unitary(BlockEncoding(np.eye(2, dtype=complex), 0, 1))


def test_uncompute_raises_when_accuracy_missed(monkeypatch):
    import bechain.uncompute as unc
    from bechain.qsp import ChebPoly, solve_phases
    from bechain.uncompute import EpsilonExceededError

    # sabotage the cached half-sqrt solution with a linear polynomial: the
    # pipeline must notice the missed target and carry the measured error
    bad = ChebPoly(np.array([0.0, 0.9]))
    monkeypatch.setattr(unc, "_half_sqrt_solution", lambda d, e: (bad, solve_phases(bad)))
    vh = hermitian_test_encoding(0.5 * PAULI_Z, 2, 31)
    with pytest.raises(EpsilonExceededError) as exc:
        unc.uncompute_hermitian(vh, 0.25, 1e-3)
    assert exc.value.eps_measured > 1e-3


def test_pipeline_peak_allocation():
    # n = 2, a = 3: W and the amplified unitary are 512 × 512 (4 MiB each).  A
    # pipeline holds at most 3.5 full-size matrices of numpy allocations at once.
    import tracemalloc

    rng = np.random.default_rng(81)
    h = random_hermitian(4, 0.7, rng)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = 0.7 * mat / opnorm(mat)
    va = scramble_ancillas(pad_ancillas(normalize_selectors(dilate_general(mat)), 3), 83)
    runs = ((uncompute_hermitian, hermitian_test_encoding(h, 3, 82)), (uncompute_general, va))
    limit = 3.5 * 512**2 * 16
    for pipeline, enc in runs:
        pipeline(enc, 0.25, 1e-3)  # warm: the cached phases
        tracemalloc.start()
        try:
            result, _ = pipeline(enc, 0.25, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.dim == 512
        assert peak <= limit, (pipeline.__name__, peak)


def test_pipeline_holds_w_and_one_panel():
    # n = 2, a = 3: T₇ is built in W's buffer and the unitarity checks work in
    # row panels, so a pipeline holds W plus under one more 512 × 512 matrix
    import tracemalloc

    rng = np.random.default_rng(81)
    h = random_hermitian(4, 0.7, rng)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = 0.7 * mat / opnorm(mat)
    va = scramble_ancillas(pad_ancillas(normalize_selectors(dilate_general(mat)), 3), 83)
    runs = ((uncompute_hermitian, hermitian_test_encoding(h, 3, 82)), (uncompute_general, va))
    limit = 2 * 512**2 * 16
    for pipeline, enc in runs:
        pipeline(enc, 0.25, 1e-3)  # warm: the cached phases
        tracemalloc.start()
        try:
            result, _ = pipeline(enc, 0.25, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.dim == 512
        assert peak <= limit, (pipeline.__name__, peak)
