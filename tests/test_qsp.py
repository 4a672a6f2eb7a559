import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as np_cheb

from bechain.encoding import dilate_hermitian, hermitian_test_encoding
from bechain.lcu import lcu_i_minus_h2
from bechain.linalg import Tolerance, haar_unitary, herm_funcmat, is_unitary, opnorm, random_hermitian
from bechain.qsp import (
    ChebPoly,
    PhaseFactors,
    _qsvt_product,
    _reflection_phases,
    _residual_and_jac,
    approx_half_sqrt,
    chebyshev_phases,
    qsp_eval,
    qsp_poly_value,
    qsvt_apply,
    solve_phases,
)


def cheb_t(d: int) -> ChebPoly:
    coeffs = np.zeros(d + 1)
    coeffs[d] = 1.0
    return ChebPoly(coeffs)


# --- polynomial construction -------------------------------------------------


def test_half_sqrt_quarter_domain():
    p = approx_half_sqrt(0.25, 1e-2)
    grid = np.linspace(0.25, 1.0, 10_000)
    assert np.max(np.abs(p(grid) - 0.5 * np.sqrt(grid))) <= 1e-2
    assert abs(p(1.0) - 0.5) <= 1e-2
    assert p.sup_norm() <= 1.0


def test_half_sqrt_loose_target_low_degree():
    p = approx_half_sqrt(0.5, 0.3)
    assert p.degree <= 8


def test_half_sqrt_even_parity():
    p = approx_half_sqrt(0.3, 1e-3)
    assert p.parity == "even"
    assert np.all(p.coeffs[1::2] == 0)


def test_half_sqrt_degree_scaling():
    # degree grows at most linearly in log(1/eta) at fixed delta: doubling
    # log(1/eta) at most doubles the degree up to an additive constant
    d1 = approx_half_sqrt(0.25, 1e-2).degree
    d2 = approx_half_sqrt(0.25, 1e-3).degree
    d3 = approx_half_sqrt(0.25, 1e-4).degree
    assert d1 <= d2 <= d3
    assert (d3 - d2) <= (d2 - d1) + 4  # log-linear increments
    assert d3 <= 2 * d2 + 4  # doubling log(1/eta) from 1e-2 to 1e-4


def _highs_half_sqrt(degree, lo_fit, eta):
    """Reference: the minimax fit as one HiGHS linear program on the same fit and
    bound rows, with the same acceptance (t* ≤ 0.95η); None on failure."""
    from scipy.optimize import linprog

    import bechain.qsp as qsp_module

    ncoef = degree // 2 + 1
    a_fit, f = qsp_module._fit_rows(degree, lo_fit)
    a_bnd = qsp_module._cheb_design(qsp_module._cheb_nodes(0.0, 1.0, max(10 * ncoef, 240)), degree)
    ones, zeros = np.ones((f.size, 1)), np.zeros((a_bnd.shape[0], 1))
    a_ub = np.vstack(
        [
            np.hstack([a_fit, -ones]),
            np.hstack([-a_fit, -ones]),
            np.hstack([a_bnd, zeros]),
            np.hstack([-a_bnd, zeros]),
        ]
    )
    b_ub = np.concatenate([f, -f, np.full(2 * a_bnd.shape[0], qsp_module._LP_SUP_BOUND)])
    c_obj = np.zeros(ncoef + 1)
    c_obj[-1] = 1.0
    res = linprog(
        c_obj, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * ncoef + [(0, None)], method="highs"
    )
    if not res.success or res.x[-1] > qsp_module._LP_TARGET * eta:
        return None
    return res.x[:ncoef]


@pytest.mark.parametrize("delta", [0.4, 0.25, 0.1, 0.05])
def test_remez_exchange_matches_highs_linear_program(delta, monkeypatch):
    # scipy's HiGHS as an independent oracle: every rung up to the chosen degree
    # is accepted or refused alike, the ladder picks the same degree, and the
    # exchange's minimax error is no worse than the LP's
    import bechain.qsp as qsp_module

    lo_fit = qsp_module._FIT_DOMAIN_MARGIN * delta
    for eta in (1e-2, 1e-3, 1e-4):
        highs = {}

        def highs_lp(degree, lo, eta_):
            return highs.setdefault(degree, _highs_half_sqrt(degree, lo, eta_))

        got = approx_half_sqrt(delta, eta)
        with monkeypatch.context() as patch:
            patch.setattr(qsp_module, "_half_sqrt_lp", highs_lp)
            reference = approx_half_sqrt(delta, eta)
        assert got.degree == reference.degree, eta
        for degree in qsp_module._degree_ladder():
            if degree > got.degree:
                break
            remez = qsp_module._half_sqrt_lp(degree, lo_fit, eta)
            assert (remez is None) == (highs_lp(degree, lo_fit, eta) is None), (eta, degree)
        a_fit, f = qsp_module._fit_rows(got.degree, lo_fit)
        err = np.max(np.abs(a_fit @ got.coeffs[::2] - f))
        err_highs = np.max(np.abs(a_fit @ reference.coeffs[::2] - f))
        assert err <= err_highs + 1e-12, (eta, err, err_highs)


def test_half_sqrt_degree_is_linear_in_inverse_delta():
    # the paper's O((1/δ)·log(1/ε)) at the pipeline's floors: degree·δ/ln(1/ε)
    # stays within 1.25 times its largest value at δ = 0.4 down to δ = 0.025,
    # and the degrees are README's table, row by row
    from bechain.uncompute import _spectral_floor

    epsilons = (1e-2, 1e-3, 1e-4)
    readme_degrees = {
        0.4: [10, 18, 24],
        0.2: [18, 30, 44],
        0.1: [30, 52, 76],
        0.05: [52, 96, 144],
        0.025: [88, 176, 272],
    }
    degrees = {
        delta: [approx_half_sqrt(_spectral_floor(delta), eps / 9.0).degree for eps in epsilons]
        for delta in readme_degrees
    }
    assert degrees == readme_degrees

    def ratios(delta):
        return [d * delta / math.log(1 / eps) for d, eps in zip(degrees[delta], epsilons)]

    widest = max(ratios(0.4))
    for delta in (0.2, 0.1, 0.05, 0.025):
        assert max(ratios(delta)) <= 1.25 * widest, delta


def test_half_sqrt_validation():
    with pytest.raises(ValueError):
        approx_half_sqrt(0.0, 1e-2)
    with pytest.raises(ValueError):
        approx_half_sqrt(0.25, 0.6)


# --- QSP evaluation ----------------------------------------------------------


def test_zero_phase_invariant_chebyshev():
    xs = np.linspace(-1.0, 1.0, 21)
    for d in range(1, 32):
        phi = chebyshev_phases(d)
        for x in xs:
            got = qsp_eval(phi, x)[0, 0]
            assert abs(got - np_cheb.chebval(x, [0] * d + [1])) <= 1e-10


def test_qsp_eval_unitary_on_grid():
    phi = PhaseFactors(np.array([0.3, -0.7, 0.1, -0.7, 0.3]))
    for x in np.linspace(-1, 1, 17):
        assert is_unitary(qsp_eval(phi, x), Tolerance(1e-12))


def test_t7_at_sin_pi_14():
    val = qsp_eval(chebyshev_phases(7), math.sin(math.pi / 14.0))[0, 0]
    assert abs(val - (-1.0)) <= 1e-12


def test_qsp_eval_at_x_one():
    phi = PhaseFactors(np.array([0.2, 0.5, 0.2]))
    got = qsp_eval(phi, 1.0)[0, 0]
    assert abs(got - np.exp(1j * (0.2 + 0.5 + 0.2))) <= 1e-12


def test_qsp_eval_domain():
    with pytest.raises(ValueError):
        qsp_eval(chebyshev_phases(2), 1.5)


def _loop_prefix_suffix(phases, xs):
    """Reference: U_Φ(x) and every d⟨0|U|0⟩/dφ_j from the explicit prefix and
    suffix loops, prefix[j] = E(φ0) W E(φ1) ⋯ W E(φj), suffix[j] = W E(φ_{j+1}) ⋯ W E(φd)."""
    d, m = phases.size - 1, xs.size
    s = np.sqrt(np.clip(1.0 - xs**2, 0.0, None))
    w = np.zeros((m, 2, 2), dtype=complex)
    w[:, 0, 0] = w[:, 1, 1] = xs
    w[:, 0, 1] = w[:, 1, 0] = 1j * s

    def e(phi):
        out = np.zeros((m, 2, 2), dtype=complex)
        out[:, 0, 0] = np.exp(1j * phi)
        out[:, 1, 1] = np.exp(-1j * phi)
        return out

    prefix = [e(phases[0])]
    for j in range(1, d + 1):
        prefix.append(prefix[-1] @ w @ e(phases[j]))
    suffix = [np.broadcast_to(np.eye(2, dtype=complex), (m, 2, 2))]
    for j in range(d - 1, -1, -1):
        suffix.insert(0, w @ e(phases[j + 1]) @ suffix[0])
    z = np.diag([1.0, -1.0])
    grad = np.stack([(1j * prefix[j] @ z @ suffix[j])[:, 0, 0] for j in range(d + 1)], axis=1)
    return prefix[d], grad


def _solver_nodes(degree):
    """The solver's fit nodes: Chebyshev nodes in (0, 1), as in solve_phases."""
    nfree = (degree + 2) // 2
    m = max(degree + 1, nfree + 8)
    return np.cos(np.pi * (2 * np.arange(m) + 1) / (4 * m))


def _fold(degree):
    j = np.arange(degree + 1)
    return np.minimum(j, degree - j)


scan_cases = given(degree=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@scan_cases
def test_prefix_scan_matches_prefix_suffix_loops(degree, seed):
    rng = np.random.default_rng(seed)
    free = rng.uniform(-np.pi, np.pi, (degree + 2) // 2)
    fold = _fold(degree)
    xs = _solver_nodes(degree)
    target = rng.uniform(-1.0, 1.0, xs.size)
    u_ref, grad_ref = _loop_prefix_suffix(free[fold], xs)
    res, jac = _residual_and_jac(free, fold, xs, target)
    np.testing.assert_allclose(res, u_ref[:, 0, 0].real - target, rtol=0, atol=1e-13)
    folded = np.zeros_like(jac)
    for j in range(degree + 1):
        folded[:, fold[j]] += grad_ref[:, j].real
    np.testing.assert_allclose(jac, folded, rtol=0, atol=1e-13)
    phi = PhaseFactors(free[fold])
    np.testing.assert_allclose(qsp_poly_value(phi, xs), u_ref[:, 0, 0].real, rtol=0, atol=1e-13)
    u = np.stack([qsp_eval(phi, x) for x in xs])
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-13)


@settings(deadline=None, max_examples=30)
@scan_cases
def test_residual_jacobian_matches_central_differences(degree, seed):
    rng = np.random.default_rng(seed)
    free = rng.uniform(-np.pi, np.pi, (degree + 2) // 2)
    fold = _fold(degree)
    xs = _solver_nodes(degree)
    target = rng.uniform(-1.0, 1.0, xs.size)
    jac = _residual_and_jac(free, fold, xs, target)[1]
    h = 1e-6
    for i in range(free.size):
        step = np.zeros_like(free)
        step[i] = h
        hi = _residual_and_jac(free + step, fold, xs, target)[0]
        lo = _residual_and_jac(free - step, fold, xs, target)[0]
        np.testing.assert_allclose(jac[:, i], (hi - lo) / (2 * h), rtol=0, atol=1e-7)


# --- phase solving -----------------------------------------------------------


def test_solve_phases_t1():
    phi = solve_phases(cheb_t(1))
    xs = np.cos(np.pi * np.arange(100) / 99)
    assert np.max(np.abs(qsp_poly_value(phi, xs) - xs)) <= 1e-10


def test_solve_phases_t3():
    phi = solve_phases(cheb_t(3))
    assert abs(qsp_eval(phi, 0.5)[0, 0] - (-1.0)) <= 1e-10  # T3(0.5) = -1


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 20])
def test_solve_phases_negated_chebyshev(d):
    # −T_d has no shortcut: Gauss–Newton reaches it like any other target
    p = cheb_t(d).rescaled(-1.0)
    phi = solve_phases(p)
    assert phi.residual <= 1e-12
    xs = np.linspace(-1.0, 1.0, 257)
    assert np.max(np.abs(qsp_poly_value(phi, xs) - p(xs))) <= 1e-12


def test_degree_and_parity_follow_the_length():
    for length in range(1, 8):
        d = length - 1
        parity = "even" if d % 2 == 0 else "odd"
        poly, phi = ChebPoly(np.eye(length)[d]), PhaseFactors(np.zeros(length))
        assert (poly.degree, poly.parity) == (phi.degree, phi.parity) == (d, parity)
    with pytest.raises(ValueError, match="odd polynomial has nonzero even coefficients"):
        ChebPoly(np.array([0.1, 0.2]))


def test_solve_phases_half_sqrt():
    p = approx_half_sqrt(0.25, 1e-3).rescaled(0.999)
    phi = solve_phases(p)
    assert phi.residual <= 1e-8


def test_solve_phases_random_targets():
    rng = np.random.default_rng(10)
    for d in (6, 11, 16):
        coeffs = np.zeros(d + 1)
        coeffs[d % 2 :: 2] = rng.standard_normal(len(coeffs[d % 2 :: 2]))
        p = ChebPoly(coeffs)
        p = p.rescaled(0.9 / p.sup_norm())
        phi = solve_phases(p)
        assert phi.residual <= 1e-8


def _random_target(d, sup, seed):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(d + 1)
    coeffs[d % 2 :: 2] = rng.standard_normal(coeffs[d % 2 :: 2].size)
    p = ChebPoly(coeffs)
    return p.rescaled(sup / p.sup_norm())


def _levenberg_marquardt_phases(p):
    """Reference: scipy's Levenberg–Marquardt on the same nodes, seed and restarts."""
    from scipy.optimize import least_squares

    d = p.degree
    nfree = (d + 2) // 2
    fold = _fold(d)
    xs = _solver_nodes(d)
    target = p(xs)
    seed_free = np.zeros(nfree)
    seed_free[0] = np.pi / 4
    rng = np.random.default_rng(271828)
    for restart in range(10):
        x0 = seed_free if restart == 0 else seed_free + 0.3 * rng.standard_normal(nfree)
        sol = least_squares(
            lambda v: _residual_and_jac(v, fold, xs, target)[0],
            x0,
            jac=lambda v: _residual_and_jac(v, fold, xs, target)[1],
            method="lm",
            xtol=2.3e-16,
            ftol=2.3e-16,
            gtol=2.3e-16,
            max_nfev=400 * nfree,
        )
        phi = PhaseFactors(sol.x[fold])
        grid = np.cos(np.pi * np.arange(401) / 400)
        if np.max(np.abs(qsp_poly_value(phi, grid) - p(grid))) <= 5e-9:
            return phi.phases
    raise AssertionError("the reference did not converge")


def test_gauss_newton_matches_levenberg_marquardt():
    # scipy's least_squares as an independent oracle for the Gauss–Newton phases
    targets = [_random_target(d, 0.9, d) for d in list(range(40)) + [64, 96, 129]]
    targets += [
        approx_half_sqrt(0.21875, 1e-2 / 9),
        approx_half_sqrt(0.21875, 1e-3 / 9),
        approx_half_sqrt(0.25, 1e-3).rescaled(0.999),
        approx_half_sqrt(0.1, 1e-4),
    ]
    for p in targets:
        got = solve_phases(p).phases
        np.testing.assert_allclose(got, _levenberg_marquardt_phases(p), rtol=0, atol=1e-13)


@pytest.mark.parametrize("d", [20, 51, 100])
def test_solve_phases_converges_at_sup_0999(d):
    phi = solve_phases(_random_target(d, 0.999, 1000 + d))
    assert phi.residual <= 1e-8


def test_solve_phases_scans_each_point_once(monkeypatch):
    # each Gauss–Newton step scans one new point for its residual and Jacobian
    import bechain.qsp as qsp_module

    scanned, scan = [], qsp_module._residual_and_jac

    def recorded(free, *args):
        scanned.append(free.copy())
        return scan(free, *args)

    monkeypatch.setattr(qsp_module, "_residual_and_jac", recorded)
    phi = solve_phases(approx_half_sqrt(0.25, 1e-3).rescaled(0.999))
    assert phi.residual <= 1e-8
    assert len(scanned) > 2
    assert not any(np.array_equal(a, b) for a, b in zip(scanned, scanned[1:]))


def test_qsp_poly_value_memory_is_linear_in_points():
    # one running product: two (M, 2, 2) slots and W(x), not all d + 1 prefixes
    import tracemalloc

    phi = PhaseFactors(np.random.default_rng(3).uniform(-1.0, 1.0, 145))
    xs = np.linspace(-1.0, 1.0, 10_000)
    tracemalloc.start()
    try:
        qsp_poly_value(phi, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * xs.size * 64  # 5.1 MB; all prefixes would take 93 MB


def test_solve_phases_rejects_norm_above_one():
    p = cheb_t(2).rescaled(1.2)
    with pytest.raises(ValueError, match="rescale"):
        solve_phases(p)


# --- QSVT --------------------------------------------------------------------


def test_qsvt_identity_polynomial():
    be = hermitian_test_encoding(random_hermitian(2, 0.8, np.random.default_rng(1)), 2, 3)
    phi = solve_phases(cheb_t(1))
    out = qsvt_apply(phi, be)
    assert out.a == be.a + 1
    np.testing.assert_allclose(out.block(), be.block(), atol=1e-9)


def test_qsvt_zero_phases_t2():
    h = random_hermitian(4, 0.9, np.random.default_rng(2))
    out = qsvt_apply(chebyshev_phases(2), dilate_hermitian(h))
    np.testing.assert_allclose(out.block(), 2 * h @ h - np.eye(4), atol=1e-10)


def test_qsvt_half_sqrt_on_step1():
    # the Step-2 claim: P applied to (I−H²)/2 lands within eps/9 of sqrt(I−H²)/sqrt(8)
    eps = 9e-3
    h = random_hermitian(4, 0.75, np.random.default_rng(3))
    step1 = lcu_i_minus_h2(dilate_hermitian(h))
    p = approx_half_sqrt(0.25, eps / 9.0)
    out = qsvt_apply(solve_phases(p), step1)
    target = herm_funcmat(h, lambda x: np.sqrt(1 - x**2)) / math.sqrt(8.0)
    assert opnorm(out.block() - target) <= eps / 9.0


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6))
def test_qsvt_spectral_consistency(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(2 ** int(rng.integers(1, 3)), 0.9, rng)
    be = hermitian_test_encoding(h, int(rng.integers(1, 3)), seed + 1)
    d = int(rng.integers(2, 12))
    coeffs = np.zeros(d + 1)
    coeffs[d % 2 :: 2] = rng.standard_normal(len(coeffs[d % 2 :: 2]))
    p = ChebPoly(coeffs)
    p = p.rescaled(0.9 / p.sup_norm())
    out = qsvt_apply(solve_phases(p), be)
    oracle = herm_funcmat(h, lambda x: p(x))
    assert opnorm(out.block() - oracle) <= 1e-8
    assert is_unitary(out.u, Tolerance(1e-10))


def _dense_qsvt_product(u, block_dim, rot_phases):
    """Reference: the alternating dense product R₀ ⋯ U† R_{d−1} U R_d times i^d."""
    refl, gphase = _reflection_phases(rot_phases)
    d = refl.size - 1

    def phase_vec(phi):
        v = np.full(u.shape[0], np.exp(-1j * phi), dtype=complex)
        v[:block_dim] = np.exp(1j * phi)
        return v

    out = np.diag(phase_vec(refl[0]))
    for j in range(1, d + 1):
        factor = u if (d - j) % 2 == 0 else u.conj().T
        out = (out @ factor) * phase_vec(refl[j])
    return gphase * out


@settings(deadline=None, max_examples=80)
@given(
    dim_log=st.integers(1, 6),
    block_log=st.integers(0, 6),
    degree=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_qsvt_product_matches_dense_loop(dim_log, block_log, degree, seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(2**dim_log, rng)
    block_dim = 2 ** min(block_log, dim_log)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    got = _qsvt_product(u, block_dim, phases)
    np.testing.assert_allclose(got, _dense_qsvt_product(u, block_dim, phases), rtol=0, atol=1e-12)


def _rank_update_qsvt_product(u, block_dim, rot_phases):
    """Reference: the same rank-b updates, each applied as one whole-matrix product."""
    refl, gphase = _reflection_phases(rot_phases)
    d = refl.size - 1

    def phase_vec(phi):
        v = np.full(u.shape[0], np.exp(-1j * phi), dtype=complex)
        v[:block_dim] = np.exp(1j * phi)
        return v

    c = u[:, :block_dim] if d % 2 else u[:block_dim].conj().T
    c_dag = c.conj().T
    if d % 2:
        out = phase_vec(refl[d - 1])[:, None] * u * phase_vec(refl[d])
    else:
        out = np.diag(phase_vec(refl[d]))
    for j in range(d - 1 - d % 2, 0, -2):
        proj = c_dag * np.diag(out) if j == d - 1 else c_dag @ out
        out *= np.exp(-1j * refl[j])
        out += (2j * np.sin(refl[j]) * c) @ proj
        out *= phase_vec(refl[j - 1])[:, None]
    return gphase * out


@settings(deadline=None, max_examples=40)
@given(
    dim_log=st.integers(1, 9),
    block_log=st.integers(0, 6),
    degree=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_qsvt_product_row_panels_bit_identical(dim_log, block_log, degree, seed):
    # the panelled frame update changes no bit of one whole-matrix update, past one panel too
    import bechain.qsp as qsp_module

    rng = np.random.default_rng(seed)
    u = haar_unitary(2**dim_log, rng)
    block_dim = 2 ** min(block_log, dim_log - 1)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    got = _qsvt_product(u, block_dim, phases)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsp_module, "ROW_PANEL", u.shape[0])
        expected = _qsvt_product(u, block_dim, phases)
    assert got.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=40)
@given(
    dim_log=st.integers(1, 9),
    block_log=st.integers(0, 6),
    degree=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_qsvt_product_matches_pair_updates(dim_log, block_log, degree, seed):
    # one rank-2b pass against one whole-matrix rank-b update per pair, up to 512 dimensions
    rng = np.random.default_rng(seed)
    u = haar_unitary(2**dim_log, rng)
    block_dim = 2 ** min(block_log, dim_log)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    got = _qsvt_product(u, block_dim, phases)
    np.testing.assert_allclose(got, _rank_update_qsvt_product(u, block_dim, phases), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "dim, block_dim, degree",
    [(64, 4, 24), (64, 4, 129), (128, 8, 129), (512, 8, 7), (512, 8, 8), (8, 8, 12)],
)
def test_qsvt_product_matches_dense_loop_at_fixed_sizes(dim, block_dim, degree):
    # high degrees, the pipeline's T₇ and its even neighbour at 512, and 2b > dim
    rng = np.random.default_rng(dim + degree)
    u = haar_unitary(dim, rng)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    got = _qsvt_product(u, block_dim, phases)
    np.testing.assert_allclose(got, _dense_qsvt_product(u, block_dim, phases), rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    dim_log=st.integers(1, 8),
    block_log=st.integers(0, 6),
    degree=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_qsvt_product_overwrite_bit_identical(dim_log, block_log, degree, seed):
    # building the product in u's buffer changes no bit; an even degree leaves u as it is
    rng = np.random.default_rng(seed)
    u = haar_unitary(2**dim_log, rng)
    block_dim = 2 ** min(block_log, dim_log - 1)
    phases = rng.uniform(-np.pi, np.pi, degree + 1)
    expected = _qsvt_product(u, block_dim, phases)
    spent = u.copy()
    got = _qsvt_product(spent, block_dim, phases, overwrite=True)
    assert got.tobytes() == expected.tobytes()
    assert (got is spent) == (degree % 2 == 1)
    if degree % 2 == 0:
        assert spent.tobytes() == u.tobytes()


def test_qsvt_product_overwrite_t7_at_512():
    # the pipeline's amplification: T₇ with all-zero phases, b = 8 columns of 512
    u = haar_unitary(512, np.random.default_rng(7))
    expected = _qsvt_product(u, 8, np.zeros(8))
    spent = u.copy()
    got = _qsvt_product(spent, 8, np.zeros(8), overwrite=True)
    assert got is spent
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("sequence", ["T7", "T6", "odd", "even"])
def test_qsvt_apply_leaves_input_untouched(sequence):
    # zero phases take the single-product path, the others the ±Φ average
    phi = {
        "T7": lambda: chebyshev_phases(7),
        "T6": lambda: chebyshev_phases(6),
        "odd": lambda: solve_phases(ChebPoly(np.array([0.0, 0.6, 0.0, 0.2]))),
        "even": lambda: solve_phases(approx_half_sqrt(0.25, 1e-2)),
    }[sequence]()
    be = hermitian_test_encoding(random_hermitian(4, 0.8, np.random.default_rng(5)), 2, 6)
    before = be.u.copy()
    qsvt_apply(phi, be)
    assert be.u.tobytes() == before.tobytes()


def test_chebpoly_parity_validation():
    with pytest.raises(ValueError, match="odd coefficients"):
        ChebPoly(np.array([0.1, 0.2, 0.3]))


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([], "non-empty 1-D"),
        ([[0.5]], "non-empty 1-D"),
        ([np.nan], "finite"),
        ([0.0, np.inf], "finite"),
    ],
    ids=["empty", "2-D", "nan", "inf"],
)
def test_chebpoly_refuses_malformed_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=message):
        ChebPoly(np.array(coeffs))


def test_phase_factors_refuse_non_finite_phases():
    with pytest.raises(ValueError, match="phases must be finite"):
        PhaseFactors(np.array([0.1, np.nan, 0.1]))


@pytest.mark.parametrize("degree", [2.5, -1, True, np.float64(3.0)])
def test_chebyshev_phases_refuses_bad_degree(degree):
    with pytest.raises(ValueError, match="degree"):
        chebyshev_phases(degree)


def test_qsvt_apply_at_degree_zero():
    # a single phase is its own reflection phase: T₀ = 1 and the constant 0.5
    be = hermitian_test_encoding(random_hermitian(4, 0.8, np.random.default_rng(5)), 2, 6)
    np.testing.assert_allclose(qsvt_apply(chebyshev_phases(0), be).block(), np.eye(4), rtol=0, atol=1e-12)
    half = qsvt_apply(solve_phases(ChebPoly(np.array([0.5]))), be)
    np.testing.assert_allclose(half.block(), 0.5 * np.eye(4), rtol=0, atol=1e-12)


def test_qsvt_singular_value_transform_nonhermitian():
    # the stated contract on a non-Hermitian block: odd parity transforms the
    # singular triple W P(Σ) V†, even parity the right basis V P(Σ) V†
    from bechain.encoding import random_block_encoding

    be = random_block_encoding(2, 1, 123)
    m = be.block()
    w, sig, vh = np.linalg.svd(m)
    for d in (5, 6):
        rng = np.random.default_rng(d)
        coeffs = np.zeros(d + 1)
        coeffs[d % 2 :: 2] = rng.standard_normal(coeffs[d % 2 :: 2].size)
        p = ChebPoly(coeffs)
        p = p.rescaled(0.9 / p.sup_norm())
        out = qsvt_apply(solve_phases(p), be)
        if d % 2 == 1:
            oracle = (w * p(sig)) @ vh
        else:
            oracle = (vh.conj().T * p(sig)) @ vh
        assert opnorm(out.block() - oracle) <= 1e-10
