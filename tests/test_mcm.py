import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize, rosen, rosen_der
from scipy.special import gammaln

from bechain.encoding import BlockEncoding, deviation_profile, random_block_encoding, random_near_identity
from bechain.linalg import PAULI_X, Tolerance, haar_unitary, is_unitary, kron, opnorm
from bechain.mcm import (
    MCMCircuit,
    MCMRaw,
    _bfgs,
    _hermitian_basis,
    _ProbeObjective,
    add_unitary,
    bad_sequence_oracle,
    block_product,
    corner_columns,
    embe_block,
    gadget_error_exact,
    gadget_lw19,
    gadget_naive,
    gadget_pmacg,
    lower_bound_probe,
    macg_bound,
    macg_run_bound,
    mcm_from_raw,
    mcm_unitary,
    raw_unitary,
    seqnorm_bound_check,
    sum_bad_sequences,
)


def random_encodings(k: int, seed: int, n: int = 1, a: int = 1) -> list[BlockEncoding]:
    return [random_block_encoding(n, a, seed + i) for i in range(k)]


def near_identity_set(k: int, c: float, seed: int) -> list[BlockEncoding]:
    return [random_near_identity(1, 1, c / k, seed + i) for i in range(k)]


# --- circuit evaluation ------------------------------------------------------


def test_mcm_unitary_k1():
    be = random_block_encoding(1, 1, 0)
    q = haar_unitary(2, np.random.default_rng(1))
    circ = MCMCircuit((be,), 1, (), q)
    np.testing.assert_allclose(mcm_unitary(circ), kron(q, be.u), atol=1e-14)


def test_mcm_controls_never_fire_on_identity_encodings():
    # with all U_i = I the ancillae stay at 0^a, so the circuit acts as Q ⊗ I
    # on the good-ancilla subspace
    k, m = 3, 2
    encs = [BlockEncoding(np.eye(4, dtype=complex), 1, 1) for _ in range(k)]
    rng = np.random.default_rng(2)
    circ = MCMCircuit(tuple(encs), m, tuple(haar_unitary(4, rng) for _ in range(k - 1)),
                      haar_unitary(4, rng))
    u = mcm_unitary(circ)
    # columns with the a-register at |0>: the action is Q on m, identity elsewhere
    dn = 2
    for q_idx in range(4):
        for s_idx in range(2):
            col = u[:, q_idx * 4 + s_idx]
            expected = np.zeros_like(col)
            for out_q in range(4):
                expected[out_q * 4 + s_idx] = circ.q[out_q, q_idx]
            np.testing.assert_allclose(col, expected, atol=1e-12)


def test_mcm_unitary_k2_hand_composed():
    encs = random_encodings(2, 10)
    v1 = PAULI_X.astype(complex)
    circ = MCMCircuit(tuple(encs), 1, (v1,), np.eye(2, dtype=complex))
    p0 = np.diag([1.0, 0.0]).astype(complex)
    pp = np.diag([0.0, 1.0]).astype(complex)
    ctrl = kron(np.eye(2), kron(p0, np.eye(2))) + kron(v1, kron(pp, np.eye(2)))
    expected = kron(np.eye(2), encs[1].u) @ ctrl @ kron(np.eye(2), encs[0].u)
    np.testing.assert_allclose(mcm_unitary(circ), expected, atol=1e-13)


def test_mcm_unitary_always_unitary():
    for k, m, seed in ((2, 1, 4), (4, 2, 5), (5, 2, 6)):
        encs = random_encodings(k, 100 * seed)
        rng = np.random.default_rng(seed)
        circ = MCMCircuit(
            tuple(encs), m, tuple(haar_unitary(2**m, rng) for _ in range(k - 1)),
            haar_unitary(2**m, rng),
        )
        assert is_unitary(mcm_unitary(circ), Tolerance(1e-10))


def test_mcm_validation():
    encs = random_encodings(2, 20)
    with pytest.raises(ValueError, match="m = 0"):
        MCMCircuit(tuple(encs), 0, (np.eye(1),), np.eye(1))
    with pytest.raises(ValueError, match="interleaved"):
        MCMCircuit(tuple(encs), 1, (), np.eye(2, dtype=complex))


def test_mcm_validates_every_distinct_counter():
    # the gadgets share one increment object across all K − 1 slots; a
    # non-unitary V anywhere among such shared slots is still caught
    encs = random_encodings(6, 30)
    add = add_unitary(1)
    for pos in (0, 2, 4):
        v_list = [add] * 5
        v_list[pos] = np.diag([1.0, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="every V_i"):
            MCMCircuit(tuple(encs), 1, tuple(v_list), np.eye(2, dtype=complex))


# --- simplification lemma ----------------------------------------------------


def random_raw(k: int, m: int, seed: int) -> MCMRaw:
    rng = np.random.default_rng(seed)
    encs = random_encodings(k, seed + 1000)
    dm = 2**m
    return MCMRaw(
        tuple(encs), m,
        tuple(haar_unitary(dm, rng) for _ in range(k)),
        tuple(haar_unitary(dm, rng) for _ in range(k - 1)),
        tuple(haar_unitary(dm, rng) for _ in range(k - 1)),
    )


def test_mcm_from_raw_identity_cases():
    k, m = 3, 1
    encs = random_encodings(k, 30)
    eye = np.eye(2, dtype=complex)
    raw = MCMRaw(tuple(encs), m, (eye,) * k, (eye,) * (k - 1), (eye,) * (k - 1))
    circ = mcm_from_raw(raw)
    for v in circ.v_list:
        np.testing.assert_allclose(v, eye, atol=1e-14)
    np.testing.assert_allclose(circ.q, eye, atol=1e-14)

    rng = np.random.default_rng(31)
    bs = tuple(haar_unitary(2, rng) for _ in range(k - 1))
    raw2 = MCMRaw(tuple(encs), m, (eye,) * k, (eye,) * (k - 1), bs)
    circ2 = mcm_from_raw(raw2)
    for v, b in zip(circ2.v_list, bs):
        np.testing.assert_allclose(v, b, atol=1e-14)
    np.testing.assert_allclose(circ2.q, eye, atol=1e-14)


@pytest.mark.parametrize("k,m,seed", [(2, 1, 0), (3, 2, 1), (4, 2, 2), (5, 2, 3)])
def test_simplification_equivalence(k, m, seed):
    raw = random_raw(k, m, seed)
    circ = mcm_from_raw(raw)
    assert opnorm(raw_unitary(raw) - mcm_unitary(circ)) <= 1e-10


# --- blocks and gadgets ------------------------------------------------------


def test_embe_block_examples():
    encs = random_encodings(2, 40)
    circ = gadget_naive(encs)
    np.testing.assert_allclose(embe_block(circ), block_product(encs), atol=1e-12)

    eye_encs = [BlockEncoding(np.eye(4, dtype=complex), 1, 1) for _ in range(3)]
    rng = np.random.default_rng(41)
    q = haar_unitary(4, rng)
    circ2 = MCMCircuit(tuple(eye_encs), 2, (np.eye(4, dtype=complex),) * 2, q)
    np.testing.assert_allclose(embe_block(circ2), q[0, 0] * np.eye(2), atol=1e-12)

    be = random_block_encoding(1, 1, 42)
    circ3 = MCMCircuit((be,), 1, (), haar_unitary(2, rng))
    np.testing.assert_allclose(embe_block(circ3), circ3.q[0, 0] * be.block(), atol=1e-12)


def test_gadget_shapes():
    encs4 = random_encodings(4, 50)
    assert gadget_naive(encs4).m == 3
    assert gadget_lw19(encs4).m == 2
    assert gadget_lw19(random_encodings(5, 51)).m == 3
    assert gadget_pmacg(encs4, 1).m == 1
    # for K = 2 the gadgets coincide: one ancilla, ADD_1 = X
    encs2 = random_encodings(2, 52)
    np.testing.assert_allclose(gadget_lw19(encs2).v_list[0], PAULI_X, atol=1e-14)
    # p = ceil(log2 K) reproduces the exact gadget circuit
    lw = gadget_lw19(encs4)
    pm = gadget_pmacg(encs4, 2)
    np.testing.assert_allclose(mcm_unitary(lw), mcm_unitary(pm), atol=1e-13)


def test_exactness_both_gadgets():
    for k in range(2, 9):
        for seed in (0, 1):
            encs = random_encodings(k, 60 + 10 * k + seed)
            tgt = block_product(encs)
            assert gadget_error_exact(gadget_lw19(encs), tgt) <= 1e-11
            assert gadget_error_exact(gadget_naive(encs), tgt) <= 1e-11


def test_add_unitary():
    a1 = add_unitary(1)
    np.testing.assert_allclose(a1, PAULI_X, atol=1e-14)
    a2 = add_unitary(2)
    state = np.zeros(4)
    state[3] = 1.0
    np.testing.assert_allclose(a2 @ state, np.eye(4)[:, 0], atol=1e-14)  # |3> -> |0>
    for p in (1, 2, 3):
        ap = add_unitary(p)
        acc = np.eye(2**p)
        for j in range(1, 2**p):
            acc = ap @ acc
            assert opnorm(acc - np.eye(2**p)) > 0.5  # no early return to identity
        np.testing.assert_allclose(ap @ acc, np.eye(2**p), atol=1e-14)


# --- bad-sequence oracles ----------------------------------------------------


def test_bad_sequence_all_good():
    encs = random_encodings(3, 70)
    np.testing.assert_allclose(
        bad_sequence_oracle(encs, "00"), block_product(encs), atol=1e-13
    )


def test_bad_sequence_identity_encodings():
    encs = [BlockEncoding(np.eye(4, dtype=complex), 1, 1) for _ in range(3)]
    for x in ("01", "10", "11"):
        np.testing.assert_allclose(bad_sequence_oracle(encs, x), np.zeros((2, 2)), atol=1e-14)


def test_bad_sequence_hand_composition():
    # x = "10": leftmost bit is the measurement before U_3
    encs = random_encodings(3, 71)
    u1, u2, u3 = (be.u for be in encs)
    p0 = kron(np.diag([1.0, 0.0]), np.eye(2))
    pp = kron(np.diag([0.0, 1.0]), np.eye(2))
    expected = (u3 @ pp @ u2 @ p0 @ u1)[:2, :2]
    np.testing.assert_allclose(bad_sequence_oracle(encs, "10"), expected, atol=1e-13)


def test_decomposition_identity():
    # gadget error equals the norm of the qualifying S_x sum
    for k, p in ((6, 1), (9, 1), (12, 2)):
        encs = near_identity_set(k, 0.5, 200 + k)
        circ = gadget_pmacg(encs, p)
        err = gadget_error_exact(circ, block_product(encs))
        method = "enumerate" if k <= 10 else "recursion"
        leak = opnorm(sum_bad_sequences(encs, p, method))
        assert abs(err - leak) <= 1e-10


def test_enumeration_matches_recursion():
    encs = near_identity_set(9, 0.5, 300)
    for p in (1, 2):
        d = opnorm(
            sum_bad_sequences(encs, p, "enumerate") - sum_bad_sequences(encs, p, "recursion")
        )
        assert d <= 1e-12
    # p = 3 at K = 9, 10: weight 8 exists, so the failure count wraps mod 8
    for k in (9, 10):
        encs = near_identity_set(k, 0.5, 300)
        enum = sum_bad_sequences(encs, 3, "enumerate")
        assert opnorm(enum) > 1e-6
        assert opnorm(enum - sum_bad_sequences(encs, 3, "recursion")) <= 1e-12


def test_recursion_matches_corner_at_scale():
    # the class recursion against the column kernel's EMBE corner, two routes
    # that share no code, at a K the enumeration cannot reach
    encs = near_identity_set(1024, 0.5, 900)
    target = block_product(encs)
    for p in (1, 2, 3):
        leak = sum_bad_sequences(encs, p, "recursion")
        assert opnorm(leak) > 1e-6
        assert opnorm(leak - (embe_block(gadget_pmacg(encs, p)) - target)) <= 1e-12


# --- the closed-form bound and its regime ------------------------------------


def test_macg_bound_values():
    v = macg_bound(16, 1, 0.5)
    expected = 2 * math.exp(0.5) * (math.e * 0.25 / 32.0) ** 2
    assert v == pytest.approx(expected, rel=1e-12)
    assert v == pytest.approx(1.487e-3, rel=1e-3)
    v32 = macg_bound(32, 2, 0.5)
    assert v32 == pytest.approx(2 * math.exp(0.5) * (math.e * 0.25 / 128.0) ** 4, rel=1e-12)
    # doubling K at fixed p shrinks the bound by exactly 2^(-2^p)
    assert macg_bound(32, 1, 0.5) / macg_bound(16, 1, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_macg_bound_regime_guard():
    with pytest.raises(ValueError, match="regime"):
        macg_bound(2, 1, 6.0)


def test_macg_bound_rejects_nan_c():
    # NaN fails both the c <= 0 test and the regime test, so it needs its own
    with pytest.raises(ValueError, match="c > 0"):
        macg_bound(8, 1, math.nan)


def test_macg_bounds_refuse_non_integral_k_and_p():
    # 16.5 and 1.5 reached range() or 2**p as a bare TypeError, and
    # macg_bound(16, 1.5, 0.5) returned a number
    for bound, x in ((macg_run_bound, 0.1), (macg_bound, 0.5)):
        with pytest.raises(ValueError, match="K must be an integer"):
            bound(16.5, 1, x)
        with pytest.raises(ValueError, match="p must be an integer"):
            bound(16, 1.5, x)
        assert bound(np.int64(16), np.int64(1), x) == bound(16, 1, x)


def test_macg_bounds_at_large_p():
    # 2^p ≥ K: no weight 2^p fits in K − 1 measurements, decided before any
    # 2^p-entry table is built (p = 64 cannot even size one)
    assert macg_run_bound(16, 4, 0.1) == 0.0 < macg_run_bound(17, 4, 0.1)
    for p in (20, 64, 10**6):
        assert macg_run_bound(16, p, 0.1) == 0.0
    # once 2^p passes the float range the closed form is its limit, 0.0
    assert macg_bound(16, 1023, 0.5) == 0.0
    for p in (1024, 2000, 10**6):
        assert macg_bound(16, p, 0.5) == 0.0


def _closed_form_decimal(k, p, c):
    """2e^c·(e·c²/(K·2^p))^{2^p} in 60-digit decimal arithmetic, then rounded
    to a float (inf past the float range)."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        c = Decimal(c)
        return float(2 * c.exp() * (Decimal(1).exp() * c * c / (k * 2**p)) ** (2**p))


def test_macg_bound_where_its_direct_form_overflows():
    # outside the regime: refused by name, where η² overflowed
    with pytest.raises(ValueError, match="regime"):
        macg_bound(16, 1, 1e200)
    # inside it: e^c, 2e^c or K overflows a float, and the bound is what it is,
    # finite or past the float range (the first three raised OverflowError)
    for k, p, c in ((10**9, 5, 800.0), (10**7, 1, 1000.0), (10**400, 1, 1.0), (10**9, 1, 709.5)):
        exact = _closed_form_decimal(k, p, c)
        assert macg_bound(k, p, c) == pytest.approx(exact, rel=1e-12), (k, p, c)
    assert math.isfinite(macg_bound(10**9, 5, 800.0))
    assert macg_bound(10**7, 1, 1000.0) == math.inf


# --- the per-sequence norm claim: where it holds and where it fails ----------


def test_seqnorm_bound_isolated_ones():
    # the claim holds whenever the bad measurements are isolated
    encs = near_identity_set(6, 0.5, 400)
    k = len(encs)
    for x in ("00000", "10000", "00100", "10100", "10001"):
        meas, bound = seqnorm_bound_check(encs, x)
        assert meas <= bound + 1e-12


def test_seqnorm_claim_fails_for_adjacent_runs():
    # Frozen counterexample: a run of adjacent bad measurements crosses the
    # good/bad boundary only twice, so |S_x| is second order in eta no matter
    # how long the run — the claimed eta^(2|x|) bound is violated, and with it
    # the closed-form gadget error bound loses its K^(-2^p) scaling.  The
    # runs-counted-once bound that holds is test_seqnorm_run_lemma_property.
    encs = near_identity_set(8, 0.5, 500)
    meas_adj, bound_adj = seqnorm_bound_check(encs, "0000011")
    assert meas_adj > 10 * bound_adj
    meas_run4, bound_run4 = seqnorm_bound_check(encs, "0001111")
    assert meas_run4 > 1e4 * bound_run4


def runs_of_ones(x: str) -> int:
    return sum(1 for run in x.split("0") if run)


@settings(deadline=None, max_examples=25)
@given(data=st.data(), k=st.integers(2, 8), a=st.integers(1, 2),
       seed=st.integers(0, 10**6), eta=st.floats(0.01, 0.5))
def test_seqnorm_run_lemma_property(data, k, a, seed, eta):
    # The lemma behind macg_run_bound: |S_x| <= eta_max^(2·runs(x)).
    encs = [random_near_identity(1, a, eta, seed + i) for i in range(k)]
    x = data.draw(st.text("01", min_size=k - 1, max_size=k - 1))
    eta_max = deviation_profile(encs).eta_max
    bound = eta_max ** (2 * runs_of_ones(x))
    assert opnorm(bad_sequence_oracle(encs, x)) <= bound * (1 + 1e-9) + 1e-14


def leakage_norm(be: BlockEncoding) -> float:
    """max(|Π_⊥ U Π₀|, |Π₀ U Π_⊥|): the boundary factor the lemma charges."""
    dn = 2**be.n
    return max(opnorm(be.u[dn:, :dn]), opnorm(be.u[:dn, dn:]))


def run_bound_lgamma(k: int, p: int, eta: float) -> float:
    """Σ_{w ≡ 0 mod 2^p} Σ_j C(w−1, j−1)·C(K−w, j)·η^{2j}, each term via lgamma."""
    lg = gammaln(np.arange(k + 2))  # lg[x] = ln Γ(x)
    log_terms = []
    for w in range(2**p, k, 2**p):
        j = np.arange(1, min(w, k - w) + 1)
        log_terms.append(lg[w] - lg[j] - lg[w - j + 1] + lg[k - w + 1] - lg[j + 1]
                         - lg[k - w - j + 1] + 2 * j * math.log(eta))
    return float(np.sum(np.exp(np.concatenate(log_terms))))


def test_macg_run_bound_brute_force_and_attained():
    for k in range(2, 11):
        strings = ["".join(b) for b in itertools.product("01", repeat=k - 1)]
        for p in (1, 2, 3):
            for eta in (0.0, 0.05, 0.3, 2.0):
                brute = sum(eta ** (2 * runs_of_ones(x)) for x in strings
                            if x.count("1") % 2**p == 0 and "1" in x)
                assert macg_run_bound(k, p, eta) == pytest.approx(brute, rel=1e-12, abs=0)
    # K identical copies of one e^{iθG} with |U − I| = O(1/K): every single run
    # leaks the same matrix, so the sum is coherent and the bound, charged at
    # the leakage norm, is attained.  (Charged at eta_max the ratio is the
    # generator's leakage share (λ/eta_max)², 0.1–0.55 over random G.)
    for seed in range(3):
        for k in (8, 16, 32, 64):
            be = random_near_identity(1, 1, 0.5 / k, seed)
            encs = [be] * k
            lam = leakage_norm(be)
            assert lam <= deviation_profile(encs).eta_max
            for p in (1, 2):
                e = gadget_error_exact(gadget_pmacg(encs, p), block_product(encs))
                bound = macg_run_bound(k, p, lam)
                assert 0.9 * bound <= e <= bound
    with pytest.raises(ValueError, match="eta"):
        macg_run_bound(8, 1, 2.5)
    # no K cap: past the brute-force range, against the double sum in log space
    for k in (513, 1024, 4096):
        for p in (1, 2):
            for eta in (0.5 / k, 0.05):
                assert macg_run_bound(k, p, eta) == pytest.approx(
                    run_bound_lgamma(k, p, eta), rel=1e-9, abs=0
                )
    assert macg_run_bound(4096, 1, 2.0) == math.inf


def test_pmacg_small_k_within_bound():
    encs = near_identity_set(8, 0.5, 600)
    e = gadget_error_exact(gadget_pmacg(encs, 1), block_product(encs))
    assert e <= macg_run_bound(8, 1, deviation_profile(encs).eta_max)


# --- lower-bound probe -------------------------------------------------------


def test_probe_feasible_point_k2():
    encs = random_encodings(2, 700)
    assert lower_bound_probe(encs, 1, restarts=6, seed=5) <= 1e-8


def test_probe_k3_stays_away_from_zero():
    encs = random_encodings(3, 710, n=2)
    assert lower_bound_probe(encs, 1, restarts=4, seed=6) >= 1e-3


def test_probe_finds_exact_k4_m1_gadget_at_n1():
    # Documented finding: for random n = a = 1 sequences the K = 4 leakage
    # matrices span too small a space, and an exact m = 1 gadget exists below
    # the ceil(log2 K) = 2 bound — the counting argument only forbids this for
    # generic (large-n) sequences.  The acceptance probe therefore runs at n=2.
    encs = random_encodings(4, 32452843 * 4 + 1000 * 0, n=1)
    residual = lower_bound_probe(encs, 1, restarts=20, seed=271)
    assert residual <= 1e-6


def test_probe_validation():
    encs = random_encodings(2, 720)
    with pytest.raises(ValueError, match="bound"):
        lower_bound_probe(encs, 2, 1, 0)  # m above ceil(log2 2) = 1
    for restarts in (0, -1, np.int64(0)):  # no restart would leave the residual at inf
        with pytest.raises(ValueError, match="restarts"):
            lower_bound_probe(encs, 1, restarts, 0)
    for restarts in (2.5, 1.0, "1", None):  # a count, not a float or a string
        with pytest.raises(ValueError, match="restarts"):
            lower_bound_probe(encs, 1, restarts, 0)
    for restarts in (1, np.int64(1), np.uint8(1)):
        assert lower_bound_probe(encs, 1, restarts, 0) == lower_bound_probe(encs, 1, 1, 0)


def ill_conditioned_quadratic(dim: int = 12, cond: float = 1e3, seed: int = 3):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    a = (q * np.logspace(0, math.log10(cond), dim)) @ q.T
    b = rng.standard_normal(dim)
    return (lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)), rng.standard_normal(dim)


def rosenbrock(x: np.ndarray) -> tuple[float, np.ndarray]:
    return rosen(x), rosen_der(x)


ROSENBROCK_START = np.array([1.3, 0.7, 0.8, 1.9, 1.2, 0.9, 1.1, 0.6, 1.4, 1.0])


@pytest.mark.parametrize("fun, x0, tol", [
    (*ill_conditioned_quadratic(), 1e-8),
    (rosenbrock, ROSENBROCK_START, 1e-6),
])
def test_bfgs_matches_scipy_bfgs(fun, x0, tol):
    # scipy's BFGS as an independent oracle for the probe's optimizer
    mine, steps = _bfgs(fun, x0, 500, 1e-8)
    ref = minimize(fun, x0, jac=True, method="BFGS", options={"maxiter": 500, "gtol": 1e-8})
    assert ref.success and 0 < steps < 500
    np.testing.assert_allclose(mine, ref.x, rtol=0, atol=tol)


def test_bfgs_returns_a_stationary_start_unchanged():
    calls = []

    def flat(x):
        calls.append(x.copy())
        return float(np.sum(x)), np.full_like(x, 1e-13)

    x, steps = _bfgs(flat, ROSENBROCK_START, 100, 1e-12)
    assert steps == 0 and len(calls) == 1
    assert np.array_equal(x, ROSENBROCK_START)


@pytest.mark.parametrize("maxiter", [0, 1, 3, 7])
@pytest.mark.parametrize("fun, x0", [ill_conditioned_quadratic(), (rosenbrock, ROSENBROCK_START)])
def test_bfgs_descends_within_maxiter(fun, x0, maxiter):
    x, steps = _bfgs(fun, x0, maxiter, 1e-12)
    assert steps <= maxiter
    assert fun(x)[0] <= fun(x0)[0]
    if maxiter == 0:
        assert np.array_equal(x, x0)


def test_bfgs_stops_on_a_wrong_sign_gradient():
    # the gradient points uphill: no step meets the sufficient decrease, and the
    # start, the last accepted point, comes back without an exception
    def wrong(x):
        value, grad = rosenbrock(x)
        return value, -grad

    x, steps = _bfgs(wrong, ROSENBROCK_START, 50, 1e-12)
    assert steps == 0
    assert np.array_equal(x, ROSENBROCK_START)


@pytest.mark.parametrize("k, m", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 2))
def test_probe_residual_matches_full_unitary(k, m, seed, n):
    # the factored Σ_x c_x·S_x residual against the full 2^{m+a+n} circuit
    encs = random_encodings(k, seed, n=n)
    theta = np.random.default_rng(seed).uniform(-1.5, 1.5, (k, 4**m - 1))
    basis = _hermitian_basis(2**m)
    mats = [expm(1j * sum(c * g for c, g in zip(row, basis))) for row in theta]
    circ = MCMCircuit(encs, m, tuple(mats[:-1]), mats[-1])
    expected = gadget_error_exact(circ, block_product(encs))
    assert abs(_ProbeObjective(encs, m)(theta.ravel()) - expected) <= 1e-12


# a traceless 2×2 generator has a repeated eigenvalue only at 0, so that case is m = 2 only
PROBE_GRADIENT_CASES = [
    (k, m, d) for k, m in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]
    for d in (None, "zero row", "repeated eigenvalue") if m == 2 or d != "repeated eigenvalue"
]


def probe_point(k: int, m: int, degenerate: str | None, seed: int, row: int) -> np.ndarray:
    theta = np.random.default_rng(seed).uniform(-1.5, 1.5, (k, 4**m - 1))
    if degenerate == "zero row":  # H_j = 0: all eigenvalues equal
        theta[row % k] = 0.0
    elif degenerate == "repeated eigenvalue":  # H_j ∝ diag(1, 1, 1, −3)
        theta[row % k] = 0.0
        theta[row % k, -1] = 0.7
    return theta.ravel()


def central_differences(fun, theta: np.ndarray, h: float = 1e-6) -> list[float]:
    return [(fun(theta + e) - fun(theta - e)) / (2 * h) for e in h * np.eye(theta.size)]


@pytest.mark.parametrize("k, m, degenerate", PROBE_GRADIENT_CASES)
@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 2), row=st.integers(0, 3))
def test_probe_value_and_grad_matches_central_differences(k, m, degenerate, seed, n, row):
    theta = probe_point(k, m, degenerate, seed, row)
    objective = _ProbeObjective(random_encodings(k, seed, n=n), m)
    value, grad = objective.value_and_grad(theta)
    assert abs(value - objective(theta)) <= 1e-12
    np.testing.assert_allclose(grad, central_differences(objective, theta), rtol=0, atol=1e-6)


@pytest.mark.parametrize("k, m, degenerate", PROBE_GRADIENT_CASES)
@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 2), row=st.integers(0, 3))
def test_probe_frobenius_and_grad_matches_central_differences(k, m, degenerate, seed, n, row):
    theta = probe_point(k, m, degenerate, seed, row)
    objective = _ProbeObjective(random_encodings(k, seed, n=n), m)
    value, grad = objective.frobenius_and_grad(theta)
    resid = objective._forward(theta)[-1]
    assert value == pytest.approx(np.linalg.norm(resid, "fro") ** 2, rel=1e-12, abs=1e-15)
    r = objective(theta)  # ‖R‖₂² ≤ ‖R‖²_F ≤ rank(R)·‖R‖₂², and rank(R) ≤ 2^n
    assert r**2 * (1 - 1e-12) <= value <= 2**n * r**2 * (1 + 1e-12)
    central = central_differences(lambda x: objective.frobenius_and_grad(x)[0], theta)
    np.testing.assert_allclose(grad, central, rtol=0, atol=1e-6)


def test_sum_bad_sequences_validation():
    encs = near_identity_set(4, 0.5, 800)
    with pytest.raises(ValueError, match="unknown method"):
        sum_bad_sequences(encs, 1, "bogus")
    with pytest.raises(ValueError, match="non-negative"):
        sum_bad_sequences(encs, -1, "recursion")
    # 2^p above K − 1: no string qualifies, and no 2^p classes are allocated
    for method in ("enumerate", "recursion"):
        assert not sum_bad_sequences(encs, 40, method).any()


def kron_reference_unitary(circ: MCMCircuit) -> np.ndarray:
    """The circuit as a product of full-register operators, built with kron."""
    dm, dn = 2**circ.m, 2**circ.n
    p0 = kron(np.diag([1.0] + [0.0] * (2**circ.a - 1)), np.eye(dn))
    pp = np.eye(2**circ.a * dn) - p0
    out = kron(np.eye(dm), circ.encodings[0].u)
    for v, be in zip(circ.v_list, circ.encodings[1:]):
        ctrl = kron(np.eye(dm), p0) + kron(v, pp)
        out = kron(np.eye(dm), be.u) @ ctrl @ out
    return kron(circ.q, np.eye(2**circ.a * dn)) @ out


@settings(deadline=None, max_examples=25)
@given(k=st.integers(2, 6), m=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_mcm_unitary_matches_kron_reference(k, m, seed):
    rng = np.random.default_rng(seed)
    circ = MCMCircuit(
        tuple(random_encodings(k, seed)), m,
        tuple(haar_unitary(2**m, rng) for _ in range(k - 1)),
        haar_unitary(2**m, rng),
    )
    expected = kron_reference_unitary(circ)
    assert opnorm(mcm_unitary(circ) - expected) <= 1e-12
    assert opnorm(corner_columns(circ) - expected[:, : 2**circ.n]) <= 1e-12
    assert opnorm(embe_block(circ) - expected[:2, :2]) <= 1e-13


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10**6))
def test_mcm_unitary_property(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    m = int(rng.integers(1, 3))
    encs = random_encodings(k, seed % 100_000)
    circ = MCMCircuit(
        tuple(encs), m,
        tuple(haar_unitary(2**m, rng) for _ in range(k - 1)),
        haar_unitary(2**m, rng),
    )
    assert is_unitary(mcm_unitary(circ), Tolerance(1e-10))
