import math

import numpy as np
import pytest
from scipy.linalg import expm

from bechain.appgen import (
    DysonSpec,
    TrotterSpec,
    _expm1_stack,
    controlled_embedding,
    dyson_propagators,
    dyson_sequence,
    dyson_spec_from_json,
    matrix_from_json,
    trotter_sequence,
    trotter_spec_from_json,
)
from bechain.encoding import deviation, deviation_profile
from bechain.linalg import PAULI_X, PAULI_Y, PAULI_Z, Tolerance, is_unitary, opnorm
from bechain.mcm import block_product, gadget_error_exact, gadget_pmacg, macg_bound


def test_trotter_zero_time():
    encs = trotter_sequence(TrotterSpec((PAULI_Z,), 0.0, 4))
    assert len(encs) == 4
    for be in encs:
        assert deviation(be) <= 1e-14


def test_trotter_single_x_deviation():
    encs = trotter_sequence(TrotterSpec((PAULI_X,), 1.0, 16))
    expected = 2 * abs(np.sin(1.0 / 32.0))
    for be in encs:
        assert deviation(be) == pytest.approx(expected, abs=1e-12)


def test_trotter_commuting_terms_exact():
    # commuting terms have zero splitting error: the block product is e^{-iHt}
    terms = (0.5 * PAULI_Z, 0.25 * PAULI_Z)
    t, k = 1.0, 8
    encs = trotter_sequence(TrotterSpec(terms, t, k))
    h_total = terms[0] + terms[1]
    evals, evecs = np.linalg.eigh(h_total)
    exact = (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T
    np.testing.assert_allclose(block_product(encs), exact, atol=1e-12)


def test_trotter_reuses_one_encoding_per_term():
    # every step repeats the same factors: len(terms) distinct objects, each
    # built once, repeated K times in application order
    terms = (0.5 * PAULI_X, 0.5 * PAULI_Z, 0.3 * PAULI_Y)
    encs = trotter_sequence(TrotterSpec(terms, 1.0, 5))
    assert len(encs) == 15
    assert len({id(be) for be in encs}) == len(terms)
    assert all(be is encs[i % len(terms)] for i, be in enumerate(encs))


def test_trotter_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        TrotterSpec((np.array([[0.0, 1.0], [0.0, 0.0]]),), 1.0, 2)
    with pytest.raises(ValueError, match="norm"):
        TrotterSpec((2.0 * PAULI_X,), 1.0, 2)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            TrotterSpec((PAULI_X,), t, 2)


def test_specs_refuse_non_integral_counts():
    # 2.5 reached range() as a bare TypeError, and k=True ran one step
    for k in (2.5, True, "2"):
        with pytest.raises(ValueError, match="'k'"):
            TrotterSpec((PAULI_X,), 1.0, k)
        with pytest.raises(ValueError, match="'k'"):
            DysonSpec(lambda t: -0.5j * PAULI_X, 0.5, 1.0, k, 32)
    for micro_steps in (32.5, False):
        with pytest.raises(ValueError, match="'micro_steps'"):
            DysonSpec(lambda t: -0.5j * PAULI_X, 0.5, 1.0, 2, micro_steps)
    spec = DysonSpec(lambda t: -0.5j * PAULI_X, 0.5, 1.0, np.int64(2), np.int64(32))
    assert (spec.k, spec.micro_steps) == (2, 32)
    assert TrotterSpec((PAULI_X,), 1.0, np.int64(3)).k == 3


def test_dyson_zero_generator():
    spec = DysonSpec(lambda t: np.zeros((2, 2)), 0.0, 1.0, 4, 32)
    for xi in dyson_propagators(spec):
        np.testing.assert_allclose(xi, np.eye(2), atol=1e-13)


def test_dyson_constant_generator():
    spec = DysonSpec(lambda t: -1j * PAULI_Z, 1.0, 1.0, 8, 64)
    for be in dyson_sequence(spec):
        assert deviation(be) == pytest.approx(2 * np.sin(1.0 / 16.0), abs=1e-10)


def test_dyson_cosine_bound():
    lam = 0.5
    spec = DysonSpec(lambda t: -1j * np.cos(t) * 0.5 * PAULI_X, lam, 1.0, 16, 64)
    dt = 1.0 / 16
    for be in dyson_sequence(spec):
        assert deviation(be) <= np.exp(lam * dt) - 1.0 + 1e-10


def test_dyson_micro_step_doubling():
    # default workload (K = 16 intervals): halving the 256 default micro-steps
    # moves each propagator by well under 1e-8
    spec_lo = DysonSpec(lambda t: -1j * np.cos(t) * 0.5 * PAULI_X, 0.5, 1.0, 16, 128)
    spec_hi = DysonSpec(lambda t: -1j * np.cos(t) * 0.5 * PAULI_X, 0.5, 1.0, 16, 256)
    for lo, hi in zip(dyson_propagators(spec_lo), dyson_propagators(spec_hi)):
        assert opnorm(lo - hi) <= 1e-8


def test_dyson_lambda_violation():
    spec = DysonSpec(lambda t: -2j * PAULI_X, 0.5, 1.0, 2, 32)
    with pytest.raises(ValueError, match="lam"):
        dyson_propagators(spec)
    # ‖A(t)‖ = t first exceeds 0.5 at the first midpoint of the second
    # interval, 0.5 + h/2 with h = 1/64
    spec = DysonSpec(lambda t: -1j * t * PAULI_X, 0.5, 1.0, 2, 32)
    with pytest.raises(ValueError, match="^‖A\\(t\\)‖ exceeds lam at t = 0.5078125$"):
        dyson_propagators(spec)


def _no_svd(*args, **kwargs):
    raise AssertionError("the certificate should have decided without an SVD")


def test_dyson_certificate_needs_no_svd(monkeypatch):
    spec = DysonSpec(lambda t: -1j * np.cos(t) * 0.5 * PAULI_X, 0.5, 1.0, 16, 256)
    expected = dyson_propagators(spec)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    for got, ref in zip(dyson_propagators(spec), expected, strict=True):
        assert np.array_equal(got, ref)


# a non-normal generator of norm exactly 1: its Gram matrix is not A·A†
_NON_NORMAL = np.array([[0.3, 1.0], [0.0, -0.2j]])
_NON_NORMAL = _NON_NORMAL / np.linalg.svd(_NON_NORMAL, compute_uv=False)[0]


def test_dyson_certificate_margin(monkeypatch):
    # λ′ = lam + 1e-8: a norm 5e-9 above lam is certified without an SVD
    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", _no_svd)
        dyson_propagators(DysonSpec(lambda t: (0.5 + 5e-9) * _NON_NORMAL, 0.5, 1.0, 2, 32))
    # 2e-8 above lam from the first midpoint past t = 0.3 on: refused, and the
    # message names that midpoint, 19.5/64
    def a_of_t(t):
        return (0.5 + (2e-8 if t > 0.3 else 0.0)) * _NON_NORMAL

    with pytest.raises(ValueError, match="^‖A\\(t\\)‖ exceeds lam at t = 0.3046875$"):
        dyson_propagators(DysonSpec(a_of_t, 0.5, 1.0, 2, 32))


def test_dyson_spec_rejects_non_finite_fields():
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            DysonSpec(lambda t: -2j * PAULI_X, lam, 1.0, 2, 32)
    for t_total in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="t_total"):
            DysonSpec(lambda t: -0.5j * PAULI_X, 0.5, t_total, 2, 32)
    cfg = {"generator": {"family": "two_term_pauli"}, "lam": math.nan, "T": 1.0, "K": 2}
    with pytest.raises(ValueError, match="lam"):
        dyson_spec_from_json(cfg)


def _reference_propagators(spec: DysonSpec) -> list[np.ndarray]:
    """Per-micro-step scipy expm at the same midpoints, multiplied in sequence."""
    dt = spec.t_total / spec.k
    h = dt / spec.micro_steps
    out = []
    for j in range(spec.k):
        xi = np.eye(np.shape(spec.a_of_t(0.0))[0], dtype=complex)
        for s in range(spec.micro_steps):
            xi = expm(np.asarray(spec.a_of_t(j * dt + (s + 0.5) * h)) * h) @ xi
        out.append(xi)
    return out


@pytest.mark.parametrize(
    "a_of_t, lam, t_total, k, micro_steps",
    [
        # anti-Hermitian, backwards in time too
        (lambda t: -1j * (0.6 * np.cos(t) * PAULI_X + 0.3 * PAULI_Z), 0.9, 1.0, 4, 32),
        (lambda t: -1j * (0.6 * np.cos(t) * PAULI_X + 0.3 * PAULI_Z), 0.9, -1.0, 2, 32),
        # dissipative and non-normal: Hermitian part −0.2·I + 0.15·cos(t)·Z ≤ −0.05
        (lambda t: -0.2 * np.eye(2) + 0.15 * np.cos(t) * PAULI_Z - 0.5j * PAULI_X, 0.85, 1.0, 4, 32),
        # ‖A‖·h = 1.5 > 1/2: the exponential scales and squares
        (lambda t: -1.5j * (np.cos(t) * PAULI_X + np.sin(t) * PAULI_Z), 1.5, 32.0, 1, 32),
        (lambda t: -0.3 * np.eye(2) - 1.2j * np.cos(t) * PAULI_Y, 1.5, 64.0, 2, 32),
        # odd micro-step count: the pairwise product carries a last factor
        (lambda t: -1j * (0.6 * np.cos(t) * PAULI_X + 0.3 * PAULI_Z), 0.9, 1.0, 3, 33),
        # loose lam (10 against ‖A‖ ≤ 0.9): the degree follows the Frobenius norm
        (lambda t: -1j * (0.6 * np.cos(t) * PAULI_X + 0.3 * PAULI_Z), 10.0, 1.0, 4, 32),
    ],
)
def test_dyson_batched_kernel_matches_sequential_expm(a_of_t, lam, t_total, k, micro_steps):
    spec = DysonSpec(a_of_t, lam, t_total, k, micro_steps)
    for got, ref in zip(dyson_propagators(spec), _reference_propagators(spec), strict=True):
        assert opnorm(got - ref) <= 1e-13


def test_expm1_stack_matches_scipy_up_to_norm_7():
    rng = np.random.default_rng(7)
    for norm in (0.0, 1e-4, 0.3, 0.5, 0.7, 2.0, 7.0):
        x = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        x *= norm / np.linalg.svd(x, compute_uv=False)[:, :1, None]
        got = np.eye(4) + _expm1_stack(x, 1.0, norm)
        for g, xm in zip(got, x):
            ref = expm(xm)
            assert opnorm(g - ref) <= 1e-14 * opnorm(ref)


def _expm1_stack_full_horner(a, h, norm):
    """_expm1_stack with its Horner loop started from zero, X·(I + 0)/m first."""
    bound = norm * abs(h)
    squarings = math.frexp(bound / 0.5)[1] if bound > 0.5 else 0
    x = a * (h * 2.0**-squarings)
    xi = bound * 2.0**-squarings
    degree, tail = 0, xi
    while tail * math.exp(xi) > 2.0**-53:
        degree += 1
        tail *= xi / (degree + 1)
    eye = np.eye(x.shape[-1])
    e = np.zeros_like(x)
    for k in range(degree, 0, -1):
        e = (x @ (eye + e)) / k
    for _ in range(squarings):
        e = 2.0 * e + e @ e
    return e


def test_expm1_stack_equals_full_horner_loop():
    # starting Horner at X/m skips the product X·I and changes no bit
    rng = np.random.default_rng(7)
    for norm in (0.0, 1e-4, 0.3, 0.5, 0.7, 2.0, 7.0):
        x = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        x *= norm / np.linalg.svd(x, compute_uv=False)[:, :1, None]
        assert np.array_equal(_expm1_stack(x, 1.0, norm), _expm1_stack_full_horner(x, 1.0, norm))


def test_dyson_rejects_malformed_generator_values():
    def nan_at_one_t(t):
        return np.full((2, 2), np.nan) if 0.25 < t < 0.26 else -0.5j * PAULI_X

    with pytest.raises(ValueError, match="non-finite"):
        dyson_propagators(DysonSpec(nan_at_one_t, 0.5, 1.0, 2, 32))
    with pytest.raises(ValueError, match="square"):
        dyson_propagators(DysonSpec(lambda t: np.zeros((2, 3)), 0.5, 1.0, 2, 32))
    # every interval's A(t) has the first interval's shape; the first midpoint
    # of the second interval is 0.5 + 1/128
    with pytest.raises(ValueError, match="shape \\(3, 3\\) at t = 0.5078125"):
        dyson_propagators(
            DysonSpec(lambda t: np.zeros((2, 2)) if t < 0.5 else np.zeros((3, 3)), 0.5, 1.0, 2, 32)
        )
    # ... and inside one interval too: 0.3 + 1/128 is the first midpoint past 0.3
    with pytest.raises(ValueError, match=r"shape \(3, 3\) at t = 0.3046875, not \(2, 2\)"):
        dyson_propagators(
            DysonSpec(lambda t: np.zeros((2, 2)) if t < 0.3 else np.zeros((3, 3)), 0.5, 1.0, 2, 32)
        )
    # ‖A‖·h = 1e200·1e200/32 overflows: refused, not looped on
    with pytest.raises(ValueError, match="too large"):
        dyson_propagators(DysonSpec(lambda t: -1e200j * PAULI_X, 1e200, 1e200, 1, 32))


def test_controlled_embedding_deviation_transfer():
    u = np.diag(np.exp([0.05j, -0.05j]))
    be = controlled_embedding(u)
    assert is_unitary(be.u, Tolerance(1e-12))
    assert deviation(be) == pytest.approx(opnorm(u - np.eye(2)), abs=1e-12)


def test_end_to_end_pmacg_bound():
    # generated near-identity sequences satisfy the closed-form bound at the
    # measured c: the controlled embeddings are block diagonal, so the gadget
    # leakage vanishes identically
    encs = trotter_sequence(TrotterSpec((0.5 * PAULI_X, 0.5 * PAULI_Z), 1.0, 16))
    kg = len(encs)
    prof = deviation_profile(encs)
    c = prof.eta_max * kg
    e = gadget_error_exact(gadget_pmacg(encs, 1), block_product(encs))
    assert e <= macg_bound(kg, 1, c)
    assert e <= 1e-12
    for be in encs:
        assert is_unitary(be.u, Tolerance(1e-9))
        assert deviation(be) <= (c / kg) * 1.1


def test_json_loaders():
    mat = matrix_from_json([[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]])
    np.testing.assert_allclose(mat, 0.5 * PAULI_X, atol=1e-14)

    tspec = trotter_spec_from_json(
        {"terms": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]], "t": 1.0, "K": 4}
    )
    assert tspec.k == 4 and len(tspec.terms) == 1

    dspec = dyson_spec_from_json(
        {
            "generator": {
                "family": "cosine",
                "matrix": [[[0.0, 0.0], [0.0, -0.5]], [[0.0, -0.5], [0.0, 0.0]]],
            },
            "T": 1.0,
            "K": 4,
            "micro_steps": 32,
        }
    )
    got = dspec.a_of_t(0.0)
    np.testing.assert_allclose(got, -0.5j * PAULI_X, atol=1e-14)
    assert dspec.lam == pytest.approx(0.5)

    two = dyson_spec_from_json(
        {"generator": {"family": "two_term_pauli", "c1": 0.3, "c2": 0.2}, "T": 1.0, "K": 2}
    )
    assert two.lam == pytest.approx(0.5)
    with pytest.raises(ValueError, match="family"):
        dyson_spec_from_json({"generator": {"family": "nope"}, "T": 1.0, "K": 2})

    # malformed files raise a ValueError that names the field, not a bare
    # KeyError or TypeError
    cosine = {"family": "cosine", "matrix": [[[0.0, 0.0], [0.0, -0.5]], [[0.0, -0.5], [0.0, 0.0]]]}
    for bad, field in (
        ({"T": 1.0, "K": 2}, "generator"),
        ({"generator": cosine, "K": 2}, "T"),
        ({"generator": cosine, "T": 1.0}, "K"),
        ({"generator": cosine, "T": 1.0, "K": "two"}, "K"),
        ({"generator": {"family": "cosine"}, "T": 1.0, "K": 2}, "matrix"),
        ({"generator": {"matrix": cosine["matrix"]}, "T": 1.0, "K": 2}, "family"),
        ({"generator": 3, "T": 1.0, "K": 2}, "family"),
        ({"generator": {"family": "two_term_pauli", "pauli1": "W"}, "T": 1.0, "K": 2}, "pauli1"),
        ({"generator": {"family": "two_term_pauli", "pauli2": ["Z"]}, "T": 1.0, "K": 2}, "pauli2"),
        ({"generator": {**cosine, "omega": None}, "T": 1.0, "K": 2}, "omega"),
        ({"generator": {"family": "constant", "matrix": [[1]]}, "T": 1.0, "K": 2}, "matrix"),
        ({"generator": cosine, "T": 1.0, "K": 2, "lam": "big"}, "lam"),
        ([cosine], "generator"),
        # counts are integers: int() would truncate these to 16 × 40 and to 1
        ({"generator": cosine, "T": 1.0, "K": 16.9, "micro_steps": 40}, "K"),
        ({"generator": cosine, "T": 1.0, "K": 16, "micro_steps": 40.7}, "micro_steps"),
        ({"generator": cosine, "T": 1.0, "K": True}, "K"),
        ({"generator": cosine, "T": 1.0, "K": 2, "micro_steps": False}, "micro_steps"),
    ):
        with pytest.raises(ValueError, match=f"'{field}'"):
            dyson_spec_from_json(bad)
    for bad, field in (
        ({"t": 1.0, "K": 2}, "terms"),
        ({"terms": 3, "t": 1.0, "K": 2}, "terms"),
        ({"terms": [[[1.0]]], "t": 1.0, "K": 2}, "terms"),
        ({"terms": [], "t": None, "K": 2}, "t"),
        ({"terms": [], "t": 1.0, "K": 2.5}, "K"),
        ({"terms": [], "t": 1.0, "K": True}, "K"),
    ):
        with pytest.raises(ValueError, match=f"'{field}'"):
            trotter_spec_from_json(bad)
    for bad in ([[1]], [[[0.0, 1.0, 2.0]]], [[[0.0, 0.0]], [[0.0]]], "X"):
        with pytest.raises(ValueError):
            matrix_from_json(bad)

def test_dyson_nonunitary_fallback_dilation():
    # contractive generator: propagators are subnormalized, not unitary, and
    # take the Hermitian-dilation path with its <1|.|0> selector convention
    spec = DysonSpec(lambda t: -0.2 * np.eye(2), 0.2, 1.0, 4, 32)
    encs = dyson_sequence(spec)
    props = dyson_propagators(spec)
    for be, xi in zip(encs, props):
        assert opnorm(xi) < 1.0
        assert (be.bra_sel, be.ket_sel) == ("1", "0")
        np.testing.assert_allclose(be.block(), xi, atol=1e-10)
