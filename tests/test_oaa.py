import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bechain.encoding import BlockEncoding, random_block_encoding, random_near_identity
from bechain.mcm import block_product, gadget_error_exact, gadget_lw19, gadget_pmacg
from bechain.oaa import MAX_AUTO_ITERATIONS, auto_iterations, grover_boost, oaa_boost_report


def _dense_grover(psi0: np.ndarray, sig: int, k: int) -> tuple[np.ndarray, float]:
    """Reference: G^k ψ₀ with both reflections and G materialized as dense matrices."""
    dim = psi0.size
    sub = dim >> sig
    diag = np.ones(dim)
    diag[:sub] = -1.0
    reflect_signal = np.diag(diag)  # I − 2Π_sig
    reflect_initial = 2.0 * np.outer(psi0, psi0.conj()) - np.eye(dim)
    g = reflect_initial @ reflect_signal
    state = psi0
    for _ in range(k):
        state = g @ state
    return state, float(np.linalg.norm(state[:sub]) ** 2)


@settings(deadline=None, max_examples=25)
@given(q=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_grover_boost_matches_dense_reflections(q, seed):
    rng = np.random.default_rng(seed)
    psi0 = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
    psi0 /= np.linalg.norm(psi0)
    for sig in range(1, q + 1):
        for k in range(7):
            state, prob = grover_boost(psi0, sig, k)
            ref_state, ref_prob = _dense_grover(psi0, sig, k)
            np.testing.assert_allclose(state, ref_state, rtol=0, atol=1e-12)
            assert prob == pytest.approx(ref_prob, rel=0, abs=1e-12)


def _rotation_state(alpha: float) -> np.ndarray:
    # a 1-qubit prepared state with signal amplitude alpha on |0>
    return np.array([alpha, np.sqrt(1 - alpha**2)], dtype=complex)


def test_grover_three_angle_identity():
    # alpha = sin(pi/6), k = 1: amplified probability sin(3·pi/6)² = 1 exactly
    state, prob = grover_boost(_rotation_state(np.sin(np.pi / 6)), 1, 1)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_grover_sin_law_grid():
    for theta in (0.15, 0.3, 0.5):
        for k in (0, 1, 2, 3):
            _, prob = grover_boost(_rotation_state(np.sin(theta)), 1, k)
            assert prob == pytest.approx(np.sin((2 * k + 1) * theta) ** 2, abs=1e-10)


def test_grover_already_good():
    state, prob = grover_boost(_rotation_state(1.0), 1, 0)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_grover_no_good_component():
    with pytest.raises(ValueError, match="no good component"):
        grover_boost(np.array([0.0, 1.0]), 1, 1)


def test_grover_refuses_unbounded_auto_count():
    # alpha = 1e-6 would ask for 785398 iterations
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="alpha = 1e-06"):
        grover_boost(_rotation_state(1e-6), 1)
    assert time.monotonic() - t0 < 1.0
    with pytest.raises(ValueError, match="k = inf"):
        auto_iterations(0.0)
    theta = np.pi / (4.0 * (MAX_AUTO_ITERATIONS + 0.25))  # k = cap − 0.25 rounds to the cap
    assert auto_iterations(np.sin(theta)) == MAX_AUTO_ITERATIONS
    # an explicit count is the caller's choice
    _, prob = grover_boost(_rotation_state(1e-6), 1, 2)
    assert prob == pytest.approx(np.sin(5 * np.arcsin(1e-6)) ** 2, abs=1e-15)


def test_auto_iterations_boosts_embe():
    # random exact-compression circuit: auto-k boosting reaches >= 0.8
    encs = [random_block_encoding(1, 1, 40 + i) for i in range(3)]
    circ = gadget_lw19(encs)
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    report = oaa_boost_report(circ, block_product(encs), psi)
    assert report.alpha_after**2 >= 0.8
    assert report.k == auto_iterations(report.alpha_before)


def test_oaa_exact_circuit_unit_fidelity():
    encs = [random_block_encoding(1, 1, 50 + i) for i in range(4)]
    circ = gadget_lw19(encs)
    psi = np.array([0.6, 0.8j])
    report = oaa_boost_report(circ, block_product(encs), psi)
    assert report.fidelity >= 1.0 - 1e-10


def test_oaa_identity_encodings_unit_fidelity():
    encs = [BlockEncoding(np.eye(4, dtype=complex), 1, 1) for _ in range(4)]
    circ = gadget_pmacg(encs, 1)
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    report = oaa_boost_report(circ, np.eye(2), psi)
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)


def test_oaa_pmacg_fidelity_bound():
    for seed in range(4):
        k = 8
        encs = [random_near_identity(1, 1, 0.5 / k, 900 + 10 * seed + i) for i in range(k)]
        circ = gadget_pmacg(encs, 1)
        target = block_product(encs)
        eps = gadget_error_exact(circ, target)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        report = oaa_boost_report(circ, target, psi)
        assert report.fidelity >= 1.0 - eps**2


def test_oaa_rejects_vanishing_amplitude():
    from bechain.encoding import dilate_hermitian

    # the first block annihilates |1>, so the target product does too
    encs = [dilate_hermitian(np.diag([0.9, 0.0])), random_block_encoding(1, 1, 61)]
    circ = gadget_lw19(encs)
    target = block_product(encs)
    with pytest.raises(ValueError, match="vanishing"):
        oaa_boost_report(circ, target, np.array([0.0, 1.0]))


def test_oaa_rejects_zero_or_non_finite_input_state():
    encs = [random_block_encoding(1, 1, 70 + i) for i in range(2)]
    circ = gadget_lw19(encs)
    target = block_product(encs)
    # checked before normalizing: no divide-by-zero RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for psi in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="input_state"):
                oaa_boost_report(circ, target, np.array(psi))


def test_grover_boost_validation():
    for psi0 in ([1.0, 0.5], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="unit vector"):
            grover_boost(np.array(psi0), 1)
    for psi0, sig in ((np.eye(4)[0], 3), (np.eye(4)[0], 0), (np.ones(3) / np.sqrt(3), 1)):
        with pytest.raises(ValueError, match="signal"):
            grover_boost(psi0, sig)


def test_negative_iteration_count_is_refused():
    encs = [random_near_identity(1, 1, 0.2, 40 + i) for i in range(8)]
    circ = gadget_pmacg(encs, 1)
    psi0 = np.array([0.6, 0.8, 0.0, 0.0])
    with pytest.raises(ValueError, match="k = -3"):
        grover_boost(psi0, 2, -3)
    with pytest.raises(ValueError, match="k = -1"):
        oaa_boost_report(circ, block_product(encs), np.array([0.6, 0.8]), k=-1)
    assert grover_boost(psi0, 2, 0)[1] == pytest.approx(0.36, abs=1e-15)
