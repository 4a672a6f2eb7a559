import time
import warnings

import numpy as np
import pytest

from bechain.encoding import BlockEncoding, random_block_encoding, random_near_identity
from bechain.linalg import haar_unitary
from bechain.mcm import block_product, gadget_error_exact, gadget_lw19, gadget_pmacg
from bechain.oaa import (
    MAX_AUTO_ITERATIONS,
    AAProblem,
    auto_iterations,
    grover_boost,
    oaa_boost_report,
    reflect_initial,
    reflect_signal,
)


def test_reflect_signal_examples():
    np.testing.assert_allclose(reflect_signal(1, 1), np.diag([-1.0, 1.0]), atol=1e-14)
    r = reflect_signal(2, 3)
    np.testing.assert_allclose(np.diag(r), [-1, -1] + [1] * 6, atol=1e-14)
    np.testing.assert_allclose(r @ r, np.eye(8), atol=1e-14)


def test_reflect_initial_examples():
    np.testing.assert_allclose(
        reflect_initial(np.eye(4)), np.diag([1.0, -1.0, -1.0, -1.0]), atol=1e-14
    )
    u0 = haar_unitary(8, np.random.default_rng(0))
    r = reflect_initial(u0)
    np.testing.assert_allclose(r @ r, np.eye(8), atol=1e-12)
    psi0 = u0[:, 0]
    np.testing.assert_allclose(r @ psi0, psi0, atol=1e-12)


def _rotation_problem(alpha: float, k) -> AAProblem:
    # a 1-qubit preparation with signal amplitude alpha on |0>
    beta = np.sqrt(1 - alpha**2)
    u0 = np.array([[alpha, -beta], [beta, alpha]], dtype=complex)
    return AAProblem(u0, 1, k)


def test_grover_three_angle_identity():
    # alpha = sin(pi/6), k = 1: amplified probability sin(3·pi/6)² = 1 exactly
    state, prob = grover_boost(_rotation_problem(np.sin(np.pi / 6), 1))
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_grover_sin_law_grid():
    for theta in (0.15, 0.3, 0.5):
        for k in (0, 1, 2, 3):
            _, prob = grover_boost(_rotation_problem(np.sin(theta), k))
            assert prob == pytest.approx(np.sin((2 * k + 1) * theta) ** 2, abs=1e-10)


def test_grover_already_good():
    state, prob = grover_boost(_rotation_problem(1.0, 0))
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_grover_no_good_component():
    u0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="no good component"):
        grover_boost(AAProblem(u0, 1, 1))


def test_grover_refuses_unbounded_auto_count():
    # alpha = 1e-6 would ask for 785398 dense products
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="alpha = 1e-06"):
        grover_boost(_rotation_problem(1e-6, None))
    assert time.monotonic() - t0 < 1.0
    with pytest.raises(ValueError, match="k = inf"):
        auto_iterations(0.0)
    theta = np.pi / (4.0 * (MAX_AUTO_ITERATIONS + 0.25))  # k = cap − 0.25 rounds to the cap
    assert auto_iterations(np.sin(theta)) == MAX_AUTO_ITERATIONS
    # an explicit count is the caller's choice
    _, prob = grover_boost(_rotation_problem(1e-6, 2))
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


def test_aa_problem_validation():
    with pytest.raises(ValueError, match="unitary"):
        AAProblem(np.diag([1.0, 0.5]).astype(complex), 1)
    with pytest.raises(ValueError, match="signal"):
        AAProblem(np.eye(4, dtype=complex), 3)
