"""Amplitude amplification and oblivious amplitude amplification.

The signal register (measurement + encoding ancillae of an MCM circuit) marks
the good subspace: reflections about |0^sig⟩ and about the prepared state
build the Grover iterate, and the post-selected system state after boosting
is compared against the exact multiplication target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import CMatrix, DEFAULT_TOL, as_cmatrix, householder_column, is_unitary, kron
from .mcm import MCMCircuit, gadget_error_exact, mcm_unitary

MAX_AUTO_ITERATIONS = 1000  # each iteration is a dense product; admits α > sin(π/4004)


@dataclass(frozen=True)
class AAProblem:
    """State-preparation unitary, signal-qubit count, iteration count (None = auto)."""

    u0: CMatrix
    sig: int
    k: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "u0", as_cmatrix(self.u0))
        if not is_unitary(self.u0, DEFAULT_TOL):
            raise ValueError("state-preparation operator is not unitary")
        total = int(np.log2(self.u0.shape[0]))
        if not 1 <= self.sig <= total:
            raise ValueError("signal-qubit count out of range")


@dataclass(frozen=True)
class BoostReport:
    """Signal amplitude before/after boosting, iteration count, and fidelity."""

    alpha_before: float
    k: int
    alpha_after: float
    fidelity: float

    def to_row(self) -> dict:
        return {
            "alpha_before": self.alpha_before,
            "k": self.k,
            "alpha_after": self.alpha_after,
            "fidelity": self.fidelity,
        }


def reflect_signal(sig: int, total: int) -> CMatrix:
    """(I − 2|0^sig⟩⟨0^sig|) ⊗ I on the remaining qubits."""
    if not 1 <= sig <= total:
        raise ValueError("signal-qubit count out of range")
    diag = np.ones(2**total)
    diag[: 2 ** (total - sig)] = -1.0
    return np.diag(diag).astype(complex)


def reflect_initial(u0: np.ndarray) -> CMatrix:
    """2|ψ₀⟩⟨ψ₀| − I with |ψ₀⟩ = U₀|0…0⟩, the rank-1 form of U₀(2Π₀ − I)U₀†."""
    u = as_cmatrix(u0)
    if not is_unitary(u, DEFAULT_TOL):
        raise ValueError("U0 is not unitary")
    return 2.0 * np.outer(u[:, 0], u[:, 0].conj()) - np.eye(u.shape[0])


def auto_iterations(alpha: float) -> int:
    """k = round(π/(4·arcsin α) − ½) ≥ 0; a ValueError above ``MAX_AUTO_ITERATIONS``."""
    theta = np.arcsin(min(max(alpha, 0.0), 1.0))
    k = np.pi / (4.0 * theta) - 0.5 if theta > 0 else np.inf
    if k >= MAX_AUTO_ITERATIONS + 0.5:
        raise ValueError(f"automatic k = {k:.0f} > MAX_AUTO_ITERATIONS for alpha = {alpha:.3g}")
    return max(0, round(k))


def grover_boost(prob: AAProblem) -> tuple[np.ndarray, float]:
    """Run G^k on U₀|0…0⟩ and return the state plus post-boost signal probability."""
    total = int(np.log2(prob.u0.shape[0]))
    psi0 = prob.u0[:, 0].copy()
    sub = 2 ** (total - prob.sig)
    alpha = float(np.linalg.norm(psi0[:sub]))
    if alpha < 1e-12:
        raise ValueError("no good component: signal amplitude below 1e-12")
    k = prob.k if prob.k is not None else auto_iterations(alpha)
    g = reflect_initial(prob.u0) @ reflect_signal(prob.sig, total)
    state = psi0
    for _ in range(k):
        state = g @ state
    return state, float(np.linalg.norm(state[:sub]) ** 2)


def _prepare_unitary(psi: np.ndarray) -> CMatrix:
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValueError("input state must be nonzero")
    return householder_column(vec / norm)


def oaa_boost_report(
    circ: MCMCircuit, target: np.ndarray, input_state: np.ndarray,
    k: Optional[int] = None,
) -> BoostReport:
    """Boost an (approximate) multiplication circuit, post-select, and report.

    The report holds the signal amplitude before and after G^k, the iteration
    count, and the fidelity of the normalized post-selected system state with
    the exact A_[K]|ψ⟩ direction.  That direction is invariant under the
    Grover rotation, so the fidelity is governed by the gadget error;
    boosting raises the signal probability.
    """
    eps = gadget_error_exact(circ, target)
    if eps >= 1.0:
        raise ValueError("gadget error must be below 1 for OAA to make sense")
    tgt = as_cmatrix(target)
    psi = np.asarray(input_state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi)
    if not 1e-12 <= norm < np.inf:  # NaN fails both comparisons
        raise ValueError(f"input_state must be finite and nonzero, got norm {norm!r}")
    psi = psi / norm
    good = tgt @ psi
    if np.linalg.norm(good) < 1e-12:
        raise ValueError("vanishing good amplitude: ‖A_[K]|ψ⟩‖ ≈ 0")
    good = good / np.linalg.norm(good)

    sig = circ.m + circ.a
    u0 = mcm_unitary(circ) @ kron(np.eye(2**sig), _prepare_unitary(psi))
    alpha_before = float(np.linalg.norm(u0[: 2**circ.n, 0]))
    k_used = k if k is not None else auto_iterations(alpha_before)
    state, prob_after = grover_boost(AAProblem(u0, sig, k_used))
    post = state[: 2**circ.n]
    post = post / np.linalg.norm(post)
    fidelity = float(np.abs(np.vdot(good, post)) ** 2)
    return BoostReport(alpha_before, k_used, float(np.sqrt(prob_after)), fidelity)
