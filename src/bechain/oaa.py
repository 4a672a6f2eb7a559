"""Amplitude amplification and oblivious amplitude amplification.

The signal register (measurement + encoding ancillae of an MCM circuit) marks
the good subspace: the good component of the prepared state
ψ₀ = U_MCM·(|0^{m+a}⟩⊗ψ) is its first 2^n entries.  ψ₀ comes from the
circuit's corner columns, and the Grover iterate acts on that one vector, so
no full-register operator is formed.  The post-selected system state after
boosting is compared against the exact multiplication target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_cmatrix
from .mcm import MCMCircuit, corner_columns, corner_error

MAX_AUTO_ITERATIONS = 1000  # bounds an automatic count's work; admits α > sin(π/4004)


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


def auto_iterations(alpha: float) -> int:
    """k = round(π/(4·arcsin α) − ½) ≥ 0; a ValueError above ``MAX_AUTO_ITERATIONS``."""
    theta = np.arcsin(min(max(alpha, 0.0), 1.0))
    k = np.pi / (4.0 * theta) - 0.5 if theta > 0 else np.inf
    if k >= MAX_AUTO_ITERATIONS + 0.5:
        raise ValueError(f"automatic k = {k:.0f} > MAX_AUTO_ITERATIONS for alpha = {alpha:.3g}")
    return max(0, round(k))


def grover_boost(
    psi0: np.ndarray, sig: int, k: Optional[int] = None
) -> tuple[np.ndarray, float]:
    """Run G^k on the unit state ψ₀ and return the state plus post-boost signal probability.

    G = (2|ψ₀⟩⟨ψ₀| − I)(I − 2Π_sig), with Π_sig the projector onto |0^sig⟩ on
    the ``sig`` most significant qubits; each iteration is two O(dim) vector
    steps.  k = None picks :func:`auto_iterations`; a negative k is a ValueError.
    """
    psi0 = np.array(psi0, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi0)
    if not abs(norm - 1.0) <= 1e-10:  # NaN fails the comparison
        raise ValueError(f"prepared state must be a unit vector, got norm {norm!r}")
    total = psi0.size.bit_length() - 1
    if psi0.size != 2**total or not 1 <= sig <= total:
        raise ValueError(f"signal-qubit count {sig} out of range for dimension {psi0.size}")
    sub = 2 ** (total - sig)
    alpha = float(np.linalg.norm(psi0[:sub]))
    if alpha < 1e-12:
        raise ValueError("no good component: signal amplitude below 1e-12")
    if k is None:
        k = auto_iterations(alpha)
    elif k < 0:
        raise ValueError(f"iteration count k = {k} is negative")
    sign = np.where(np.arange(psi0.size) < sub, -1.0, 1.0)  # I − 2Π_sig
    state = psi0
    for _ in range(k):
        state = sign * state
        state = 2.0 * np.vdot(psi0, state) * psi0 - state
    return state, float(np.linalg.norm(state[:sub]) ** 2)


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
    cols = corner_columns(circ)
    eps = corner_error(cols, target)
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

    psi0 = cols @ psi
    alpha_before = float(np.linalg.norm(psi0[: 2**circ.n]))
    k_used = k if k is not None else auto_iterations(alpha_before)
    state, prob_after = grover_boost(psi0, circ.m + circ.a, k_used)
    post = state[: 2**circ.n]
    post = post / np.linalg.norm(post)
    fidelity = float(np.abs(np.vdot(good, post)) ** 2)
    return BoostReport(alpha_before, k_used, float(np.sqrt(prob_after)), fidelity)
