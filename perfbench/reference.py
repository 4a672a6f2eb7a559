"""Independent reference math for the benchmark's output checks.

Nothing here imports ``bechain``: every quantity the checks compare against
is computed again from plain numpy, so a fault in the package cannot also
hide in the value it is judged by.

Register layout matches the package: the leftmost tensor factor is the most
significant block of the index, so a matrix on ``a`` ancillae and ``n``
system qubits is indexed as ``anc_index * 2**n + sys_index``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def opnorm(m: np.ndarray) -> float:
    """Operator norm: the largest singular value."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


def unitarity_defect(u: np.ndarray) -> float:
    """‖U†U − I‖_F, an upper bound on the operator-norm defect."""
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def sqrt_complement(m: np.ndarray) -> np.ndarray:
    """√(I − M) for a Hermitian M with spectrum in [0, 1], by eigh."""
    evals, evecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    root = np.sqrt(np.clip(1.0 - evals, 0.0, None))
    return (evecs * root) @ evecs.conj().T


def hermitian_dilation(h: np.ndarray) -> np.ndarray:
    """U_H = Z⊗H + X⊗√(I − H²), whose ⟨0|·|0⟩ block is H."""
    return np.kron(PAULI_Z, h) + np.kron(PAULI_X, sqrt_complement(h @ h))


def general_dilation(a: np.ndarray) -> np.ndarray:
    """U_A = [[√(I−A†A), A†], [A, −√(I−AA†)]], whose ⟨1|·|0⟩ block is A."""
    dim = a.shape[0]
    u = np.empty((2 * dim, 2 * dim), dtype=complex)
    u[:dim, :dim] = sqrt_complement(a.conj().T @ a)
    u[:dim, dim:] = a.conj().T
    u[dim:, :dim] = a
    u[dim:, dim:] = -sqrt_complement(a @ a.conj().T)
    return u


def corner(u: np.ndarray, n: int) -> np.ndarray:
    """The ⟨0…0|U|0…0⟩ block on the 2^n system dimensions."""
    return u[: 2**n, : 2**n]


def block_product(unitaries: Sequence[np.ndarray], n: int) -> np.ndarray:
    """A_K ⋯ A_1 from the ⟨0^a|U_i|0^a⟩ blocks, first entry applied first."""
    out = corner(unitaries[0], n)
    for u in unitaries[1:]:
        out = corner(u, n) @ out
    return out


def increment(m: int) -> np.ndarray:
    """The cyclic increment |x⟩ ↦ |x + 1 mod 2^m⟩."""
    return np.roll(np.eye(2**m, dtype=complex), 1, axis=0)


def embe_corner(
    unitaries: Sequence[np.ndarray], m: int, a: int, n: int, v: np.ndarray
) -> np.ndarray:
    """⟨0^{m+a}| U_MCM |0^{m+a}⟩ of the circuit with every V_i = v and Q = I.

    The circuit applies U_1, then for i = 2…K a V on the m counter qubits
    controlled on the ancillae being outside 0^a, followed by U_i.  Only the
    2^n input columns of |0^{m+a}⟩ ⊗ I_n are carried through the product.
    """
    dm, da, dn = 2**m, 2**a, 2**n
    state = np.zeros((dm, da * dn, dn), dtype=complex)
    state[0, :, :] = unitaries[0][:, :dn]
    for u in unitaries[1:]:
        state = state.reshape(dm, da, dn * dn)
        state[:, 1:, :] = np.einsum("xy,yaj->xaj", v, state[:, 1:, :])
        state = np.einsum("ij,xjc->xic", u, state.reshape(dm, da * dn, dn))
    return state[0, :dn, :].copy()


def run_bound(k: int, p: int, eta: float) -> float:
    """B_run = Σ_{w ≡ 0 mod 2^p, 0 < w < K} Σ_j C(w−1, j−1)·C(K−w, j)·η^{2j}.

    A failed-measurement string with j runs of ones has 2j boundaries, each
    costing at most η = max‖U_i − I‖, and C(w−1, j−1)·C(K−w, j) counts the
    strings of weight w with j runs.
    """
    period = 2**p
    total = 0.0
    for w in range(period, k, period):
        for j in range(1, min(w, k - w) + 1):
            total += math.comb(w - 1, j - 1) * math.comb(k - w, j) * eta ** (2 * j)
    return total
