"""Seeded input generation, in the benchmark's own numpy code.

The package's generators (``random_near_identity``, ``hermitian_test_encoding``
and friends) are not used, so a change to them cannot change what the
benchmark measures.  Every draw comes from ``stream(seed, *labels)``: the
same seed and labels give the same matrices, and distinct labels give
independent streams.
"""

from __future__ import annotations

import numpy as np

from reference import PAULI_X, general_dilation, hermitian_dilation


def stream(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng([seed, *labels])


def hermitian(dim: int, norm: float, rng: np.random.Generator) -> np.ndarray:
    """GUE-direction Hermitian matrix scaled to operator norm ``norm``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h * (norm / np.max(np.abs(np.linalg.eigvalsh(h))))


def complex_matrix(dim: int, norm: float, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix scaled to operator norm ``norm``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g * (norm / np.linalg.svd(g, compute_uv=False)[0])


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with the R-diagonal phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def near_identity(dim: int, eta: float, rng: np.random.Generator) -> np.ndarray:
    """exp(iθG) with ‖G‖ = 1 and θ = 2·arcsin(0.45·η), so ‖U − I‖ = 0.9·η."""
    evals, evecs = np.linalg.eigh(hermitian(dim, 1.0, rng))
    theta = 2.0 * np.arcsin(0.45 * eta)
    return (evecs * np.exp(1j * theta * evals)) @ evecs.conj().T


def scrambled(dilation: np.ndarray, a: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Pad a one-ancilla dilation to ``a`` ancillae and scramble them.

    Both sides are multiplied by ancilla unitaries 1 ⊕ Haar(2^a − 1) that fix
    |0^a⟩, so the ⟨0^a|·|0^a⟩ block is unchanged while the rest of the
    unitary looks generic.
    """
    da, dn = 2**a, 2**n

    def stabilizer() -> np.ndarray:
        s = np.eye(da, dtype=complex)
        s[1:, 1:] = haar(da - 1, rng)
        return np.kron(s, np.eye(dn))

    return stabilizer() @ np.kron(np.eye(da // 2), dilation) @ stabilizer()


def hermitian_encoding(h: np.ndarray, a: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """An exact a-ancilla encoding of Hermitian H: ⟨0^a|U|0^a⟩ = H."""
    return scrambled(hermitian_dilation(h), a, n, rng)


def general_encoding(a_mat: np.ndarray, a: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """An exact a-ancilla encoding of a square A: ⟨0^a|U|0^a⟩ = A.

    X on the dilation qubit moves A from the ⟨1|·|0⟩ block of U_A to ⟨0|·|0⟩.
    """
    dn = a_mat.shape[0]
    flip = np.kron(PAULI_X, np.eye(dn))
    return scrambled(flip @ general_dilation(a_mat), a, n, rng)
