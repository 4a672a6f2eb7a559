"""Block encodings: the (α, a) abstraction, unitary dilations, generators.

A block encoding wraps a unitary ``u`` on ``a + n`` qubits together with the
declared scale α; its error is always measured, never declared.  By default
the encoded matrix sits in the ⟨0^a|·|0^a⟩ corner; general bitstring
selectors are stored explicitly and can be normalized away with
:func:`normalize_selectors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import (
    CMatrix,
    DEFAULT_TOL,
    _unitary_within,
    as_cmatrix,
    bit_index,
    haar_unitary,
    herm_funcmat,
    is_hermitian,
    kron,
    opnorm,
    random_hermitian,
    select_qubit,
    sqrt_one_minus_sq,
)

MAX_QUBITS = 12


@dataclass(frozen=True)
class BlockEncoding:
    """A unitary on ``a + n`` qubits declared as an (alpha, a)-encoding.

    ``bra_sel``/``ket_sel`` are the ancilla basis states selecting the encoded
    block; the default is 0^a on both sides.
    """

    u: CMatrix
    a: int
    n: int
    alpha: float = 1.0
    bra_sel: str = ""
    ket_sel: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", as_cmatrix(self.u))
        if self.a < 0 or self.n < 0:
            raise ValueError("register sizes must be non-negative")
        if self.a + self.n > MAX_QUBITS:
            raise ValueError(f"dimension cap exceeded: {self.a + self.n} qubits")
        dim = 2 ** (self.a + self.n)
        if self.u.shape != (dim, dim):
            raise ValueError(f"unitary shape {self.u.shape} does not match a={self.a}, n={self.n}")
        if not 0.0 < self.alpha < np.inf:  # NaN fails both comparisons
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        for name in ("bra_sel", "ket_sel"):
            sel = getattr(self, name) or "0" * self.a
            object.__setattr__(self, name, sel)
            if len(sel) != self.a:
                raise ValueError("selector length must equal the ancilla count")
            if sel.strip("01"):
                raise ValueError(f"{name} must be a bitstring, got {sel!r}")
        if not _unitary_within(self.u, DEFAULT_TOL.atol):  # u is already checked finite
            raise ValueError("u is not unitary within 1e-10")

    @property
    def dim(self) -> int:
        return 2 ** (self.a + self.n)

    def block(self) -> CMatrix:
        """The selected 2^n × 2^n block ⟨bra_sel|U|ket_sel⟩ (unscaled).

        A slice copy of the u that construction validated, not a rescan of it.
        """
        sub = 2**self.n
        i, j = bit_index(self.bra_sel) * sub, bit_index(self.ket_sel) * sub
        return self.u[i : i + sub, j : j + sub].copy()


@dataclass(frozen=True)
class DeviationProfile:
    """Per-encoding deviations η_i = ‖U_i − I‖ and their maximum."""

    etas: tuple[float, ...]
    eta_max: float = field(init=False)

    def __post_init__(self) -> None:
        if any(e < 0 for e in self.etas):
            raise ValueError("deviation coefficients must be non-negative")
        object.__setattr__(self, "eta_max", max(self.etas) if self.etas else 0.0)


def verify_encoding(be: BlockEncoding, target: np.ndarray) -> float:
    """Measured encoding error ‖target − α·⟨bra|U|ket⟩‖ (operator norm)."""
    tgt = as_cmatrix(target)
    if tgt.shape != (2**be.n, 2**be.n):
        raise ValueError(f"target shape {tgt.shape} does not match n={be.n}")
    return opnorm(tgt - be.alpha * be.block())


def deviation(be: BlockEncoding) -> float:
    """‖U − I‖ for the unitary a gadget multiplies: U with its selectors at 0^a.

    A dilation read at ⟨1|·|0⟩ of a near-identity A is far from I itself, but
    its selector-normalized form is as close to I as A is.
    """
    return deviation_profile([be]).etas[0]


def deviation_profile(encodings: Sequence[BlockEncoding]) -> DeviationProfile:
    """Measure ‖U_i − I‖ for every encoding (never trusted from metadata).

    One stacked SVD per dimension; batched LAPACK runs the same routine on
    each matrix, so every η_i equals the single-matrix operator norm bit for bit.
    """
    etas = np.zeros(len(encodings))
    by_dim: dict[int, list[int]] = {}
    for i, be in enumerate(encodings):
        by_dim.setdefault(be.dim, []).append(i)
    for dim, idx in by_dim.items():
        devs = np.stack([normalize_selectors(encodings[i]).u for i in idx])
        devs.reshape(len(idx), -1)[:, :: dim + 1] -= 1.0  # U − I in place
        etas[idx] = np.linalg.svd(devs, compute_uv=False)[:, 0]
    return DeviationProfile(tuple(etas.tolist()))


def normalize_selectors(be: BlockEncoding) -> BlockEncoding:
    """Conjugate with X^{b} on the ancillae so the block sits at 0^a/0^a.

    X^{bra}·U·X^{ket} is the index permutation U[r ⊕ bra, c ⊕ ket], taken exactly.
    """
    if be.bra_sel == "0" * be.a and be.ket_sel == "0" * be.a:
        return be
    idx = np.arange(be.dim)
    bra = bit_index(be.bra_sel) << be.n
    ket = bit_index(be.ket_sel) << be.n
    return BlockEncoding(be.u[np.ix_(idx ^ bra, idx ^ ket)], be.a, be.n, be.alpha)


def dilate_hermitian(h: np.ndarray) -> BlockEncoding:
    """Hermitian unitary dilation U = [[H, √(I−H²)], [√(I−H²), −H]], a (1,1,0)-encoding of H."""
    arr = as_cmatrix(h)
    if not is_hermitian(arr):
        raise ValueError("dilate_hermitian needs a Hermitian matrix")
    if opnorm(arr) > 1.0 + 1e-10:
        raise ValueError("not subnormalized: ‖H‖ > 1")
    comp = sqrt_one_minus_sq(arr)
    u = select_qubit([[arr, comp], [comp, -arr]])
    n = int(np.log2(arr.shape[0]))
    return BlockEncoding(u, 1, n)


def dilate_general(a_mat: np.ndarray) -> BlockEncoding:
    """Hermitian unitary dilation of a square ‖A‖ ≤ 1 with A = ⟨1|U|0⟩.

    U = [[√(I−A†A), A†], [A, −√(I−AA†)]]; the two square roots are built from
    the SVD of A with clamping of roundoff-negative values.
    """
    arr = as_cmatrix(a_mat)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("dilate_general is restricted to square matrices")
    w, sig, vh = np.linalg.svd(arr)
    if sig.size and sig[0] > 1.0 + 1e-10:
        raise ValueError("not subnormalized: ‖A‖ > 1")
    root = np.sqrt(np.clip(1.0 - sig**2, 0.0, None))
    sqrt_ata = (vh.conj().T * root) @ vh       # √(I − A†A)
    sqrt_aat = (w * root) @ w.conj().T         # √(I − AA†)
    u = select_qubit([[sqrt_ata, arr.conj().T], [arr, -sqrt_aat]])
    n = int(np.log2(arr.shape[0]))
    return BlockEncoding(u, 1, n, bra_sel="1", ket_sel="0")


def random_block_encoding(n: int, a: int, seed: int) -> BlockEncoding:
    """Haar-random unitary as an exact (1, a, 0)-encoding of its own block."""
    if n < 1 or a < 1:
        raise ValueError("need n, a >= 1")
    if n + a > 10:
        raise ValueError("dimension cap exceeded: n + a > 10")
    rng = np.random.default_rng(seed)
    return BlockEncoding(haar_unitary(2 ** (n + a), rng), a, n)


def random_near_identity(n: int, a: int, eta: float, seed: int) -> BlockEncoding:
    """Random U = exp(iθG), ‖G‖ = 1, with ‖U − I‖ = 0.9·eta ∈ [0.8·eta, eta]."""
    if n < 1 or a < 1:
        raise ValueError("need n, a >= 1")
    if n + a > 10:
        raise ValueError("dimension cap exceeded: n + a > 10")
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    dim = 2 ** (n + a)
    if eta == 0.0:
        return BlockEncoding(np.eye(dim, dtype=complex), a, n)
    rng = np.random.default_rng(seed)
    gen = random_hermitian(dim, 1.0, rng)
    theta = 2.0 * np.arcsin(0.45 * eta)  # ‖e^{iθG}−I‖ = 2 sin(θ/2) at ‖G‖ = 1
    u = herm_funcmat(gen, lambda lam: np.exp(1j * theta * lam))
    return BlockEncoding(u, a, n)


def pad_ancillas(be: BlockEncoding, a_total: int) -> BlockEncoding:
    """Prepend identity ancilla qubits so the encoding has ``a_total`` ancillae."""
    if a_total < be.a:
        raise ValueError("cannot shrink the ancilla register")
    if a_total == be.a:
        return be
    extra = a_total - be.a
    u = kron(np.eye(2**extra), be.u)
    return BlockEncoding(
        u, a_total, be.n, be.alpha,
        "0" * extra + be.bra_sel, "0" * extra + be.ket_sel,
    )


def scramble_ancillas(be: BlockEncoding, seed: int) -> BlockEncoding:
    """Conjugate with random ancilla unitaries that stabilize |0^a⟩.

    Produces a structurally generic encoding with exactly the same block;
    useful for building a-ancilla test inputs from 1-ancilla dilations.
    """
    if be.bra_sel != "0" * be.a or be.ket_sel != "0" * be.a:
        raise ValueError("normalize selectors before scrambling")
    rng = np.random.default_rng(seed)
    da = 2**be.a
    eye_n = np.eye(2**be.n)

    def stabilizer() -> CMatrix:
        s = np.eye(da, dtype=complex)
        if da > 1:
            s[1:, 1:] = haar_unitary(da - 1, rng)
        return s

    u = kron(stabilizer(), eye_n) @ be.u @ kron(stabilizer(), eye_n)
    return BlockEncoding(u, be.a, be.n, be.alpha)


def hermitian_test_encoding(h: np.ndarray, a: int, seed: int) -> BlockEncoding:
    """A generic-looking exact (1, a, 0)-encoding of a Hermitian H."""
    base = dilate_hermitian(h)
    return scramble_ancillas(pad_ancillas(base, a), seed)
