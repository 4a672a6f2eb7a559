"""Linear combinations of unitaries and the two bespoke circuits of the
ancilla-uncomputation pipeline.

``lcu_build`` is the generic PREP/SELECT/PREP† sandwich (symmetric prep,
normalized coefficients).  The pipeline circuits need *sub-normalized*
weights, which a symmetric prep cannot realize, so they use a generalized
form with distinct left/right single-qubit prep unitaries: for weights
(w₁, w₂) with |w₁| + |w₂| ≤ 1 there exist unit vectors l, r with
l_j·r_j = w_j, and ``(P_L ⊗ I)·(|0⟩⟨0|⊗T₁ + |1⟩⟨1|⊗T₂)·(P_R ⊗ I)`` then
block-encodes exactly w₁T₁ + w₂T₂.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .encoding import BlockEncoding, normalize_selectors, pad_ancillas
from .linalg import (
    CMatrix,
    DEFAULT_TOL,
    as_cmatrix,
    dagger,
    is_hermitian,
    is_unitary,
    kron,
    householder_column,
    proj_zero,
    select_qubit,
)

SIN_PI_14 = float(np.sin(np.pi / 14.0))

# Standing check of the Lemma's error chain: the X-branch weight √8·sin(π/14)
# times the QSVT budget ε/9 must stay within the OAA budget ε/14.
if not math.sqrt(8.0) * SIN_PI_14 / 9.0 <= 1.0 / 14.0:
    raise AssertionError("LCU coefficient identity sqrt(8)·sin(pi/14)/9 <= 1/14 failed")


@dataclass(frozen=True)
class LCUSpec:
    """Coefficients and unitary terms of a linear combination Σ c_j T_j."""

    coeffs: tuple[complex, ...]
    terms: tuple[CMatrix, ...]
    prep_dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        object.__setattr__(self, "terms", tuple(as_cmatrix(t) for t in self.terms))
        if not self.terms:
            raise ValueError("empty term list")
        if len(self.coeffs) != len(self.terms):
            raise ValueError("coefficient/term count mismatch")
        dims = {t.shape for t in self.terms}
        if len(dims) != 1:
            raise ValueError("terms must share a common dimension")
        for t in self.terms:
            if not is_unitary(t, DEFAULT_TOL):
                raise ValueError("all LCU terms must be unitary within 1e-10")
        needed = max(1, len(self.terms) - 1).bit_length() if len(self.terms) > 1 else 0
        if self.prep_dim < needed:
            raise ValueError(f"prep_dim {self.prep_dim} < ceil(log2 #terms) = {needed}")


def lcu_build(spec: LCUSpec) -> BlockEncoding:
    """(Σ|c_j|, prep_dim, 0)-encoding of Σ c_j T_j via PREP/SELECT/PREP†.

    Coefficient phases are absorbed into the SELECT terms so PREP stays real
    non-negative; PREP is a Householder completion of the amplitude column.
    """
    lam = sum(abs(c) for c in spec.coeffs)
    if lam <= 0:
        raise ValueError("coefficients must not all vanish")
    nprep = 2**spec.prep_dim
    term_dim = spec.terms[0].shape[0]
    amps = np.zeros(nprep)
    for j, c in enumerate(spec.coeffs):
        amps[j] = math.sqrt(abs(c) / lam)
    prep = householder_column(amps.astype(complex))

    select = np.zeros((nprep * term_dim, nprep * term_dim), dtype=complex)
    for j in range(nprep):
        if j < len(spec.terms):
            phase = np.exp(1j * np.angle(spec.coeffs[j])) if spec.coeffs[j] != 0 else 1.0
            blockj = phase * spec.terms[j]
        else:
            blockj = np.eye(term_dim)
        select[j * term_dim : (j + 1) * term_dim, j * term_dim : (j + 1) * term_dim] = blockj

    eye_t = np.eye(term_dim)
    w = kron(prep, eye_t) @ select @ kron(dagger(prep), eye_t)
    n = int(np.log2(term_dim))
    return BlockEncoding(w, spec.prep_dim, n, alpha=lam)


def _asym_prep_pair(w1: float, w2: float) -> tuple[CMatrix, CMatrix]:
    """Single-qubit (P_L, P_R) with ⟨0|P_L|j⟩⟨j|P_R|0⟩ = (w1, w2), signed weights."""
    if abs(w1) + abs(w2) > 1.0 + 1e-12:
        raise ValueError("|w1| + |w2| must not exceed 1")
    # ⟨0|P_L = (cos α, sin α) and P_R|0⟩ = (cos β, sin β) with cos(α ∓ β) = w1 ± w2
    a = math.acos(min(1.0, max(-1.0, w1 + w2)))
    b = math.acos(min(1.0, max(-1.0, w1 - w2)))
    alpha, beta = abs(a - b) / 2.0, math.copysign((a + b) / 2.0, w2)
    t, s = math.cos(alpha), math.sin(alpha)
    r1, r2 = math.cos(beta), math.sin(beta)
    p_l = np.array([[t, s], [s, -t]], dtype=complex)
    p_r = np.array([[r1, -r2], [r2, r1]], dtype=complex)
    return p_l, p_r


def pair_select(w1: float, t1: CMatrix, w2: float, t2: CMatrix) -> CMatrix:
    """Unitary on one extra (most significant) qubit whose block is w1·T1 + w2·T2."""
    t1 = as_cmatrix(t1)
    t2 = as_cmatrix(t2)
    if t1.shape != t2.shape:
        raise ValueError("branch dimensions differ")
    p_l, p_r = _asym_prep_pair(w1, w2)
    eye = np.eye(t1.shape[0])
    return kron(p_l, eye) @ select_qubit([[t1, None], [None, t2]]) @ kron(p_r, eye)


def reflect_about_zero(a: int, n: int) -> CMatrix:
    """(2Π_{0^a} − I) ⊗ I_n."""
    return kron(2.0 * proj_zero(a) - np.eye(2**a), np.eye(2**n))


def lcu_i_minus_h2(vh: BlockEncoding) -> BlockEncoding:
    """Exact (1, a+1, 0)-encoding of (I − H²)/2 from a (1, a, 0)-encoding of H.

    Two queries: the controlled operation is V_H† (2Π_{0^a} − I) V_H, whose
    block is the Chebyshev iterate 2H² − I, and the single-qubit prep pair
    realizes the weights (1/4, −1/4), giving ¼(I − (2H²−I)) = (I−H²)/2.
    """
    enc = normalize_selectors(vh)
    if not is_hermitian(enc.block(), DEFAULT_TOL):
        raise ValueError("encoded block is not Hermitian")
    return _i_minus_gram(enc.u, enc.a, enc.n)


def _i_minus_gram(u: CMatrix, a: int, n: int) -> BlockEncoding:
    """Exact (1, a+1, 0)-encoding of (I − M†M)/2 for M = ⟨0^a|U|0^a⟩, any M.

    U† (2Π_{0^a} − I) U has block 2M†M − I; passing U† instead of U gives
    (I − MM†)/2.  Two queries to U per application.
    """
    m = dagger(u) @ reflect_about_zero(a, n) @ u
    return BlockEncoding(pair_select(0.25, np.eye(2 ** (a + n)), -0.25, m), a + 1, n)


def lcu_w_uh(vh: BlockEncoding, vsqrt: BlockEncoding) -> BlockEncoding:
    """Combine V_H and V_{√(I−H²)/√8} into a block encoding of sin(π/14)·U_H.

    The output block is √8·s·X ⊗ blk(V_√) + s·Z ⊗ blk(V_H) with s = sin(π/14),
    i.e. sin(π/14)·(Z⊗H + X⊗√(I−H²)) up to the √-encoding's error scaled by
    √8·s ≤ 9/14.  Ancilla-count mismatches are resolved by identity padding.
    """
    if vh.n != vsqrt.n:
        raise ValueError("system-register mismatch between V_H and V_sqrt")
    enc_h = normalize_selectors(vh)
    enc_s = normalize_selectors(vsqrt)
    a2 = max(enc_h.a, enc_s.a)
    enc_h = pad_ancillas(enc_h, a2)
    enc_s = pad_ancillas(enc_s, a2)
    # register layout: [prep 1][anc a2][dilation qubit][n]
    t1 = select_qubit([[None, enc_s.u], [enc_s.u, None]], split=a2)  # X on the dilation qubit
    t2 = select_qubit([[enc_h.u, None], [None, -enc_h.u]], split=a2)  # Z on the dilation qubit
    s = SIN_PI_14
    w = pair_select(math.sqrt(8.0) * s, t1, s, t2)
    return BlockEncoding(w, 1 + a2, vh.n + 1)
