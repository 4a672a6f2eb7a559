"""Linear combinations of unitaries: one block-form kernel.

:func:`lcu` sums the PREP·SELECT·PREP sandwich block by block, skipping
``None`` (zero) terms.  ``qsp.qsvt_apply`` averages the ±Φ sequences with a
Hadamard prep, and :func:`pair_select` realizes the pipeline's
*sub-normalized* weights, which a symmetric prep cannot, with distinct
single-qubit preps: for (w₁, w₂) with |w₁| + |w₂| ≤ 1 there are unit vectors
l, r with l_j·r_j = w_j, and the sandwich then block-encodes exactly
w₁T₁ + w₂T₂.  The pipeline's W is that sandwich over two ``select_qubit``
grids.  The selects are linear in their cells, so :func:`_w_lcu` writes W
cell by cell, each cell being :func:`lcu` of the two grids' cells, and
neither select is built whole.  It returns W as a plain array: the
uncomputation pipeline measures W's unitarity defect through the amplified
unitary instead (see ``uncompute._uncompute``), and :func:`lcu_w_uh` wraps
the same array in a validated ``BlockEncoding``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import numpy.typing as npt

from .encoding import BlockEncoding, normalize_selectors
from .linalg import (
    CMatrix,
    DEFAULT_TOL,
    _write_cell,
    as_cmatrix,
    dagger,
    is_hermitian,
)

SIN_PI_14 = float(np.sin(np.pi / 14.0))

# Standing check of the Lemma's error chain: the X-branch weight √8·sin(π/14)
# times the QSVT budget ε/9 must stay within the OAA budget ε/14.
if not math.sqrt(8.0) * SIN_PI_14 / 9.0 <= 1.0 / 14.0:
    raise AssertionError("LCU coefficient identity sqrt(8)·sin(pi/14)/9 <= 1/14 failed")


def lcu(
    prep_l: npt.ArrayLike, prep_r: npt.ArrayLike, terms: Sequence[Optional[npt.ArrayLike]]
) -> CMatrix:
    """(P_L ⊗ I)·(Σ_j |j⟩⟨j| ⊗ T_j)·(P_R ⊗ I), prep register most significant.

    Block (i, k) is Σ_j P_L[i,j]·P_R[j,k]·T_j, written straight into the
    output through one block-size scratch array: O(#terms³·dim²) work.  A
    ``None`` term is zero and is skipped.
    """
    p_l, p_r = as_cmatrix(prep_l), as_cmatrix(prep_r)
    m = len(terms)
    if m == 0 or p_l.shape != (m, m) or p_r.shape != (m, m):
        raise ValueError(f"prep shapes {p_l.shape}, {p_r.shape} do not match {m} terms")
    given = [(j, as_cmatrix(t)) for j, t in enumerate(terms) if t is not None]
    if not given:
        raise ValueError("every term is None")
    dim = given[0][1].shape[0]
    if any(t.shape != (dim, dim) for _, t in given):
        raise ValueError("terms must be square matrices of one size")
    coef = p_l[:, :, None] * p_r[None, :, :]  # coef[i, j, k] = P_L[i,j]·P_R[j,k]
    out = np.empty((m * dim, m * dim), dtype=complex)
    scratch = np.empty((dim, dim), dtype=complex)
    (j0, t0), rest = given[0], given[1:]
    for i in range(m):
        for k in range(m):
            blk = out[i * dim : (i + 1) * dim, k * dim : (k + 1) * dim]
            np.multiply(coef[i, j0, k], t0, out=blk)
            for j, t in rest:
                blk += np.multiply(coef[i, j, k], t, out=scratch)
    return out


def _asym_prep_pair(w1: float, w2: float) -> tuple[CMatrix, CMatrix]:
    """Single-qubit (P_L, P_R) with ⟨0|P_L|j⟩⟨j|P_R|0⟩ = (w1, w2), signed weights."""
    for name, w in (("w1", w1), ("w2", w2)):
        if not math.isfinite(w):
            raise ValueError(f"{name} = {w} is not finite")
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
    return lcu(*_asym_prep_pair(w1, w2), (t1, t2))


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
    sign = np.where(np.arange(u.shape[0]) < 2**n, 1.0, -1.0)  # 2Π_{0^a} − I on the ancillae
    m = (dagger(u) * sign) @ u
    return BlockEncoding(pair_select(0.25, np.eye(2 ** (a + n)), -0.25, m), a + 1, n)


def lcu_w_uh(vh: BlockEncoding, vsqrt: BlockEncoding) -> BlockEncoding:
    """Combine V_H and V_{√(I−H²)/√8} into a block encoding of sin(π/14)·U_H.

    The output block is √8·s·X ⊗ blk(V_√) + s·Z ⊗ blk(V_H) with s = sin(π/14),
    i.e. sin(π/14)·(Z⊗H + X⊗√(I−H²)) up to the √-encoding's error scaled by
    √8·s ≤ 9/14.  Ancilla-count mismatches are resolved by identity padding.
    The result is validated: W is checked for unitarity here, once.
    """
    root_grid, input_grid, a2 = _w_uh_grids(vh, vsqrt)
    return BlockEncoding(_w_lcu(root_grid, input_grid, a2, vh.n), 1 + a2, vh.n + 1)


_Grid = Sequence[Sequence[Optional[npt.ArrayLike]]]


def _w_uh_grids(vh: BlockEncoding, vsqrt: BlockEncoding) -> tuple[_Grid, _Grid, int]:
    """W's root and input grids for U_H, and the padded ancilla count a2.

    V_H and V_√ are padded with identities to a2 = max of their ancilla
    counts; the root branch puts V_√ on X of the dilation qubit, the input
    branch V_H on Z.
    """
    if vh.n != vsqrt.n:
        raise ValueError("system-register mismatch between V_H and V_sqrt")
    enc_h = normalize_selectors(vh)
    enc_s = normalize_selectors(vsqrt)
    a2 = max(enc_h.a, enc_s.a)
    u_h = np.kron(np.eye(2 ** (a2 - enc_h.a)), enc_h.u)
    u_s = np.kron(np.eye(2 ** (a2 - enc_s.a)), enc_s.u)
    return [[None, u_s], [u_s, None]], [[u_h, None], [None, -u_h]], a2


def _w_lcu(root_grid: _Grid, input_grid: _Grid, a2: int, n: int) -> CMatrix:
    """sin(π/14)·U from the root branch (weight √8·s) and the input branch (weight s).

    Each grid is a ``select_qubit`` grid placing the dilation qubit after the
    a2 ancillae: the layout is [prep 1][anc a2][dilation qubit][n], so W is
    the unitary of a (1, 1 + a2)-encoding on n + 1 qubits.  W is
    ``pair_select`` of the two selects.  The selects are linear in their
    cells, so W's cell (r, c) on the dilation qubit is :func:`lcu` of the two
    grids' cells (r, c), written into W as it is built; neither select is
    built whole.  W is returned unvalidated: it is unitary whenever the
    grids' cells are, and a caller checks that once, on W or on a product
    whose unitarity defect equals W's.
    """
    s = SIN_PI_14
    p_l, p_r = _asym_prep_pair(math.sqrt(8.0) * s, s)
    w = np.zeros((2 ** (a2 + n + 2),) * 2, dtype=complex)
    for row in range(2):
        for col in range(2):
            pair = (root_grid[row][col], input_grid[row][col])
            if any(t is not None for t in pair):
                _write_cell(w, 1 + a2, row, col, lcu(p_l, p_r, pair))
    return w
