"""Dense complex linear algebra foundation.

Everything in the package manipulates plain ``numpy`` arrays of complex128
("CMatrix" values): dense matrices with the register convention that the
leftmost tensor factor is the most significant block of the index, i.e. a
state on ``a`` ancilla qubits and ``n`` system qubits is indexed as
``anc_index * 2**n + sys_index``.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.typing as npt

CMatrix = npt.NDArray[np.complex128]

# Pauli matrices and friends, used as building blocks throughout.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
S_GATE = np.diag([1.0, 1.0j]).astype(complex)


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance for matrix comparisons."""

    atol: float = 1e-10

    def __post_init__(self) -> None:
        if self.atol < 0:
            raise ValueError("tolerances must be non-negative")


DEFAULT_TOL = Tolerance(1e-10)


def as_cmatrix(m: npt.ArrayLike) -> CMatrix:
    """Coerce to a 2-D complex128 array and check all entries are finite."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def opnorm(m: npt.ArrayLike) -> float:
    """Operator norm (largest singular value) of a dense matrix.

    Raises
    ------
    ValueError
        If the matrix has a zero dimension.
    """
    arr = as_cmatrix(m)
    if arr.size == 0:
        raise ValueError("empty matrix")
    return float(np.linalg.svd(arr, compute_uv=False)[0])


ROW_PANEL = 64  # rows per panel where a whole-matrix temporary would be full size


def _unitary_within(arr: CMatrix, atol: float) -> bool:
    """``‖M†M − I‖ ≤ atol`` for a finite square complex128 M: the one unitarity kernel.

    For square M, ``‖MM† − I‖`` and ``‖M†M − I‖`` agree: the two deviations
    have the same spectrum, hence the same Frobenius norm too.  Since
    ‖E‖₂ ≤ ‖E‖_F, the squared Frobenius norm of MM† − I accepts without
    forming E.  It is summed over the upper block-row panels of the Hermitian
    MM†: rows r…r+P times columns r… in one complex product (computed
    conjugated, which keeps the norm), the diagonal block once and the rest
    twice, so the workspace is one P-row panel.  Only past it is M†M − I
    built whole, and the SVD's verdict stands.
    """
    dim = arr.shape[0]
    sq = 0.0
    for r in range(0, dim, ROW_PANEL):
        panel = arr[r : r + ROW_PANEL].conj() @ arr[r:].T  # conj of (MM†)[r:r+P, r:]
        rows, cols = panel.shape
        panel.reshape(-1)[:: cols + 1] -= 1.0  # the diagonal of its leading square
        diag = panel[:, :rows]
        sq += 2.0 * np.vdot(panel, panel).real - np.vdot(diag, diag).real
    if dim and sq <= atol * atol:
        return True
    dev = arr.conj().T @ arr
    dev.reshape(-1)[:: dim + 1] -= 1.0
    return opnorm(dev) <= atol


def _orthonormal_within(c: CMatrix, atol: float) -> bool:
    """``‖C†C − I‖ ≤ atol`` for the columns of a finite complex128 C.

    :func:`_unitary_within`'s rule on a Gram matrix only as large as C has
    columns, so it is formed whole: its Frobenius norm accepts, and past it
    the SVD's verdict stands.  The columns of a square M that passes
    ``_unitary_within`` pass too, since C†C − I is a principal submatrix of
    M†M − I.
    """
    dev = c.conj().T @ c
    dev.reshape(-1)[:: dev.shape[0] + 1] -= 1.0
    return bool(np.vdot(dev, dev).real <= atol * atol) or opnorm(dev) <= atol


def is_unitary(m: npt.ArrayLike, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``‖M†M − I‖ ≤ atol`` (see :func:`_unitary_within`)."""
    arr = as_cmatrix(m)
    if arr.shape[1] != arr.shape[0]:
        raise ValueError(f"non-square matrix of shape {arr.shape}")
    return _unitary_within(arr, tol.atol)


def is_hermitian(m: npt.ArrayLike, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff M is square with ``‖M − M†‖ ≤ atol``."""
    arr = as_cmatrix(m)
    if arr.shape[0] != arr.shape[1]:
        return False
    return opnorm(arr - arr.conj().T) <= tol.atol


def dagger(m: npt.ArrayLike) -> CMatrix:
    return as_cmatrix(m).conj().T


def kron(*ops: npt.ArrayLike) -> CMatrix:
    """Kronecker product of one or more matrices, leftmost = most significant."""
    if not ops:
        raise ValueError("kron of no factors")
    out = as_cmatrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_cmatrix(op))
    return out


def herm_funcmat(
    h: npt.ArrayLike,
    f: Callable[[npt.NDArray[np.float64]], npt.ArrayLike],
) -> CMatrix:
    """Apply a real function to a Hermitian matrix spectrally: f(H) = V f(Λ) V†.

    ``f`` receives the (real) eigenvalue array and must return finite values on
    the whole spectrum; an eigenvalue outside the function's domain raises a
    ``ValueError`` naming the offending eigenvalue.
    """
    arr = as_cmatrix(h)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("herm_funcmat needs a square matrix")
    if not is_hermitian(arr):
        raise ValueError("matrix is not Hermitian within tolerance")
    # Numerical drift from products: symmetrize before the eigensolver.
    sym = (arr + arr.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(evals), dtype=complex)
    if fvals.shape != evals.shape:
        raise ValueError("f must map the eigenvalue array elementwise")
    bad = ~np.isfinite(fvals)
    if np.any(bad):
        raise ValueError(
            f"eigenvalue {evals[bad][0]!r} outside the domain of the function"
        )
    return (evecs * fvals) @ evecs.conj().T


def sqrt_one_minus_sq(h: npt.ArrayLike) -> CMatrix:
    """√(I − H²) for Hermitian ‖H‖ ≤ 1, clamping roundoff-negative eigenvalues."""

    def f(lam: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
        one_minus = 1.0 - lam**2
        if np.any(one_minus < -1e-12):
            raise ValueError("not subnormalized: an eigenvalue exceeds 1 in magnitude")
        return np.sqrt(np.clip(one_minus, 0.0, None))

    return herm_funcmat(h, f)


def bit_index(bits: str) -> int:
    """Index of the computational basis state for a bitstring (msb first)."""
    if bits == "":
        return 0
    if any(c not in "01" for c in bits):
        raise ValueError(f"not a bitstring: {bits!r}")
    return int(bits, 2)


def mat_embed_block(
    u: npt.ArrayLike, bra: str, ket: str, a: int, n: int
) -> CMatrix:
    """Extract the 2^n × 2^n block ⟨bra| U |ket⟩ over the leading a qubits."""
    arr = as_cmatrix(u)
    if len(bra) != a or len(ket) != a:
        raise ValueError("selector length must equal the ancilla count")
    dim = 2 ** (a + n)
    if arr.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {arr.shape}")
    sub = 2**n
    i = bit_index(bra) * sub
    j = bit_index(ket) * sub
    return arr[i : i + sub, j : j + sub].copy()


def permute_qubits(u: npt.ArrayLike, order: Sequence[int]) -> CMatrix:
    """Reorder the tensor factors of a multi-qubit operator.

    ``order[q]`` is the old position (0 = most significant) of the qubit that
    ends up at new position ``q``.
    """
    arr = as_cmatrix(u)
    nq = len(order)
    if arr.shape != (2**nq, 2**nq):
        raise ValueError("operator size does not match the qubit count")
    if sorted(order) != list(range(nq)):
        raise ValueError(f"not a permutation: {order}")
    new_idx = np.arange(2**nq)
    src = np.zeros(2**nq, dtype=np.int64)
    for q, old in enumerate(order):
        src |= ((new_idx >> (nq - 1 - q)) & 1) << (nq - 1 - old)
    return arr[np.ix_(src, src)]


def select_qubit(blocks: Sequence[Sequence[Optional[npt.ArrayLike]]], split: int = 0) -> CMatrix:
    """Σᵢⱼ |i⟩⟨j| ⊗ blocks[i][j] for a 2×2 grid of k-qubit blocks (``None`` = 0).

    The new qubit sits at position ``split``: the result acts on k+1 qubits
    laid out as [first ``split`` block qubits][new qubit][rest of the block].
    """
    cells = [[None if b is None else as_cmatrix(b) for b in row] for row in blocks]
    given = [b for row in cells for b in row if b is not None]
    if len(cells) != 2 or any(len(row) != 2 for row in cells) or not given:
        raise ValueError("need a 2x2 grid of blocks with at least one nonzero block")
    dim = given[0].shape[0]
    k = dim.bit_length() - 1
    if dim != 2**k or any(b.shape != (dim, dim) for b in given):
        raise ValueError("blocks must be square, of one power-of-two dimension")
    if not 0 <= split <= k:
        raise ValueError(f"split {split} outside 0..{k}")
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for i, row in enumerate(cells):
        for j, b in enumerate(row):
            if b is not None:
                _write_cell(out, split, i, j, b)
    return out


def _write_cell(out: CMatrix, split: int, i: int, j: int, block: CMatrix) -> None:
    """Write ``block`` as the |i⟩⟨j| cell of one qubit at position ``split`` of ``out``.

    Rows and columns of ``out`` are viewed as (first ``split`` qubits, the
    qubit, the rest), so the cell is written through one 6-axis view.
    """
    hi, lo = 2**split, out.shape[0] // 2 >> split
    out.reshape(hi, 2, lo, hi, 2, lo)[:, i, :, :, j, :] = block.reshape(hi, lo, hi, lo)


def random_hermitian(dim: int, norm: float, rng: np.random.Generator) -> CMatrix:
    """Random (GUE-direction) Hermitian matrix scaled to operator norm ``norm``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    cur = opnorm(h)
    if cur == 0.0:
        return np.zeros((dim, dim), dtype=complex)
    return h * (norm / cur)


def haar_unitary(dim: int, rng: np.random.Generator) -> CMatrix:
    """Haar-random unitary via complex Gaussian + QR with R-diagonal phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases
