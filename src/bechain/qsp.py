"""Chebyshev approximation of ½√x, QSP phase solving, and QSVT application.

Convention: the single-qubit signal operator is the rotation form
``W(x) = [[x, i√(1−x²)], [i√(1−x²), x]]`` with interleaved ``e^{iφZ}``
rotations ("wx" convention), so the all-zero phase vector of length d+1
realizes the Chebyshev polynomial T_d.  Degree and parity are read off lengths:
d + 1 coefficients or d + 1 symmetric phases (Dong–Meng–Whaley–Lin, arXiv:2002.11649)
make a polynomial of degree d and parity d mod 2.  A solved phase vector Φ
realizes a real target polynomial p as ``Re⟨0|U_Φ(x)|0⟩ = p(x)``; the matrix-level lift
(:func:`qsvt_apply`) recovers the real part by averaging the ±Φ sequences on
one extra ancilla, so block-level results are convention independent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import chebyshev as np_cheb

from .encoding import BlockEncoding, normalize_selectors
from .lcu import lcu
from .linalg import CMatrix, HADAMARD, ROW_PANEL, kron

MAX_DEGREE = 512
_QSP_SUP_LIMIT = 1.0 - 1e-6
_LP_SUP_BOUND = 0.98
_LP_TARGET = 0.95  # an LP fit is kept if its minimax error is at most this fraction of η
_FIT_DOMAIN_MARGIN = 0.8
_MAX_RESTARTS = 10
_REMEZ_MAX_STEPS = 100
_GAUSS_NEWTON_MAX_STEPS = 100
_PARITY = ("even", "odd")  # indexed by degree mod 2


@dataclass(frozen=True)
class ChebPoly:
    """Real polynomial Σ_k coeffs[k]·T_k(x) of degree len(coeffs) − 1, whose
    coefficients of the other parity than the degree's vanish (within 1e-13)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError(f"coefficients must be a non-empty 1-D array, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        odd = self.degree % 2
        if np.any(np.abs(c[1 - odd :: 2]) > 1e-13):
            raise ValueError(f"{self.parity} polynomial has nonzero {_PARITY[odd - 1]} coefficients")

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def parity(self) -> str:
        return _PARITY[self.degree % 2]

    def __call__(self, x):
        return np_cheb.chebval(x, self.coeffs)

    def sup_norm(self) -> float:
        """max |p(x)| over 4001 equispaced points of [−1, 1]."""
        return float(np.max(np.abs(self(np.linspace(-1.0, 1.0, 4001)))))

    def rescaled(self, factor: float) -> "ChebPoly":
        return ChebPoly(self.coeffs * factor)


@dataclass(frozen=True)
class PhaseFactors:
    """QSP phases (radians) in the fixed "wx" convention, length degree+1."""

    phases: np.ndarray
    residual: float = 0.0

    def __post_init__(self) -> None:
        p = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "phases", p)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("phases must be a non-empty 1-D array")
        if not np.all(np.isfinite(p)):
            raise ValueError("phases must be finite")

    @property
    def degree(self) -> int:
        return self.phases.size - 1

    @property
    def parity(self) -> str:
        return _PARITY[self.degree % 2]


def chebyshev_phases(degree: int) -> PhaseFactors:
    """The all-zero phases, which realize T_d."""
    try:
        d = operator.index(degree)  # refuses 2.5, which int() would truncate
    except TypeError:
        d = None
    if isinstance(degree, bool) or d is None or d < 0:
        raise ValueError(f"degree must be a non-negative integer, got {degree!r}")
    return PhaseFactors(np.zeros(d + 1))


# ---------------------------------------------------------------------------
# Polynomial construction: minimax fit of ½√x on [δ, 1] by a Remez exchange.
# ---------------------------------------------------------------------------


def _cheb_design(x: np.ndarray, degree: int) -> np.ndarray:
    """Columns T_0(x), T_2(x), ..., T_degree(x) (even basis only)."""
    v = np_cheb.chebvander(x, degree)
    return v[:, 0 : degree + 1 : 2]


def _even_coeffs_to_full(c_even: np.ndarray, degree: int) -> np.ndarray:
    full = np.zeros(degree + 1)
    full[0 : degree + 1 : 2] = c_even
    return full


def _cheb_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    k = np.arange(count)
    t = np.cos(np.pi * (2 * k + 1) / (2 * count))
    return (hi + lo) / 2 + (hi - lo) / 2 * t


def _fit_rows(degree: int, lo_fit: float) -> tuple[np.ndarray, np.ndarray]:
    """The LP's fit rows: the even design at its nodes on [lo_fit, 1], and ½√x there."""
    x_fit = _cheb_nodes(lo_fit, 1.0, max(6 * (degree // 2 + 1), 90))
    return _cheb_design(x_fit, degree), 0.5 * np.sqrt(x_fit)


def _remez_reference(r: np.ndarray, size: int) -> Optional[np.ndarray]:
    """The largest |r| of each same-sign run of r, trimmed to ``size`` consecutive
    runs that keep the global maximum; None if r has fewer runs."""
    starts = np.flatnonzero(np.diff(r < 0)) + 1
    bounds = np.concatenate([[0], starts, [r.size]])
    if bounds.size - 1 < size:
        return None
    mag = np.abs(r)
    peaks = np.array([lo + np.argmax(mag[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])])
    first, last = 0, peaks.size  # drop the smaller end run until `size` are left
    while last - first > size:
        if mag[peaks[first]] < mag[peaks[last - 1]]:
            first += 1
        else:
            last -= 1
    return peaks[first:last]


def _half_sqrt_lp(degree: int, lo_fit: float, eta: float) -> Optional[np.ndarray]:
    """Even coefficients of the minimax fit over the fit rows, or None on failure.

    The even Chebyshev basis is a Haar system on [lo_fit, 1], so the minimax
    fit over the fit nodes is unique and equioscillates on ncoef + 1 of them.
    A discrete Remez exchange finds it: from the least-squares fit, take the
    reference of run peaks, solve [A_ref | ±1]·(c, E) = f_ref for the fit that
    levels the error there, and repeat until the reference repeats.  It is the
    linear program "minimize t subject to |A c − f| ≤ t on the fit nodes and
    |P| ≤ 0.98 on the bound nodes" whenever the bound rows are slack; if they
    are not, the fit is refused.  None also if the residual has too few sign
    runs, the exchange does not settle in 100 steps, or max|A c − f| > 0.95η.
    """
    ncoef = degree // 2 + 1
    a_fit, f = _fit_rows(degree, lo_fit)
    c = np.linalg.lstsq(a_fit, f, rcond=None)[0]
    alternation = (-1.0) ** np.arange(ncoef + 1)
    ref = None
    for _ in range(_REMEZ_MAX_STEPS):
        r = a_fit @ c - f
        new_ref = _remez_reference(r, ncoef + 1)
        if new_ref is None:
            return None
        if ref is not None and np.array_equal(new_ref, ref):
            break
        ref = new_ref
        system = np.column_stack([a_fit[ref], alternation])
        c = np.linalg.solve(system, f[ref])[:ncoef]
    else:
        return None
    x_bnd = _cheb_nodes(0.0, 1.0, max(10 * ncoef, 240))
    if np.max(np.abs(_cheb_design(x_bnd, degree) @ c)) > _LP_SUP_BOUND:
        return None
    if np.max(np.abs(r)) > _LP_TARGET * eta:
        return None
    return c


def _degree_ladder() -> list[int]:
    ladder = list(range(2, 41, 2)) + list(range(44, 81, 4))
    ladder += list(range(88, 161, 8)) + list(range(176, MAX_DEGREE + 1, 16))
    return ladder


def approx_half_sqrt(delta: float, eta: float) -> ChebPoly:
    """Even Chebyshev polynomial with ‖P − ½√x‖_[δ,1] ≤ η and ‖P‖_[−1,1] < 1.

    The fit domain extends to 0.8·δ so callers applying P to matrices whose
    spectrum dips slightly below δ stay inside the certified region.  Every
    rung of the degree ladder runs the exchange, and the first fit that also
    passes both checks on dense grids wins.  Raises if no degree up to 512
    meets the target accuracy.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if not 0.0 < eta <= 0.5:
        raise ValueError("eta must lie in (0, 1/2]")
    lo_fit = _FIT_DOMAIN_MARGIN * delta
    dense_fit = np.linspace(delta, 1.0, 10_000)
    dense_all = np.linspace(-1.0, 1.0, 20_001)
    best_err = np.inf
    for degree in _degree_ladder():
        c_even = _half_sqrt_lp(degree, lo_fit, eta)
        if c_even is None:
            continue
        coeffs = _even_coeffs_to_full(c_even, degree)
        err = float(np.max(np.abs(np_cheb.chebval(dense_fit, coeffs) - 0.5 * np.sqrt(dense_fit))))
        best_err = min(best_err, err)
        if err > eta:
            continue
        if float(np.max(np.abs(np_cheb.chebval(dense_all, coeffs)))) > _QSP_SUP_LIMIT:
            continue
        return ChebPoly(coeffs)
    raise ValueError(
        f"accuracy eta={eta} unreachable at degree cap {MAX_DEGREE}; "
        f"best sup-error achieved {best_err:.3e}"
    )


# ---------------------------------------------------------------------------
# QSP evaluation and the symmetric phase solver.
# ---------------------------------------------------------------------------


def _w_matrices(x: np.ndarray) -> np.ndarray:
    """(M, 2, 2) batch of rotation-convention signal operators W(x)."""
    s = np.sqrt(np.clip(1.0 - x**2, 0.0, None))
    w = np.zeros((x.size, 2, 2), dtype=complex)
    w[:, 0, 0] = x
    w[:, 1, 1] = x
    w[:, 0, 1] = 1j * s
    w[:, 1, 0] = 1j * s
    return w


def _qsp_scan(
    phases: np.ndarray, x: np.ndarray, keep_prefixes: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The QSP product scan P_j = e^{iφ₀Z}·W⋯W·e^{iφ_jZ} over j, and W(x).

    Returns every prefix, shape (d+1, M, 2, 2), if ``keep_prefixes``; else two
    alternating slots, with P_d = U_Φ(x) in slot d mod 2.  Each e^{iφZ} acts as
    a column scaling by (e^{iφ}, e^{−iφ}).
    """
    w = _w_matrices(x)
    cols = np.exp(1j * np.multiply.outer(phases, [1.0, -1.0]))
    slots = phases.size if keep_prefixes else 2
    prefix = np.empty((slots, x.size, 2, 2), dtype=complex)
    prefix[0] = np.diag(cols[0])
    for j in range(1, phases.size):
        cur = prefix[j % slots]
        np.matmul(prefix[(j - 1) % slots], w, out=cur)
        cur *= cols[j]
    return prefix, w


def _qsp_unitaries(phases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """U_Φ(x) at every point, shape (M, 2, 2), in O(M) memory."""
    return _qsp_scan(phases, x, keep_prefixes=False)[0][(phases.size - 1) % 2]


def qsp_eval(phi: PhaseFactors, x: float) -> CMatrix:
    """The 2×2 unitary U_Φ(x) = e^{iφ₀Z} Π_j W(x) e^{iφ_j Z}."""
    if not -1.0 <= x <= 1.0:
        raise ValueError("x must lie in [-1, 1]")
    return _qsp_unitaries(phi.phases, np.asarray([float(x)]))[0]


def qsp_poly_value(phi: PhaseFactors, x) -> np.ndarray:
    """The realized polynomial Re⟨0|U_Φ(x)|0⟩, vectorized over x."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return np.real(_qsp_unitaries(phi.phases, xs)[:, 0, 0])


def _residual_and_jac(
    free: np.ndarray, fold: np.ndarray, xs: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual Re⟨0|U_Φ(x)|0⟩ − target at xs, and its Jacobian in the free phases.

    ``fold[j]`` = min(j, d − j) indexes the free phases, so Φ = free[fold] is a
    palindrome.  As W is symmetric and each e^{iφZ} diagonal, the suffix
    S_j = W·e^{iφ_{j+1}Z}⋯W·e^{iφ_dZ} is then (P_{d−j−1}·W)ᵀ, with S_d = I, so
    one prefix scan gives every d⟨0|U|0⟩/dφ_j = (P_j·iZ·S_j)[0,0]; the fold
    sums the columns of φ_j and φ_{d−j}.
    """
    prefix, w = _qsp_scan(free[fold], xs, keep_prefixes=True)
    row0 = prefix[:, :, 0, :]  # (d+1, M, 2)
    # S_j[:, 0] = row 0 of P_{d−j−1}·W, for j = 0 … d−1; S_d[:, 0] = (1, 0)
    s_col = np.zeros_like(row0)
    s_col[:-1] = np.matmul(row0[-2::-1, :, None, :], w)[:, :, 0, :]
    s_col[-1, :, 0] = 1.0
    jac_full = np.real(1j * (row0[..., 0] * s_col[..., 0] - row0[..., 1] * s_col[..., 1]))
    jac = np.zeros((free.size, xs.size))
    np.add.at(jac, fold, jac_full)
    return np.real(row0[-1, :, 0]) - target, jac.T


def _gauss_newton(
    free: np.ndarray, fold: np.ndarray, xs: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Gauss–Newton steps v ← v − lstsq(J, r) while ‖r‖ falls, at most 100."""
    res, jac = _residual_and_jac(free, fold, xs, target)
    norm = np.linalg.norm(res)
    for _ in range(_GAUSS_NEWTON_MAX_STEPS):
        trial = free - np.linalg.lstsq(jac, res, rcond=None)[0]
        trial_res, trial_jac = _residual_and_jac(trial, fold, xs, target)
        trial_norm = np.linalg.norm(trial_res)
        if not trial_norm < norm:
            break
        free, res, jac, norm = trial, trial_res, trial_jac, trial_norm
    return free


def solve_phases(p: ChebPoly) -> PhaseFactors:
    """Symmetric phases with Re⟨0|U_Φ(x)|0⟩ = p(x) to ≤ 1e−8 on a dense grid.

    Gauss–Newton least squares with an analytic Jacobian from the
    (π/4, 0, …, 0, π/4) seed, with seeded random restarts; T_d gets its exact
    all-zero phases.  Targets must have sup-norm at most 1; rescale first if needed.
    Convergence is measured, not guaranteed: random targets at sup-norm 0.999
    converge at degrees 20, 51 and 100 (``tests/test_qsp.py``), while at
    sup-norm 1 − 1e−6 every restart failed at degrees 20, 33, 51 and 100, so such
    targets raise ``RuntimeError``.
    """
    degree = p.degree
    sup = p.sup_norm()
    if sup > 1.0 + 1e-12:
        raise ValueError(f"sup-norm {sup} exceeds 1; rescale the polynomial first")

    # p = T_d: the all-zero phases give ⟨0|U|0⟩ = T_d exactly, imaginary part included
    if np.all(np.abs(p.coeffs - np.eye(1, degree + 1, degree)[0]) <= 1e-14):
        zero = chebyshev_phases(degree)
        return PhaseFactors(zero.phases, residual=_dense_residual(zero, p))

    nfree = (degree + 2) // 2
    j = np.arange(degree + 1)
    fold = np.minimum(j, degree - j)
    m = max(degree + 1, nfree + 8)
    xs = np.cos(np.pi * (2 * np.arange(m) + 1) / (4 * m))  # nodes in (0, 1)
    target = np.asarray(p(xs), dtype=float)

    seed_free = np.zeros(nfree)
    seed_free[0] = np.pi / 4
    rng = np.random.default_rng(271828)
    best: tuple[float, np.ndarray] | None = None
    for restart in range(_MAX_RESTARTS):
        x0 = seed_free if restart == 0 else seed_free + 0.3 * rng.standard_normal(nfree)
        phases = _gauss_newton(x0, fold, xs, target)[fold]
        res = _dense_residual(PhaseFactors(phases), p)
        if best is None or res < best[0]:
            best = (res, phases)
        if res <= 5e-9:
            return PhaseFactors(phases, residual=res)
    assert best is not None
    if best[0] <= 1e-8:
        return PhaseFactors(best[1], residual=best[0])
    raise RuntimeError(
        f"phase solver did not converge after {_MAX_RESTARTS} restarts; "
        f"best residual {best[0]:.3e}"
    )


def _dense_residual(phi: PhaseFactors, p: ChebPoly) -> float:
    grid = np.cos(np.pi * np.arange(401) / 400)
    return float(np.max(np.abs(qsp_poly_value(phi, grid) - p(grid))))


# ---------------------------------------------------------------------------
# QSVT: apply a QSP polynomial to the singular values of a block encoding.
# ---------------------------------------------------------------------------


def _reflection_phases(rot_phases: np.ndarray) -> tuple[np.ndarray, complex]:
    """Convert wx-convention phases to reflection-convention phases.

    U_rot,Φ = i^d · e^{i(φ₀−π/4)Z} W_refl e^{i(φ₁−π/2)Z} ⋯ W_refl e^{i(φ_d−π/4)Z}
    for d ≥ 1; at d = 0 both sequences are the single e^{iφ₀Z}.
    """
    d = rot_phases.size - 1
    refl = np.array(rot_phases, dtype=float)
    if d >= 1:
        refl[0] -= np.pi / 4
        refl[-1] -= np.pi / 4
        refl[1:-1] -= np.pi / 2
    return refl, 1j**d


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """stack[0] @ stack[1] @ ⋯ in ⌈log₂ n⌉ batched products; I for an empty stack."""
    if not len(stack):
        return np.eye(stack.shape[-1], dtype=complex)
    while len(stack) > 1:
        paired = stack[: len(stack) - 1 : 2] @ stack[1::2]
        stack = np.concatenate([paired, stack[-1:]]) if len(stack) % 2 else paired
    return stack[0]


def _qsvt_product(
    u: CMatrix,
    block_dim: int,
    rot_phases: np.ndarray,
    overwrite: bool = False,
) -> CMatrix:
    """Alternating product R₀ ⋯ U† R_{d−1} U R_d times i^d, R = e^{iφ(2Π−I)}.

    Π keeps the first ``block_dim`` = b rows/columns (the ⟨0^a| block).  The
    rightmost signal factor is U, so even degrees give polynomials in M†M.
    With E the first b unit columns, R(φ) = e^{−iφ}(I + (e^{2iφ}−1)·E·E†), and
    each pair U·R·U† (odd d, c = U[:, :b]) or U†·R·U (even d, c = U[:b, :]†)
    is e^{−iφ}(I + (e^{2iφ}−1)·c·c†) (Gilyén–Su–Low–Wiebe).  This needs
    U·U† = I, which every caller's ``BlockEncoding`` unitary meets to 1e-10.
    So every factor is a scalar times the identity off the span of the
    orthonormal frame B = [E, q], q the QR basis of c's rows below b, and a
    small unitary on it.  The product is σ·(I + B·M·B†), with M + I the ordered
    product of those r × r unitaries (r ≤ 2b) in ⌈log₂(d/2)⌉ batched products.
    (On the frame [E, c] itself M drifts along B's null space once 2b > dim.)
    One pass over U then gives σ·(U + B·M·B†U)·R_d for odd d and
    σ·(I + B·M·B†) for even d: at most 2·b·dim² multiply-adds, whatever the
    degree.  With ``overwrite`` and odd d the product is built in u's own
    buffer, which is read only before it is written: the result is
    bit-identical and u is spent (even d leaves u as it is).
    """
    refl, gphase = _reflection_phases(rot_phases)
    d, dim, b = refl.size - 1, u.shape[0], block_dim
    odd = d % 2
    c = u[:, :b] if odd else u[:b].conj().T
    q, t = np.linalg.qr(c[b:])  # c = E·c[:b] + q·t
    k = np.concatenate([c[:b], t])  # c in the frame's coordinates
    eye = np.eye(k.shape[0])
    # after R₀, one factor per pair and the R that follows it: (I + (e^{2iφ}−1)·k·k†)·R
    rot = np.ones((d // 2, 1, eye.shape[0]), dtype=complex)
    rot[:, 0, :b] = np.exp(2j * refl[2 : d + 1 - odd : 2])[:, None]
    alpha = np.expm1(2j * refl[1 : d - odd : 2])
    m = _ordered_product((eye + alpha[:, None, None] * (k @ k.conj().T)) * rot)
    m[:b] *= np.exp(2j * refl[0])
    m -= eye
    scale = gphase * np.prod(np.exp(-1j * refl[: d + 1 - odd]))
    if odd:
        out = u if overwrite else u.copy()
        proj = m @ np.concatenate([u[:b], q.conj().T @ u[b:]])  # M·B†U
        scale = scale * np.where(np.arange(dim) < b, np.exp(1j * refl[d]), np.exp(-1j * refl[d]))
    else:
        out = np.eye(dim, dtype=complex)
        proj = np.concatenate([m[:, :b], m[:, b:] @ q.conj().T], axis=1)  # M·B†
    out[:b] += proj[:b]
    for r in range(b, dim, ROW_PANEL):  # the q·(…) update, no full-size temporary
        out[r : r + ROW_PANEL] += q[r - b : r - b + ROW_PANEL] @ proj[b:]
    return np.multiply(out, scale, out=out)


def qsvt_apply(phi: PhaseFactors, be: BlockEncoding) -> BlockEncoding:
    """Apply the solved polynomial to the singular values of be's block.

    Returns an encoding with one extra ancilla whose block is the real target
    polynomial applied to the block's singular values — W·P(Σ)·V† for odd
    parity, V·P(Σ)·V† for even — which for Hermitian blocks is the spectral
    application P(M).  The real part is the ±Φ average ½(U_Φ + U_{−Φ}): the
    LCU of the two sequences (each one low-rank pass over be's unitary) with a
    Hadamard prep on the new qubit.
    """
    enc = normalize_selectors(be)
    block_dim = 2**enc.n
    seq_plus = _qsvt_product(enc.u, block_dim, phi.phases)
    if np.all(np.abs(phi.phases) < 1e-15):
        u_out = kron(np.eye(2), seq_plus)
    else:
        seq_minus = _qsvt_product(enc.u, block_dim, -phi.phases)
        u_out = lcu(HADAMARD, HADAMARD, (seq_plus, seq_minus))
    return BlockEncoding(u_out, enc.a + 1, enc.n)
