"""End-to-end ancilla uncomputation: (1, a, 0) → (1, 1, ε) block encodings.

Pipeline (input M = H Hermitian, or M = A general, ‖M‖ ≤ 1−δ):

1. exact encodings of (I−M†M)/2, and for general A also (I−AA†)/2 (two
   queries per application);
2. QSVT with a minimax ½√x polynomial → √(I−M†M)/√8 (and √(I−AA†)/√8)
   within ε/9;
3. sub-normalized LCU with the input → sin(π/14)·U within ε/14, where U is
   the unitary dilation: U_H = Z⊗H + X⊗√(I−H²), or
   U_A = [[√(I−A†A), A†], [A, −√(I−AA†)]];
4. amplitude amplification by the degree-7 Chebyshev QSVT
   (T₇(sin(π/14)) = −1), then a global sign flip → U within ε;
5. the amplified unitary, with every working ancilla selected at 0, is the
   single-ancilla encoding of M (the dilation qubit is the one ancilla left).

Both cases run through one core, :func:`_uncompute`; the Hermitian case takes
one square root where the general case takes two.  Queries count the
input-encoding applications of the fully unrolled circuit.  A degree-d QSVT
uses its encoding exactly d times (Gilyén–Su–Low–Wiebe), so the count
follows from the degrees alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .encoding import (
    BlockEncoding,
    dilate_general,
    dilate_hermitian,
    normalize_selectors,
    verify_encoding,
)
from .lcu import SIN_PI_14, _i_minus_gram, _w_lcu, lcu_w_uh
from .linalg import (
    CMatrix,
    DEFAULT_TOL,
    S_GATE,
    as_cmatrix,
    dagger,
    is_hermitian,
    is_unitary,
    opnorm,
)
from .qsp import ChebPoly, PhaseFactors, _qsvt_product, approx_half_sqrt, qsvt_apply, solve_phases

OAA_ORDER = 7  # amplification degree is pinned by T₇(sin(π/14)) = −1


class EpsilonExceededError(RuntimeError):
    """The pipeline finished but missed the requested accuracy."""

    def __init__(self, eps_requested: float, eps_measured: float):
        super().__init__(
            f"measured error {eps_measured:.3e} exceeds requested {eps_requested:.3e}"
        )
        self.eps_requested = eps_requested
        self.eps_measured = eps_measured


@dataclass(frozen=True)
class UncomputeReport:
    """Accuracy and cost bookkeeping for one uncomputation run.

    Besides the final block error, two stage errors are measured against the
    dilation U the pipeline targets: ``eps_w`` = ‖blk(W) − sin(π/14)·U‖
    (budget ε/14) and ``eps_dilation`` = ‖U_amplified − U‖ (budget ε).
    """

    eps_requested: float
    eps_measured: float
    delta: float
    queries_vh: int
    ancillae_peak: int
    qsvt_degree: int = 0
    eps_w: float = 0.0
    eps_dilation: float = 0.0

    def __post_init__(self) -> None:
        if self.eps_measured > self.eps_requested:
            raise ValueError("report invariant violated: eps_measured > eps_requested")

    def to_row(self) -> dict:
        return {
            "delta": self.delta,
            "eps_requested": self.eps_requested,
            "eps_measured": self.eps_measured,
            "queries": self.queries_vh,
            "ancillae_peak": self.ancillae_peak,
        }


@lru_cache(maxsize=64)
def _half_sqrt_solution(delta_eff: float, eta: float) -> tuple[ChebPoly, PhaseFactors]:
    poly = approx_half_sqrt(delta_eff, eta)
    return poly, solve_phases(poly)


def _spectral_floor(delta: float) -> float:
    # spectrum of (I−M†M)/2 lies in [(1−(1−δ)²)/2, 1/2]
    return (1.0 - (1.0 - delta) ** 2) / 2.0


def _uncompute(
    enc: BlockEncoding,
    delta: float,
    eps: float,
    grams: list[CMatrix],
    build_w: Callable[[list[BlockEncoding]], BlockEncoding],
    dilate: Callable[[CMatrix], BlockEncoding],
    bra: str,
) -> tuple[BlockEncoding, UncomputeReport]:
    """Steps 1–5 on a selector-normalized encoding of M.

    ``grams`` holds the unitaries V whose (I − blk(V)†blk(V))/2 steps get the
    ½√x QSVT, each V being used once more bare inside W; ``build_w`` turns
    those square roots into W ≈ sin(π/14)·U with U = ``dilate(M).u``; ``bra``
    is the result's selector on the dilation qubit.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    target = enc.block()
    if opnorm(target) > 1.0 - delta + 1e-10:
        raise ValueError("‖M‖ exceeds 1 − delta")

    poly, phases = _half_sqrt_solution(_spectral_floor(delta), eps / 9.0)
    roots = [qsvt_apply(phases, _i_minus_gram(v, enc.a, enc.n)) for v in grams]
    w_be = build_w(roots)
    del roots
    w_block, work = w_be.block(), w_be.a  # working ancillae, all selected at 0
    # T₇ is built in W's own buffer, so the amplified unitary replaces W
    amplified = _qsvt_product(w_be.u, 2**w_be.n, np.zeros(OAA_ORDER + 1), overwrite=True)
    del w_be  # its u is spent
    np.negative(amplified, out=amplified)
    result = BlockEncoding(
        amplified, work + 1, enc.n, bra_sel="0" * work + bra, ket_sel="0" * (work + 1)
    )
    eps_measured = verify_encoding(result, target)
    if eps_measured > eps:
        raise EpsilonExceededError(eps, eps_measured)
    u_target = dilate(target).u
    report = UncomputeReport(
        eps_requested=eps,
        eps_measured=eps_measured,
        delta=delta,
        # the ±Φ QSVT applies (I − M†M)/2 2d times, each using V twice, and W
        # uses each V once more bare; T₇ applies W OAA_ORDER times
        queries_vh=OAA_ORDER * len(grams) * (4 * poly.degree + 1),
        ancillae_peak=result.a,
        qsvt_degree=poly.degree,
        eps_w=opnorm(w_block - SIN_PI_14 * u_target),
        eps_dilation=opnorm(single_ancilla_unitary(result) - u_target),
    )
    return result, report


def uncompute_hermitian(
    vh: BlockEncoding, delta: float, eps: float
) -> tuple[BlockEncoding, UncomputeReport]:
    """Map a (1, a, 0)-encoding of Hermitian H (‖H‖ ≤ 1−δ) to a (1, 1, ε) one.

    Returns the amplified encoding (all working ancillae selected at 0, the
    dilation qubit being the single surviving ancilla) plus a report.  Raises
    :class:`EpsilonExceededError` if the measured error misses ``eps``.
    """
    enc = normalize_selectors(vh)
    if not is_hermitian(enc.block(), DEFAULT_TOL):
        raise ValueError("encoded block is not Hermitian")
    # W = √8·s·X⊗√(I−H²)/√8 + s·Z⊗H, one bare V_H per W
    return _uncompute(
        enc, delta, eps, [enc.u], lambda roots: lcu_w_uh(enc, roots[0]), dilate_hermitian, "0"
    )


def single_ancilla_unitary(result: BlockEncoding) -> CMatrix:
    """Contract the working ancillae: the (n+1)-qubit matrix ≈ U_H (or U_A).

    The working ancillae lead the register, so this is the top-left corner of
    the already validated u.
    """
    if result.a < 1:
        raise ValueError("the result has no dilation qubit")
    dim = 2 ** (result.n + 1)
    return result.u[:dim, :dim].copy()


def _w_general(
    enc: BlockEncoding, root_right: BlockEncoding, root_left: BlockEncoding
) -> BlockEncoding:
    """sin(π/14)·U_A from √(I−A†A)/√8, √(I−AA†)/√8, V_A and V_A†.

    Register layout [prep][a2 ancillae][dilation qubit][n]: the branch
    diag(√(I−A†A), −√(I−AA†))/√8 gets weight √8·s and the branch
    |0⟩⟨1|⊗A† + |1⟩⟨0|⊗A weight s, with s = sin(π/14).
    """
    a2 = root_right.a
    pad = np.eye(2 ** (a2 - enc.a))
    off = [[None, np.kron(pad, dagger(enc.u))], [np.kron(pad, enc.u), None]]
    return _w_lcu([[root_right.u, None], [None, -root_left.u]], off, a2, enc.n)


def uncompute_general(
    va: BlockEncoding, delta: float, eps: float
) -> tuple[BlockEncoding, UncomputeReport]:
    """General-matrix variant: (1, a, 0)-encoding of A → (1, 1, ε) with
    A = ⟨1|·|0⟩ on the surviving dilation qubit.

    Builds √(I−A†A)/√8 and √(I−AA†)/√8 by QSVT on the exact (I−A†A)/2 and
    (I−AA†)/2 encodings (from V_A and V_A†), combines them with V_A, V_A†
    into sin(π/14)·U_A, and amplifies with T₇ as in the Hermitian pipeline.
    """
    enc = normalize_selectors(va)
    return _uncompute(
        enc, delta, eps, [enc.u, dagger(enc.u)],
        lambda roots: _w_general(enc, *roots), dilate_general, "1",
    )


def phase_correct_twisted(u_twisted: np.ndarray, delta: float, eps: float) -> CMatrix:
    """Recover e^{iθσx} from a twisted embeddable e^{iφσz/2} e^{iθσx} e^{−iφσz/2}.

    The input is treated as a single-ancilla block encoding of the scalar
    cos θ; the uncomputation pipeline rebuilds U_{cos θ} = cosθ·Z + sinθ·X and
    conjugation with S = √Z yields the embeddable component, all without
    knowing θ or φ.
    """
    u = as_cmatrix(u_twisted)
    if u.shape != (2, 2):
        raise ValueError("twisted embeddable must be a 2x2 matrix")
    if not is_unitary(u, DEFAULT_TOL):
        raise ValueError("input is not unitary")
    if abs(abs(u[0, 1]) - abs(u[1, 0])) > 1e-8:
        raise ValueError("off-diagonal magnitudes differ: not a twisted embeddable")
    if abs(u[0, 0] - u[1, 1]) > 1e-8 or abs(np.imag(u[0, 0])) > 1e-8:
        raise ValueError("diagonal is not a real cos θ: not a twisted embeddable")
    if abs(np.real(u[0, 0])) > 1.0 - delta + 1e-10:
        raise ValueError("|cos θ| exceeds 1 − delta")
    vh = BlockEncoding(u, 1, 0)
    result, _ = uncompute_hermitian(vh, delta, eps)
    u_cos = single_ancilla_unitary(result)
    return S_GATE @ u_cos @ S_GATE
