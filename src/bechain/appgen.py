"""Near-identity block-encoding sequences from the two motivating applications.

Trotterized Hamiltonian simulation and Dyson time-marching both factor the
evolution into K short-time operators with ‖I − U_step‖ = O(1/K); the
controlled embedding |0⟩⟨0|⊗U_step + |1⟩⟨1|⊗I carries that deviation over to
the block encoding, which is exactly the regime the modular-addition gadget
needs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .encoding import BlockEncoding, dilate_general
from .linalg import (
    CMatrix,
    DEFAULT_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Tolerance,
    as_cmatrix,
    herm_funcmat,
    is_hermitian,
    is_unitary,
    opnorm,
    select_qubit,
)

_PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class TrotterSpec:
    """Hamiltonian terms (each ‖H_i‖ ≤ 1), total time, and step count."""

    terms: tuple[CMatrix, ...]
    t: float
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(as_cmatrix(h) for h in self.terms))
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        if not self.terms:
            raise ValueError("need at least one Hamiltonian term")
        object.__setattr__(self, "k", _field(vars(self), "k", _count))
        if self.k < 1:
            raise ValueError("step count must be positive")
        dims = {h.shape for h in self.terms}
        if len(dims) != 1:
            raise ValueError("terms must share a common dimension")
        for h in self.terms:
            if not is_hermitian(h, DEFAULT_TOL):
                raise ValueError("every term must be Hermitian")
            if opnorm(h) > 1.0 + 1e-10:
                raise ValueError("term norm exceeds 1")


@dataclass(frozen=True)
class DysonSpec:
    """Matrix-valued generator A(t) with ‖A(t)‖ ≤ lam, marched over K intervals."""

    a_of_t: Callable[[float], np.ndarray]
    lam: float
    t_total: float
    k: int
    micro_steps: int = 256

    def __post_init__(self) -> None:
        for name in ("k", "micro_steps"):
            object.__setattr__(self, name, _field(vars(self), name, _count))
        if self.k < 1:
            raise ValueError("interval count must be positive")
        if self.micro_steps < 32:
            raise ValueError("micro_steps must be at least 32")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be finite and non-negative")
        if not math.isfinite(self.t_total):
            raise ValueError("t_total must be finite")


def controlled_embedding(u_step: CMatrix) -> BlockEncoding:
    """|0⟩⟨0|⊗U + |1⟩⟨1|⊗I: a 1-ancilla encoding inheriting ‖I−U‖ exactly."""
    u = as_cmatrix(u_step)
    dim = u.shape[0]
    return BlockEncoding(select_qubit([[u, None], [None, np.eye(dim)]]), 1, int(np.log2(dim)))


def trotter_sequence(spec: TrotterSpec) -> list[BlockEncoding]:
    """K repetitions of the first-order splitting, one encoding per factor.

    The list is in application order: entry 0 is applied first, so the
    product of the blocks (last·…·first) matches the first-order Trotter
    approximation of e^{−iHt}.  Every step repeats the same factors, so each
    term's encoding is built and validated once and the list holds K
    references to each of those ``len(terms)`` objects.
    """
    dt = spec.t / spec.k
    step = [
        controlled_embedding(herm_funcmat(h, lambda lam: np.exp(-1j * dt * lam)))
        for h in spec.terms
    ]
    return step * spec.k


# Largest scaled norm ‖h·A‖/2^s the Taylor kernel expands without squaring.
_TAYLOR_THETA = 0.5


def _expm1_stack(a: np.ndarray, h: float, norm: float) -> np.ndarray:
    """exp(h·A) − I for every matrix of a stack with ‖A_i‖ ≤ norm.

    Taylor series with scaling and squaring: h·A is scaled by 2^−s to norm at
    most ξ ≤ 1/2, and the degree m is the least whose tail bound
    ξ^{m+1}/(m+1)!·e^ξ is below the unit roundoff.  The result stays in the
    exp − I form, squared as 2E + E², so a near-identity step keeps the digits
    that adding I would round away.
    """
    bound = norm * abs(h)
    if not math.isfinite(bound / _TAYLOR_THETA):
        raise ValueError(f"‖A‖·h = {norm!r}·{abs(h)!r} is too large to scale and square")
    squarings = math.frexp(bound / _TAYLOR_THETA)[1] if bound > _TAYLOR_THETA else 0
    x = a * (h * 2.0**-squarings)
    xi = bound * 2.0**-squarings
    degree, tail = 0, xi
    while tail * math.exp(xi) > 2.0**-53:
        degree += 1
        tail *= xi / (degree + 1)
    eye = np.eye(x.shape[-1])
    # Horner: X(I + X/2(I + … (I + X/m))), its innermost factor X/m taken as is
    e = x / degree if degree else np.zeros_like(x)
    for k in range(degree - 1, 0, -1):
        e = (x @ (eye + e)) / k
    for _ in range(squarings):
        e = 2.0 * e + e @ e
    return e


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """(I + E_{n−1})⋯(I + E_0) by pairwise batched products, later step on the left.

    Each round multiplies neighbours (I + E_{2i+1})(I + E_{2i}) in the exp − I
    form; an odd last factor moves up to the next round unchanged.
    """
    while len(e) > 1:
        later, earlier = e[1::2], e[: len(e) - 1 : 2]
        pairs = later + earlier + later @ earlier
        e = np.concatenate([pairs, e[-1:]]) if len(e) % 2 else pairs
    return np.eye(e.shape[-1]) + e[0]


def _certify_bound(a: np.ndarray, lam: float) -> bool:
    """Whether ‖A_i‖ ≤ lam for every matrix of a stack, by one batched Cholesky.

    With B = A/lam, I − B†B is positive definite exactly when ‖B‖ < 1, so a
    factorization that succeeds with a finite factor proves the bound for the
    whole stack without computing any norm.  A failure proves nothing: roundoff
    at ‖A‖ = lam can break it, and the caller then measures the norms.
    """
    b = a / lam
    try:
        factor = np.linalg.cholesky(np.eye(a.shape[-1]) - b.conj().transpose(0, 2, 1) @ b)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def dyson_propagators(spec: DysonSpec) -> list[CMatrix]:
    """Ξ_j over each interval by a midpoint-exponential micro-step product.

    Each interval's micro-steps are one stack: one certificate of
    ‖A(t)‖ ≤ λ′ = lam + 1e-8, one batched exponential and a pairwise product.
    The certificate is a single batched Cholesky factorization; only when it
    fails are the norms measured by SVD, to refuse the stack and name the first
    offending t, or to accept it when the failure was roundoff at λ′.  The
    exponential's degree follows min(λ′, largest Frobenius norm) after a
    certificate, both upper bounds on every ‖A(t)‖, and the largest measured
    norm after an SVD.  Every A(t) must have the first one's shape.
    """
    dt = spec.t_total / spec.k
    h = dt / spec.micro_steps
    lam = spec.lam + 1e-8
    out: list[CMatrix] = []
    for j in range(spec.k):
        t_mid = [j * dt + (s + 0.5) * h for s in range(spec.micro_steps)]
        values = [spec.a_of_t(t) for t in t_mid]
        shape = out[0].shape if out else np.shape(values[0])
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
            raise ValueError(f"A(t) must be a non-empty square matrix, got shape {shape}")
        try:
            a_mid = np.asarray(values, dtype=complex)
        except ValueError:  # values of several shapes, or not numbers
            a_mid = None
        if a_mid is None or a_mid.shape[1:] != shape:
            for t, value in zip(t_mid, values):
                if np.shape(value) != shape:
                    raise ValueError(f"A(t) has shape {np.shape(value)} at t = {t}, not {shape}")
            raise ValueError("A(t) must be a complex matrix")
        finite = np.isfinite(a_mid).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"A(t) has non-finite entries at t = {t_mid[int(np.argmin(finite))]}")
        if _certify_bound(a_mid, lam):
            norm = min(lam, float(np.linalg.norm(a_mid, axis=(1, 2)).max()))
        else:
            norms = np.linalg.svd(a_mid, compute_uv=False)[:, 0]
            over = norms > lam
            if over.any():
                raise ValueError(f"‖A(t)‖ exceeds lam at t = {t_mid[int(np.argmax(over))]}")
            norm = float(norms.max())
        out.append(_ordered_product(_expm1_stack(a_mid, h, norm)))
    return out


def dyson_sequence(spec: DysonSpec) -> list[BlockEncoding]:
    """Encodings of the interval propagators Ξ_j, in application order.

    Unitary propagators (anti-Hermitian generators) get the controlled
    1-ancilla embedding; subnormalized non-unitary ones fall back to the
    Hermitian dilation with its ⟨1|·|0⟩ selector convention.
    """
    encodings: list[BlockEncoding] = []
    for xi in dyson_propagators(spec):
        if is_unitary(xi, Tolerance(1e-9)):
            encodings.append(controlled_embedding(xi))
        elif opnorm(xi) <= 1.0 + 1e-12:
            encodings.append(dilate_general(xi))
        else:
            raise ValueError("propagator is neither unitary nor subnormalized")
    return encodings


# ---------------------------------------------------------------------------
# JSON-configurable generator families.
# ---------------------------------------------------------------------------


def _field(cfg: dict, name: str, convert: Callable, *default):
    """``convert(cfg[name])``, or the default if one is given and the field is
    absent; a missing field or a bad value raises a ValueError that names it."""
    try:
        return convert(cfg[name]) if name in cfg or not default else default[0]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad or missing field {name!r} ({type(exc).__name__}: {exc})") from None


def _count(value: object) -> int:
    """An integral count: ``operator.index`` refuses 16.9, where ``int`` would
    truncate it, and a bool, which it would take for 0 or 1, is refused too."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def matrix_from_json(entries: Sequence[Sequence[Sequence[float]]]) -> CMatrix:
    """Parse a matrix given as nested [re, im] pairs."""
    pairs = np.array(entries, dtype=float)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"a matrix is rows of [re, im] pairs, got shape {pairs.shape}")
    return as_cmatrix(pairs.view(complex)[..., 0])


def trotter_spec_from_json(cfg: dict) -> TrotterSpec:
    terms = _field(cfg, "terms", lambda ms: tuple(map(matrix_from_json, ms)))
    return TrotterSpec(terms, _field(cfg, "t", float), _field(cfg, "K", _count))


def _family_callable(cfg: dict) -> tuple[Callable[[float], CMatrix], float]:
    family = _field(cfg, "family", str)
    if family == "constant":
        mat = _field(cfg, "matrix", matrix_from_json)
        return (lambda t: mat), opnorm(mat)
    if family == "cosine":
        mat = _field(cfg, "matrix", matrix_from_json)
        omega = _field(cfg, "omega", float, 1.0)
        phase = _field(cfg, "phase", float, 0.0)
        return (lambda t: np.cos(omega * t + phase) * mat), opnorm(mat)
    if family == "two_term_pauli":
        p1 = _field(cfg, "pauli1", _PAULIS.__getitem__, PAULI_X)
        p2 = _field(cfg, "pauli2", _PAULIS.__getitem__, PAULI_Z)
        c1 = _field(cfg, "c1", float, 0.5)
        c2 = _field(cfg, "c2", float, 0.5)
        omega = _field(cfg, "omega", float, 1.0)

        def a_of_t(t: float) -> CMatrix:
            return -1j * (c1 * np.cos(omega * t) * p1 + c2 * np.sin(omega * t) * p2)

        return a_of_t, abs(c1) + abs(c2)
    raise ValueError(f"unknown generator family {family!r}")


def dyson_spec_from_json(cfg: dict) -> DysonSpec:
    a_of_t, lam_auto = _family_callable(_field(cfg, "generator", lambda g: g))
    return DysonSpec(
        a_of_t,
        _field(cfg, "lam", float, lam_auto),
        _field(cfg, "T", float),
        _field(cfg, "K", _count),
        _field(cfg, "micro_steps", _count, 256),
    )
