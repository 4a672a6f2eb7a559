"""Multiple-coherent-measurement circuits and compression gadgets.

An MCM circuit interleaves K block encodings (shared ancilla register, block
selected at 0^a) with m-qubit counter unitaries V_i applied controlled on the
ancilla register being outside 0^a, followed by a final m-qubit unitary Q:

    U = (Q ⊗ U_K) · Π_{i=K-1..1} [ (I⊗Π₀ + V_i⊗Π_⊥) · (I_m ⊗ U_i) ]

Register layout is [measurement m][encoding ancillae a][system n], most
significant first.  One column kernel carries input columns through the
layers: ``corner_columns`` carries the 2^n columns U_MCM·(|0^{m+a}⟩⊗I),
whose first 2^n rows are the corner ⟨0^{m+a}|·|0^{m+a}⟩ of ``embe_block``,
and ``mcm_unitary`` carries all of them.  The p-MACG leakage is
summed by enumeration or by an O(K·2^p) recursion over failure-count classes.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from itertools import combinations, product
from typing import Literal, Sequence

import numpy as np

from .encoding import MAX_QUBITS, BlockEncoding, deviation_profile, normalize_selectors
from .linalg import CMatrix, DEFAULT_TOL, as_cmatrix, dagger, is_unitary, kron, opnorm

ENUMERATION_CAP = 17
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows exactly past it


def _common_registers(encodings: Sequence[BlockEncoding]) -> tuple[int, int]:
    if not encodings:
        raise ValueError("need at least one block encoding")
    n, a = encodings[0].n, encodings[0].a
    if any(be.n != n or be.a != a for be in encodings):
        raise ValueError("all encodings must share the same (n, a) registers")
    return n, a


@dataclass(frozen=True)
class MCMCircuit:
    """The (V⃗, Q) parameterization of an MCM circuit over K block encodings."""

    encodings: tuple[BlockEncoding, ...]
    m: int
    v_list: tuple[CMatrix, ...]
    q: CMatrix

    def __post_init__(self) -> None:
        encs = tuple(normalize_selectors(be) for be in self.encodings)
        object.__setattr__(self, "encodings", encs)
        # gadgets pass one increment K − 1 times: convert and validate each
        # distinct matrix once
        distinct = {key: as_cmatrix(v) for key, v in {id(v): v for v in self.v_list}.items()}
        object.__setattr__(self, "v_list", tuple(distinct[id(v)] for v in self.v_list))
        object.__setattr__(self, "q", as_cmatrix(self.q))
        n, a = _common_registers(encs)
        k = len(encs)
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.m == 0 and k > 1:
            raise ValueError("m = 0 is legal only for K = 1")
        if self.m + a + n > MAX_QUBITS:
            raise ValueError("total register exceeds the dimension cap")
        if len(self.v_list) != k - 1:
            raise ValueError(f"expected {k - 1} interleaved unitaries, got {len(self.v_list)}")
        dm = 2**self.m
        for v in distinct.values():
            if v.shape != (dm, dm) or not is_unitary(v, DEFAULT_TOL):
                raise ValueError("every V_i must be an m-qubit unitary")
        if self.q.shape != (dm, dm) or not is_unitary(self.q, DEFAULT_TOL):
            raise ValueError("Q must be an m-qubit unitary")

    @property
    def n(self) -> int:
        return self.encodings[0].n

    @property
    def a(self) -> int:
        return self.encodings[0].a


@dataclass(frozen=True)
class MCMRaw:
    """The overparameterized (W⃗, G⃗, B⃗) form of an MCM circuit."""

    encodings: tuple[BlockEncoding, ...]
    m: int
    w_list: tuple[CMatrix, ...]  # K entries, W_j accompanies U_{j+1}
    g_list: tuple[CMatrix, ...]  # K−1 entries
    b_list: tuple[CMatrix, ...]  # K−1 entries

    def __post_init__(self) -> None:
        encs = tuple(normalize_selectors(be) for be in self.encodings)
        object.__setattr__(self, "encodings", encs)
        for name in ("w_list", "g_list", "b_list"):
            object.__setattr__(self, name, tuple(as_cmatrix(x) for x in getattr(self, name)))
        _common_registers(encs)
        k = len(encs)
        if len(self.w_list) != k or len(self.g_list) != k - 1 or len(self.b_list) != k - 1:
            raise ValueError("parameter list lengths must be (K, K-1, K-1)")
        dm = 2**self.m
        for x in (*self.w_list, *self.g_list, *self.b_list):
            if x.shape != (dm, dm) or not is_unitary(x, DEFAULT_TOL):
                raise ValueError("all raw parameters must be m-qubit unitaries")


def _mcm_columns(circ: MCMCircuit, state: np.ndarray) -> np.ndarray:
    """Carry ``state`` (encoding-register row, counter index, input column)
    through U_1, then for each i the V_i mix on the ancilla-≠-0 rows and
    U_{i+1}, and finally Q: O(2^{m+a+n}·c·(2^{a+n} + 2^m)) per layer.
    """
    rows, dn = state.shape[0], 2**circ.n
    state = (circ.encodings[0].u @ state.reshape(rows, -1)).reshape(state.shape)
    for v, be in zip(circ.v_list, circ.encodings[1:]):
        state[dn:] = v @ state[dn:]
        state = (be.u @ state.reshape(rows, -1)).reshape(state.shape)
    return circ.q @ state


def mcm_unitary(circ: MCMCircuit) -> CMatrix:
    """The full 2^{m+a+n} unitary implemented by the circuit."""
    dim = 2 ** (circ.m + circ.a + circ.n)
    cols = np.eye(dim, dtype=complex).reshape(2**circ.m, -1, dim).transpose(1, 0, 2)
    return _mcm_columns(circ, cols).transpose(1, 0, 2).reshape(dim, dim)


def raw_unitary(raw: MCMRaw) -> CMatrix:
    """Direct evaluation of the overparameterized (W⃗, G⃗, B⃗) circuit."""
    n, a = _common_registers(raw.encodings)
    eye_m = np.eye(2**raw.m)
    anc0 = np.arange(2 ** (a + n)) < 2**n  # the rows with the ancillae at 0^a
    p0, pp = np.diag(anc0), np.diag(~anc0)
    out = kron(raw.w_list[0], raw.encodings[0].u)
    for j in range(1, len(raw.encodings)):
        cb = kron(eye_m, p0) + kron(raw.b_list[j - 1], pp)
        cg = kron(raw.g_list[j - 1], p0) + kron(eye_m, pp)
        out = kron(raw.w_list[j], raw.encodings[j].u) @ cg @ cb @ out
    return out


def mcm_from_raw(raw: MCMRaw) -> MCMCircuit:
    """Constructive simplification (W⃗, G⃗, B⃗) → (V⃗, Q), exact to roundoff.

    Each layer (G_j⊗Π₀)(B_j⊗Π_⊥) factors as (G_j⊗I)·C_{Π_⊥}(G_j†B_j); the
    G_j merges into the W to its left, and the accumulated pure-m unitaries
    commute through the controlled layers by conjugating their V's.
    """
    k = len(raw.encodings)
    vstar = [dagger(g) @ b for g, b in zip(raw.g_list, raw.b_list)]
    wprime = [raw.w_list[0]] + [
        raw.w_list[j] @ raw.g_list[j - 1] for j in range(1, k)
    ]
    omega = np.eye(2**raw.m, dtype=complex)
    v_final: list[CMatrix] = []
    for i in range(k - 1):
        omega = wprime[i] @ omega
        v_final.append(dagger(omega) @ vstar[i] @ omega)
    q = wprime[k - 1] @ omega
    return MCMCircuit(raw.encodings, raw.m, tuple(v_final), q)


def corner_columns(circ: MCMCircuit) -> CMatrix:
    """U_MCM·(|0^{m+a}⟩⊗I_{2^n}): the 2^n corner columns with every row."""
    dn = 2**circ.n
    cols = np.zeros((2 ** (circ.a + circ.n), 2**circ.m, dn), dtype=complex)
    cols[:dn, 0, :] = np.eye(dn)
    return _mcm_columns(circ, cols).transpose(1, 0, 2).reshape(-1, dn)


def embe_block(circ: MCMCircuit) -> CMatrix:
    """The 2^n block ⟨0^{m+a}| U_MCM |0^{m+a}⟩: the first 2^n rows of the corner columns."""
    return corner_columns(circ)[: 2**circ.n]


def add_unitary(p: int) -> CMatrix:
    """The cyclic increment |x⟩ ↦ |x+1 mod 2^p⟩ on p qubits."""
    if not 1 <= p <= 6:
        raise ValueError("p must lie in [1, 6]")
    dim = 2**p
    m = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        m[(x + 1) % dim, x] = 1.0
    return m


def gadget_naive(encodings: Sequence[BlockEncoding]) -> MCMCircuit:
    """Naive EMBE: one measurement ancilla per intermediate measurement."""
    k = len(encodings)
    if k < 2:
        raise ValueError("need at least two encodings")
    m = k - 1
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    v_list = []
    for i in range(m):
        ops = [x if w == i else np.eye(2) for w in range(m)]
        v_list.append(kron(*ops))
    return MCMCircuit(tuple(encodings), m, tuple(v_list), np.eye(2**m, dtype=complex))


def gadget_lw19(encodings: Sequence[BlockEncoding]) -> MCMCircuit:
    """The exact compression gadget: the p-MACG at p = m = ⌈log₂K⌉."""
    if len(encodings) < 2:
        raise ValueError("need at least two encodings")
    return gadget_pmacg(encodings, math.ceil(math.log2(len(encodings))))


def gadget_pmacg(encodings: Sequence[BlockEncoding], p: int) -> MCMCircuit:
    """The p-qubit modular-addition compression gadget (mod-2^p increments)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    k = len(encodings)
    if k < 2:
        raise ValueError("need at least two encodings")
    add = add_unitary(p)
    return MCMCircuit(tuple(encodings), p, tuple([add] * (k - 1)), np.eye(2**p, dtype=complex))


def block_product(encodings: Sequence[BlockEncoding]) -> CMatrix:
    """A_K ⋯ A_2 A_1 from the encodings' blocks directly."""
    encs = [normalize_selectors(be) for be in encodings]
    n, _ = _common_registers(encs)
    dn = 2**n
    blocks = np.stack([be.u[:dn, :dn] for be in encs])  # each ⟨0^a|U_i|0^a⟩, contiguous
    out = blocks[0]
    for block in blocks[1:]:
        out = block @ out
    return out


def bad_sequence_oracle(encodings: Sequence[BlockEncoding], x: str) -> CMatrix:
    """S_x = ⟨0^a| U_K · Π_i (projector per x_i) U_i |0^a⟩ by direct products.

    The string reads in operator order: its leftmost character is the
    measurement between U_{K−1} and U_K, the rightmost the one after U_1.
    Each projector is a row mask on all 2^{a+n} carried columns.
    """
    encs = [normalize_selectors(be) for be in encodings]
    n, _ = _common_registers(encs)
    k = len(encs)
    if len(x) != k - 1 or any(c not in "01" for c in x):
        raise ValueError("x must be a bitstring of length K-1")
    dn = 2**n
    chain = encs[0].u.copy()
    for i in range(1, k):
        # Π_⊥ zeroes the ancilla-0 rows, Π₀ the others
        chain[slice(None, dn) if x[k - 1 - i] == "1" else slice(dn, None)] = 0.0
        chain = encs[i].u @ chain
    return chain[:dn, :dn].copy()


def _leakage_recursion(encodings: Sequence[BlockEncoding], p: int) -> CMatrix:
    """Σ_{x ≠ 0, |x| ≡ 0 mod 2^p} S_x on the 2^n system columns, in O(K·2^p) products.

    Class 0 holds the chains with no failure yet, class 1 + r those with a
    failure count ≥ 1 and ≡ r mod 2^p.  A measurement keeps each class's
    ancilla-0 rows and moves its ancilla-≠-0 rows one class on.  No counter
    register and no V's: an independent route to the S_x sums.
    """
    encs = [normalize_selectors(be) for be in encodings]
    n, a = _common_registers(encs)
    dn, period = 2**n, 2**p
    if period >= len(encs):  # K − 1 measurements never fail 2^p times
        return np.zeros((dn, dn), dtype=complex)
    classes = np.zeros((period + 1, 2 ** (a + n), dn), dtype=complex)
    classes[0] = encs[0].u[:, :dn]
    for be in encs[1:]:
        failed = classes[:, dn:, :].copy()
        classes[2:, dn:, :] = failed[1:-1]
        classes[1, dn:, :] = failed[-1]  # r = 2^p − 1 wraps to r = 0
        classes[1 + 1 % period, dn:, :] += failed[0]  # a first failure: count 1
        classes[0, dn:, :] = 0.0
        classes = be.u @ classes
    return classes[1, :dn, :].copy()


def sum_bad_sequences(
    encodings: Sequence[BlockEncoding],
    p: int,
    method: Literal["enumerate", "recursion"],
) -> CMatrix:
    """Σ_{x ≠ 0, |x| ≡ 0 mod 2^p} S_x — the p-MACG's exact leakage matrix.

    ``enumerate`` sums :func:`bad_sequence_oracle` over qualifying strings
    (capped at K ≤ 17); ``recursion`` carries the 2^n system columns through
    2^p + 1 classes — no failure yet, or the failure count mod 2^p — in
    O(K·2^p) block products.
    """
    if p < 0:
        raise ValueError("p must be non-negative")
    k = len(encodings)
    if method == "recursion":
        return _leakage_recursion(encodings, p)
    if method != "enumerate":
        raise ValueError(f"unknown method {method!r}")
    if k > ENUMERATION_CAP:
        raise ValueError(f"enumeration capped at K <= {ENUMERATION_CAP}")
    dn = 2 ** encodings[0].n
    total = np.zeros((dn, dn), dtype=complex)
    for w in range(2**p, k, 2**p):
        for bad in combinations(range(k - 1), w):
            x = "".join("1" if i in bad else "0" for i in range(k - 1))
            total += bad_sequence_oracle(encodings, x)
    return total


def gadget_error_exact(circ: MCMCircuit, target: np.ndarray) -> float:
    """‖target − ⟨0^{m+a}|U_MCM|0^{m+a}⟩‖ (operator norm)."""
    return corner_error(corner_columns(circ), target)


def corner_error(columns: CMatrix, target: np.ndarray) -> float:
    """:func:`gadget_error_exact` from the circuit's ``corner_columns``: their
    first 2^n rows are the block."""
    tgt = as_cmatrix(target)
    dn = columns.shape[1]
    if tgt.shape != (dn, dn):
        raise ValueError("target dimension does not match the system register")
    return opnorm(tgt - columns[:dn])


def _require_integers(k: int, p: int) -> None:
    """Refuse a non-integral K or p by name: 1.5 would reach ``range`` or 2**p."""
    for name, value in (("K", k), ("p", p)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def macg_bound(k: int, p: int, c: float) -> float:
    """The paper's claimed closed-form p-MACG error bound 2e^c · (e·c²/(K·2^p))^{2^p}.

    Its derivation charges every failed measurement separately, ‖S_x‖ ≤
    η_max^{2|x|} with η_max = c/K.  That per-sequence estimate is false once
    failed measurements are adjacent: a run of them leaks at second order in
    η whatever its length (see :func:`macg_run_bound`, the bound that holds).
    The closed form is therefore an upper bound only where adjacent failed
    measurements do not leak — for example block-diagonal encodings such as
    the controlled embeddings of :mod:`bechain.appgen`, whose S_x vanish for
    every x ≠ 0.

    Within its own derivation it is valid in the regime
    r = (η_max²(K−1)/2^p)^{2^p} ≤ 1/2; outside it the geometric-series step
    fails and the bound is refused.  K and p must be integers; once 2^p passes
    the float range the bound is its limit in p, 0.0.  Where a direct form
    overflows it is evaluated in logs, and the bound is ``inf`` only past the float range.
    """
    _require_integers(k, p)
    if k < 2 or p < 1 or not c > 0:  # NaN fails c > 0
        raise ValueError(f"need K >= 2, p >= 1, c > 0; got c = {c!r}")
    if p >= sys.float_info.max_exp:  # 2^p overflows a float
        return 0.0
    period = 2.0**p  # exact, so the arithmetic is that of the integer 2^p
    log_base = 2.0 * math.log(c) - math.log(k) - math.log(period)  # log(c²/(K·2^p))
    try:
        eta = c / k
        r = (eta**2 * (k - 1) / period) ** period
    except OverflowError:  # η², K or r past the float range: r > 1/2 decided in logs
        r = math.exp(min(period * (log_base + math.log(k - 1) - math.log(k)), 0.0))
    if r > 0.5:
        raise ValueError("bound regime not satisfied")
    try:
        bound = 2.0 * math.exp(c) * (math.e * c**2 / (k * period)) ** period
    except OverflowError:
        bound = math.inf
    log_bound = math.log(2.0) + c + period * (1.0 + log_base)
    if bound == math.inf and log_bound <= _LOG_FLOAT_MAX:
        bound = math.exp(log_bound)  # finite, though a step of the direct form overflowed
    return bound


def macg_run_bound(k: int, p: int, eta: float) -> float:
    """Run-aware p-MACG error bound B_run(K, p, η) for encodings with η_max ≤ η.

    B_run = Σ_{w = 2^p, 2·2^p, … ≤ K−1} Σ_{j ≥ 1} C(w−1, j−1)·C(K−w, j)·η^{2j}.

    Proof.  The gadget error is ‖Σ_{x ≠ 0, |x| ≡ 0 mod 2^p} S_x‖, with
    S_x = ⟨0^a| P_K U_K P_{K−1} ⋯ P_1 U_1 P_0 |0^a⟩, where P_i = Π_⊥ if x
    marks measurement i as failed, P_i = Π₀ otherwise, and P_0 = P_K = Π₀.
    Wherever P_i ≠ P_{i−1} the two projectors are orthogonal, so
    P_i U_i P_{i−1} = P_i (U_i − I) P_{i−1}, of norm at most ‖U_i − I‖ ≤ η;
    every other factor has norm at most 1.  A string with j runs of ones has
    exactly 2j such boundaries, so ‖S_x‖ ≤ η^{2j} whatever the lengths of the
    runs.  Summing over the qualifying strings — C(w−1, j−1) ways to split
    weight w into j runs times C(K−w, j) ways to place them among the K−w
    zeros — gives B_run by the triangle inequality.

    The proof only uses ‖P_i U_i P_{i−1}‖ ≤ η at the boundaries, so η may also
    be the largest leakage norm max_i(‖Π_⊥U_iΠ₀‖, ‖Π₀U_iΠ_⊥‖) ≤ η_max.

    Unlike :func:`macg_bound`, which charges η^{2|x|}, this holds for every
    sequence of unitaries.  A single run of length 2^p already costs η², so
    B_run ≈ (K²/2^{p+1})·η² decays only as 1/K at η = c/K.

    Evaluation is a transfer recursion over the K−1 measurements, O(K·2^p)
    with no binomials: the all-passed prefix has weight 1, and the prefixes
    with a failure carry Σ η^{2j} per (failure count mod 2^p, last outcome),
    charging η² wherever a run of failures starts.  Every term is positive,
    so nothing cancels; past the float range the result saturates at ``inf``.
    K and p must be integers; where 2^p ≥ K no weight fits and B_run = 0.
    """
    _require_integers(k, p)
    if k < 2 or p < 1 or not 0.0 <= eta <= 2.0:
        raise ValueError("need K >= 2, p >= 1 and eta in [0, 2] (‖U − I‖ <= 2)")
    if p >= (int(k) - 1).bit_length():  # 2^p > K − 1, decided without forming 2^p
        return 0.0
    e2 = eta * eta
    passed = [0.0] * 2**p  # index: failure count mod 2^p; last measurement passed
    failed = [0.0] * 2**p  # same, last measurement failed
    for _ in range(k - 1):
        grown = [e2 * q + f for q, f in zip(passed, failed)]
        passed = [q + f for q, f in zip(passed, failed)]
        failed = grown[-1:] + grown[:-1]
        failed[1] += e2  # the first failure starts the first run
    return passed[0] + failed[0]


def seqnorm_bound_check(
    encodings: Sequence[BlockEncoding], x: str
) -> tuple[float, float]:
    """(‖S_x‖ measured, η_max^{2|x|}·(1+η_max)^K claimed bound)."""
    profile = deviation_profile(encodings)
    eta = profile.eta_max
    weight = x.count("1")
    measured = opnorm(bad_sequence_oracle(encodings, x))
    bound = eta ** (2 * weight) * (1.0 + eta) ** len(encodings)
    return measured, bound


# ---------------------------------------------------------------------------
# Numerical probe of the exact-multiplication ancilla lower bound.
# ---------------------------------------------------------------------------


def _hermitian_basis(dim: int) -> np.ndarray:
    """The dim² − 1 traceless Hermitian generators: X- and Y-type pairs, then diagonals."""
    basis = []
    for i, j in combinations(range(dim), 2):
        for upper, lower in ((1.0, 1.0), (-1.0j, 1.0j)):
            gen = np.zeros((dim, dim), dtype=complex)
            gen[i, j], gen[j, i] = upper, lower
            basis.append(gen)
    for d in range(1, dim):
        basis.append(np.diag([1.0] * d + [-d] + [0.0] * (dim - d - 1)).astype(complex))
    return np.stack(basis)


class _ProbeObjective:
    """θ ↦ ‖A_[K] − ⟨0^{m+a}|U_MCM|0^{m+a}⟩‖, with V_1, …, V_{K−1}, Q from θ's K blocks.

    The corner is Σ_x c_x·S_x with c_x = ⟨0^m|Q·Π_i V_i^{x_i}|0^m⟩.  The S_x do
    not depend on θ and are computed once, so an evaluation is one batched
    ``eigh``, a binary tree of 2^m-vectors, one contraction and one 2^n norm.
    ``value_and_grad`` (r = ‖R‖₂) and ``frobenius_and_grad`` (f = ‖R‖²_F) add
    analytic gradients to the same forward pass through ``_pullback``, one
    reverse sweep of the tree and one batched map of its K cotangents to θ.
    """

    def __init__(self, encodings: Sequence[BlockEncoding], m: int) -> None:
        n, _ = _common_registers(encodings)
        k = len(encodings)
        if not (2 <= k <= 4 and 1 <= m <= 2):
            raise ValueError("probe supports K in [2, 4] and m in [1, 2]")
        if m > math.ceil(math.log2(k)):
            raise ValueError("probe is for widths at or below the ⌈log₂K⌉ bound")
        self.k, self.dn, self.dm = k, 2**n, 2**m
        self.target = block_product(encodings)
        self.basis = _hermitian_basis(self.dm).reshape(4**m - 1, -1)  # rows vec(G_a)
        # product order: bit i of a string's index is the measurement after U_{i+1}
        self.seqs = np.stack([bad_sequence_oracle(encodings, "".join(x)).ravel()
                              for x in product("01", repeat=k - 1)])

    def _forward(self, theta: np.ndarray):
        """Eigen-decompositions, unitaries, tree levels, c and the residual matrix."""
        dm = self.dm
        evals, evecs = np.linalg.eigh((theta.reshape(self.k, -1) @ self.basis)
                                      .reshape(self.k, dm, dm))
        mats = (evecs * np.exp(1j * evals)[:, None, :]) @ evecs.conj().swapaxes(1, 2)
        levels = [np.eye(1, dm, dtype=complex)]  # rows (Π_i V_i^{x_i}|0^m⟩)ᵀ, from ⟨0^m|
        for v in mats[:-1]:
            levels.append(np.concatenate([levels[-1], levels[-1] @ v.T]))
        c = levels[-1] @ mats[-1][0]
        return evals, evecs, mats, levels, self.target - (c @ self.seqs).reshape(self.dn, self.dn)

    def __call__(self, theta: np.ndarray) -> float:
        return opnorm(self._forward(theta)[-1])

    def _pullback(self, evals, evecs, mats, levels, g: np.ndarray) -> np.ndarray:
        """Re(Σ_x ∂c_x/∂θ_{j,a}·g_x) for every parameter θ_{j,a}, by one reverse sweep.

        Σ_x g_x·c_x = g·levels[−1]·Q[0], so Q's cotangent is g·levels[−1] in row 0
        and the last level's is L̄ = g ⊗ Q[0].  Walking the tree backward, layer j
        splits L̄ into its x_j = 0 and x_j = 1 halves: V̄_j = L̄_hiᵀ·levels[j] and
        L̄ ← L̄_lo + L̄_hi·V_j.  For H_j = WΛW†, ∂V_j/∂θ_{j,a} = W·(F ∘ W†G_aW)·W†,
        where the divided differences F_pq = i·e^{i(λ_p+λ_q)/2}·sinc((λ_p−λ_q)/2π)
        of e^{iλ} have no branch on repeated eigenvalues; so all K cotangents
        reach θ in one batched step, Z = (Wᵀ·V̄·W̄) ∘ F and ∇_j = Re⟨W̄·Z·Wᵀ, G_a⟩.
        """
        half = (evals[:, :, None] + evals[:, None, :]) / 2
        gap = evals[:, :, None] - evals[:, None, :]
        f = 1j * np.exp(1j * half) * np.sinc(gap / (2 * np.pi))
        cot = np.zeros_like(mats)  # V̄_1, …, V̄_{K−1}, Q̄
        cot[-1, 0] = g @ levels[-1]
        lbar = g[:, None] * mats[-1][0]
        for j in range(self.k - 2, -1, -1):
            lo, hi = lbar.reshape(2, -1, lbar.shape[-1])
            cot[j] = hi.T @ levels[j]
            lbar = lo + hi @ mats[j]
        wt = evecs.swapaxes(1, 2)
        z = (wt @ cot @ evecs.conj()) * f
        return ((evecs.conj() @ z @ wt).reshape(self.k, -1) @ self.basis.T).real.ravel()

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """r and ∂r/∂θ = −Re(Σ_x ∂c_x·u†S_x v), a subgradient if R's top singular value repeats."""
        *forward, resid = self._forward(theta)
        left, sing, right = np.linalg.svd(resid)
        g = self.seqs @ np.outer(left[:, 0].conj(), right[0].conj()).ravel()
        return float(sing[0]), -self._pullback(*forward, g)

    def frobenius_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """f = ‖R‖²_F and ∂f/∂θ = −2·Re(Σ_x ∂c_x·⟨S_x, R⟩); f is smooth in θ."""
        *forward, resid = self._forward(theta)
        g = self.seqs @ resid.conj().ravel()
        return float(np.vdot(resid, resid).real), -2 * self._pullback(*forward, g)


def _bfgs(fun, x: np.ndarray, maxiter: int, gtol: float) -> tuple[np.ndarray, int]:
    """Minimize f by inverse-Hessian BFGS from H₀ = I: (the last accepted point, its steps).

    ``fun`` maps x to (f, ∇f).  Each step searches along p = −H·∇f for a strong
    Wolfe point (:func:`_wolfe_step`), starting from scipy's first-step guess
    α₀ = min(1, 2.02·(f − f_prev)/∇f·p), with f_prev = f + ‖∇f‖/2 before the
    first step.  An update with sᵀy ≤ 0 would lose positive definiteness and is
    skipped.  The loop ends when ‖∇f‖∞ ≤ gtol, after ``maxiter`` steps, or when
    the line search finds no step.
    """
    f, g = fun(x)
    f_prev = f + np.linalg.norm(g) / 2
    h = np.eye(len(x))
    steps = 0
    while steps < maxiter and np.max(np.abs(g)) > gtol:
        p = -h @ g
        slope = float(g @ p)
        if not slope < 0:
            break
        found = _wolfe_step(fun, x, p, float(f), slope, min(1.0, 2.02 * (f - f_prev) / slope))
        if found is None:
            break
        alpha, f_new, g_new = found
        s, y = alpha * p, g_new - g
        x, f_prev, f, g = x + s, f, f_new, g_new
        steps += 1
        sy = s @ y
        if sy > 0:
            hy = h @ y
            half = np.outer((1 + y @ hy / sy) / 2 * s - hy, s) / sy
            h += half + half.T
    return x, steps


def _wolfe_step(fun, x, p, f0, slope, alpha):
    """(α, f, ∇f) at a step along p with f ≤ f0 + c₁·α·slope and |∇f·p| ≤ c₂·|slope|, or None.

    c₁ = 1e-4 and c₂ = 0.9.  Nocedal & Wright, Alg. 3.5: double α until a step
    fails the sufficient decrease, rises above the last step, or meets a
    non-negative slope; then zoom into that bracket (Alg. 3.6) by
    :func:`_cubic_min`.  Each phase tries at most ten steps.  A non-finite f
    fails the sufficient decrease.
    """
    c1, c2, tries = 1e-4, 0.9, 10
    if not alpha > 0:
        return None
    lo = (0.0, f0, slope)
    for _ in range(tries):
        f, g = fun(x + alpha * p)
        trial = (alpha, float(f), float(g @ p))
        if not trial[1] <= f0 + c1 * alpha * slope or (lo[0] > 0 and trial[1] >= lo[1]):
            hi = trial
            break
        if abs(trial[2]) <= -c2 * slope:
            return alpha, f, g
        if trial[2] >= 0:
            lo, hi = trial, lo
            break
        lo, alpha = trial, 2 * alpha
    else:
        return None
    for _ in range(tries):
        alpha = _cubic_min(*lo, *hi)
        f, g = fun(x + alpha * p)
        trial = (alpha, float(f), float(g @ p))
        if not trial[1] <= f0 + c1 * alpha * slope or trial[1] >= lo[1]:
            hi = trial
            continue
        if abs(trial[2]) <= -c2 * slope:
            return alpha, f, g
        if trial[2] * (hi[0] - lo[0]) >= 0:
            hi = lo
        lo = trial
    return None


def _cubic_min(a: float, fa: float, da: float, b: float, fb: float, db: float) -> float:
    """The minimizer of the cubic with value and slope (fa, da) at a and (fb, db) at b.

    Safeguarded: it is clipped to lie at least a tenth of |b − a| inside the
    bracket, and where the cubic has no finite minimizer the midpoint is used.
    Clipping, not bisection, lets a bracket whose minimum sits near one end
    shrink tenfold per step.
    """
    t = (a + b) / 2
    d1 = da + db - 3 * (fa - fb) / (a - b)
    rad = d1 * d1 - da * db
    if rad >= 0:  # False for NaN
        d2 = math.copysign(math.sqrt(rad), b - a)
        den = db - da + 2 * d2
        if den != 0:
            cubic = b - (b - a) * (db + d2 - d1) / den
            t = cubic if math.isfinite(cubic) else t
    margin = abs(b - a) / 10
    return min(max(t, min(a, b) + margin), max(a, b) - margin)


def lower_bound_probe(
    encodings: Sequence[BlockEncoding],
    m: int,
    restarts: int,
    seed: int,
) -> float:
    """Best EMBE residual found by optimizing (V⃗, Q) at measurement width m.

    The unitaries are parameterized as exp(i Σ θ_a G_a) over a traceless
    Hermitian basis (4^m − 1 parameters each).  Each restart draws θ
    uniformly, runs BFGS (:func:`_bfgs`) on the smooth
    f = ‖A_[K] − Σ_x c_x S_x‖²_F, then polishes by BFGS on the operator-norm
    residual r, both on analytic gradients (see ``_ProbeObjective``); the
    result is the least r after any stage.  Evidence only: a residual bounded
    away from zero corroborates, but does not prove, the ⌈log₂K⌉ lower bound.
    ``restarts`` must be an integer of at least 1.
    """
    if not isinstance(restarts, numbers.Integral) or restarts < 1:
        raise ValueError(f"restarts must be an integer of at least 1, got {restarts!r}")
    objective = _ProbeObjective(encodings, m)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        x = rng.uniform(-1.5, 1.5, len(encodings) * (4**m - 1))
        for stage, maxiter in ((objective.frobenius_and_grad, 200), (objective.value_and_grad, 80)):
            x = _bfgs(stage, x, maxiter, 1e-12)[0]
            best = min(best, objective(x))  # r, not the stage's own value
        if best <= 1e-10:
            break
    return best
