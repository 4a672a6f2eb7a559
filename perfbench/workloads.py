"""The benchmark's three workloads, driven through the package's public API.

Each workload function takes the run's seed and ``lib`` (the ``bechain``
module, or a traced stand-in for it) and returns a ``Workload``: the
operations of one round, each with a check against the independent
reference, plus the warm-up operations set-up runs once.  Checks return
``None`` for a correct output or a one-line reason.

- ``uncompute``: the single-ancilla uncomputation pipelines at 512
  dimensions, where validation of large unitaries and the QSVT products do
  the work.
- ``gadget``: Part II sweeps on registers of at most 7 qubits, where many
  small constructions and the O(K²) leakage recursion do the work.
- ``probe``: the lower-bound probe, thousands of tiny circuit products
  inside scipy's optimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Optional

import numpy as np

import inputs
import reference as ref

Check = Callable[[Any], Optional[str]]


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]
    check: Check


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op] = field(default_factory=list)
    replay: Optional[Callable[[Any], dict]] = None
    report: Optional[Callable[[], str]] = None


def _within(label: str, value: float, limit: float) -> Optional[str]:
    return None if value <= limit else f"{label} {value:.3e} > {limit:.1e}"


def _first_failure(*results: Optional[str]) -> Optional[str]:
    return next((r for r in results if r is not None), None)


# ---------------------------------------------------------------------------
# uncompute
# ---------------------------------------------------------------------------

UNC_N, UNC_A = 2, 3
UNC_DELTA = 0.25
UNC_EPS = (1e-2, 1e-3)
SIN_PI_14 = math.sin(math.pi / 14.0)
OAA_ORDER = 7


def _check_uncompute(target: np.ndarray, dilation: np.ndarray, eps: float, general: bool) -> Check:
    dn = target.shape[0]

    def check(out: Any) -> Optional[str]:
        result, report = out
        work = result.a - 1
        bra = "0" * work + ("1" if general else "0")
        if (result.bra_sel, result.ket_sel, result.alpha) != (bra, "0" * result.a, 1.0):
            return f"unexpected selectors {result.bra_sel}/{result.ket_sel}"
        u = result.u
        row = dn if general else 0
        err = ref.opnorm(target - u[row : row + dn, :dn])
        per_query = 8 * report.qsvt_degree + 2 if general else 4 * report.qsvt_degree + 1
        queries = OAA_ORDER * per_query
        return _first_failure(
            _within("block error", err, eps),
            _within("dilation error", ref.opnorm(u[: 2 * dn, : 2 * dn] - dilation), eps),
            _within("unitarity defect", ref.unitarity_defect(u), 1e-9),
            _within("reported error mismatch", abs(report.eps_measured - err), 1e-10),
            None if report.queries_vh == queries
            else f"queries {report.queries_vh} != {queries} at degree {report.qsvt_degree}",
        )

    return check


def uncompute(seed: int, lib: Any) -> Workload:
    rng = inputs.stream(seed, 1)
    dn = 2**UNC_N
    h = inputs.hermitian(dn, (1.0 - UNC_DELTA) * rng.uniform(0.4, 1.0), rng)
    a_mat = inputs.complex_matrix(dn, (1.0 - UNC_DELTA) * rng.uniform(0.4, 1.0), rng)
    vh = lib.BlockEncoding(inputs.hermitian_encoding(h, UNC_A, UNC_N, rng), UNC_A, UNC_N)
    va = lib.BlockEncoding(inputs.general_encoding(a_mat, UNC_A, UNC_N, rng), UNC_A, UNC_N)
    dil_h = ref.hermitian_dilation(h)
    dil_a = ref.general_dilation(a_mat)

    ops = []
    for eps in UNC_EPS:
        ops.append(Op(
            f"hermitian eps={eps:g}",
            lambda lib, eps=eps: lib.uncompute_hermitian(vh, UNC_DELTA, eps),
            _check_uncompute(h, dil_h, eps, general=False),
        ))
        ops.append(Op(
            f"general eps={eps:g}",
            lambda lib, eps=eps: lib.uncompute_general(va, UNC_DELTA, eps),
            _check_uncompute(a_mat, dil_a, eps, general=True),
        ))

    def replay(lib: Any) -> dict:
        """The Hermitian pipeline's stages, one public call each, at the smaller ε.

        Stage errors are measured against their budgets ε/9, ε/14 and ε.
        """
        eps = UNC_EPS[-1]
        floor = (1.0 - (1.0 - UNC_DELTA) ** 2) / 2.0
        s1 = lib.lcu_i_minus_h2(vh)
        phases = lib.solve_phases(lib.approx_half_sqrt(floor, eps / 9.0))
        s2 = lib.qsvt_apply(phases, s1)
        s3 = lib.lcu_w_uh(vh, s2)
        s4 = lib.qsvt_apply(lib.chebyshev_phases(OAA_ORDER), s3)
        stages = {"i_minus_h2": s1, "sqrt_qsvt": s2, "w_uh": s3, "amplified": s4}
        unitary = {name: bool(lib.is_unitary(s.u)) for name, s in stages.items()}
        lib.BlockEncoding(s3.u, s3.a, s3.n)
        w_defect = lib.opnorm(s3.u.conj().T @ s3.u - np.eye(s3.dim))
        errors = {
            "sqrt_qsvt": (lib.verify_encoding(s2, ref.sqrt_complement(h @ h) / math.sqrt(8.0)), eps / 9.0),
            "w_uh": (lib.verify_encoding(s3, SIN_PI_14 * dil_h), eps / 14.0),
            "amplified": (lib.verify_encoding(s4, -dil_h), eps),
        }
        failures = [name for name, ok in unitary.items() if not ok]
        failures += [name for name, (err, budget) in errors.items() if err > budget]
        return {
            "dims": {name: s.dim for name, s in stages.items()},
            "is_unitary": unitary,
            "w_uh_unitarity_defect": w_defect,
            "stage_error_and_budget": errors,
            "failures": failures,
        }

    return Workload(ops, warmup=[ops[0], ops[2]], replay=replay)


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------

GAD_N, GAD_A = 2, 1
GAD_C = 0.5
PMACG_K = (16, 32, 64, 128, 256)
PMACG_P = (1, 2)
LW19_K = tuple(range(2, 17))
OAA_K = (8, 16, 32)
TROTTER_STEPS = 16
DYSON_INTERVALS = 16
DYSON_MICRO_STEPS = 256  # DysonSpec's default, used by the reference sum below


class _Reference:
    """Reference values for one encoding set, each computed on first use."""

    def __init__(self, unitaries: list[np.ndarray]) -> None:
        self.unitaries = unitaries
        self._corners: dict[int, np.ndarray] = {}

    @cached_property
    def target(self) -> np.ndarray:
        return ref.block_product(self.unitaries, GAD_N)

    @cached_property
    def eta_max(self) -> float:
        return max(ref.opnorm(u - np.eye(u.shape[0])) for u in self.unitaries)

    def corner(self, m: int) -> np.ndarray:
        if m not in self._corners:
            self._corners[m] = ref.embe_corner(self.unitaries, m, GAD_A, GAD_N, ref.increment(m))
        return self._corners[m]


def _pmacg_op(k: int, p: int, encs: list, r: _Reference) -> Op:
    def run(lib: Any) -> Any:
        circ = lib.gadget_pmacg(encs, p)
        target = lib.block_product(encs)
        e = lib.gadget_error_exact(circ, target)
        leak = lib.sum_bad_sequences(encs, p, "recursion")
        eta = lib.deviation_profile(encs).eta_max
        return circ.m, target, e, leak, eta

    def check(out: Any) -> Optional[str]:
        m, target, e, leak, eta = out
        corner = r.corner(p)
        return _first_failure(
            None if m == p else f"gadget width {m} != p = {p}",
            _within("block product mismatch", ref.opnorm(target - r.target), 1e-10),
            _within("EMBE error mismatch", abs(e - ref.opnorm(r.target - corner)), 1e-10),
            _within("leakage mismatch", ref.opnorm(leak - (corner - r.target)), 1e-10),
            _within("eta_max mismatch", abs(eta - r.eta_max), 1e-10),
            _within("error over run bound", e, ref.run_bound(k, p, r.eta_max)),
        )

    return Op(f"pmacg K={k} p={p}", run, check)


def _lw19_op(k: int, encs: list, r: _Reference) -> Op:
    width = math.ceil(math.log2(k))

    def run(lib: Any) -> Any:
        circ = lib.gadget_lw19(encs)
        target = lib.block_product(encs)
        return circ.m, target, lib.gadget_error_exact(circ, target)

    def check(out: Any) -> Optional[str]:
        m, target, e = out
        e_ref = ref.opnorm(r.target - r.corner(width))
        return _first_failure(
            None if m == width else f"gadget width {m} != ceil(log2 K) = {width}",
            _within("block product mismatch", ref.opnorm(target - r.target), 1e-10),
            _within("exact-gadget error", e, 1e-11),
            _within("reference exact-gadget error", e_ref, 1e-11),
            _within("EMBE error mismatch", abs(e - e_ref), 1e-10),
        )

    return Op(f"lw19 K={k}", run, check)


def _oaa_op(k: int, encs: list, r: _Reference, psi: np.ndarray) -> Op:
    def run(lib: Any) -> Any:
        circ = lib.gadget_pmacg(encs, 1)
        return lib.oaa_boost_report(circ, lib.block_product(encs), psi)

    def check(report: Any) -> Optional[str]:
        corner = r.corner(1)
        e = ref.opnorm(r.target - corner)
        # amplification rotates within span{good, bad}: the post-selected
        # direction stays that of corner·ψ, the ideal one is target·ψ
        good = r.target @ psi
        post = corner @ psi
        fidelity = abs(np.vdot(good, post)) ** 2 / (np.vdot(good, good).real * np.vdot(post, post).real)
        return _first_failure(
            None if report.fidelity >= 1.0 - e**2
            else f"fidelity {report.fidelity:.12f} < 1 - e^2 = {1.0 - e**2:.12f}",
            _within("fidelity mismatch", abs(report.fidelity - fidelity), 1e-9),
        )

    return Op(f"oaa K={k}", run, check)


def _sequence_check(count: int, expected: np.ndarray) -> Check:
    def check(out: Any) -> Optional[str]:
        length, target, e = out
        return _first_failure(
            None if length == count else f"{length} encodings, expected {count}",
            _within("product mismatch", ref.opnorm(target - expected), 1e-10),
            _within("block-diagonal gadget error", e, 1e-12),
        )

    return check


def _sequence_row(lib: Any, encs: list) -> Any:
    circ = lib.gadget_pmacg(encs, 1)
    target = lib.block_product(encs)
    return len(encs), target, lib.gadget_error_exact(circ, target)


def _herm_exp(h: np.ndarray, t: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T


def gadget(seed: int, lib: Any) -> Workload:
    dim = 2 ** (GAD_A + GAD_N)

    def encoded(unitaries: list[np.ndarray]) -> list:
        return [lib.BlockEncoding(u, GAD_A, GAD_N) for u in unitaries]

    ops: list[Op] = []
    for k in PMACG_K:
        rng = inputs.stream(seed, 2, k)
        us = [inputs.near_identity(dim, GAD_C / k, rng) for _ in range(k)]
        encs, r = encoded(us), _Reference(us)
        ops += [_pmacg_op(k, p, encs, r) for p in PMACG_P]
    for k in LW19_K:
        rng = inputs.stream(seed, 3, k)
        us = [inputs.haar(dim, rng) for _ in range(k)]
        ops.append(_lw19_op(k, encoded(us), _Reference(us)))
    for k in OAA_K:
        rng = inputs.stream(seed, 4, k)
        us = [inputs.near_identity(dim, GAD_C / k, rng) for _ in range(k)]
        psi = rng.standard_normal(2**GAD_N) + 1j * rng.standard_normal(2**GAD_N)
        ops.append(_oaa_op(k, encoded(us), _Reference(us), psi))

    rng = inputs.stream(seed, 5)
    dn = 2**GAD_N
    terms = tuple(inputs.hermitian(dn, rng.uniform(0.5, 1.0), rng) for _ in range(2))
    dt = 1.0 / TROTTER_STEPS
    step = _herm_exp(terms[1], dt) @ _herm_exp(terms[0], dt)
    ops.append(Op(
        "trotter",
        lambda lib: _sequence_row(lib, lib.trotter_sequence(lib.TrotterSpec(terms, 1.0, TROTTER_STEPS))),
        _sequence_check(2 * TROTTER_STEPS, np.linalg.matrix_power(step, TROTTER_STEPS)),
    ))

    h0 = inputs.hermitian(dn, 0.5, rng)
    # A(t) = −i·cos(t)·H0 commutes with itself, so the midpoint product is
    # exp(−i·s·H0) with s the midpoint sum of cos over the same micro-steps
    micro = 1.0 / (DYSON_INTERVALS * DYSON_MICRO_STEPS)
    s = float(np.sum(np.cos((np.arange(DYSON_INTERVALS * DYSON_MICRO_STEPS) + 0.5) * micro)) * micro)
    ops.append(Op(
        "dyson",
        lambda lib: _sequence_row(lib, lib.dyson_sequence(lib.DysonSpec(
            lambda t: -1j * np.cos(t) * h0, 0.5, 1.0, DYSON_INTERVALS, DYSON_MICRO_STEPS))),
        _sequence_check(DYSON_INTERVALS, _herm_exp(h0, s)),
    ))
    return Workload(ops)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

PROBE_N, PROBE_A, PROBE_M = 2, 1, 1
# One restart per set: a set's cost follows the set (its BFGS polish takes
# 940 to 1640 evaluations), not the restart, so more sets at one restart
# each steady the sweep more than more restarts per set would.
PROBE_RESTARTS = 1
PROBE_PAIRS = 7
FEASIBLE_RESTARTS = 20
# The K = 2 set is the same in every run.  How many restarts the probe
# needs to reach an exact circuit varies from one to eight between sets
# (0.4 s to 4.9 s), which would move the sweep with the seed; the K = 3 and
# K = 4 sets, which run a fixed number of restarts, come from the seed.
FEASIBLE_SET_STREAM = (64905686,)
FEASIBLE_PROBE_SEED = 11


def _probe_seed(*labels: int) -> int:
    return int(np.random.SeedSequence(labels).generate_state(1)[0])


def _check_feasible(residual: float) -> Optional[str]:
    return _within("K=2 residual", residual, 1e-8)


def _check_infeasible(residuals: tuple[float, float]) -> Optional[str]:
    # below ceil(log2 K) no exact circuit exists; 2 bounds ‖target − block‖
    for k, r in zip((3, 4), residuals):
        if not 1e-8 < r <= 2.0:
            return f"K={k} residual {r:.3e} outside (1e-8, 2]"
    return None


class _Evidence:
    """Counts the K = 3, 4 residuals at or above criterion 9's 1e-3 level."""

    def __init__(self) -> None:
        self.residuals: list[float] = []

    def check(self, residuals: tuple[float, float]) -> Optional[str]:
        self.residuals.extend(residuals)
        return _check_infeasible(residuals)

    def report(self) -> str:
        above = sum(r >= 1e-3 for r in self.residuals)
        return (f"K=3,4 residuals >= 1e-3 in this run (reported, not checked): "
                f"{above}/{len(self.residuals)}, "
                f"smallest {min(self.residuals, default=float('nan')):.3e}")


def probe(seed: int, lib: Any) -> Workload:
    dim = 2 ** (PROBE_A + PROBE_N)

    def encoded(k: int, rng: np.random.Generator) -> list:
        return [lib.BlockEncoding(inputs.haar(dim, rng), PROBE_A, PROBE_N) for _ in range(k)]

    feasible = encoded(2, inputs.stream(*FEASIBLE_SET_STREAM))
    ops = [Op(
        "K=2 feasible",
        lambda lib: lib.lower_bound_probe(feasible, PROBE_M, FEASIBLE_RESTARTS, FEASIBLE_PROBE_SEED),
        _check_feasible,
    )]
    evidence = _Evidence()
    for j in range(PROBE_PAIRS):
        sets = [(encoded(k, inputs.stream(seed, 6, k, j)), _probe_seed(seed, k, j)) for k in (3, 4)]
        ops.append(Op(
            f"K=3,4 pair {j}",
            lambda lib, sets=sets: tuple(
                lib.lower_bound_probe(encs, PROBE_M, PROBE_RESTARTS, s) for encs, s in sets),
            evidence.check,
        ))
    return Workload(ops, report=evidence.report)


WORKLOADS = {"uncompute": uncompute, "gadget": gadget, "probe": probe}
