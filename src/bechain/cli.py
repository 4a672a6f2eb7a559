"""Command-line driver for verification sweeps and experiment artifacts.

Every subcommand is one entry of the ``_SWEEPS`` table: the flags it reads
with their defaults, its artifact header, a grid function that lists the
sweep's task tuples for a :class:`RunConfig`, and a row function that turns
one task into one row.  :func:`sweep_rows` evaluates the tasks in sorted
order — per-trial randomness comes from a counter-based Philox generator
keyed by ``seed + trial index`` — so a rerun with the same configuration is
byte-identical, and :func:`run` writes the rows as CSV or JSON.  Exit code 0 means every row passed its check; 1 reports the
failure count; 2 is a usage error (argparse) or a rejected configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .appgen import TrotterSpec, dyson_sequence, dyson_spec_from_json, trotter_sequence
from .encoding import (
    deviation_profile,
    hermitian_test_encoding,
    random_block_encoding,
    random_near_identity,
)
from .linalg import PAULI_X, PAULI_Z, random_hermitian
from .mcm import (
    block_product,
    gadget_error_exact,
    gadget_lw19,
    gadget_pmacg,
    lower_bound_probe,
    macg_bound,
    macg_run_bound,
)
from .oaa import oaa_boost_report
from .uncompute import EpsilonExceededError, uncompute_hermitian

ERROR_HEADER = ["K", "m", "p", "c", "eta_max", "e_measured", "e_bound", "pass", "seed"]
# macg-sweep appends the run-aware bound at the measured eta_max (see macg_run_bound).
MACG_HEADER = ERROR_HEADER + ["e_run_bound"]
UNCOMPUTE_HEADER = ["delta", "eps_requested", "eps_measured", "queries",
                    "ancillae_peak", "pass", "seed"]
OAA_HEADER = ["alpha_before", "k", "alpha_after", "fidelity", "pass", "seed"]


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    seed: int = 0
    out_path: str = "-"
    fmt: str = "csv"
    k_list: Optional[tuple[int, ...]] = (8, 16, 32)  # None: gen-dyson without --K
    p_list: tuple[int, ...] = (1, 2)
    c: float = 0.5
    delta: float = 0.25
    eps_list: tuple[float, ...] = (1e-2,)
    n: int = 1
    a: int = 1
    trials: int = 1
    m: int = 1
    restarts: int = 20
    t_total: Optional[float] = 1.0  # None: gen-dyson without --t
    config_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.subcommand not in _SWEEPS:
            raise ValueError(f"unknown subcommand {self.subcommand!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if () in (self.k_list, self.p_list, self.eps_list):
            raise ValueError("list parameters must be non-empty")


def trial_seed(base: int, index: int) -> int:
    """Derived per-trial key for the counter-based generator."""
    return base + index


def trial_rng(base: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=trial_seed(base, index)))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def write_rows(rows: Sequence[dict], header: Sequence[str], out_path: str, fmt: str) -> None:
    if fmt == "csv":
        text_target = sys.stdout if out_path == "-" else open(out_path, "w", newline="")
        try:
            writer = csv.writer(text_target)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in header])
        finally:
            if text_target is not sys.stdout:
                text_target.close()
    else:
        payload = [{col: _json_value(row.get(col)) for col in header} for row in rows]
        text = json.dumps(payload, indent=1)
        if out_path == "-":
            sys.stdout.write(text + "\n")
        else:
            Path(out_path).write_text(text + "\n")


# ---------------------------------------------------------------------------
# Row functions, one per subcommand: (cfg, task) -> row.
# ---------------------------------------------------------------------------


def _error_row(k, m, p, c, eta_max, e, bound, ok, seed) -> dict:
    """One ``ERROR_HEADER`` row."""
    return dict(zip(ERROR_HEADER, (k, m, p, c, eta_max, e, bound, ok, seed)))


def _only(cfg: RunConfig, flag: str):
    """The single value of a list flag that a sweep reads once."""
    values = getattr(cfg, _FLAGS[flag][0])
    if len(values) != 1:
        given = ",".join(str(v) for v in values)
        raise ValueError(f"{cfg.subcommand} reads one --{flag} value, got {given}")
    return values[0]


def _uncompute_row(cfg: RunConfig, task: tuple[int, int]) -> dict:
    eps_i, trial = task
    eps = cfg.eps_list[eps_i]
    idx = eps_i * cfg.trials + trial
    rng = trial_rng(cfg.seed, idx)
    norm = (1.0 - cfg.delta) * rng.uniform(0.4, 1.0)
    h = random_hermitian(2**cfg.n, norm, rng)
    vh = hermitian_test_encoding(h, cfg.a, trial_seed(cfg.seed, idx) + 7919)
    try:
        _, rep = uncompute_hermitian(vh, cfg.delta, eps)
        row = rep.to_row()
        row["pass"] = True
    except EpsilonExceededError as exc:
        row = {
            "delta": cfg.delta, "eps_requested": eps,
            "eps_measured": exc.eps_measured, "queries": None,
            "ancillae_peak": None, "pass": False,
        }
    row["seed"] = trial_seed(cfg.seed, idx)
    return row


def _near_identity_set(k: int, c: float, n: int, a: int, base_seed: int) -> list:
    return [random_near_identity(n, a, c / k, base_seed + i) for i in range(k)]


def _bound_or_none(bound: Callable[..., float], *args) -> Optional[float]:
    """The bound's value, or None where it refuses its arguments."""
    try:
        return bound(*args)
    except ValueError:
        return None


def _pmacg_row(encodings, p: int, c: Optional[float], seed: int) -> dict:
    """Judge the p-MACG gadget against ``macg_bound`` at c (None: the measured K·η_max)."""
    k = len(encodings)
    eta_max = deviation_profile(encodings).eta_max
    c = eta_max * k if c is None else c
    circ = gadget_pmacg(encodings, p)
    e = gadget_error_exact(circ, block_product(encodings))
    bound = _bound_or_none(macg_bound, k, p, c)
    return _error_row(k, circ.m, p, c, eta_max, e, bound, bound is not None and e <= bound, seed)


def _macg_row(cfg: RunConfig, task: tuple[int, int, int]) -> dict:
    k, p, trial = task
    base = trial_seed(cfg.seed, trial) + 104729 * k + 1299709 * p
    encs = _near_identity_set(k, cfg.c, cfg.n, cfg.a, base)
    row = _pmacg_row(encs, p, cfg.c, trial_seed(cfg.seed, trial))
    row["e_run_bound"] = _bound_or_none(macg_run_bound, k, p, row["eta_max"])
    return row


def _ecg_row(cfg: RunConfig, task: tuple[int, int]) -> dict:
    k, trial = task
    tol = 1e-11
    base = trial_seed(cfg.seed, trial) + 15485863 * k
    encs = [random_block_encoding(cfg.n, cfg.a, base + i) for i in range(k)]
    circ = gadget_lw19(encs)
    e = gadget_error_exact(circ, block_product(encs))
    return _error_row(k, circ.m, None, None, deviation_profile(encs).eta_max, e, tol,
                      e <= tol and circ.m == math.ceil(math.log2(k)),
                      trial_seed(cfg.seed, trial))


def _lb_probe_row(cfg: RunConfig, task: tuple[int, int]) -> dict:
    k, trial = task
    base = trial_seed(cfg.seed, trial) + 32452843 * k
    encs = [random_block_encoding(cfg.n, cfg.a, base + i) for i in range(k)]
    residual = lower_bound_probe(encs, cfg.m, cfg.restarts, base + 271)
    below_bound = cfg.m < math.ceil(math.log2(k))
    threshold = 1e-3 if below_bound else 1e-8
    ok = residual >= threshold if below_bound else residual <= threshold
    return _error_row(k, cfg.m, None, None, deviation_profile(encs).eta_max, residual,
                      threshold, ok, trial_seed(cfg.seed, trial))


def _oaa_row(cfg: RunConfig, task: tuple[int, int]) -> dict:
    k, trial = task
    p = _only(cfg, "p")
    base = trial_seed(cfg.seed, trial) + 49979687 * k
    encs = _near_identity_set(k, cfg.c, cfg.n, cfg.a, base)
    circ = gadget_pmacg(encs, p)
    target = block_product(encs)
    eps = gadget_error_exact(circ, target)
    rng = trial_rng(cfg.seed, trial)
    psi = rng.standard_normal(2**cfg.n) + 1j * rng.standard_normal(2**cfg.n)
    report = oaa_boost_report(circ, target, psi)
    row = report.to_row()
    row["pass"] = report.fidelity >= 1.0 - eps**2 and report.alpha_after**2 >= 0.8
    row["seed"] = trial_seed(cfg.seed, trial)
    return row


def _gen_trotter_row(cfg: RunConfig, trial: int) -> dict:
    k = _only(cfg, "K")
    spec = TrotterSpec((0.5 * PAULI_X, 0.5 * PAULI_Z), cfg.t_total, k)
    return _pmacg_row(trotter_sequence(spec), 1, None, trial_seed(cfg.seed, trial))


def _gen_dyson_row(cfg: RunConfig, trial: int) -> dict:
    # --K and --t default to None here, so that one given beside --config,
    # whose file sets K and T, is refused rather than ignored
    if cfg.config_path:
        for flag, value in (("K", cfg.k_list), ("t", cfg.t_total)):
            if value is not None:
                raise ValueError(f"gen-dyson --config reads K and T from the file; drop --{flag}")
        spec_json = json.loads(Path(cfg.config_path).read_text())
    else:
        spec_json = {
            "generator": {
                "family": "cosine",
                "matrix": [[[0.0, 0.0], [0.0, -0.5]], [[0.0, -0.5], [0.0, 0.0]]],
                "omega": 1.0,
            },
            "lam": 0.5,
            "T": 1.0 if cfg.t_total is None else cfg.t_total,
            "K": 16 if cfg.k_list is None else _only(cfg, "K"),
        }
    encs = dyson_sequence(dyson_spec_from_json(spec_json))
    return _pmacg_row(encs, 1, None, trial_seed(cfg.seed, trial))


@dataclass(frozen=True)
class Sweep:
    """One subcommand: the flags it reads beyond --seed/--out/--format, with
    their defaults; the artifact header; the task grid; the row function."""

    flags: dict
    header: list[str]
    grid: Callable[[RunConfig], Iterable]
    row: Callable[[RunConfig, Any], dict]


_SWEEPS = {
    "uncompute": Sweep(
        dict(delta=0.25, eps="1e-2", trials=3, n=1, a=2), UNCOMPUTE_HEADER,
        # index-based over --eps: trial seeds are eps_i·trials + trial
        lambda cfg: product(range(len(cfg.eps_list)), range(cfg.trials)), _uncompute_row),
    "macg-sweep": Sweep(
        dict(K="8,16,32", p="1,2", c=0.5, trials=5, n=1, a=1), MACG_HEADER,
        lambda cfg: product(cfg.k_list, cfg.p_list, range(cfg.trials)), _macg_row),
    "ecg-verify": Sweep(
        dict(K="2..8", trials=10, n=1, a=1), ERROR_HEADER,
        lambda cfg: product(cfg.k_list, range(cfg.trials)), _ecg_row),
    "lb-probe": Sweep(
        dict(K="3,4", trials=3, n=2, a=1, m=1, restarts=20), ERROR_HEADER,
        lambda cfg: product(cfg.k_list, range(cfg.trials)), _lb_probe_row),
    "oaa-demo": Sweep(
        dict(K="8", p="1", c=0.5, trials=10, n=1, a=1), OAA_HEADER,
        lambda cfg: product(cfg.k_list, range(cfg.trials)), _oaa_row),
    "gen-trotter": Sweep(
        dict(K="16", trials=1, t=1.0), ERROR_HEADER,
        lambda cfg: range(cfg.trials), _gen_trotter_row),
    "gen-dyson": Sweep(
        dict(K=None, trials=1, t=None, config=None), ERROR_HEADER,
        lambda cfg: range(cfg.trials), _gen_dyson_row),
}


def sweep_rows(cfg: RunConfig) -> list[dict]:
    """The subcommand's rows, one per task of its grid, in sorted task order."""
    sweep = _SWEEPS[cfg.subcommand]
    return [sweep.row(cfg, t) for t in sorted(set(sweep.grid(cfg)))]


def run(cfg: RunConfig) -> int:
    """Execute one subcommand, write its artifact, print a summary table to stderr."""
    rows, header = sweep_rows(cfg), _SWEEPS[cfg.subcommand].header
    write_rows(rows, header, cfg.out_path, cfg.fmt)
    failures = sum(1 for r in rows if not r.get("pass", True))
    widths = [max(len(h), 14) for h in header]
    for cells in [header] + [[_fmt(row.get(h)) for h in header] for row in rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)), file=sys.stderr)
    print(f"{cfg.subcommand}: {len(rows)} rows, {failures} failed", file=sys.stderr)
    return 0 if failures == 0 else 1


def _parse_int_list(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


# flag -> (RunConfig field, parser, help)
_FLAGS = {
    "K": ("k_list", _parse_int_list, "comma list or lo..hi range"),
    "p": ("p_list", _parse_int_list, "comma list of p values"),
    "c": ("c", float, None),
    "delta": ("delta", float, None),
    "eps": ("eps_list", _parse_float_list, "comma list of target errors"),
    "n": ("n", int, None),
    "a": ("a", int, None),
    "trials": ("trials", int, None),
    "m": ("m", int, None),
    "restarts": ("restarts", int, None),
    "t": ("t_total", float, None),
    "config": ("config_path", str, "JSON generator family"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bechain",
        description="verification sweeps for block-encoding pipelines and gadgets",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, sweep in _SWEEPS.items():
        sp = sub.add_parser(name)
        for flag, default in sweep.flags.items():
            dest, parse, text = _FLAGS[flag]
            sp.add_argument(f"--{flag}", dest=dest, type=parse, default=default, help=text)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default="-", dest="out_path")
        sp.add_argument("--format", default="csv", choices=("csv", "json"), dest="fmt")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
