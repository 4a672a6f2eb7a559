"""Benchmark of the bechain package, run from the root of a checkout:

    python3 perfbench/run.py --workload {uncompute,gadget,probe} --seed N --seconds S --trace {0,1}

One process builds the workload's inputs from the seed, sets up, then runs
whole rounds of the workload's operations until ``--seconds`` have passed,
checking every output against the independent reference.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: OpenBLAS threads would compete
# with each other on a 2-core machine and make every timing noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3

# The ``module.function`` names whose self time and call count the traced run
# reports; README.md says which end-to-end metric each should move.
LAYER_FUNCTIONS = (
    "linalg.is_unitary", "linalg.opnorm", "encoding.BlockEncoding",
    "qsp.approx_half_sqrt", "qsp.solve_phases", "qsp.qsvt_apply",
    "lcu.lcu_i_minus_h2", "lcu.lcu_w_uh",
    "uncompute.uncompute_hermitian", "uncompute.uncompute_general",
    "mcm.gadget_pmacg", "mcm.gadget_lw19", "mcm.block_product",
    "mcm.gadget_error_exact", "mcm.sum_bad_sequences", "encoding.deviation_profile",
    "oaa.oaa_boost_report", "appgen.trotter_sequence", "appgen.dyson_sequence",
    "mcm.lower_bound_probe",
)


def seconds_since_process_start() -> float:
    """Wall time since this process started, from /proc (10 ms resolution)."""
    ticks = os.sysconf("SC_CLK_TCK")
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / ticks


def thread_count() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def import_bechain() -> Any:
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bechain" / "__init__.py").is_file():
        raise SystemExit(f"bechain sources not found under {src}")
    sys.path.insert(0, str(src))
    import bechain

    if Path(bechain.__file__).resolve().parent != (src / "bechain").resolve():
        raise SystemExit(f"imported bechain from {bechain.__file__}, not from {src}")
    return bechain


@dataclass
class Tally:
    """What one sweep measured, and how its operations fared.

    ``wall[i]`` and ``cpu[i]`` hold operation i's times, one per round.
    """

    names: list[str]
    wall: list[list[float]] = field(init=False)
    cpu: list[list[float]] = field(init=False)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.wall = [[] for _ in self.names]
        self.cpu = [[] for _ in self.names]

    @property
    def rounds(self) -> int:
        return len(self.wall[0])

    def op_medians(self) -> list[float]:
        return [statistics.median(times) for times in self.wall]

    def sweep_s(self) -> float:
        """Wall time of one round, each operation at its median over the rounds."""
        return sum(self.op_medians())

    def cpu_s(self) -> float:
        return sum(statistics.median(times) for times in self.cpu)

    def fail(self, op_name: str, reason: str) -> None:
        key = f"{op_name}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1
        self.failed += 1


def run_op(op: Any, lib: Any) -> tuple[Any, Optional[str], float, float]:
    """Run one operation; returns (output, error, wall seconds, CPU seconds)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        out, error = op.run(lib), None
    except Exception as exc:  # an operation that raises is counted as failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - wall0, time.process_time() - cpu0


def run_round(ops: list, lib: Any, tally: Tally, tracer: Any = None) -> None:
    for i, op in enumerate(ops):
        if tracer is None:
            out, error, dw, dc = run_op(op, lib)
        else:
            with tracer.span(f"op.{op.name}", op_id=tally.attempted):
                out, error, dw, dc = run_op(op, lib)
        tally.attempted += 1
        tally.wall[i].append(dw)
        tally.cpu[i].append(dc)
        if error is None:
            error = op.check(out)
            if error is not None:
                tally.incorrect += 1
        if error is not None:
            tally.fail(op.name, error)


def sweep(ops: list, lib: Any, seconds: float, tally: Tally,
          tracer: Any = None, after_round: Any = None) -> None:
    """Whole rounds of ``ops`` until ``seconds`` have passed."""
    start = time.perf_counter()
    while True:
        run_round(ops, lib, tally, tracer)
        if after_round is not None:
            after_round()
        if time.perf_counter() - start >= seconds:
            return


def set_up(build: Any, bc: Any, seed: int, import_s: float) -> tuple[Any, float]:
    """Build the workload several times, then warm up once.

    set-up time = imports (once) + median build (inputs and their wrapping)
    + warm-up (operations run once to fill the package's caches).
    """
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = build(seed, bc)
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for op in workload.warmup:
        out = op.run(bc)
        error = op.check(out)
        if error is not None:
            raise SystemExit(f"warm-up {op.name} failed its check: {error}")
    warmup_s = time.perf_counter() - t0
    return workload, import_s + statistics.median(builds) + warmup_s


def end_to_end_metrics(setup_s: float, tally: Tally) -> dict[str, dict]:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "sweep_s": {"value": tally.sweep_s(), "unit": "s"},
        "op_p50_s": {"value": statistics.median(tally.op_medians()), "unit": "s"},
        "cpu_s": {"value": tally.cpu_s(), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def layer_metrics(totals: dict, rounds: int, overhead_s: float) -> dict[str, dict]:
    """Per traced round: self seconds and calls of each function in LAYER_FUNCTIONS."""
    metrics: dict[str, dict] = {}
    for name in LAYER_FUNCTIONS:
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}.s"] = {"value": self_s / rounds, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls / rounds, "unit": "count"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def write_trace(workload_name: str, seed: int, tracer: Any, totals: dict,
                replays: list[dict], untraced: Tally, traced: Tally) -> Path:
    """Write the spans and the per-layer summary; returns the summary's path."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}"
    tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    summary = {
        "workload": workload_name,
        "seed": seed,
        "rounds": {"untraced": untraced.rounds, "traced": traced.rounds},
        "sweep_s": {"untraced": untraced.sweep_s(), "traced": traced.sweep_s()},
        "per_round": {name: {"self_s": s / traced.rounds, "calls": c / traced.rounds}
                      for name, (s, c) in sorted(totals.items())},
        "replay": replays,
    }
    path = OUT_DIR / f"{stem}-layers.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    return path


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    bc = import_bechain()
    import_s = seconds_since_process_start()
    workload, setup_s = set_up(WORKLOADS[args.workload], bc, args.seed, import_s)

    untraced = Tally([op.name for op in workload.ops])
    sweeps = [untraced]
    replays: list[dict] = []
    if not args.trace:
        sweep(workload.ops, bc, args.seconds, untraced)
        metrics = end_to_end_metrics(setup_s, untraced)
    else:
        # half the time untraced, half traced: the difference of the two
        # sweep times is the tracing overhead
        sweep(workload.ops, bc, args.seconds / 2.0, untraced)
        tracer = tracing.Tracer()
        lib = tracing.TracedLib(bc, tracer)
        traced = Tally(untraced.names)
        sweeps.append(traced)

        def replay() -> None:
            if workload.replay is not None:
                with tracer.span("replay"):
                    replays.append(workload.replay(lib))

        sweep(workload.ops, lib, args.seconds / 2.0, traced, tracer, replay)
        totals = tracer.self_times()
        metrics = layer_metrics(totals, traced.rounds, traced.sweep_s() - untraced.sweep_s())
        path = write_trace(args.workload, args.seed, tracer, totals, replays, untraced, traced)
        print(f"# spans and per-layer summary written to {path.relative_to(ROOT)}")

    replay_failures = [f for r in replays for f in r["failures"]]
    print(f"# workload={args.workload} seed={args.seed} ops/round={len(workload.ops)} "
          f"rounds={untraced.rounds} threads={thread_count()} nproc={os.cpu_count()}")
    for name, median in zip(untraced.names, untraced.op_medians()):
        print(f"# {name}: median {median:.4f} s over {untraced.rounds} rounds")
    if workload.report is not None:
        print(f"# {workload.report()}")
    for t in sweeps:
        for reason, count in sorted(t.reasons.items()):
            print(f"# FAILED x{count}: {reason}")
    for failure in replay_failures:
        print(f"# REPLAY stage missed its budget or unitarity: {failure}")
    print(json.dumps({
        "correct": not any(t.incorrect for t in sweeps) and not replay_failures,
        "attempted": sum(t.attempted for t in sweeps),
        "failed": sum(t.failed for t in sweeps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
