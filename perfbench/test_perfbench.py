"""Tests of the benchmark's own reference, checks and tracing.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS before numpy is used for work)

bc = run.import_bechain()

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dense_mcm(unitaries, m, a, n, v):
    """The full MCM unitary, built densely: (I ⊗ U_K)·Π_i[(I⊗Π₀ + V⊗Π_⊥)(I ⊗ U_i)]."""
    dm = 2**m
    p0 = np.zeros((2**a, 2**a))
    p0[0, 0] = 1.0
    p0 = np.kron(p0, np.eye(2**n))
    pp = np.eye(p0.shape[0]) - p0
    out = np.kron(np.eye(dm), unitaries[0])
    for u in unitaries[1:]:
        out = np.kron(np.eye(dm), u) @ (np.kron(np.eye(dm), p0) + np.kron(v, pp)) @ out
    return out


@pytest.mark.parametrize("k,m", [(3, 1), (4, 2), (6, 2)])
def test_embe_corner_matches_dense_circuit(k, m):
    rng = inputs.stream(7, k, m)
    us = [inputs.haar(4, rng) for _ in range(k)]
    v = ref.increment(m)
    dense = _dense_mcm(us, m, 1, 1, v)
    assert np.allclose(ref.embe_corner(us, m, 1, 1, v), dense[:2, :2], atol=1e-13)


def test_run_bound_equals_brute_force_sum_over_strings():
    eta = 0.3
    for k in range(2, 9):
        for p in (1, 2):
            total = 0.0
            for bits in itertools.product((0, 1), repeat=k - 1):
                w = sum(bits)
                if w and w % 2**p == 0:
                    runs = sum(1 for i, b in enumerate(bits) if b and (i == 0 or not bits[i - 1]))
                    total += eta ** (2 * runs)
            assert ref.run_bound(k, p, eta) == pytest.approx(total, rel=1e-12, abs=1e-300)


def test_dilations_and_encodings_hold_their_blocks():
    rng = inputs.stream(3)
    h = inputs.hermitian(4, 0.6, rng)
    a_mat = inputs.complex_matrix(4, 0.6, rng)
    for u in (ref.hermitian_dilation(h), ref.general_dilation(a_mat)):
        assert ref.unitarity_defect(u) < 1e-12
    assert np.allclose(ref.hermitian_dilation(h)[:4, :4], h)
    assert np.allclose(ref.general_dilation(a_mat)[4:, :4], a_mat)
    for target, u in ((h, inputs.hermitian_encoding(h, 3, 2, rng)),
                      (a_mat, inputs.general_encoding(a_mat, 3, 2, rng))):
        assert u.shape == (32, 32)
        assert ref.unitarity_defect(u) < 1e-12
        assert np.allclose(ref.corner(u, 2), target, atol=1e-13)


def test_near_identity_deviation():
    u = inputs.near_identity(8, 0.1, inputs.stream(5))
    assert ref.opnorm(u - np.eye(8)) == pytest.approx(0.09, rel=1e-12)


def _phase_first_row(u, phi):
    d = np.ones(u.shape[0], dtype=complex)
    d[0] = np.exp(1j * phi)
    return d[:, None] * u


def test_perturbed_uncompute_block_is_counted_as_failed():
    wl = workloads.uncompute(11, bc)
    op = wl.ops[0]
    result, report = op.run(bc)

    tally = run.Tally(["good", "perturbed"])
    good = workloads.Op("good", lambda lib: (result, report), op.check)
    # a diagonal phase keeps U unitary but moves the encoded block off H
    perturbed = bc.BlockEncoding(_phase_first_row(result.u, 1.0), result.a, result.n)
    bad = workloads.Op("perturbed", lambda lib: (perturbed, report), op.check)
    run.run_round([good, bad], bc, tally)
    assert (tally.attempted, tally.failed, tally.incorrect) == (2, 1, 1)
    assert next(iter(tally.reasons)).startswith("perturbed: block error")


def test_gadget_checks_catch_perturbed_outputs():
    wl = workloads.gadget(12, bc)
    ops = {op.name: op for op in wl.ops}
    pmacg = ops["pmacg K=16 p=1"]
    m, target, e, leak, eta = pmacg.run(bc)
    assert pmacg.check((m, target, e, leak, eta)) is None
    leak_bad = leak.copy()
    leak_bad[0, 0] += 1e-8
    assert "leakage mismatch" in pmacg.check((m, target, e, leak_bad, eta))
    assert "EMBE error mismatch" in pmacg.check((m, target, e + 1e-8, leak, eta))

    lw = ops["lw19 K=5"]
    m, target, e = lw.run(bc)
    assert lw.check((m, target, e)) is None
    assert "gadget width" in lw.check((m - 1, target, e))


def test_probe_checks():
    assert workloads._check_feasible(1e-9) is None
    assert workloads._check_feasible(1e-7) is not None
    assert workloads._check_infeasible((0.2, 0.3)) is None
    assert workloads._check_infeasible((1e-12, 0.3)) is not None
    assert workloads._check_infeasible((0.2, 2.5)) is not None


def test_tracer_self_time_and_names():
    tracer = tracing.Tracer()
    lib = tracing.TracedLib(bc, tracer)
    with tracer.span("outer", op_id=0):
        lib.opnorm(np.eye(4))
        lib.BlockEncoding(np.eye(4), 1, 1)
    assert tracer.names == ["outer", "linalg.opnorm", "encoding.BlockEncoding"]
    assert tracer.parents == [tracing.NO_PARENT, 0, 0]
    assert tracer.op_ids == [0, 0, 0]
    totals = tracer.self_times()
    outer = (tracer.ends[0] - tracer.starts[0]) * 1e-9
    children = sum((tracer.ends[i] - tracer.starts[i]) * 1e-9 for i in (1, 2))
    assert totals["outer"][0] == pytest.approx(outer - children, abs=1e-9)
    assert totals["linalg.opnorm"][1] == 1


def test_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tally = run.Tally(["op"])
    tally.wall[0].append(1.0)
    tally.cpu[0].append(1.0)
    printed = {**run.end_to_end_metrics(1.0, tally), **run.layer_metrics({}, 1, 0.0)}
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {name: m["unit"] for name, m in printed.items()} == declared


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gadget", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
