import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bechain
from bechain.cli import _SWEEPS, RunConfig, build_parser, config_from_args, main, run, trial_seed
from bechain.encoding import deviation_profile, random_block_encoding
from bechain.mcm import macg_run_bound


def _run_cli(args, tmp_path, name):
    out = tmp_path / name
    argv = args + ["--out", str(out)]
    parser = build_parser()
    code = run(config_from_args(parser.parse_args(argv)))
    return code, out.read_bytes()


def test_ecg_verify_deterministic(tmp_path, capsys):
    args = ["ecg-verify", "--K", "2..4", "--trials", "2", "--seed", "42"]
    code1, bytes1 = _run_cli(args, tmp_path, "a.csv")
    code2, bytes2 = _run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert bytes1 == bytes2
    header = bytes1.decode().splitlines()[0]
    assert header == "K,m,p,c,eta_max,e_measured,e_bound,pass,seed"


def test_uncompute_csv_schema(tmp_path, capsys):
    args = ["uncompute", "--eps", "1e-1", "--trials", "1", "--n", "1", "--a", "2", "--seed", "3"]
    code, data = _run_cli(args, tmp_path, "u.csv")
    assert code == 0
    lines = data.decode().splitlines()
    assert lines[0] == "delta,eps_requested,eps_measured,queries,ancillae_peak,pass,seed"
    assert len(lines) == 2


def test_json_format(tmp_path, capsys):
    args = ["ecg-verify", "--K", "2", "--trials", "1", "--format", "json", "--seed", "1"]
    code, data = _run_cli(args, tmp_path, "e.json")
    rows = json.loads(data)
    assert code == 0
    assert rows[0]["pass"] is True
    assert set(rows[0]) == {"K", "m", "p", "c", "eta_max", "e_measured", "e_bound", "pass", "seed"}


def test_gen_trotter_passes(tmp_path, capsys):
    code, data = _run_cli(["gen-trotter", "--K", "8", "--seed", "0"], tmp_path, "t.csv")
    assert code == 0
    assert ",true," in data.decode().splitlines()[1]


def test_gen_dyson_with_config(tmp_path, capsys):
    cfg = {
        "generator": {
            "family": "cosine",
            "matrix": [[[0.0, 0.0], [0.0, -0.5]], [[0.0, -0.5], [0.0, 0.0]]],
        },
        "T": 1.0,
        "K": 8,
        "micro_steps": 64,
    }
    cfg_path = tmp_path / "dyson.json"
    cfg_path.write_text(json.dumps(cfg))
    code, data = _run_cli(
        ["gen-dyson", "--config", str(cfg_path), "--seed", "0"], tmp_path, "d.csv"
    )
    assert code == 0
    assert ",true," in data.decode().splitlines()[1]


def test_gen_dyson_dissipative_config_uses_normalized_deviation(tmp_path, capsys):
    # constant A = −0.2·I − 0.5i·X: the propagators are contractions, encoded by
    # the ⟨1|·|0⟩ dilation, whose selector-normalized unitary is near I
    cfg = {
        "generator": {
            "family": "constant",
            "matrix": [[[-0.2, 0.0], [0.0, -0.5]], [[0.0, -0.5], [-0.2, 0.0]]],
        },
        "T": 1.0,
        "K": 32,
        "micro_steps": 32,
    }
    cfg_path = tmp_path / "dissipative.json"
    cfg_path.write_text(json.dumps(cfg))
    _, data = _run_cli(["gen-dyson", "--config", str(cfg_path)], tmp_path, "d.csv")
    row = next(csv.DictReader(data.decode().splitlines()))
    eta_max, e = float(row["eta_max"]), float(row["e_measured"])
    assert eta_max < 1.0
    assert e <= macg_run_bound(int(row["K"]), 1, eta_max)


def test_stdout_holds_only_the_artifact(capsys):
    # with --out - the table and summary go to stderr, so stdout parses
    assert main(["gen-trotter", "--K", "8", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["pass"] is True
    assert "gen-trotter: 1 rows, 0 failed" in err
    assert main(["gen-trotter", "--K", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [len(row) for row in csv.reader(lines)] == [9, 9]


def test_oaa_demo_passes(tmp_path, capsys):
    code, data = _run_cli(["oaa-demo", "--K", "8", "--trials", "2"], tmp_path, "o.csv")
    rows = list(csv.DictReader(data.decode().splitlines()))
    assert code == 0
    assert [row["pass"] for row in rows] == ["true", "true"]


def test_gen_dyson_default_generator_passes(tmp_path, capsys):
    # without --config: the cosine generator at K = 16, T = 1
    code, data = _run_cli(["gen-dyson"], tmp_path, "d.csv")
    row = next(csv.DictReader(data.decode().splitlines()))
    assert (row["K"], row["pass"]) == ("16", "true")
    assert code == 0


def test_gen_dyson_two_term_pauli_config_passes(tmp_path, capsys):
    cfg = {
        "generator": {"family": "two_term_pauli", "pauli1": "X", "pauli2": "Y",
                      "c1": 0.3, "c2": 0.4, "omega": 2.0},
        "T": 1.0,
        "K": 8,
        "micro_steps": 64,
    }
    cfg_path = tmp_path / "pauli.json"
    cfg_path.write_text(json.dumps(cfg))
    code, data = _run_cli(["gen-dyson", "--config", str(cfg_path)], tmp_path, "d.csv")
    row = next(csv.DictReader(data.decode().splitlines()))
    assert (row["K"], row["pass"]) == ("8", "true")
    assert code == 0


def test_lb_probe_reports_measured_eta_max(tmp_path, capsys):
    args = ["lb-probe", "--K", "3", "--trials", "1", "--restarts", "1", "--seed", "5"]
    _, data = _run_cli(args, tmp_path, "lb.csv")
    row = next(csv.DictReader(data.decode().splitlines()))
    base = trial_seed(5, 0) + 32452843 * 3  # the row's encodings, as lb-probe draws them
    encs = [random_block_encoding(2, 1, base + i) for i in range(3)]
    assert float(row["eta_max"]) == pytest.approx(deviation_profile(encs).eta_max, rel=1e-11)
    assert float(row["eta_max"]) > 1.0  # Haar unitaries sit far from I


def test_run_verification_runs_every_subcommand():
    # scripts/compare_artifacts.py gates the CSVs run_verification.py writes,
    # so a subcommand missing from its jobs would slip past that gate
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
    jobs = next(
        node.value for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["jobs"]
    )
    assert {job.elts[0].value for job in jobs.elts} == set(_SWEEPS)


def test_lb_probe_exact_width_k4_m2_n1_passes(tmp_path, capsys):
    # at m = ⌈log₂K⌉ an exact circuit exists, and the analytic-gradient polish reaches it
    args = ["lb-probe", "--K", "4", "--m", "2", "--n", "1", "--trials", "1",
            "--restarts", "20", "--seed", "42"]
    code, data = _run_cli(args, tmp_path, "lb.csv")
    row = next(csv.DictReader(data.decode().splitlines()))
    assert (row["K"], row["m"], row["pass"]) == ("4", "2", "true")
    assert float(row["e_measured"]) <= 1e-8
    assert code == 0


def test_lb_probe_exact_width_k3_m2_n1_passes(tmp_path, capsys):
    # the smooth Frobenius stage hands the polish a point it can take to the exact circuit
    args = ["lb-probe", "--K", "3", "--m", "2", "--n", "1", "--trials", "1",
            "--restarts", "20", "--seed", "42"]
    code, data = _run_cli(args, tmp_path, "lb.csv")
    row = next(csv.DictReader(data.decode().splitlines()))
    assert (row["K"], row["m"], row["pass"]) == ("3", "2", "true")
    assert float(row["e_measured"]) <= 1e-8
    assert code == 0


def test_subcommands_reject_flags_they_do_not_read():
    from bechain.cli import main

    for argv in (["macg-sweep", "--eps", "1e-2"], ["ecg-verify", "--p", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _child_env() -> dict:
    """Environment for a fresh interpreter that imports the same bechain as
    this process, installed or not."""
    src = str(Path(bechain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "bechain.cli", "bogus-subcommand"],
        capture_output=True,
        env=_child_env(),
    )
    assert proc.returncode == 2


def test_experiment_script_runs_its_own_checkout(tmp_path):
    # the scripts put their checkout's src first on sys.path: they run from
    # any directory with no install and no PYTHONPATH, and a bechain found
    # elsewhere on the path never stands in for the checkout's
    script = Path(__file__).resolve().parents[1] / "scripts" / "scan_gadget_scaling.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(script), "1"], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    decoy = tmp_path / "decoy" / "bechain"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("raise ImportError('decoy bechain imported')\n")
    proc = subprocess.run(
        [sys.executable, str(script), "1"], capture_output=True, text=True, cwd=tmp_path,
        env={**env, "PYTHONPATH": str(decoy.parent)},
    )
    assert proc.returncode == 0, proc.stderr


COLD_IMPORT_CHILD = """
import os
import sys
import numpy as np
import bechain, bechain.cli
from bechain import (
    approx_half_sqrt, block_product, gadget_error_exact, gadget_pmacg, lower_bound_probe,
    random_block_encoding, random_near_identity, solve_phases, uncompute_general,
    uncompute_hermitian,
)
from bechain.encoding import dilate_general, hermitian_test_encoding, pad_ancillas
from bechain.linalg import random_hermitian
from bechain.uncompute import phase_correct_twisted

encs = [random_near_identity(1, 1, 0.1, seed) for seed in range(4)]
gadget_error_exact(gadget_pmacg(encs, 1), block_product(encs))
solve_phases(approx_half_sqrt(0.25, 1e-3))
h = random_hermitian(2, 0.6, np.random.default_rng(8))
uncompute_hermitian(hermitian_test_encoding(h, 2, 17), 0.25, 1e-3)
a = np.array([[0.3, 0.2j], [-0.1, 0.4]])
uncompute_general(pad_ancillas(dilate_general(a), 2), 0.25, 1e-3)
phase_correct_twisted(np.array([[0.6, 0.8j], [0.8j, 0.6]]), 0.3, 1e-2)
lower_bound_probe([random_block_encoding(1, 1, seed) for seed in (700, 701)], 1, 1, 5)
code = bechain.cli.main(["lb-probe", "--K", "3", "--m", "2", "--n", "1", "--trials", "1",
                         "--restarts", "20", "--seed", "42", "--out", os.devnull])
assert code == 0, code
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_package_never_loads_scipy():
    # Part I (the ½√x fit, the phase solver, both uncompute pipelines and the
    # twisted phase correction), the gadgets and the lower-bound probe with its
    # BFGS are pure numpy: a fresh interpreter that runs them all, and an
    # lb-probe row, loads no scipy module
    proc = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT_CHILD],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr


def test_package_source_never_imports_scipy():
    # static guard: no module under src/bechain imports scipy, and numpy is the
    # only runtime dependency (scipy serves the tests as an independent oracle)
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "src" / "bechain").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, names)
    pyproject = (root / "pyproject.toml").read_text()
    requirements = {key: re.findall(r'"([A-Za-z0-9_.-]+)', block) for key, block in
                    re.findall(r"^(dependencies|test) = \[(.*?)\]", pyproject, re.M | re.S)}
    assert requirements["dependencies"] == ["numpy"]
    assert "scipy" in requirements["test"]


def test_failed_rows_exit_code(tmp_path, capsys):
    # the macg sweep at K = 16, p = 2 fails the closed-form bound (see notes):
    # exercised here as the nonzero-exit path
    args = ["macg-sweep", "--K", "16", "--p", "2", "--trials", "1", "--seed", "0"]
    code, data = _run_cli(args, tmp_path, "m.csv")
    assert code == 1
    assert ",false," in data.decode().splitlines()[1]


def test_macg_sweep_run_bound_column(tmp_path, capsys):
    # e_run_bound is appended after the nine shared columns; the closed-form
    # e_bound still decides `pass`, and the run-aware bound holds on every row
    args = ["macg-sweep", "--K", "8,16", "--p", "1,2", "--trials", "2", "--seed", "0"]
    code, data = _run_cli(args, tmp_path, "m.csv")
    lines = data.decode().splitlines()
    assert lines[0] == "K,m,p,c,eta_max,e_measured,e_bound,pass,seed,e_run_bound"
    rows = list(csv.DictReader(lines))
    assert len(rows) == 8
    for row in rows:
        e, run_bound = float(row["e_measured"]), float(row["e_run_bound"])
        assert e <= run_bound
        assert run_bound == pytest.approx(
            macg_run_bound(int(row["K"]), int(row["p"]), float(row["eta_max"])), rel=1e-9
        )
        assert row["pass"] == ("true" if e <= float(row["e_bound"]) else "false")
    assert code == (0 if all(r["pass"] == "true" for r in rows) else 1)


def test_run_config_validation():
    with pytest.raises(ValueError, match="subcommand"):
        RunConfig("nope")
    with pytest.raises(ValueError, match="trials"):
        RunConfig("ecg-verify", trials=0)

def test_invalid_flag_combination_exit_code(tmp_path, capsys):
    from bechain.cli import main

    assert main(["ecg-verify", "--trials", "0"]) == 2
    assert main(["macg-sweep", "--K", ""]) == 2
    # sweeps that read one value of a list flag refuse a longer list
    assert main(["oaa-demo", "--p", "1,2"]) == 2
    assert main(["gen-trotter", "--K", "8,16"]) == 2
    # the config file sets K and T, so --K and --t beside it are refused
    cfg_path = tmp_path / "dyson.json"
    cfg_path.write_text(json.dumps({"generator": {"family": "cosine", "matrix": [
        [[0.0, 0.0], [0.0, -0.5]], [[0.0, -0.5], [0.0, 0.0]]]}, "T": 1.0, "K": 8}))
    for flag, value in (("K", "8,16"), ("t", "5")):
        capsys.readouterr()
        assert main(["gen-dyson", "--config", str(cfg_path), f"--{flag}", value]) == 2
        assert f"--{flag}" in capsys.readouterr().err
    # a malformed config file is a rejected configuration, and the error names the field
    good = {"generator": {"family": "cosine", "matrix": [
        [[0.0, 0.0], [0.0, -0.5]], [[0.0, -0.5], [0.0, 0.0]]]}, "T": 1.0, "K": 8}
    cases = [
        ({k: v for k, v in good.items() if k != "K"}, "K"),
        ({k: v for k, v in good.items() if k != "T"}, "T"),
        ({k: v for k, v in good.items() if k != "generator"}, "generator"),
        ({**good, "generator": {"family": "cosine"}}, "matrix"),
        ({**good, "generator": {"matrix": good["generator"]["matrix"]}}, "family"),
        ({**good, "generator": {"family": "two_term_pauli", "pauli1": "W"}}, "pauli1"),
        ({**good, "generator": {**good["generator"], "omega": None}}, "omega"),
        ({**good, "generator": {"family": "constant", "matrix": [[1]]}}, "matrix"),
        ([good], "generator"),
        ({**good, "K": 16.9, "micro_steps": 40}, "K"),
        ({**good, "micro_steps": 40.7}, "micro_steps"),
        ({**good, "K": True}, "K"),
    ]
    for bad, field in cases:
        cfg_path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["gen-dyson", "--config", str(cfg_path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err, bad
