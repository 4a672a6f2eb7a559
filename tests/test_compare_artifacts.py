"""The cross-commit verdict gate, scripts/compare_artifacts.py."""

import csv
import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"
_spec = importlib.util.spec_from_file_location("compare_artifacts", _SCRIPT)
compare_artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_artifacts)

HEADER = ["K", "m", "p", "c", "eta_max", "e_measured", "e_bound", "pass", "seed"]
E = 0.0123456789012
ROWS = [
    ["8", "1", "1", "0.5", "0.0612345678901", repr(E), "0.00594853814734", "true", "42"],
    ["16", "1", "2", "0.5", "0.0312345678901", "1.2e-16", "", "false", "43"],
]


def write_dir(path: Path, header, rows) -> Path:
    path.mkdir(parents=True)
    with (path / "macg-sweep.csv").open("w", newline="") as f:
        csv.writer(f).writerows([header] + rows)
    return path


def gate(root: Path, header=HEADER, edit=None) -> int:
    """Exit code of the gate on ROWS against ROWS with one cell edited."""
    rows = [list(r) for r in ROWS]
    if edit is not None:
        i, col, value = edit
        rows[i][HEADER.index(col)] = value
    parent = write_dir(root / "parent", HEADER, ROWS)
    change = write_dir(root / "change", header, rows)
    return compare_artifacts.main(["compare_artifacts.py", str(parent), str(change)])


def test_identical_directories_pass(tmp_path, capsys):
    assert gate(tmp_path) == 0
    assert "0 breaches" in capsys.readouterr().out


def test_roundoff_within_tolerance_passes(tmp_path, capsys):
    # half the allowance 1e-9·scale + 1e-14, on a float and on a roundoff zero
    moved = repr(E + 0.5 * (1e-9 * E + 1e-14))
    assert gate(tmp_path / "float", edit=(0, "e_measured", moved)) == 0
    assert gate(tmp_path / "zero", edit=(1, "e_measured", "5e-15")) == 0


@pytest.mark.parametrize(
    "edit, header",
    [
        ((0, "e_measured", repr(E * (1 + 1e-8))), HEADER),  # a float moved by 1e-8 relative
        ((0, "pass", "false"), HEADER),  # a flipped verdict
        ((1, "seed", "44"), HEADER),  # a changed integer
        (None, HEADER[:-1] + ["trial_seed"]),  # a changed header
    ],
    ids=["float-1e-8", "pass", "integer", "header"],
)
def test_breaches_exit_1(tmp_path, capsys, edit, header):
    assert gate(tmp_path, header=header, edit=edit) == 1
    assert "BREACH" in capsys.readouterr().out
