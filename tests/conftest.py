import os

# Pin BLAS to one thread before numpy loads: on a small host, OpenBLAS
# threads compete with each other and with any neighbouring process, and the
# timed acceptance criteria then measure the contention instead of the code.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest


@pytest.fixture
def report(request):
    """Emit one PASS/FAIL line per acceptance criterion, then assert it.

    Writes through the terminal reporter so the verdict lands in the log even
    while pytest captures test stdout.
    """
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num: int, ok: bool, msg: str) -> None:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {msg}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
        assert ok, f"criterion {num}: {msg}"

    return _report
