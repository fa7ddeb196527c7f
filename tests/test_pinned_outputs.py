"""CLI outputs pinned against files recorded before the gate kernel was
rewritten around in-place strided views.

`zeno` and `resources` must repeat the recorded bytes exactly.  `spectrum`
must repeat every field except the round-off diagnostics, which depend on
the order of floating-point operations in the kernel; those must stay at
round-off level.

Regenerate a file (only when an output is meant to change) with
`PYTHONPATH=src python -m specwalk.cli <argv> > tests/data/<name>`.
"""
import io
import json
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from specwalk.cli import main

DATA = Path(__file__).parent / "data"

_ZENO = ["zeno", "--model", "tfim", "--n", "3", "--g", "1.2", "--J", "0.8",
         "--schedule-steps", "4"]
_SAMPLE = ["--mode", "sample", "--seed", "11", "--shots", "60"]
_ODD_Y = ["spectrum", "--model", "file", "--hamiltonian-file", str(DATA / "odd-y-model.json")]

CASES = {
    "zeno-analyze-binary.json": _ZENO + ["--mode", "analyze", "--encoding", "binary"],
    "zeno-analyze-unary.json": _ZENO + ["--mode", "analyze", "--encoding", "unary"],
    "zeno-sample-binary.json": _ZENO + _SAMPLE + ["--encoding", "binary"],
    "zeno-sample-unary.json": _ZENO + _SAMPLE + ["--encoding", "unary"],
    # 7 shots are estimation blocks of 2, 3 and 2
    "zeno-sample-uneven.json": _ZENO + ["--mode", "sample", "--seed", "11", "--shots", "7",
                                        "--encoding", "binary"],
    "resources-long-range-unary.json": [
        "resources", "--model", "long-range", "--n", "4", "--alpha", "2",
        "--encoding", "unary", "--gap", "0.1,0.05", "--delta", "1e-4",
    ],
    "resources-tfim-binary.csv": [
        "resources", "--model", "tfim", "--n", "3", "--gap", "0.4,0.2",
        "--encoding", "binary", "--format", "csv",
    ],
    "spectrum-tfim-binary.json": [
        "spectrum", "--model", "tfim", "--n", "4", "--g", "1", "--J", "0.7",
        "--encoding", "binary",
    ],
    "spectrum-tfim-unary.json": [
        "spectrum", "--model", "tfim", "--n", "4", "--g", "1", "--J", "0.7",
        "--encoding", "unary",
    ],
    "spectrum-long-range-hybrid.json": [
        "spectrum", "--model", "long-range", "--n", "4", "--J", "1", "--alpha", "2",
        "--encoding", "hybrid",
    ],
    # words with one Y: the walk is not real, so its planes are complex128 rows
    "spectrum-odd-y-binary.json": _ODD_Y + ["--encoding", "binary"],
    "spectrum-odd-y-unary.json": _ODD_Y + ["--encoding", "unary"],
}

# Round-off diagnostics: allowed to move, but only at round-off level.
ROUNDOFF_FIELDS = ("abs_error", "max_error", "closure_error")
ROUNDOFF_LIMIT = 1e-12


def run_cli(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def _split_roundoff(obj, found):
    """Copy of `obj` without the round-off fields; their values go to `found`."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if key in ROUNDOFF_FIELDS:
                found.append(value)
            else:
                out[key] = _split_roundoff(value, found)
        return out
    if isinstance(obj, list):
        return [_split_roundoff(v, found) for v in obj]
    return obj


@pytest.mark.parametrize("name", [n for n in CASES if not n.startswith("spectrum")])
def test_output_byte_identical(name):
    assert run_cli(CASES[name]) == (DATA / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", [n for n in CASES if n.startswith("spectrum")])
def test_spectrum_identical_up_to_roundoff(name):
    got_errors, want_errors = [], []
    got = _split_roundoff(json.loads(run_cli(CASES[name])), got_errors)
    want = _split_roundoff(json.loads((DATA / name).read_text(encoding="utf-8")), want_errors)
    assert got == want
    assert len(got_errors) == len(want_errors) > 0
    assert max(got_errors) <= ROUNDOFF_LIMIT
    assert max(want_errors) <= ROUNDOFF_LIMIT


def test_unary_analysis_zeno_holds_no_register_vector():
    """Unary TFIM n=6 is 22 qubits, where one complex state of the register
    is 64 MiB: analysis Zeno runs on plane rows, and repeats the bytes that
    dense states gave."""
    argv = ["zeno", "--mode", "analyze", "--model", "tfim", "--n", "6", "--encoding", "unary"]
    tracemalloc.start()
    try:
        text = run_cli(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert text == (DATA / "zeno-analyze-unary-n6.json").read_text(encoding="utf-8")
