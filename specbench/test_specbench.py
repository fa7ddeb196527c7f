"""Tests of the benchmark itself: seeded inputs, shape guard, output checks,
tracer and the result contract.

    python3 -m pytest -q specbench
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import GATE_KINDS, LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, ShapeError, check_output, check_shape  # noqa: E402


def cli_output(argv) -> tuple[int, bytes]:
    from specwalk import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def with_option(argv, flag, value):
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


# --- seeded inputs and shape guard ---------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_argv_depends_only_on_seed_and_index(name):
    w = WORKLOADS[name]
    assert w.argv(3, 1) == w.argv(3, 1)
    assert w.argv(3, 1) != w.argv(4, 1)
    assert w.argv(3, 1) != w.argv(3, 2)
    argv = w.argv(3, 1)
    assert len(argv) % 2 == 1 and all(a.startswith("--") for a in argv[1::2])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_shape_guard_accepts_seeded_draws(name):
    w = WORKLOADS[name]
    for seed in range(4):
        check_shape(w, w.argv(seed, 0))


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("spectrum-binary", "--n", "5"),  # smaller register
        ("spectrum-binary", "--J", None),  # g == J merges the strength groups
        ("spectrum-unary", "--n", "4"),  # fewer distinct strengths and qubits
        ("zeno-sample", "--J", None),  # g == J/2 merges groups at s = 1/2
    ],
)
def test_shape_guard_rejects_changed_work(name, flag, value):
    w = WORKLOADS[name]
    argv = w.argv(0, 0)
    if value is None:
        g = float(workloads.options(argv)["--g"])
        value = f"{g:.6f}" if name == "spectrum-binary" else f"{2 * g:.6f}"
    with pytest.raises(ShapeError):
        check_shape(w, with_option(argv, flag, value))


# --- output checks ---------------------------------------------------------------


@pytest.fixture(scope="module")
def spectrum_run():
    argv = WORKLOADS["spectrum-binary"].warmup_argv()
    code, out = cli_output(argv)
    return argv, code, out


@pytest.fixture(scope="module")
def zeno_run():
    argv = WORKLOADS["zeno-sample"].warmup_argv()
    code, out = cli_output(argv)
    return argv, code, out


def edited(stdout: bytes, edit) -> bytes:
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload).encode()


def test_spectrum_check_accepts_real_output(spectrum_run):
    assert check_output(*spectrum_run) is None
    argv = WORKLOADS["spectrum-unary"].warmup_argv()
    assert check_output(argv, *cli_output(argv)) is None


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update({"pass": False}),
        lambda p: p.update({"max_error": 1e-6}),
        lambda p: p.update({"closure_error": 1e-6}),
        lambda p: p["rows"][0].update({"energy_rescaled": p["rows"][0]["energy_rescaled"] + 1e-6}),
        lambda p: p["rows"].pop(),
        lambda p: p["rows"][0].pop("energy_rescaled"),
        lambda p: p.update({"n": 3}),
    ],
)
def test_spectrum_check_rejects_wrong_output(spectrum_run, edit):
    argv, code, out = spectrum_run
    assert check_output(argv, code, edited(out, edit)) is not None


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p["steps"].pop(),
        lambda p: p["steps"][0].update({"ground_probability": 1.5}),
        lambda p: p["steps"][1].update({"oracle_overlap": -0.1}),
        lambda p: p["steps"][0].update({"energy_rescaled": -1.5}),
        lambda p: p.update({"final_fidelity": 1.01}),
        lambda p: p.update({"seed": p["seed"] + 1}),
        lambda p: p.update({"schedule": [0.25, 1.0]}),
        lambda p: p.update({"steps": None}),
    ],
)
def test_zeno_check_rejects_wrong_output(zeno_run, edit):
    argv, code, out = zeno_run
    assert check_output(argv, code, out) is None
    assert check_output(argv, code, edited(out, edit)) is not None


def test_check_rejects_failed_runs(spectrum_run):
    argv, _, out = spectrum_run
    assert check_output(argv, 1, out) == "exit code 1"
    assert check_output(argv, 0, b"Traceback").startswith("stdout is not JSON")


# --- tracer ----------------------------------------------------------------------


def test_tracer_keeps_bytes_counts_repeat_and_uninstall_restores(zeno_run):
    import specwalk.cli
    import specwalk.measurement
    from specwalk.simulator import QuantumState

    argv, _, plain = zeno_run
    before = (specwalk.cli.main, specwalk.measurement.invariant_blocks, QuantumState.apply)
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            assert specwalk.measurement.invariant_blocks is not before[1]
            assert cli_output(argv)[1] == plain
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(1.0, 1.0)
        counts.append({k: v for k, v in metrics.items() if not k.endswith(("_s", "_gate"))})
    assert (specwalk.cli.main, specwalk.measurement.invariant_blocks,
            QuantumState.apply) == before
    assert set(metrics) == set(LAYER_METRICS)
    assert counts[0] == counts[1]
    assert metrics["simulator.gate_apps"] == sum(
        metrics[f"simulator.gate_apps.{k}"] for k in GATE_KINDS
    ) > 0
    assert metrics["measurement.pe_steps"] > 0 and metrics["walk.builds"] == 2
    assert {s["layer"] for s in tracer.span_records(0)} == {
        "cli", "hamiltonian", "walk", "blocks", "simulator", "measurement"}


# --- contract --------------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "specbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", "zeno-sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
