import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from specwalk.cli import main
from specwalk.pauli import MATRIX_QUBIT_CAP
from specwalk.simulator import SIMULATION_QUBIT_CAP

from conftest import mixed_distance_chain


def run_cli(args, tmp_path=None):
    """Invoke the entry point in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_spectrum_passes_and_reports(tmp_path):
    out = tmp_path / "spec.json"
    code, _ = run_cli(
        ["spectrum", "--model", "tfim", "--n", "3", "--g", "1", "--J", "1",
         "--encoding", "binary", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["max_error"] < 1e-9
    assert all(row["abs_error"] < 1e-9 for row in payload["rows"])


@pytest.mark.parametrize("encoding", ["binary", "unary"])
def test_spectrum_identity_only_row(tmp_path, encoding):
    """The control register is empty, so the walk is the sign -I alone: its
    phases are exactly 0, and `n` is the file's width, not the --n default."""
    ham = tmp_path / "ident.json"
    ham.write_text('{"n_qubits": 1, "terms": [{"pauli": "I", "coeff": 1.0}]}')
    out = tmp_path / "spec.json"
    code, _ = run_cli(
        ["spectrum", "--model", "file", "--hamiltonian-file", str(ham),
         "--encoding", encoding, "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 1
    assert payload["max_error"] == 0.0
    assert all(row["theta_expected"] == 0.0 for row in payload["rows"])
    assert all(row["matched_phase"] == 0.0 for row in payload["rows"])


def test_spectrum_malformed_file_exits_2(tmp_path, capsys):
    ham = tmp_path / "broken.json"
    ham.write_text('{"n_qubits": 1, "terms": [')
    code, _ = run_cli(["spectrum", "--model", "file", "--hamiltonian-file", str(ham)])
    assert code == 2


def test_zeno_analysis(tmp_path):
    out = tmp_path / "zeno.json"
    code, _ = run_cli(
        ["zeno", "--model", "tfim", "--n", "2", "--schedule-steps", "3",
         "--mode", "analyze", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    product = 1.0
    for step in payload["steps"]:
        product *= step["oracle_overlap"]
    assert abs(payload["success_probability"] - product) < 1e-6
    assert payload["final_fidelity"] > 1 - 1e-6


def test_zeno_single_jump(tmp_path):
    out = tmp_path / "zeno1.json"
    code, _ = run_cli(
        ["zeno", "--model", "tfim", "--n", "2", "--schedule", "1.0",
         "--mode", "analyze", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["success_probability"] - payload["steps"][0]["oracle_overlap"]) < 1e-9


def test_zeno_fidelity_counts_a_degenerate_ground_space():
    # at g = 0 the final Hamiltonian is Z0 Z1, whose ground space is
    # two-dimensional; the prepared state lies wholly inside it
    code, out = run_cli(["zeno", "--n", "2", "--g", "0", "--schedule-steps", "2"])
    assert code == 0
    assert json.loads(out)["final_fidelity"] == 1.0


def test_zeno_csv_has_one_line_per_schedule_step():
    from specwalk.measurement import ZenoStep

    code, text = run_cli(["zeno", "--model", "tfim", "--n", "2", "--schedule-steps", "3",
                          "--format", "csv"])
    assert code == 0
    header, *lines = text.splitlines()
    assert header.split(",") == sorted(f.name for f in dataclasses.fields(ZenoStep))
    assert len(lines) == 3
    g = header.split(",").index("g")
    assert [float(line.split(",")[g]) for line in lines] == pytest.approx([1 / 3, 2 / 3, 1])


def test_zeno_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["zeno", "--model", "tfim", "--n", "2", "--schedule-steps", "2",
            "--mode", "sample", "--seed", "9", "--shots", "40"]
    assert run_cli(args + ["--out", str(out1)])[0] == 0
    assert run_cli(args + ["--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_zeno_bad_schedule_exits_2():
    code, _ = run_cli(
        ["zeno", "--model", "tfim", "--n", "2", "--schedule", "0.5,0.9"]
    )
    assert code == 2


def test_zeno_sample_requires_seed():
    code, _ = run_cli(["zeno", "--model", "tfim", "--n", "2", "--mode", "sample"])
    assert code == 2


def test_resources_table_and_estimates(tmp_path):
    out = tmp_path / "res.json"
    code, _ = run_cli(
        ["resources", "--model", "tfim", "--n", "4", "--g", "1", "--J", "0.7",
         "--encoding", "unary", "--gap", "0.1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    by = {row["encoding"]: row for row in payload["encoding_table"]}
    assert by["unary"]["rotations"] == 2
    kinds = {row["method"]: row["kind"] for row in payload["rows"]}
    assert kinds["walk"] == "measured"
    assert kinds["trotter-lattice"] == "estimate"


def test_resources_gap_sweep_monotone(tmp_path):
    out = tmp_path / "res.csv"
    code, _ = run_cli(
        ["resources", "--model", "tfim", "--n", "3", "--gap", "0.4,0.2,0.1",
         "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    walk_totals = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if row["method"] == "walk":
            walk_totals.append(float(row["total_estimate"]))
    assert walk_totals == sorted(walk_totals)  # shrinking gap raises the cost


def test_resources_measures_above_simulation_cap(tmp_path):
    # building a census simulates nothing, so 12 sites (far above the dense
    # cap once control and pe qubits are added) still get measured rows
    out = tmp_path / "big.json"
    code, _ = run_cli(
        ["resources", "--model", "tfim", "--n", "12", "--gap", "0.1", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["warnings"] == []
    by = {row["encoding"]: row for row in payload["encoding_table"]}
    assert set(by) == {"binary", "unary"}
    assert all(row["kind"] == "measured" for row in by.values())
    walk = next(row for row in payload["rows"] if row["method"] == "walk")
    assert walk["kind"] == "measured"


@pytest.mark.parametrize("n, binary_rotation_gates", [(8, 30), (16, 62), (32, 126)])
def test_resources_unary_rotations_do_not_grow_with_the_lattice(
    tmp_path, n, binary_rotation_gates
):
    # The paper's second claim: the unary encoding's rotations scale with the
    # number of distinct coefficients (one for TFIM at the default g = J),
    # not with the lattice; the binary prepare tree grows with the terms.
    out = tmp_path / "res.json"
    code, _ = run_cli(["resources", "--model", "tfim", "--n", str(n), "--out", str(out)])
    assert code == 0
    by = {row["encoding"]: row for row in json.loads(out.read_text())["encoding_table"]}
    assert by["binary"]["rotation_gates"] == binary_rotation_gates
    assert (by["unary"]["rotation_gates"], by["unary"]["rotations"]) == (2, 1)
    assert all(row["kind"] == "measured" for row in by.values())


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "tfim", "n": 2, "g": 1.0, "J": 1.0}))
    out = tmp_path / "o.json"
    code, _ = run_cli(
        ["spectrum", "--config", str(cfg), "--n", "3", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["n"] == 3  # the flag wins


def test_hybrid_requires_long_range():
    code, _ = run_cli(["spectrum", "--model", "tfim", "--n", "4", "--encoding", "hybrid"])
    assert code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "specwalk.cli", "spectrum", "--model", "tfim", "--n", "2"],
        env=dict(os.environ, PYTHONWARNINGS="error"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_spectrum_bytes_do_not_depend_on_the_blas_thread_count():
    """Pinned at n=6: at binary TFIM n=8, `matched_phase` moves with the count."""
    argv = [sys.executable, "-m", "specwalk.cli", "spectrum", "--model", "tfim", "--n", "6",
            "--g", "0.7", "--J", "1.3", "--encoding", "binary"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONWARNINGS="error")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def run_child(argv, threads):
    """`python argv` with src on the path and OPENBLAS_NUM_THREADS set to
    `threads`, or removed when it is None."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc")
@pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")])
def test_importing_specwalk_sets_one_blas_thread_unless_the_user_set_a_count(
    threads, expected
):
    code = (
        "import os, specwalk, numpy as np; np.linalg.eigh(np.eye(64)); "
        "status = open('/proc/self/status').read().split('\\n'); "
        "print(os.environ['OPENBLAS_NUM_THREADS'], "
        "next(line.split()[1] for line in status if line.startswith('Threads:')))"
    )
    variable, running = run_child(["-c", code], threads).split()
    assert variable == expected
    if expected == "1" or len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS caps at the CPUs
        assert running == expected


def test_default_spectrum_bytes_are_those_of_one_blas_thread():
    argv = ["-m", "specwalk.cli", "spectrum", "--model", "tfim", "--n", "8",
            "--encoding", "binary"]
    assert run_child(argv, None) == run_child(argv, "1")


def _out_of_memory_reason(monkeypatch, capsys, error):
    import specwalk.cli as cli

    def exhausted(cfg):
        raise error

    monkeypatch.setattr(cli, "run_spectrum", exhausted)
    code, out = run_cli(["spectrum", "--model", "tfim", "--n", "2"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert "Traceback" not in err
    return err.removeprefix("error: out of memory: ").strip()


def test_out_of_memory_exits_2(monkeypatch, capsys):
    error = MemoryError("cannot allocate the invariant blocks")
    assert _out_of_memory_reason(monkeypatch, capsys, error) == str(error)


def test_bare_out_of_memory_still_prints_a_reason(monkeypatch, capsys):
    assert _out_of_memory_reason(monkeypatch, capsys, MemoryError())


def test_failed_sampled_projection_exits_1(monkeypatch, capsys):
    import specwalk.measurement as measurement

    monkeypatch.setattr(measurement, "ZENO_MAX_ROUNDS", 0)
    code, out = run_cli(["zeno", "--n", "2", "--mode", "sample", "--seed", "1",
                         "--schedule-steps", "2"])
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: projection did not succeed within 0 rounds")
    assert "Traceback" not in err


def _refused(argv, capsys):
    """Exit code, stdout, stderr and `tracemalloc` peak of an in-process run."""
    tracemalloc.start()
    try:
        code, out = run_cli(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out, capsys.readouterr().err, peak


def test_spectrum_above_the_simulation_cap_is_refused_before_allocating(capsys):
    # unary TFIM n=13 reaches 4,333,568 states, beyond rows of 2**22: the
    # key closure stops before any row, or the reach's labels, is built
    code, out, err, peak = _refused(
        ["spectrum", "--model", "tfim", "--n", "13", "--encoding", "unary"], capsys
    )
    assert code == 2 and out == ""
    assert f"exceed the cap of 2**{SIMULATION_QUBIT_CAP}" in err
    assert "Traceback" not in err
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "n, message", [(9, "exceed the cap of 2**"), (10, "70 qubits exceeds the 62")]
)
def test_long_range_unary_spectrum_is_refused_before_allocating(capsys, n, message):
    # n=9 is 53 qubits whose keys the closure stops at 2**22 >> 9; n=10 is
    # 70 qubits, whose basis labels an int64 cannot hold
    code, out, err, peak = _refused(
        ["spectrum", "--model", "long-range", "--n", str(n), "--encoding", "unary"], capsys
    )
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["resources", "--model", "long-range", "--n", "64", "--alpha", "200"],
                     id="resources"),
        pytest.param(["spectrum", "--model", "long-range", "--n", "4", "--alpha", "1100"],
                     id="spectrum"),
    ],
)
def test_a_long_range_coupling_whose_power_overflows_is_refused(capsys, argv):
    # 63**200 and 2**1100 pass the largest float
    code, out, err, _ = _refused(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: alpha") and "distance" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, field",
    [("--time-constant", "0", "time_constant"), ("--time-constant", "-1", "time_constant"),
     ("--cost-a", "-1", "distill_a"), ("--cost-c", "0", "synth_c")],
)
def test_a_time_or_cost_constant_of_zero_or_below_is_refused(capsys, flag, value, field):
    code, out, err, _ = _refused(["resources", "--n", "3", "--gap", "0.5", flag, value], capsys)
    assert code == 2 and out == ""
    assert f"error: {field} must be positive" in err and "Traceback" not in err


def test_zeno_above_the_matrix_cap_is_refused_before_allocating(capsys):
    # the complex h0 of 14 qubits alone is 4 GiB
    n = MATRIX_QUBIT_CAP + 1
    code, out, err, peak = _refused(["zeno", "--n", str(n)], capsys)
    assert code == 2 and out == ""
    assert f"{n} qubits exceeds the dense cap of {MATRIX_QUBIT_CAP}" in err
    assert peak < 16 * 2**20


@pytest.mark.parametrize("model, n", [("tfim", 8000), ("long-range", 3000)])
def test_spectrum_above_the_matrix_cap_is_refused_before_building_its_walk(capsys, model, n):
    # the dense oracle could never take these; refuse before the model and walk exist
    code, out, err, peak = _refused(["spectrum", "--model", model, "--n", str(n)], capsys)
    assert code == 2 and out == ""
    assert f"{n} qubits exceeds the dense cap of {MATRIX_QUBIT_CAP}" in err
    assert "Traceback" not in err
    assert peak < 16 * 2**20


@pytest.mark.parametrize("encoding", ["binary", "unary"])
def test_a_file_model_above_the_matrix_cap_is_refused_before_building_its_walk(
    tmp_path, capsys, monkeypatch, encoding
):
    # a file names its own width; --n, which it never reads, stays at 3
    from specwalk import LcuHamiltonian, PauliString, cli, write_hamiltonian

    n = MATRIX_QUBIT_CAP + 1
    words = [(1.0, PauliString.single(n, 0, "Z")), (0.5, PauliString.single(n, n - 1, "X"))]
    ham = tmp_path / "wide.json"
    write_hamiltonian(LcuHamiltonian.from_terms(n, words), str(ham))

    def no_walk(*_):
        raise AssertionError("the walk was built")

    monkeypatch.setattr(cli, "build_walk", no_walk)
    argv = ["spectrum", "--model", "file", "--hamiltonian-file", str(ham), "--encoding", encoding]
    code, out = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"{n} qubits exceeds the dense cap of {MATRIX_QUBIT_CAP}" in err


def test_missing_hamiltonian_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, out = run_cli(["spectrum", "--model", "file", "--hamiltonian-file", str(missing)])
    assert code == 2 and out == ""
    assert "absent.json" in capsys.readouterr().err


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "spec.json"
    code, _ = run_cli(["spectrum", "--model", "tfim", "--n", "2", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


@pytest.mark.parametrize(
    "config",
    [
        [1, 2],  # not a JSON object
        {"n": 3.5},  # not an integer
        {"n": [3]},  # not a string or a number
        {"shots": True},
        {"mode": "weird"},  # outside the flag's choices
        {"encoding": "ternary"},
        {"no_such_key": 1},
        {"delta": 1e-3},  # options of other subcommands
        {"hamiltonian-file": "h.json"},
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(["zeno", "--config", str(path), "--n", "2"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# (subcommand, option, a valid value) for every option its code never reads
UNREAD_OPTIONS = [
    *(("spectrum", flag, value) for flag, value in [
        ("--mode", "analyze"), ("--seed", "1"), ("--shots", "10"), ("--schedule-steps", "2"),
        ("--schedule", "1"), ("--delta", "1e-3"), ("--gap", "0.1"), ("--time-constant", "1"),
        ("--cost-a", "1"), ("--cost-b", "1"), ("--cost-c", "1"),
    ]),
    *(("zeno", flag, value) for flag, value in [
        ("--hamiltonian-file", "h.json"), ("--alpha", "2"), ("--delta", "1e-3"),
        ("--gap", "0.1"), ("--time-constant", "1"), ("--cost-a", "1"), ("--cost-b", "1"),
        ("--cost-c", "1"),
    ]),
    *(("resources", flag, value) for flag, value in [
        ("--mode", "analyze"), ("--seed", "1"), ("--shots", "10"), ("--schedule-steps", "2"),
        ("--schedule", "1"),
    ]),
]


@pytest.mark.parametrize(
    "argv",
    [
        *(pytest.param([command, flag, value], id=command + flag)
          for command, flag, value in UNREAD_OPTIONS),
        pytest.param(["zeno", "--model", "long-range"], id="zeno--model-long-range"),
        pytest.param(["zeno", "--model", "file"], id="zeno--model-file"),
        pytest.param(["zeno", "--schedule", "1", "--schedule-steps", "2"],
                     id="zeno--schedule--schedule-steps"),
    ],
)
def test_options_a_subcommand_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert argv[1] in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["spectrum", "--n", "2", "--alpha", "7",
                      "--hamiltonian-file", "/nonexistent"], "--alpha", id="tfim--alpha"),
        pytest.param(["spectrum", "--n", "2", "--hamiltonian-file", "/nonexistent"],
                     "--hamiltonian-file", id="tfim--hamiltonian-file"),
        pytest.param(["spectrum", "--model", "long-range", "--n", "2", "--g", "9"], "--g",
                     id="long-range--g"),
        pytest.param(["resources", "--model", "long-range", "--n", "2", "--boundary", "open"],
                     "--boundary", id="long-range--boundary"),
        pytest.param(["spectrum", "--model", "file", "--hamiltonian-file", "h.json", "--n", "2"],
                     "--n", id="file--n"),
        pytest.param(["spectrum", "--model", "file", "--hamiltonian-file", "h.json", "--J", "1"],
                     "--J", id="file--J"),
        pytest.param(["zeno", "--n", "2", "--schedule-steps", "2", "--shots", "3"], "--shots",
                     id="analyze--shots"),
    ],
)
def test_options_the_model_or_mode_does_not_read_exit_2(tmp_path, capsys, argv, named):
    """The option is refused whether it comes as a flag, with today's default
    as its value too, or from a config file."""
    command, option = argv[0], named[2:]
    value = argv[argv.index(named) + 1]
    rest = argv[1:argv.index(named)] + argv[argv.index(named) + 2:]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({option: value}))
    for args in (argv, [command, "--config", str(config), *rest]):
        code, out = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named} is not read by") and "Traceback" not in err


def test_the_models_read_their_own_options():
    """Each model and mode still takes its own options, with today's defaults."""
    long_range = ["spectrum", "--model", "long-range", "--n", "2", "--J", "1", "--alpha", "3"]
    assert run_cli(long_range)[0] == 0
    assert run_cli(["zeno", "--n", "2", "--schedule-steps", "2", "--mode", "sample",
                    "--seed", "1", "--shots", "3"])[0] == 0
    defaults = ["--g", "1", "--J", "1", "--boundary", "open"]
    assert run_cli(["spectrum", "--n", "2", *defaults]) == run_cli(["spectrum", "--n", "2"])


def test_a_file_model_with_an_odd_y_word_runs_its_spectrum(tmp_path):
    """Its planes stay complex (`tests/test_blocks.py`), and the walk still
    matches the dense spectrum."""
    ham = tmp_path / "xy.json"
    ham.write_text(json.dumps({"n_qubits": 2, "terms": [
        {"pauli": "XY", "coeff": 0.5}, {"pauli": "YX", "coeff": -0.3},
        {"pauli": "ZI", "coeff": 0.7}, {"pauli": "IZ", "coeff": 0.2},
    ]}))
    for encoding in ("binary", "unary"):
        code, out = run_cli(["spectrum", "--model", "file", "--hamiltonian-file", str(ham),
                             "--encoding", encoding])
        assert code == 0
        assert json.loads(out)["pass"] is True


def test_a_flag_and_a_config_value_of_the_other_schedule_option_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schedule": "0.5,1"}))
    with pytest.raises(SystemExit) as exc:
        main(["zeno", "--config", str(path), "--n", "2", "--schedule-steps", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_config_values_read_as_flag_text(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": "3", "g": 1, "schedule-steps": 2}))
    from_config = run_cli(["zeno", "--config", str(path)])
    from_flags = run_cli(["zeno", "--n", "3", "--g", "1", "--schedule-steps", "2"])
    assert from_config == from_flags and from_config[0] == 0


def test_hybrid_row_and_spectrum_for_an_eligible_file_model(tmp_path):
    from specwalk import long_range_ising, write_hamiltonian

    ham = tmp_path / "chain.json"
    write_hamiltonian(long_range_ising(4, 1.0, 2.0), str(ham))
    model = ["--model", "file", "--hamiltonian-file", str(ham)]
    res = tmp_path / "res.json"
    assert run_cli(["resources", *model, "--encoding", "hybrid", "--out", str(res)])[0] == 0
    payload = json.loads(res.read_text())
    assert [row["encoding"] for row in payload["encoding_table"]] == ["binary", "unary", "hybrid"]
    walk = next(row for row in payload["rows"] if row["method"] == "walk")
    assert walk["kind"] == "measured"
    spec = tmp_path / "spec.json"
    assert run_cli(["spectrum", *model, "--encoding", "hybrid", "--out", str(spec)])[0] == 0
    assert json.loads(spec.read_text())["pass"] is True


def test_a_chain_whose_couplings_at_one_distance_differ_has_no_hybrid_walk(tmp_path, capsys):
    from specwalk import write_hamiltonian

    ham = tmp_path / "chain.json"
    write_hamiltonian(mixed_distance_chain(), str(ham))
    model = ["--model", "file", "--hamiltonian-file", str(ham)]
    code, out = run_cli(["spectrum", *model, "--encoding", "hybrid"])
    assert code == 2 and out == ""
    assert "couplings at distance 2 are not uniform" in capsys.readouterr().err
    code, out = run_cli(["resources", *model])
    assert code == 0
    assert [row["encoding"] for row in json.loads(out)["encoding_table"]] == ["binary", "unary"]


def _config_file(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return ["--config", str(path)]


def _nan_hamiltonian_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": NaN}]}')
    return ["--model", "file", "--hamiltonian-file", str(path)]


@pytest.mark.parametrize(
    "make_args, named",
    [
        pytest.param(lambda _: ["resources", "--n", "3", "--cost-b", "inf"], "'inf'", id="cost-b"),
        pytest.param(
            lambda _: ["resources", "--n", "3", "--cost-c", "nan", "--format", "csv"], "'nan'",
            id="cost-c-csv",
        ),
        pytest.param(lambda _: ["resources", "--n", "3", "--gap", "0.2,nan"], "'nan'", id="gap"),
        pytest.param(
            lambda _: ["resources", "--n", "3", "--time-constant", "nan"], "'nan'",
            id="time-constant",
        ),
        pytest.param(lambda _: ["resources", "--n", "3", "--delta=-inf"], "'-inf'", id="delta"),
        pytest.param(lambda _: ["spectrum", "--g", "nan"], "'nan'", id="g"),
        pytest.param(lambda _: ["spectrum", "--J", "inf"], "'inf'", id="J"),
        pytest.param(
            lambda _: ["spectrum", "--model", "long-range", "--n", "3", "--alpha", "nan"], "'nan'",
            id="alpha",
        ),
        pytest.param(
            lambda _: ["zeno", "--n", "2", "--schedule", "0.5,inf,1"], "'inf'", id="schedule"
        ),
        pytest.param(
            lambda tmp: ["resources", "--n", "3", *_config_file(tmp, '{"cost_a": "nan"}')],
            "'nan'", id="config-text",
        ),
        pytest.param(
            lambda tmp: ["resources", "--n", "3", *_config_file(tmp, '{"delta": NaN}')],
            "'nan'", id="config-literal",
        ),
        pytest.param(
            lambda tmp: ["spectrum", *_nan_hamiltonian_file(tmp)], "coefficient nan",
            id="hamiltonian-file",
        ),
        # finite inputs whose 1-norm, cost terms or derived quantities overflow
        pytest.param(lambda _: ["resources", "--n", "3", "--g", "1e308"], "1-norm overflows",
                     id="norm"),
        pytest.param(lambda _: ["spectrum", "--n", "3", "--g", "1e308"], "1-norm overflows",
                     id="spectrum-norm"),
        pytest.param(lambda _: ["zeno", "--n", "3", "--g", "1e308"],
                     "spectrum of h0 overflows", id="zeno-h0"),
        pytest.param(lambda _: ["zeno", "--n", "3", "--g", "1e308", "--mode", "sample",
                                "--seed", "1"], "spectrum of h0 overflows", id="zeno-h0-sample"),
        pytest.param(lambda _: ["resources", "--n", "3", "--g", "1e200", "--gap", "1e-200"],
                     "walk_cost at gap 1e-200 overflows", id="repetitions"),
        pytest.param(
            lambda _: ["resources", "--n", "3", "--time-constant", "1e308", "--gap", "1e-3"],
            "walk_cost at gap 0.001 overflows", id="evolution-time",
        ),
        pytest.param(lambda _: ["resources", "--n", "3", "--cost-a", "1e308", "--cost-b", "1e308"],
                     "walk_cost at gap 0.1 overflows", id="distillation"),
        pytest.param(lambda _: ["resources", "--n", "3", "--gap", "1e-300"],
                     "trotter_cost at gap 1e-300 overflows", id="gap-squared"),
        pytest.param(lambda _: ["resources", "--n", "3", "--gap", "1e-160", "--format", "csv"],
                     "rotations_total", id="csv-steps"),
    ],
)
def test_non_finite_inputs_exit_2(tmp_path, capsys, make_args, named):
    try:
        code = main(make_args(tmp_path))
    except SystemExit as exc:  # argparse refuses a flag value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["resources", "--n", "3", "--cost-b", "-1e308"],
     ["zeno", "--mode", "analyze", "--n", "3", "--g", "-1e-1"],
     ["spectrum", "--model", "tfim", "--n", "3", "--J", "-2E0"]],
    ids=["cost-b", "g", "J"],
)
def test_a_negative_float_in_exponent_form_is_an_option_value(argv):
    """argparse reads only forms such as -1 and -0.1 as negative numbers
    unless told otherwise; a negative number in exponent form after an
    option is its value, as it is in the `--option=value` form."""
    code, out = run_cli(argv)
    assert code == 0
    assert (code, out) == run_cli([*argv[:-2], f"{argv[-2]}={argv[-1]}"])


def test_render_refuses_non_finite_json():
    from specwalk.cli import render

    with pytest.raises(ValueError):
        render({"rows": [], "x": float("inf")}, "json")

