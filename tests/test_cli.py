import json
import subprocess
import sys
import tracemalloc

import pytest

from specwalk.cli import main
from specwalk.simulator import SIMULATION_QUBIT_CAP


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


def test_spectrum_identity_only_row(tmp_path):
    ham = tmp_path / "ident.json"
    ham.write_text('{"n_qubits": 1, "terms": [{"pauli": "I", "coeff": 1.0}]}')
    out = tmp_path / "spec.json"
    code, _ = run_cli(
        ["spectrum", "--model", "file", "--hamiltonian-file", str(ham), "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(row["theta_expected"] == 0.0 for row in payload["rows"])


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
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_out_of_memory_exits_2(monkeypatch, capsys):
    import specwalk.cli as cli

    def exhausted(cfg):
        raise MemoryError("cannot allocate the invariant blocks")

    monkeypatch.setattr(cli, "run_spectrum", exhausted)
    code, out = run_cli(["spectrum", "--model", "tfim", "--n", "2"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory")
    assert "Traceback" not in err


def test_spectrum_above_the_simulation_cap_is_refused_before_allocating(capsys):
    # unary TFIM n=6 with its pe qubit is 23 qubits: one dense vector is
    # 128 MiB, so the refusal must come before the first one is built
    tracemalloc.start()
    try:
        code, out = run_cli(["spectrum", "--model", "tfim", "--n", "6", "--encoding", "unary"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert f"23 qubits exceeds the dense cap of {SIMULATION_QUBIT_CAP}" in capsys.readouterr().err
    assert peak < 64 * 2**20


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
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(["zeno", "--config", str(path), "--n", "2"])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


def test_render_refuses_non_finite_json():
    from specwalk.cli import render

    with pytest.raises(ValueError):
        render({"rows": [], "x": float("inf")}, "json")
