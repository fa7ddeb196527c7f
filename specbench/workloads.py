"""The benchmark's workloads: seeded argv, shape guard and output checks.

Every operation is one `specwalk` CLI invocation. The workload seed and the
operation index draw the couplings; the program only ever receives the
generated argv, with every flag it reads passed explicitly so that a changed
default cannot change the work.

The shape guard rebuilds each drawn model with the library's public builders
and compares its term count, strength-group count K, register width and walk
gate counts with the fixed figures below, so a draw (or a program change)
cannot silently shrink the work. The output checks compare every payload
with the dense oracle and with the invariants the paper states.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

# Shapes the seeded draws must keep (per walk built; zeno builds one walk per
# schedule point and every point must match).
SPECTRUM_BINARY_SHAPE = {
    "terms": 11, "groups": 2, "qubits": 15, "walk_gates": 143,
    "controlled_walk_gates": 165, "boundary_eigenvalues": 0,
}
SPECTRUM_UNARY_SHAPE = {
    "terms": 10, "groups": 4, "qubits": 17, "walk_gates": 62,
    "controlled_walk_gates": 62, "boundary_eigenvalues": 2,
}
ZENO_SAMPLE_SHAPE = {
    "terms": 7, "groups": 2, "qubits": 11, "walk_gates": 67,
    "controlled_walk_gates": 81, "boundary_eigenvalues": 0,
}

SPECTRUM_TOLERANCE = 1e-8
ENERGY_TOLERANCE = 1e-8
UNIT_SLACK = 1e-9  # rounding room around [0, 1] and [-1, 1]


class ShapeError(RuntimeError):
    """A drawn model does not have the workload's fixed shape."""


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _spectrum_binary(rng: random.Random, n: int) -> list[str]:
    # Disjoint ranges keep g != J, so the two strength groups never merge.
    return [
        "spectrum", "--model", "tfim", "--n", str(n), "--boundary", "open",
        "--encoding", "binary", "--g", _fmt(rng.uniform(0.4, 0.9)),
        "--J", _fmt(rng.uniform(1.1, 1.6)), "--format", "json",
    ]


def _spectrum_unary(rng: random.Random, n: int) -> list[str]:
    # alpha >= 1 keeps the n-1 distance strengths J/d**alpha well apart.
    return [
        "spectrum", "--model", "long-range", "--n", str(n), "--encoding", "unary",
        "--J", _fmt(rng.uniform(0.5, 2.0)), "--alpha", _fmt(rng.uniform(1.0, 3.0)),
        "--format", "json",
    ]


def _zeno_sample(rng: random.Random, n: int, steps: int, shots: int) -> list[str]:
    # g > J >= s*J for every schedule point s, so the field and bond strengths
    # never coincide (K stays 2) and the chain stays gapped along the path.
    return [
        "zeno", "--model", "tfim", "--n", str(n), "--boundary", "open",
        "--encoding", "binary", "--mode", "sample", "--schedule-steps", str(steps),
        "--shots", str(shots), "--seed", str(rng.randrange(2**31)),
        "--g", _fmt(rng.uniform(1.05, 1.5)), "--J", _fmt(rng.uniform(0.5, 1.0)),
        "--format", "json",
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict
    make: Callable[..., list[str]]  # (rng, *size) -> argv
    size: tuple
    warmup_size: tuple  # two sites, otherwise as small as the command allows

    def argv(self, seed: int, index: int) -> list[str]:
        """argv of operation `index` of a run with workload seed `seed`."""
        return self.make(random.Random(f"{self.name}/{seed}/{index}"), *self.size)

    def warmup_argv(self) -> list[str]:
        """Two-site run of the same subcommand and encoding (set-up time)."""
        return self.make(random.Random(f"{self.name}/warmup"), *self.warmup_size)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectrum-binary", SPECTRUM_BINARY_SHAPE, _spectrum_binary, (6,), (2,)),
        Workload("spectrum-unary", SPECTRUM_UNARY_SHAPE, _spectrum_unary, (5,), (2,)),
        Workload("zeno-sample", ZENO_SAMPLE_SHAPE, _zeno_sample, (4, 8, 200), (2, 2, 8)),
    )
}


# --- reading an argv back ------------------------------------------------------


def options(argv: list[str]) -> dict[str, str]:
    """Flag -> value for a generated argv (every flag carries a value)."""
    return dict(zip(argv[1::2], argv[2::2]))


def _models(argv: list[str]):
    """The LCU Hamiltonians the CLI builds for this argv, one per walk."""
    from specwalk import InterpolatedModel, LcuHamiltonian, interpolate, product_state
    from specwalk import long_range_ising, tfim, uniform_schedule

    opt = options(argv)
    n = int(opt["--n"])
    if argv[0] == "spectrum":
        if opt["--model"] == "tfim":
            return [tfim(n, float(opt["--g"]), float(opt["--J"]), opt["--boundary"])]
        return [long_range_ising(n, float(opt["--J"]), float(opt["--alpha"]))]
    g, j, boundary = float(opt["--g"]), float(opt["--J"]), opt["--boundary"]
    h0 = tfim(n, -abs(g), 0.0, boundary)
    v = LcuHamiltonian.from_terms(n, list(tfim(n, 0.0, j, boundary).terms))
    model = InterpolatedModel(h0, v, h0_ground=product_state("+" * n))
    return [interpolate(model, s) for s in uniform_schedule(int(opt["--schedule-steps"]))]


def oracle_energies(h) -> list[float]:
    """Rescaled spectrum of `h` from the dense oracle, ascending."""
    from specwalk import eigensystem, normalize

    return [float(e) for e in eigensystem(normalize(h, "auto"))[0]]


def model_shapes(argv: list[str]) -> list[dict]:
    """Shape of every walk the CLI builds for this argv."""
    from specwalk import BOUNDARY_EPS, binary_walk, group, normalize, unary_walk

    encoding = options(argv)["--encoding"]
    shapes = []
    for h in _models(argv):
        rescaled = normalize(h, "auto")
        grouped = group(rescaled)
        if encoding == "binary":
            bundle = binary_walk(rescaled)
        else:
            bundle = unary_walk(grouped, rescaled)
        energies = oracle_energies(h)
        shapes.append({
            "terms": rescaled.n_select_terms,
            "groups": len(grouped.groups),
            "qubits": bundle.layout.total_qubits,
            "walk_gates": len(bundle.walk),
            "controlled_walk_gates": len(bundle.controlled_walk),
            "boundary_eigenvalues": sum(abs(e) >= 1.0 - BOUNDARY_EPS for e in energies),
        })
    return shapes


def check_shape(workload: Workload, argv: list[str]) -> None:
    """Raise ShapeError unless every walk of `argv` has the workload's shape."""
    for shape in model_shapes(argv):
        if shape != workload.shape:
            raise ShapeError(
                f"{workload.name}: {' '.join(argv)} has shape {shape}, "
                f"expected {workload.shape}"
            )


# --- output checks -------------------------------------------------------------


def _in_range(x, lo: float, hi: float) -> bool:
    return isinstance(x, (int, float)) and lo - UNIT_SLACK <= x <= hi + UNIT_SLACK


def _check_spectrum(argv: list[str], payload: dict) -> str | None:
    from specwalk import BOUNDARY_EPS

    opt = options(argv)
    for key, want in (("model", opt["--model"]), ("encoding", opt["--encoding"]),
                      ("n", int(opt["--n"]))):
        if payload.get(key) != want:
            return f"{key} is {payload.get(key)!r}, expected {want!r}"
    if payload.get("pass") is not True:
        return "pass is not true"
    for key in ("max_error", "closure_error"):
        if not _in_range(payload.get(key), 0.0, SPECTRUM_TOLERANCE):
            return f"{key} {payload.get(key)!r} exceeds {SPECTRUM_TOLERANCE}"
    # A two-dimensional block gives +-arccos E (two rows with cos = E); a
    # boundary block gives one row.
    expected = sorted(
        e
        for e in oracle_energies(_models(argv)[0])
        for _ in range(1 if abs(e) >= 1.0 - BOUNDARY_EPS else 2)
    )
    got = sorted(row["energy_rescaled"] for row in payload.get("rows", []))
    if len(got) != len(expected):
        return f"{len(got)} rows, the dense oracle gives {len(expected)}"
    worst = max(abs(a - b) for a, b in zip(got, expected))
    if worst > ENERGY_TOLERANCE:
        return f"energy_rescaled differs from the dense oracle by {worst:.3e}"
    return None


def _check_zeno(argv: list[str], payload: dict) -> str | None:
    opt = options(argv)
    steps = int(opt["--schedule-steps"])
    for key, want in (("mode", opt["--mode"]), ("encoding", opt["--encoding"]),
                      ("n", int(opt["--n"])), ("seed", int(opt["--seed"]))):
        if payload.get(key) != want:
            return f"{key} is {payload.get(key)!r}, expected {want!r}"
    schedule = payload.get("schedule", [])
    if len(schedule) != steps or any(
        abs(g - (j + 1) / steps) > 1e-12 for j, g in enumerate(schedule)
    ):
        return f"schedule {schedule!r} is not the uniform {steps}-step schedule"
    if len(payload.get("steps", [])) != steps:
        return f"{len(payload.get('steps', []))} steps, expected {steps}"
    for i, step in enumerate(payload["steps"]):
        for key in ("ground_probability", "oracle_overlap"):
            if not _in_range(step.get(key), 0.0, 1.0):
                return f"step {i} {key} {step.get(key)!r} outside [0, 1]"
        if not _in_range(step.get("energy_rescaled"), -1.0, 1.0):
            return f"step {i} energy_rescaled {step.get('energy_rescaled')!r} outside [-1, 1]"
    for key in ("success_probability", "final_fidelity"):
        if not _in_range(payload.get(key), 0.0, 1.0):
            return f"{key} {payload.get(key)!r} outside [0, 1]"
    return None


def check_output(argv: list[str], returncode: int, stdout: bytes) -> str | None:
    """None when one operation's result is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(payload, dict) or payload.get("command") != argv[0]:
        return f"payload is not a {argv[0]} result"
    try:
        if argv[0] == "spectrum":
            return _check_spectrum(argv, payload)
        return _check_zeno(argv, payload)
    except (KeyError, TypeError, AttributeError) as exc:
        return f"malformed {argv[0]} payload: {exc!r}"
