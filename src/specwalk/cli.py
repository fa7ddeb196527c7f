"""Command-line entry point.

Subcommands: `spectrum` (walk eigenphases vs dense diagonalization),
`zeno` (sequential-measurement ground-state preparation), and `resources`
(measured censuses plus formula estimates).  Each declares only the options
its own code reads, so any other option, on the command line or in a config
file, exits 2; so does an option that only another model or mode reads
(`READ_ONLY_BY`).  Output is deterministic for a fixed configuration and seed:
sorted JSON keys, floats rounded to 12 significant digits, no timestamps.
Exit codes: 0 success, 1 an acceptance threshold failed, 2 invalid input or
out of memory.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import sys

import numpy as np

from .blocks import walk_eigenphases
from .hamiltonian import (
    InterpolatedModel,
    LcuHamiltonian,
    group,
    long_range_ising,
    normalize,
    product_state,
    read_hamiltonian,
    tfim,
)
from .measurement import ProjectionFailedError, uniform_schedule, zeno_prepare
from .pauli import check_matrix_width
from .resources import (
    CostModel,
    CostQuery,
    buildable_walks,
    encoding_row,
    taylor_cost,
    trotter_cost,
    walk_cost,
)
from .walk_core import build_walk

SCHEMA_VERSION = 1
SPECTRUM_TOLERANCE = 1e-8


class InputError(ValueError):
    pass


def finite_float(text: str) -> float:
    """argparse type of every float option: a number that is neither
    infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def finite_floats(text: str) -> list[float]:
    """argparse type of a comma-separated list of finite numbers."""
    return [finite_float(item) for item in text.split(",")]


def add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """The options `command` reads, with their defaults; its config files are
    checked by them too.  `zeno` drives only the tfim interpolation path."""
    # argparse reads only -1 and -0.1 forms as numbers, and -1e-1 as a flag:
    # no flag of ours starts with "-" and a digit, so every such word is one
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    add = parser.add_argument
    zeno = command == "zeno"
    add("--model", choices=["tfim"] if zeno else ["tfim", "long-range", "file"], default="tfim")
    if not zeno:
        add("--hamiltonian-file", default=None)
        add("--alpha", type=finite_float, default=2.0)
    add("--n", type=int, default=3)
    add("--g", type=finite_float, default=1.0)
    add("--J", type=finite_float, default=1.0)
    add("--boundary", choices=["open", "periodic"], default="open")
    add("--encoding", choices=["binary", "unary", "hybrid"], default="binary")
    if zeno:
        add("--mode", choices=["analyze", "sample"], default="analyze")
        add("--seed", type=int, default=None)
        add("--shots", type=int, default=200)
        steps = parser.add_mutually_exclusive_group()
        steps.add_argument("--schedule-steps", type=int, default=8)
        steps.add_argument(
            "--schedule", type=finite_floats, default=None, help="comma-separated g values ending at 1"
        )
    if command == "resources":
        add("--delta", type=finite_float, default=1e-3, help="per-gate accuracy")
        add("--gap", type=finite_floats, default="0.1", help="target resolution(s), comma-separated")
        add("--time-constant", type=finite_float, default=1.0)
        add("--cost-a", type=finite_float, default=1.0)
        add("--cost-b", type=finite_float, default=1.0)
        add("--cost-c", type=finite_float, default=1.0)
    add("--out", default=None)
    add("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specwalk",
        description="Walk-based spectral measurement: exact small-scale "
        "simulation and fault-tolerant gate accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "zeno", "resources"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON file of option overrides")
        add_options(p, name)
    return parser


def read_config(path: str, command: str) -> list[str]:
    """The options of a JSON config file for `command`, as flag text.  Each
    value, a string or a number, must pass its flag's type and choices
    checks."""
    try:
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise InputError(f"config {path} is not a JSON object")
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    add_options(parser, command)
    valid = vars(parser.parse_args([]))
    argv = []
    for key, value in overrides.items():
        name = key.replace("-", "_")
        if name not in valid:
            raise InputError(f"config key {key!r} is not an option of {command}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise InputError(f"config key {key!r} must be a string or a number, got {value!r}")
        argv.append(f"--{name.replace('_', '-')}={value}")
    try:
        parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise InputError(f"config {path}: {exc}") from exc
    return argv


# The options only some models or modes read: option -> (setting, the
# values of that setting that read it).
READ_ONLY_BY = {
    "n": ("model", ("tfim", "long-range")),
    "J": ("model", ("tfim", "long-range")),
    "g": ("model", ("tfim",)),
    "boundary": ("model", ("tfim",)),
    "alpha": ("model", ("long-range",)),
    "hamiltonian_file": ("model", ("file",)),
    "shots": ("mode", ("sample",)),
}


def given_options(command: str, flags: list[str]) -> set[str]:
    """The options of `command` that `flags` set, whatever their values."""
    parser = argparse.ArgumentParser(add_help=False)
    add_options(parser, command)
    unset = object()
    # argparse fills in a default only where the namespace has no value yet
    given = argparse.Namespace(**dict.fromkeys(vars(parser.parse_args([])), unset))
    parser.parse_known_args(flags, namespace=given)
    return {name for name, value in vars(given).items() if value is not unset}


def refuse_unread(cfg: argparse.Namespace, given: set[str]) -> None:
    """Refuse a given option that the selected model or mode never reads."""
    settings = vars(cfg)
    for name in sorted(given & READ_ONLY_BY.keys()):
        setting, readers = READ_ONLY_BY[name]
        if settings[setting] not in readers:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} is not read by --{setting} {settings[setting]}")


def build_model(cfg: argparse.Namespace) -> LcuHamiltonian:
    if cfg.model == "tfim":
        return tfim(cfg.n, cfg.g, cfg.J, cfg.boundary)
    if cfg.model == "long-range":
        return long_range_ising(cfg.n, cfg.J, cfg.alpha)
    if not cfg.hamiltonian_file:
        raise InputError("--model file requires --hamiltonian-file")
    return read_hamiltonian(cfg.hamiltonian_file)


# --- commands ----------------------------------------------------------------


def run_spectrum(cfg: argparse.Namespace) -> tuple[dict, int]:
    # the oracle diagonalizes the encoded operator densely: a lattice model
    # is refused before it is built, a file model as soon as it is read
    check_matrix_width(cfg.n)
    h = build_model(cfg)
    check_matrix_width(h.n_qubits)
    bundle = build_walk(normalize(h, "auto"), cfg.encoding)
    report = walk_eigenphases(bundle)
    rows = [
        {
            "theta_expected": e,
            "matched_phase": m,
            "abs_error": err,
            "energy_rescaled": float(np.cos(e)),
        }
        for e, m, err in report.pairs
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "model": cfg.model,
        "encoding": cfg.encoding,
        "n": h.n_qubits,
        "rows": rows,
        "max_error": report.max_error,
        "closure_error": report.closure_error,
        "tolerance": SPECTRUM_TOLERANCE,
        "pass": report.max_error <= SPECTRUM_TOLERANCE,
    }
    return payload, 0 if payload["pass"] else 1


def run_zeno(cfg: argparse.Namespace) -> tuple[dict, int]:
    if cfg.mode == "sample" and cfg.seed is None:
        raise InputError("sample mode requires --seed")
    check_matrix_width(cfg.n)  # zeno diagonalizes h0 densely; refuse before the 2**n state
    h0 = tfim(cfg.n, -abs(cfg.g), 0.0, cfg.boundary)
    v = tfim(cfg.n, 0.0, cfg.J, cfg.boundary)
    model = InterpolatedModel(h0, v, h0_ground=product_state("+" * cfg.n))
    schedule = cfg.schedule or uniform_schedule(cfg.schedule_steps)
    trace = zeno_prepare(
        model,
        schedule,
        encoding=cfg.encoding,
        mode=cfg.mode,
        seed=cfg.seed,
        shots=cfg.shots,
    )
    payload = {"schema_version": SCHEMA_VERSION, "command": "zeno", "n": cfg.n}
    payload.update(dataclasses.asdict(trace))
    return payload, 0


def run_resources(cfg: argparse.Namespace) -> tuple[dict, int]:
    model = CostModel(cfg.cost_a, cfg.cost_b, cfg.cost_c)
    rows = []
    h = build_model(cfg)
    rescaled = normalize(h, "auto")
    n_terms = rescaled.n_select_terms
    k_distinct = len(group(rescaled).groups)
    # building a walk simulates nothing, so every size gets measured censuses
    bundles = buildable_walks(rescaled)
    table = [encoding_row(bundle) for bundle in bundles.values()]
    census = bundles[cfg.encoding].controlled_walk.census if cfg.encoding in bundles else None
    for gap in cfg.gap:
        query = CostQuery(
            n=h.n_qubits,
            n_terms=n_terms,
            k_distinct=k_distinct,
            normalization=rescaled.normalization,
            gap=gap,
            delta=cfg.delta,
            time_constant=cfg.time_constant,
        )
        walk_row = walk_cost(query, model, census)
        walk_row["gap"] = gap
        rows.append(walk_row)
        for regime in ("lattice", "chemistry"):
            row = trotter_cost(query, model, regime)
            row["gap"] = gap
            rows.append(row)
        row = taylor_cost(query, model, census)
        row["gap"] = gap
        rows.append(row)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "resources",
        "model": cfg.model,
        "n": h.n_qubits,
        "n_terms": n_terms,
        "k_distinct": k_distinct,
        "normalization": rescaled.normalization,
        "encoding_table": table,
        "rows": rows,
        "warnings": [],
    }
    return payload, 0


# --- serialization -------------------------------------------------------------


def _round_floats(obj):
    """12 significant digits everywhere, for stable printing."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render(payload: dict, fmt: str) -> str:
    payload = _round_floats(payload)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    # csv, one line per record: zeno's schedule steps, the others' rows
    rows = payload["steps"] if "steps" in payload else payload["rows"]
    buf = io.StringIO()
    keys = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in keys})
    return buf.getvalue()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cfg = build_parser().parse_args(argv)
    try:
        flags = argv[1:]  # argv[0] is the command
        if cfg.config:
            # the flags follow the config's values, so they win
            flags = [*read_config(cfg.config, cfg.command), *flags]
            cfg = build_parser().parse_args([cfg.command, *flags])
        refuse_unread(cfg, given_options(cfg.command, flags))
        run = {"spectrum": run_spectrum, "zeno": run_zeno, "resources": run_resources}
        payload, code = run[cfg.command](cfg)
        text = render(payload, cfg.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # exit 1 is reserved for a failed threshold
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except ProjectionFailedError as exc:
        # the input was fine; the run missed its projection threshold
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
