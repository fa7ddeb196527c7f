"""Command-line entry point.

Subcommands: `spectrum` (walk eigenphases vs dense diagonalization),
`zeno` (sequential-measurement ground-state preparation), and `resources`
(measured censuses plus formula estimates).  Output is deterministic for a
fixed configuration and seed: sorted JSON keys, floats rounded to 12
significant digits, no timestamps.  Exit codes: 0 success, 1 an acceptance
threshold failed, 2 invalid input or out of memory.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .blocks import walk_eigenphases
from .hamiltonian import (
    HamiltonianFileError,
    InterpolatedModel,
    LcuHamiltonian,
    group,
    long_range_ising,
    normalize,
    product_state,
    read_hamiltonian,
    tfim,
)
from .measurement import uniform_schedule, zeno_prepare
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


def add_options(parser: argparse.ArgumentParser) -> None:
    """The options every subcommand takes, with their defaults; config files
    are checked by them too."""
    parser.add_argument("--model", choices=["tfim", "long-range", "file"], default="tfim")
    parser.add_argument("--hamiltonian-file", default=None)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--g", type=finite_float, default=1.0)
    parser.add_argument("--J", type=finite_float, default=1.0)
    parser.add_argument("--alpha", type=finite_float, default=2.0)
    parser.add_argument("--boundary", choices=["open", "periodic"], default="open")
    parser.add_argument("--encoding", choices=["binary", "unary", "hybrid"], default="binary")
    parser.add_argument("--mode", choices=["analyze", "sample"], default="analyze")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--shots", type=int, default=200)
    parser.add_argument("--schedule-steps", type=int, default=8)
    parser.add_argument(
        "--schedule", type=finite_floats, default=None, help="comma-separated g values ending at 1"
    )
    parser.add_argument("--delta", type=finite_float, default=1e-3, help="per-gate accuracy")
    parser.add_argument(
        "--gap", type=finite_floats, default="0.1", help="target resolution(s), comma-separated"
    )
    parser.add_argument("--time-constant", type=finite_float, default=1.0)
    parser.add_argument("--cost-a", type=finite_float, default=1.0)
    parser.add_argument("--cost-b", type=finite_float, default=1.0)
    parser.add_argument("--cost-c", type=finite_float, default=1.0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; the values of `config` replace the option defaults,
    so explicit flags still win over them."""
    parser = argparse.ArgumentParser(
        prog="specwalk",
        description="Walk-based spectral measurement: exact small-scale "
        "simulation and fault-tolerant gate accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "zeno", "resources"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON file of option overrides")
        add_options(p)
        p.set_defaults(**(config or {}))
    return parser


def read_config(path: str) -> dict:
    """The option values of a JSON config file.  Each value, a string or a
    number, is parsed as the text of its flag, so it passes the flag's type
    and choices checks."""
    try:
        with open(path, encoding="utf-8") as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise InputError(f"config {path} is not a JSON object")
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    add_options(parser)
    valid = vars(parser.parse_args([]))
    names, argv = [], []
    for key, value in overrides.items():
        name = key.replace("-", "_")
        if name not in valid:
            raise InputError(f"unknown config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise InputError(f"config key {key!r} must be a string or a number, got {value!r}")
        names.append(name)
        argv.append(f"--{name.replace('_', '-')}={value}")
    try:
        parsed = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise InputError(f"config {path}: {exc}") from exc
    return {name: getattr(parsed, name) for name in names}


def build_model(cfg: argparse.Namespace) -> LcuHamiltonian:
    if cfg.model == "tfim":
        return tfim(cfg.n, cfg.g, cfg.J, cfg.boundary)
    if cfg.model == "long-range":
        return long_range_ising(cfg.n, cfg.J, cfg.alpha)
    if cfg.model == "file":
        if not cfg.hamiltonian_file:
            raise InputError("--model file requires --hamiltonian-file")
        return read_hamiltonian(cfg.hamiltonian_file)
    raise InputError(f"unknown model {cfg.model!r}")


# --- commands ----------------------------------------------------------------


def run_spectrum(cfg: argparse.Namespace) -> tuple[dict, int]:
    bundle = build_walk(normalize(build_model(cfg), "auto"), cfg.encoding, with_pe=True)
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
        "n": cfg.n,
        "rows": rows,
        "max_error": report.max_error,
        "closure_error": report.closure_error,
        "tolerance": SPECTRUM_TOLERANCE,
        "pass": report.max_error <= SPECTRUM_TOLERANCE,
    }
    return payload, 0 if payload["pass"] else 1


def run_zeno(cfg: argparse.Namespace) -> tuple[dict, int]:
    if cfg.model != "tfim":
        raise InputError("the zeno command drives the tfim interpolation path")
    if cfg.mode == "sample" and cfg.seed is None:
        raise InputError("sample mode requires --seed")
    h0 = tfim(cfg.n, -abs(cfg.g), 0.0, cfg.boundary)
    v = LcuHamiltonian.from_terms(
        cfg.n, [(c, p) for c, p in tfim(cfg.n, 0.0, cfg.J, cfg.boundary).terms]
    )
    model = InterpolatedModel(h0, v, h0_ground=product_state("+" * cfg.n))
    schedule = cfg.schedule or uniform_schedule(cfg.schedule_steps)
    try:
        trace = zeno_prepare(
            model,
            schedule,
            encoding=cfg.encoding,
            mode=cfg.mode,
            seed=cfg.seed,
            shots=cfg.shots,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    payload = {"schema_version": SCHEMA_VERSION, "command": "zeno", "n": cfg.n}
    payload.update(trace.to_json())
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
    if isinstance(obj, np.ndarray):
        return [_round_floats(float(v)) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def render(payload: dict, fmt: str) -> str:
    payload = _round_floats(payload)
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if fmt == "csv":
        rows = payload.get("rows", [])
        buf = io.StringIO()
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in keys})
        return buf.getvalue()
    raise InputError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        if cfg.config:
            cfg = build_parser(read_config(cfg.config)).parse_args(argv)
        run = {"spectrum": run_spectrum, "zeno": run_zeno, "resources": run_resources}
        payload, code = run[cfg.command](cfg)
        text = render(payload, cfg.format)
    except (InputError, HamiltonianFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # exit 1 is reserved for a failed threshold
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 2
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
