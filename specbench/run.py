"""specwalk benchmark: three seeded CLI workloads, end to end or traced.

    python3 specbench/run.py --workload spectrum-binary --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. With `--trace 0` every operation is
one `python -m specwalk.cli` child, run one at a time in a closed loop with
a single client; the run reports set-up time, wall time, CPU time and peak
RSS of the children (medians over the run) and the share of operations that
passed their checks. With `--trace 1` each operation runs three times: as an
untraced child, in process untraced, and in process under the span tracer of
`tracer.py`; both in-process outputs must match the child's bytes, and the
run reports the per-layer metrics (medians over the run's operations).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The run record (machine, versions,
seed, every operation) and the spans are written to `specbench/results/`.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracer import LAYER_METRICS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_RUNS = 5  # fewest timed warm-ups per run; setup_s is their median
MIN_OPS = 3  # end-to-end operations per run, even past --seconds
HARD_LIMIT_S = 165.0  # no operation may run past this point of the run

# name -> (unit, better); the order is the report order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}


class WarmUpError(RuntimeError):
    """The two-site warm-up run failed, so no operation is timed."""


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


def run_child(argv: list[str], timeout: float) -> Child:
    """One CLI invocation; wall from spawn to exit, usage of this child only.

    `os.wait4` returns the child's own rusage; RUSAGE_CHILDREN would report a
    running maximum of ru_maxrss over every child reaped so far.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "specwalk.cli", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode, out.read(), err.read(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, timed_out,
        )


def run_in_process(argv: list[str]) -> tuple[int, bytes, float]:
    """`specwalk.cli.main(argv)` in this process: exit code, stdout, wall."""
    from specwalk import cli

    buf = io.StringIO()
    gc.collect()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall = perf_counter() - t0
    return code, buf.getvalue().encode(), wall


# --- run record -----------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "specwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "client": "closed loop, one client, one child process at a time",
    }


# --- the two kinds of run ---------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.4g}, q3={q3:.4g}"


def _left(t_start: float) -> float:
    return HARD_LIMIT_S - (perf_counter() - t_start)


def _warm_up(workload, t_start) -> float:
    """Wall time of one checked two-site warm-up run."""
    argv = workload.warmup_argv()
    child = run_child(argv, _left(t_start))
    reason = workloads.check_output(argv, child.code, child.stdout)
    if reason:
        raise WarmUpError(f"warm-up {' '.join(argv)} failed: {reason}\n"
                          + child.stderr.decode(errors="replace"))
    return child.wall_s


def end_to_end(workload, seed: int, seconds: float, t_start: float) -> dict:
    # The first warm-up fills the bytecode caches and is not timed. The timed
    # ones are interleaved with the operations, so set-up time is sampled
    # across the whole run and not only at its start.
    _warm_up(workload, t_start)
    setup = []
    ops = []
    last_stdout = b""
    t_ops = perf_counter()
    while True:
        predicted = _median([op["wall_s"] for op in ops])
        if len(ops) >= MIN_OPS and perf_counter() - t_ops + predicted > seconds:
            break
        if ops and _left(t_start) < predicted:
            break
        # Operations come in pairs on one argv; the second must repeat the
        # first one's stdout byte for byte.
        j = len(ops)
        argv = workload.argv(seed, j // 2)
        if j % 2 == 0:
            workloads.check_shape(workload, argv)
        setup.append(_warm_up(workload, t_start))
        child = run_child(argv, _left(t_start))
        reason = "timeout" if child.timed_out else workloads.check_output(
            argv, child.code, child.stdout)
        if reason is None and j % 2 and child.stdout != last_stdout:
            reason = "stdout differs from the previous run of the same argv"
        last_stdout = child.stdout
        ops.append({
            "argv": argv, "exit": child.code, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb, "failure": reason,
            "stderr": child.stderr.decode(errors="replace")[-2000:] if reason else "",
        })
    while len(setup) < SETUP_RUNS:
        setup.append(_warm_up(workload, t_start))
    failed = sum(1 for op in ops if op["failure"])
    samples = {
        "setup_s": setup,
        "wall_s": [op["wall_s"] for op in ops],
        "cpu_s": [op["cpu_s"] for op in ops],
        "peak_rss_mb": [op["peak_rss_mb"] for op in ops],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["ok_frac"] = 1.0 - failed / len(ops)
    return {"ops": ops, "failed": failed, "samples": samples, "metrics": metrics,
            "fail_frac": failed / len(ops)}


def traced(workload, seed: int, seconds: float, t_start: float) -> dict:
    tracer = Tracer()
    _warm_up(workload, t_start)  # bytecode caches
    run_in_process(workload.warmup_argv())  # lazy imports and first calls here
    ops, spans = [], []
    t_ops = perf_counter()
    while True:
        predicted = _median([op["op_s"] for op in ops])
        if ops and (perf_counter() - t_ops + predicted > seconds or _left(t_start) < predicted):
            break
        t_op = perf_counter()
        argv = workload.argv(seed, len(ops))
        workloads.check_shape(workload, argv)
        child = run_child(argv, _left(t_start))
        reason = "timeout" if child.timed_out else workloads.check_output(
            argv, child.code, child.stdout)
        metrics = {}
        if reason is None:
            try:
                _, plain, plain_wall = run_in_process(argv)
                tracer.reset()
                tracer.install()
                try:
                    _, text, traced_wall = run_in_process(argv)
                finally:
                    tracer.uninstall()
            except Exception as exc:  # report the operation as failed, keep going
                reason = f"in-process run raised {exc!r}"
            else:
                if plain != child.stdout:
                    reason = "in-process stdout differs from the child's"
                elif text != child.stdout:
                    reason = "traced stdout differs from the untraced child's"
                else:
                    metrics = tracer.layer_metrics(traced_wall, plain_wall)
                    spans.extend(tracer.span_records(len(ops)))
        ops.append({"argv": argv, "failure": reason, "metrics": metrics,
                    "child_wall_s": child.wall_s, "op_s": perf_counter() - t_op})
    good = [op["metrics"] for op in ops if op["metrics"]]
    samples = {name: [m[name] for m in good] for name in LAYER_METRICS}
    failed = sum(1 for op in ops if op["failure"])
    return {"ops": ops, "failed": failed, "samples": samples, "spans": spans,
            "metrics": {name: _median(values) for name, values in samples.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    t_start = perf_counter()
    if not (SRC / "specwalk" / "cli.py").is_file():
        print(f"error: no specwalk sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import specwalk

    if Path(specwalk.__file__).resolve().parent != SRC / "specwalk":
        print(f"error: specwalk imported from {specwalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    record = run_record(workload.name, args.seed, args.trace)

    try:
        if args.trace:
            result = traced(workload, args.seed, args.seconds, t_start)
            catalogue = LAYER_METRICS
        else:
            result = end_to_end(workload, args.seed, args.seconds, t_start)
            catalogue = END_TO_END
    except (workloads.ShapeError, WarmUpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record["elapsed_s"] = perf_counter() - t_start
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, **result}, fh, indent=1)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(result['ops'])} operations, {result['failed']} failed")
    for op in result["ops"]:
        if op["failure"]:
            print(f"  FAILED {' '.join(op['argv'])}: {op['failure']}")
    for name, (unit, better) in catalogue.items():
        values = result["samples"].get(name, [])
        print(f"  {name:40s} median {result['metrics'][name]:.6g} {unit} "
              f"({better} is better; {_spread(values)})")
    if not args.trace:
        print(f"  {'fail_frac':40s} {result['fail_frac']:.6g} ratio")
    print(f"  record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": len(result["ops"]),
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, (unit, _) in catalogue.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
