"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""
import json
import math
import time

import numpy as np
import pytest

from specwalk import (
    CostModel,
    CostQuery,
    GateCensus,
    InterpolatedModel,
    LcuHamiltonian,
    PauliString,
    binary_walk,
    encoding_table,
    group,
    hybrid_long_range_walk,
    long_range_ising,
    normalize,
    taylor_cost,
    tfim,
    trotter_cost,
    unary_walk,
    walk_cost,
)
from specwalk.blocks import block_matrices, invariant_blocks, walk_eigenphases
from specwalk.circuits import FANOUT, distinct_rotation_count
from specwalk.hamiltonian import product_state
from specwalk.measurement import (
    estimate_energy,
    pe_step,
    project_to_eigenstate,
    uniform_schedule,
    verify_observable_recovery,
    zeno_prepare,
)
from specwalk.simulator import QuantumState
from specwalk.cli import main as cli_main

from conftest import random_lcu, walk_eigenvector


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def spectral_suite():
    models = [tfim(n, 1.0, 1.0) for n in (2, 3, 4)]
    models += [long_range_ising(n, 1.0, 2.0) for n in (3, 4)]
    rng = np.random.default_rng(20240811)
    models += [random_lcu(rng, 3, 7) for _ in range(20)]
    return models


@pytest.fixture(scope="module")
def lattice_bundles():
    out = {}
    for name, h in (
        ("tfim2", tfim(2, 1, 1)),
        ("tfim3", tfim(3, 1, 1)),
        ("tfim4", tfim(4, 1, 1)),
        ("lr3", long_range_ising(3, 1, 2)),
        ("lr4", long_range_ising(4, 1, 2)),
    ):
        r = normalize(h)
        out[name] = binary_walk(r)
    return out


def test_criterion_01_spectral_map(spectral_suite):
    t0 = time.time()
    worst = 0.0
    for h in spectral_suite:
        rep = walk_eigenphases(binary_walk(normalize(h)))
        worst = max(worst, rep.max_error, rep.closure_error)
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    assert report(
        "1 spectral map",
        ok,
        f"25 models, max eigenphase error {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_block_structure(lattice_bundles):
    worst = 0.0
    checked = 0
    for bundle in lattice_bundles.values():
        for block in invariant_blocks(bundle):
            if block.is_boundary:
                continue
            s2, v2 = block_matrices(bundle, block)
            e, root = block.energy, math.sqrt(1 - block.energy**2)
            worst = max(worst, float(np.max(np.abs(s2 - np.diag([-1.0, 1.0])))))
            worst = max(
                worst,
                float(np.max(np.abs(v2 - np.array([[e, root], [root, -e]])))),
            )
            checked += 1
    ok = worst < 1e-9 and checked > 0
    assert report("2 block structure", ok, f"{checked} blocks, max deviation {worst:.3e}")


def test_criterion_03_pe_statistics(lattice_bundles, half_identity_x):
    # analysis mode: exact conditional probabilities on every eigenblock
    worst = 0.0
    for bundle in lattice_bundles.values():
        for block in invariant_blocks(bundle):
            for sign in "+-":
                state = QuantumState(bundle.layout, walk_eigenvector(block, sign))
                p_plus, _, _ = pe_step(state, bundle.controlled_walk)
                worst = max(worst, abs(p_plus - 0.5 * (1 + block.energy)))
    analysis_ok = worst < 1e-10
    # sampled frequencies: 10^4 shots, 100 seeds, 5-sigma binomial coverage
    bundle = binary_walk(half_identity_x)
    block = [b for b in invariant_blocks(bundle) if abs(b.energy) < 1e-12][0]
    p = 0.5 * (1 + block.energy)
    shots = 10_000
    bound = 5 * math.sqrt(p * (1 - p) / shots)
    covered = 0
    for seed in range(100):
        state = QuantumState(bundle.layout, walk_eigenvector(block, "+"))
        record = estimate_energy(state, bundle.controlled_walk, shots, seed)
        p_hat = (1 + record.estimate) / 2
        covered += abs(p_hat - p) <= bound
    sample_ok = covered >= 95
    ok = analysis_ok and sample_ok
    assert report(
        "3 pe statistics",
        ok,
        f"max analysis error {worst:.3e}, seed coverage {covered}/100",
    )


def test_criterion_04_projection(lattice_bundles):
    worst_prob = 0.0
    worst_fid = 1.0
    for bundle in lattice_bundles.values():
        blocks = list(invariant_blocks(bundle))
        vals = sorted(b.energy for b in blocks)
        for block in blocks:
            if block.is_boundary:
                continue
            state = QuantumState(bundle.layout, walk_eigenvector(block, "-"))
            res = project_to_eigenstate(state, bundle, max_rounds=3)
            worst_prob = max(worst_prob, abs(res.round_probs[0] - 0.5))
            for ell, cum in enumerate(res.cumulative_success, start=1):
                worst_prob = max(worst_prob, abs(cum - (1 - 0.5**ell)))
            fid = abs(np.vdot(res.system_state, block.system_vector)) ** 2
            worst_fid = min(worst_fid, fid)
    ok = worst_prob < 1e-10 and worst_fid >= 1 - 1e-9
    assert report(
        "4 projection",
        ok,
        f"max probability error {worst_prob:.3e}, min fidelity {worst_fid:.12f}",
    )


def test_criterion_05_zeno():
    t0 = time.time()
    n = 4
    model = InterpolatedModel(
        tfim(n, -1.0, 0.0), tfim(n, 0.0, 1.0), h0_ground=product_state("+" * n)
    )
    trace = zeno_prepare(model, uniform_schedule(8), mode="analyze")
    elapsed = time.time() - t0
    oracle = float(np.prod([s.oracle_overlap for s in trace.steps]))
    err = abs(trace.success_probability - oracle)
    ok = err < 1e-6 and trace.final_fidelity >= 1 - 1e-6 and elapsed < 300.0
    assert report(
        "5 zeno preparation",
        ok,
        f"probability error {err:.3e}, final fidelity {trace.final_fidelity:.9f}, {elapsed:.1f}s",
    )


def test_criterion_06_encoding_equivalence(lattice_bundles):
    worst = 0.0
    for name, bundle in lattice_bundles.items():
        r = bundle.rescaled
        phases = {"binary": walk_eigenphases(bundle)}
        phases["unary"] = walk_eigenphases(unary_walk(group(r), r))
        if name == "lr4":
            phases["hybrid"] = walk_eigenphases(hybrid_long_range_walk(r))
        expected = np.sort(phases["binary"].expected)
        for rep in phases.values():
            worst = max(worst, rep.max_error)
            worst = max(worst, float(np.max(np.abs(np.sort(rep.expected) - expected))))
    ok = worst < 1e-9
    assert report("6 encoding equivalence", ok, f"max multiset deviation {worst:.3e}")


def test_criterion_07_gate_censuses():
    details = []
    ok = True
    # distinct strengths so K = 2 is non-degenerate
    r = normalize(tfim(4, 1.0, 0.7))
    g = group(r)
    bundle = unary_walk(g, r)
    k = g.k_distinct
    n_terms = r.n_select_terms
    # unary controlled walk: K generic rotation parameters (an adjoint prepare
    # pair shares one synthesized sequence; the instance count is 2K)
    rot = distinct_rotation_count(bundle.controlled_walk)
    ok &= rot == k
    details.append(f"unary controlled-W rotations {rot} (K={k})")
    # fanouts: per group n_padded - 1, total <= 2N
    fanouts_per_group = []
    base = bundle.layout.control[0]
    for grp in g.groups:
        lo, hi = base + grp.offset - 1, base + grp.offset - 1 + grp.n_padded
        count = sum(
            1
            for gate in bundle.prepare.gates
            if gate.kind == FANOUT and lo <= gate.qubits[0] < hi
        )
        fanouts_per_group.append(count)
        ok &= count == grp.n_padded - 1
    total_fanouts = sum(fanouts_per_group)
    ok &= total_fanouts <= 2 * n_terms
    details.append(f"fanouts {fanouts_per_group} total {total_fanouts} <= {2 * n_terms}")
    # unary select: Clifford only
    sel = bundle.select.census
    ok &= sel.rotations == 0 and sel.third_level_total == 0
    details.append(f"select rotations {sel.rotations} third-level {sel.third_level_total}")
    # binary prepare: at least N/2 generic rotation parameters
    bb = binary_walk(r)
    brot = distinct_rotation_count(bb.prepare)
    ok &= brot >= n_terms / 2
    details.append(f"binary B rotations {brot} >= {n_terms / 2}")
    assert report("7 gate censuses", bool(ok), "; ".join(details))


def test_criterion_08_observable_recovery(half_identity_x):
    sigmas1 = [PauliString.from_label(s) for s in ("X", "Y", "Z")]
    bundle1 = binary_walk(half_identity_x)
    records = verify_observable_recovery(bundle1, sigmas1)
    r2 = normalize(tfim(2, 1, 1))
    bundle2 = binary_walk(r2)
    sigmas2 = [PauliString.single(2, q, a) for q in range(2) for a in "XYZ"]
    records += verify_observable_recovery(bundle2, sigmas2)
    statuses = {r["status"] for r in records}
    covered = statuses <= {"pass", "fail", "invalid-precondition"}
    worst = max((r["error"] for r in records if r["status"] == "pass"), default=0.0)
    failed = sum(1 for r in records if r["status"] == "fail")
    n_pass = sum(1 for r in records if r["status"] == "pass")
    n_invalid = sum(1 for r in records if r["status"] == "invalid-precondition")
    ok = covered and failed == 0 and worst < 1e-9 and n_pass > 0
    assert report(
        "8 observable recovery",
        ok,
        f"{len(records)} cases: {n_pass} pass, {failed} fail, "
        f"{n_invalid} invalid-precondition, max error {worst:.3e}",
    )


def test_criterion_09_cost_formulas():
    unit = CostModel(distill_fn=lambda d: 1.0, synth_fn=lambda d: 1.0)
    two_three = CostModel(distill_fn=lambda d: 2.0, synth_fn=lambda d: 3.0)
    checks = []
    # five fixed queries with hand-computed totals
    q1 = CostQuery(n=4, n_terms=7, k_distinct=2, normalization=6.0, gap=0.5, delta=1e-3)
    checks.append(walk_cost(q1, unit)["per_call_estimate"] == 9)
    checks.append(walk_cost(q1, unit)["total_estimate"] == 12 * 9)
    q2 = CostQuery(n=4, n_terms=7, k_distinct=2, normalization=6.0, gap=0.5, delta=1e-3)
    rep2 = walk_cost(q2, two_three, GateCensus(rotations=4, toffoli=10))
    checks.append(rep2["per_call_measured"] == 44 and rep2["total_measured"] == 528)
    # dyadic gap keeps the arithmetic exact: steps = sqrt(16)/0.25**2 = 64
    q3 = CostQuery(n=16, n_terms=31, k_distinct=2, normalization=20.0, gap=0.25, delta=1e-3)
    rep3 = trotter_cost(q3, unit, "lattice")
    checks.append(rep3["rotations_total"] == 1024.0 and rep3["total_estimate"] == 1024.0)
    q4 = CostQuery(n=4, n_terms=7, k_distinct=2, normalization=8.0, gap=0.5, delta=1e-3)
    rep4 = taylor_cost(q4, unit)
    checks.append(
        rep4["segments"] == 16 and rep4["order"] == 4 and rep4["savings_ratio"] == 64
        and rep4["total_estimate"] == 64 * 9
    )
    q5 = CostQuery(n=2, n_terms=4, k_distinct=1, normalization=4.0, gap=1.0, delta=1e-3)
    rep5 = trotter_cost(q5, unit, "chemistry")
    checks.append(rep5["rotations_total"] == 2**9 and rep5["total_estimate"] == 512.0)
    fixed_ok = all(checks)
    # monotonicity sweep
    rng = np.random.default_rng(42)
    model = CostModel()
    violations = 0
    for _ in range(100):
        base = dict(
            n=int(rng.integers(2, 40)),
            n_terms=int(rng.integers(2, 200)),
            k_distinct=int(rng.integers(1, 20)),
            normalization=float(rng.uniform(1, 50)),
            gap=float(rng.uniform(0.01, 0.5)),
            delta=float(rng.uniform(1e-6, 0.1)),
        )
        total = walk_cost(CostQuery(**base), model)["total_estimate"]

        def bumped(**change):
            upd = dict(base)
            upd.update(change)
            return walk_cost(CostQuery(**upd), model)["total_estimate"]

        violations += bumped(n_terms=base["n_terms"] + 5) < total
        violations += bumped(k_distinct=base["k_distinct"] + 2) < total
        violations += bumped(normalization=base["normalization"] * 1.5) < total
        violations += bumped(gap=base["gap"] * 1.5) > total
        violations += bumped(delta=min(0.5, base["delta"] * 4)) > total
        violations += bumped(time_constant=2.0) < total
    ok = fixed_ok and violations == 0
    assert report(
        "9 cost formulas",
        ok,
        f"fixed queries {'exact' if fixed_ok else 'WRONG'}, "
        f"{violations} monotonicity violations in 600 comparisons",
    )


def test_criterion_10_cli_determinism(tmp_path):
    import io
    from contextlib import redirect_stdout

    commands = [
        ["spectrum", "--model", "tfim", "--n", "3", "--encoding", "unary"],
        ["zeno", "--model", "tfim", "--n", "2", "--schedule-steps", "3",
         "--mode", "sample", "--seed", "31", "--shots", "50"],
        ["resources", "--model", "long-range", "--n", "4", "--alpha", "2",
         "--encoding", "unary", "--gap", "0.2,0.1", "--format", "csv"],
    ]
    ok = True
    for args in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(args)
            outputs.append((code, buf.getvalue()))
        ok &= outputs[0] == outputs[1] and outputs[0][0] == 0
    assert report("10 cli determinism", bool(ok), f"{len(commands)} commands, two runs each")
