import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from specwalk import (
    InterpolatedModel,
    LcuHamiltonian,
    PauliString,
    binary_walk,
    eigensystem,
    normalize,
    tfim,
)
from specwalk.blocks import invariant_blocks
from specwalk.hamiltonian import interpolate, product_state
from specwalk.measurement import (
    GROUND_TOL,
    BoundaryEnergyError,
    UnrecoverableExpectationError,
    estimate_energy,
    gamma,
    pe_step,
    project_to_eigenstate,
    recover_expectation,
    uniform_schedule,
    verify_observable_recovery,
    zeno_prepare,
)
from specwalk.simulator import QuantumState, make_rng
from specwalk.walk_core import build_walk

from conftest import dense_oracle


@pytest.fixture(scope="module")
def tfim3_bundle():
    r = normalize(tfim(3, 1, 1))
    bundle = binary_walk(r)
    return bundle, list(invariant_blocks(bundle))


def eigenstate(bundle, block, sign="+"):
    vec = block.phi_plus if sign == "+" else block.phi_minus
    return QuantumState(bundle.layout, vec.copy())


# --- estimation statistics -----------------------------------------------------


def test_pe_step_probabilities_on_eigenstates(tfim3_bundle):
    bundle, blocks = tfim3_bundle
    for block in blocks:
        if block.is_boundary:
            continue
        for sign in "+-":
            state = eigenstate(bundle, block, sign)
            p_plus, post_plus, post_minus = pe_step(state, bundle.controlled_walk)
            assert abs(p_plus - 0.5 * (1 + block.energy)) < 1e-10
            # eigenstates are fixed points of the step
            ref = block.phi_plus if sign == "+" else block.phi_minus
            for post in (post_plus, post_minus):
                if post is not None:
                    overlap = abs(np.vdot(ref, post.vec))
                    assert abs(overlap - 1.0) < 1e-9


def test_pe_step_extreme_energies(half_identity_x):
    bundle = binary_walk(half_identity_x)
    blocks = list(invariant_blocks(bundle))
    zero = [b for b in blocks if abs(b.energy) < 1e-12][0]
    state = eigenstate(bundle, zero)
    p_plus, _, _ = pe_step(state, bundle.controlled_walk)
    assert abs(p_plus - 0.5) < 1e-12
    top = [b for b in blocks if b.energy > 1 - 1e-9][0]
    state = QuantumState(bundle.layout, top.phi0.copy())
    p_plus, _, _ = pe_step(state, bundle.controlled_walk)
    assert abs(p_plus - 1.0) < 1e-10


def test_pe_step_requires_pe_qubit(half_identity_x):
    from specwalk import unary_walk, group

    bundle = __import__("specwalk").binary_walk(half_identity_x, with_pe=False)
    state = QuantumState.zero_state(bundle.layout)
    with pytest.raises(ValueError):
        pe_step(state, bundle.walk)


def test_estimate_energy_exact_eigenvalue(half_identity_x):
    bundle = binary_walk(half_identity_x)
    blocks = invariant_blocks(bundle)
    top = [b for b in blocks if b.energy > 1 - 1e-9][0]
    state = QuantumState(bundle.layout, top.phi0.copy())
    record = estimate_energy(state, bundle.controlled_walk, shots=64, seed=5)
    assert record.estimate == 1.0
    assert record.half_width == 0.0
    assert not record.non_eigenstate


def test_estimate_energy_binomial_coverage(half_identity_x):
    bundle = binary_walk(half_identity_x)
    blocks = invariant_blocks(bundle)
    zero = [b for b in blocks if abs(b.energy) < 1e-12][0]
    shots = 1000
    good = 0
    for seed in range(20):
        state = eigenstate(bundle, zero)
        record = estimate_energy(state, bundle.controlled_walk, shots, seed)
        if abs(record.estimate) < 5 * 2 / math.sqrt(4 * shots) * 2:
            good += 1
    assert good >= 19


def test_estimate_energy_deterministic(half_identity_x):
    bundle = binary_walk(half_identity_x)
    blocks = invariant_blocks(bundle)
    zero = [b for b in blocks if abs(b.energy) < 1e-12][0]
    records = []
    for _ in range(2):
        state = eigenstate(bundle, zero)
        records.append(estimate_energy(state, bundle.controlled_walk, 100, seed=77))
    assert records[0].outcomes == records[1].outcomes


def test_estimate_energy_flags_mixtures(tfim3_bundle):
    bundle, blocks = tfim3_bundle
    interior = [b for b in blocks if not b.is_boundary]
    lo, hi = interior[0], interior[-1]
    assert hi.energy - lo.energy > 0.5  # a distinguishable synthetic mixture
    flagged = 0
    eigen_flagged = 0
    for seed in range(8):
        mix = (lo.phi_plus + hi.phi_plus) / math.sqrt(2)
        state = QuantumState(bundle.layout, mix.copy())
        rec = estimate_energy(state, bundle.controlled_walk, 300, seed=seed)
        flagged += rec.non_eigenstate
        state2 = eigenstate(bundle, lo)
        rec2 = estimate_energy(state2, bundle.controlled_walk, 300, seed=seed)
        eigen_flagged += rec2.non_eigenstate
    assert flagged >= 6
    assert eigen_flagged <= 1


def _digest(vec) -> str:
    """Hash of the amplitudes rounded to 10 decimals (signed zeros merged)."""
    parts = np.round(vec.view(float), 10) + 0.0
    return hashlib.sha256(" ".join(f"{x:.10f}" for x in parts).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "which, calls, outcomes, digest",
    [
        # not a walk eigenstate: one round, one pe_step, one draw
        ("dressed", 40, "+++--+-+--+-+++++--+++++-++-++++++++--++", "aef451f2557937d8"),
        # a walk eigenstate: each block's probe round, then one batch of draws
        ("phi_plus", 10, "+++----+--+-+++++--++++---+--------+--++", "24d83a114f06bd3a"),
    ],
    ids=["dressed", "phi_plus"],
)
def test_estimate_energy_runs_each_round_once(tfim3_bundle, monkeypatch, which, calls,
                                             outcomes, digest):
    import specwalk.measurement as measurement

    bundle, blocks = tfim3_bundle
    if which == "dressed":
        state = QuantumState.from_system_state(bundle.layout, product_state("000"))
        state.apply_circuit(bundle.prepare)
    else:
        state = eigenstate(bundle, [b for b in blocks if not b.is_boundary][0])
    rounds = []

    def counting(*args, **kwargs):
        rounds.append(1)
        return pe_step(*args, **kwargs)

    monkeypatch.setattr(measurement, "pe_step", counting)
    record = estimate_energy(state, bundle.controlled_walk, shots=40, seed=3)
    assert len(rounds) == calls
    assert record.outcomes == tuple(1 if c == "+" else -1 for c in outcomes)
    assert _digest(state.vec) == digest


# --- deterministic projection ---------------------------------------------------


def test_projection_success_probability_half(tfim3_bundle):
    bundle, blocks = tfim3_bundle
    for block in blocks[:3]:
        if block.is_boundary:
            continue
        state = eigenstate(bundle, block)
        res = project_to_eigenstate(state, bundle, max_rounds=3)
        for p in res.round_probs:
            assert abs(p - 0.5) < 1e-10
        for ell, cum in enumerate(res.cumulative_success, start=1):
            assert abs(cum - (1 - 0.5**ell)) < 1e-10


def test_projection_recovers_eigenvector(tfim3_bundle):
    bundle, blocks = tfim3_bundle
    vals, vecs = eigensystem(bundle.rescaled)
    for k, block in enumerate(blocks):
        if block.is_boundary:
            continue
        state = eigenstate(bundle, block, "-")
        res = project_to_eigenstate(state, bundle, max_rounds=3)
        assert res.success
        fid = abs(np.vdot(res.system_state, vecs[:, k])) ** 2
        assert fid >= 1 - 1e-9


def test_projection_identity_on_dressed_state(tfim3_bundle):
    # the unprepared phi0 has its control register exactly in vacuum
    bundle, blocks = tfim3_bundle
    state = QuantumState(bundle.layout, blocks[0].phi0.copy())
    state.apply_circuit(bundle.prepare_dagger)
    p, succ, _ = state.measure(dict.fromkeys(bundle.layout.control, 0))
    assert abs(p - 1.0) < 1e-10


@pytest.mark.parametrize("encoding", ["binary", "unary"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_of_every_dressed_eigenstate_ends_in_one_round(n, encoding):
    # the control register leaves vacuum with weight ~1e-16 here: a
    # failure branch of pure round-off, which must not be followed
    bundle = build_walk(normalize(tfim(n, 1.0, 0.7)), encoding, with_pe=True)
    for block in invariant_blocks(bundle):
        res = project_to_eigenstate(QuantumState(bundle.layout, block.phi0.copy()), bundle, 3)
        assert res.success and res.rounds == 1
        assert res.round_probs[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(res.system_state, block.system_vector)) == pytest.approx(1.0, abs=1e-9)


def test_projection_sampled(tfim3_bundle):
    bundle, blocks = tfim3_bundle
    block = [b for b in blocks if not b.is_boundary][0]
    successes = 0
    for seed in range(30):
        state = eigenstate(bundle, block)
        res = project_to_eigenstate(state, bundle, max_rounds=8, mode="sample", rng=seed)
        successes += res.success
        if res.success:
            fid = abs(np.vdot(res.system_state, block.system_vector)) ** 2
            assert fid > 1 - 1e-8
    assert successes >= 25  # 1 - 2**-8 each


def test_sampled_projection_builds_no_blocks(tfim3_bundle, monkeypatch):
    import specwalk.measurement as measurement

    def refuse(bundle):
        raise AssertionError("sampled projection must not diagonalize the walk")

    bundle, blocks = tfim3_bundle
    block = [b for b in blocks if not b.is_boundary][0]
    monkeypatch.setattr(measurement, "invariant_blocks", refuse)
    state = eigenstate(bundle, block)
    res = project_to_eigenstate(state, bundle, max_rounds=8, mode="sample", rng=3)
    assert res.rounds >= 1
    with pytest.raises(AssertionError):
        project_to_eigenstate(eigenstate(bundle, block), bundle, max_rounds=3)  # analyze mode


def test_sampling_requires_a_seed(tfim3_bundle):
    bundle, blocks = tfim3_bundle
    state = eigenstate(bundle, blocks[0])
    with pytest.raises(ValueError):
        pe_step(state, bundle.controlled_walk, mode="sample", rng=None)
    with pytest.raises(ValueError):
        project_to_eigenstate(state, bundle, max_rounds=3, mode="sample", rng=None)


def test_projection_refuses_an_unknown_mode(tfim3_bundle):
    bundle, blocks = tfim3_bundle
    state = eigenstate(bundle, blocks[0])
    with pytest.raises(ValueError, match="unknown mode 'smaple'"):
        project_to_eigenstate(state, bundle, max_rounds=3, mode="smaple", rng=1)
    with pytest.raises(ValueError, match="unknown mode"):
        pe_step(state, bundle.controlled_walk, mode="smaple", rng=1)


# --- observable recovery ---------------------------------------------------------


def test_gamma_commuting_and_mixed(half_identity_x):
    assert gamma(PauliString.from_label("X"), half_identity_x) == 1.0
    assert gamma(PauliString.from_label("Z"), half_identity_x) == 0.0


def test_gamma_matches_bruteforce_tfim3():
    from specwalk.pauli import star

    r = normalize(tfim(3, 1, 1))
    sigma = PauliString.single(3, 0, "Z")
    brute = sum(w * (-1) ** star(sigma, p) for w, p in r.weights)
    assert gamma(sigma, r) == pytest.approx(brute, abs=0)


def test_recover_expectation_formula():
    assert recover_expectation(0.42, 0.3, 1.0) == pytest.approx(0.42)
    assert recover_expectation(0.21, 0.0, 0.0) == pytest.approx(0.42)
    with pytest.raises(BoundaryEnergyError):
        recover_expectation(0.1, 1.0, 0.5)
    with pytest.raises(UnrecoverableExpectationError):
        recover_expectation(0.1, 0.0, -1.0)  # scale factor 0


def test_recovery_half_identity_x(half_identity_x):
    bundle = binary_walk(half_identity_x)
    records = verify_observable_recovery(bundle, [PauliString.from_label("X")])
    valid = [r for r in records if r["status"] == "pass"]
    assert valid, "the E=0 eigenstate must be recoverable"
    for rec in valid:
        assert rec["direct"] == pytest.approx(-1.0, abs=1e-12)
        assert rec["error"] < 1e-9


def test_recovery_full_coverage_tfim2():
    r = normalize(tfim(2, 1, 1))
    bundle = binary_walk(r)
    sigmas = [PauliString.single(2, q, a) for q in range(2) for a in "XYZ"]
    records = verify_observable_recovery(bundle, sigmas)
    blocks = invariant_blocks(bundle)
    expected_cases = 0
    for b in blocks:
        expected_cases += 1 if b.is_boundary else 2
    assert len(records) == len(sigmas) * 0 + expected_cases * len(sigmas)
    assert all(r["status"] in ("pass", "fail", "invalid-precondition") for r in records)
    assert all(r["error"] < 1e-9 for r in records if r["status"] == "pass")
    assert not any(r["status"] == "fail" for r in records)


# --- sequential-measurement preparation -------------------------------------------


def tfim_model(n):
    h0 = tfim(n, -1.0, 0.0)
    v = tfim(n, 0.0, 1.0)
    return InterpolatedModel(h0, v, h0_ground=product_state("+" * n))


def test_zeno_trivial_interaction():
    n = 2
    h0 = tfim(n, -1.0, 0.0)
    v = LcuHamiltonian.from_terms(n, [(0.0, PauliString.identity(n))])
    model = InterpolatedModel(h0, v, h0_ground=product_state("++"))
    trace = zeno_prepare(model, [1.0], mode="analyze")
    assert trace.success_probability == pytest.approx(1.0, abs=1e-12)
    assert trace.final_fidelity == pytest.approx(1.0, abs=1e-12)


def test_zeno_single_jump_equals_overlap():
    model = tfim_model(3)
    trace = zeno_prepare(model, [1.0], mode="analyze")
    h1 = interpolate(model, 1.0)
    _, vecs = eigensystem(h1)
    overlap = abs(np.vdot(product_state("+++"), vecs[:, 0])) ** 2
    assert trace.success_probability == pytest.approx(overlap, abs=1e-9)


def test_zeno_product_rule_tfim3():
    model = tfim_model(3)
    trace = zeno_prepare(model, uniform_schedule(5), mode="analyze")
    oracle = np.prod([s.oracle_overlap for s in trace.steps])
    assert abs(trace.success_probability - oracle) < 1e-6
    assert trace.final_fidelity >= 1 - 1e-6


def test_zeno_schedule_validation():
    model = tfim_model(2)
    with pytest.raises(ValueError):
        zeno_prepare(model, [0.5, 0.9], mode="analyze")  # does not end at 1
    with pytest.raises(ValueError):
        zeno_prepare(model, [0.5, 0.5, 1.0], mode="analyze")  # not increasing
    with pytest.raises(ValueError):
        zeno_prepare(model, [1.0], mode="sample")  # sample mode needs a seed


def test_zeno_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'smaple'"):
        zeno_prepare(tfim_model(2), [1.0], mode="smaple", seed=1)


def test_zeno_requires_ground_state():
    model = InterpolatedModel(tfim(2, -1, 0), tfim(2, 0, 1))
    with pytest.raises(ValueError):
        zeno_prepare(model, [1.0], mode="analyze")
    bad = InterpolatedModel(
        tfim(2, -1, 0), tfim(2, 0, 1), h0_ground=product_state("00")
    )
    with pytest.raises(ValueError):
        zeno_prepare(bad, [1.0], mode="analyze")


def test_zeno_sampled_trajectory():
    model = tfim_model(2)
    trace = zeno_prepare(
        model, uniform_schedule(3), mode="sample", seed=11, shots=80
    )
    assert len(trace.steps) == 3
    assert trace.final_fidelity > 0.9  # one lucky-but-likely trajectory


def test_analysis_zeno_builds_only_the_ground_planes(monkeypatch):
    import specwalk.measurement as measurement

    taken = []  # [ground multiplicity, blocks built] per schedule point

    def counted(bundle):
        vals = eigensystem(bundle.rescaled)[0]
        taken.append([int(np.sum(vals <= vals[0] + GROUND_TOL)), 0])
        for block in invariant_blocks(bundle):
            taken[-1][1] += 1
            yield block

    monkeypatch.setattr(measurement, "invariant_blocks", counted)
    # H(1) = sum Z_i Z_i+1, whose two Neel states share the ground branch
    h0 = tfim(4, -1.0, 0.0)
    model = InterpolatedModel(h0, tfim(4, 1.0, 1.0), h0_ground=product_state("++++"))
    zeno_prepare(model, uniform_schedule(4), mode="analyze")
    assert len(taken) == 4
    assert all(ground <= built <= ground + 1 for ground, built in taken)
    assert taken[-1][0] == 2


def test_analysis_zeno_never_holds_the_invariant_subspace():
    model = tfim_model(6)
    zeno_prepare(model, uniform_schedule(2), mode="analyze")  # warms the caches
    tracemalloc.start()
    try:
        zeno_prepare(model, uniform_schedule(2), mode="analyze")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    total = build_walk(normalize(tfim(6, 1.0, 1.0)), "binary", with_pe=False).layout.total_qubits
    # the whole subspace is 64 planes, 128 register vectors, here; the
    # ground planes, the states and the compiled circuits are a few
    assert peak < 32 * (1 << total) * 16
