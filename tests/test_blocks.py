"""The spectral check has teeth: `walk_eigenphases` fails a broken walk.

Each encoding's walk is mutated in two ways.  Without its sign, the Pauli
word -I after select, the circuit is -W: every invariant plane survives,
but every eigenphase moves by pi, so the phase match must fail.  Without
one select gate the circuit no longer preserves the planes, so the closure
must fail.

The planes are float64 exactly when the encoded operator and the walk are
real; a word with an odd number of Ys keeps them complex.  They are stored
on the basis states the walk can reach, and expanded over the register
they equal the planes built on the whole register bit for bit.  They are
built and walked in batches, which change no bit of the phase report.
"""
import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from specwalk import blocks, long_range_ising, normalize, tfim
from specwalk.blocks import _restrict, invariant_blocks, plane_subspace, walk_eigenphases
from specwalk.circuits import PAULI, Circuit
from specwalk.simulator import QuantumState
from specwalk.walk_core import build_walk, dressed_state

from conftest import expand, walk_on

ROUNDOFF = 1e-9
FAILED = 1e-6


@pytest.fixture(scope="module", params=["binary", "unary", "hybrid"])
def bundle(request):
    # four sites: the hybrid encoding needs a power-of-two number of them
    return build_walk(normalize(long_range_ising(4, 1.0, 2.0)), request.param)


def with_walk(bundle, gates):
    return dataclasses.replace(bundle, walk=Circuit(bundle.layout, list(gates)))


def test_a_walk_without_its_global_phase_fails_the_phase_match(bundle):
    gates = bundle.walk.gates
    sign = len(bundle.select)
    assert gates[sign].kind == PAULI and gates[sign].pauli.label() == "-I"
    report = walk_eigenphases(with_walk(bundle, gates[:sign] + gates[sign + 1:]))
    assert report.closure_error < ROUNDOFF
    assert report.max_error > FAILED


def test_a_walk_missing_a_select_gate_fails_the_closure(bundle):
    gates = bundle.walk.gates
    assert gates[0] is bundle.select.gates[0]
    report = walk_eigenphases(with_walk(bundle, gates[1:]))
    assert report.closure_error > FAILED


@pytest.mark.parametrize("encoding", ["binary", "unary"])
@pytest.mark.parametrize("model", [tfim(4, 0.7, 1.3, "periodic"), long_range_ising(4, 1.0, 2.0)])
def test_real_models_run_real_planes(model, encoding):
    bundle = build_walk(normalize(model), encoding)
    assert {block.rows.dtype for block in invariant_blocks(bundle)} == {np.dtype(np.float64)}
    report = walk_eigenphases(bundle)
    assert report.max_error < ROUNDOFF and report.closure_error < ROUNDOFF


@pytest.mark.parametrize("encoding", ["binary", "unary"])
def test_an_odd_y_word_keeps_complex_planes(odd_y_model, encoding):
    bundle = build_walk(normalize(odd_y_model), encoding)
    assert not bundle.select.is_real
    assert {block.rows.dtype for block in invariant_blocks(bundle)} == {np.dtype(complex)}
    report = walk_eigenphases(bundle)
    assert report.max_error < ROUNDOFF and report.closure_error < ROUNDOFF


def test_a_replaced_walk_gets_its_own_subspace(bundle):
    replaced = with_walk(bundle, bundle.walk.gates)
    assert plane_subspace(replaced) is not plane_subspace(bundle)
    assert plane_subspace(bundle) is plane_subspace(bundle)


def _dense_plane(bundle, block):
    """The plane as the whole register builds it: the dressed state, and
    the select pass of it less E times it, normalized."""
    e, layout = block.energy, bundle.layout
    plane = np.empty((len(block.rows), 1 << layout.total_qubits), dtype=block.rows.dtype)
    dressed_state(bundle.branches, block.system_vector, plane[0])
    if len(plane) == 2:
        plane[1] = plane[0]
        QuantumState(layout, plane[1]).apply_circuit(bundle.select)
        plane[1] -= e * plane[0]
        plane[1] /= math.sqrt(1.0 - e * e)
    return plane


@pytest.mark.parametrize("has_pe_qubit", [False, True])
@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("long_range3", "unary"), ("long_range4", "hybrid"),
     ("odd_y", "binary"), ("odd_y", "unary")],
)
def test_compact_planes_read_as_the_whole_register_planes(
    suite_models, odd_y_model, model, encoding, has_pe_qubit
):
    """The compact rows, expanded over the register, equal the planes built
    on the whole register bit for bit, signed zeros at the reach states
    included."""
    h = odd_y_model if model == "odd_y" else suite_models[model]
    bundle = walk_on(normalize(h, "auto"), encoding, has_pe_qubit)
    reach = plane_subspace(bundle).reach
    for block in invariant_blocks(bundle):
        want = _dense_plane(bundle, block)
        got = expand(block)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got[:, reach])), np.signbit(part(want[:, reach])))


@pytest.mark.parametrize("encoding", ["binary", "unary", "hybrid"])
def test_the_pe_qubit_changes_no_bit_of_the_phase_report(encoding):
    """Prepare, select, reflect and walk touch neither the pe qubit nor
    the binary ancilla that only the controlled walk's AND ladder uses:
    without the pe qubit the planes reach the same labels, and the phase
    report is the same bit for bit."""
    rescaled = normalize(long_range_ising(4, 1.0, 2.0))
    full, narrow = (walk_on(rescaled, encoding, has_pe_qubit) for has_pe_qubit in (True, False))
    assert np.array_equal(plane_subspace(narrow).reach, plane_subspace(full).reach)
    got, want = walk_eigenphases(narrow), walk_eigenphases(full)
    assert np.array(got.pairs).tobytes() == np.array(want.pairs).tobytes()
    assert np.float64(got.closure_error).tobytes() == np.float64(want.closure_error).tobytes()


def test_planes_hold_only_the_states_the_walk_can_reach():
    """Binary TFIM n=6 with pe is 15 qubits: the dressed states live on 768
    basis states, and select, reflect and walk reach 1,024 of the 32,768.
    Each compact row holds those and one zero slot."""
    bundle = build_walk(normalize(tfim(6, 1.0, 1.0), "auto"), "binary")
    space = plane_subspace(bundle)
    assert bundle.layout.total_qubits == 15
    assert (len(space.start) << space.bits, len(space.reach)) == (768, 1024)
    for block in invariant_blocks(bundle):
        assert block.rows.shape == (len(block.rows), 1025) and not block.rows[:, -1].any()


def test_walk_eigenphases_stays_far_below_one_register_vector():
    """Unary TFIM n=5 with pe is 22 qubits, 32 MiB per real vector; its
    planes hold 4,385 floats a row.  Once the plans are compiled, matching
    every phase peaks far below one register vector."""
    bundle = build_walk(normalize(tfim(5, 1.0, 1.0), "auto"), "unary")
    assert bundle.layout.total_qubits == 22
    walk_eigenphases(bundle)  # compiles and caches the subspace and its plans
    tracemalloc.start()
    try:
        report = walk_eigenphases(bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.max_error < ROUNDOFF and report.closure_error < ROUNDOFF
    assert peak < (8 << bundle.layout.total_qubits) // 32


def test_a_subspace_and_its_plans_allocate_nothing_register_sized():
    """Unary TFIM n=6 with pe is 23 qubits, 64 MiB per real vector, and the
    cap refuses it; its planes reach 137 control keys times 2**6 system
    states.  Building the subspace and compiling the select and walk plans
    on it each peak under 8 MiB, an eighth of one register vector."""
    from specwalk.simulator import _subspace_plan

    bundle = build_walk(normalize(tfim(6, 1.0, 1.0), "auto"), "unary")
    assert bundle.layout.total_qubits == 23
    steps = [
        lambda: plane_subspace(bundle),
        lambda: _subspace_plan(bundle.select, np.dtype(np.float64), plane_subspace(bundle)),
        lambda: _subspace_plan(bundle.walk, np.dtype(np.float64), plane_subspace(bundle)),
    ]
    for step in steps:
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20
    assert len(plane_subspace(bundle).reach) == 137 << 6


def _phases_one_block_at_a_time(bundle):
    """`walk_eigenphases` as one walk pass, one `eigvals` and one match per
    block."""
    pairs, residuals = [], []
    for block in invariant_blocks(bundle):
        m, residual = _restrict(bundle.walk, block, np.empty_like(block.rows))
        residuals.append(residual)
        free = list(np.angle(np.linalg.eigvals(m)))
        for e in sorted(block.eigenphases()):
            chords = [abs(cmath.exp(1j * e) - cmath.exp(1j * p)) for p in free]
            i = int(np.argmin(chords))
            pairs.append((e, free.pop(i), 2.0 * math.asin(min(1.0, chords[i] / 2.0))))
    pairs.sort(key=lambda p: p[0])
    return pairs, math.hypot(*residuals)


@pytest.mark.parametrize(
    "model, encoding",
    [("long_range4", "unary"), ("long_range4", "hybrid"), ("long_range3", "binary"),
     ("tfim4", "unary"), ("odd_y", "binary"), ("odd_y", "unary")],
)
def test_batched_phases_equal_one_block_at_a_time(suite_models, odd_y_model, model, encoding):
    """The batches change no bit: the pairs and the closure error equal
    those of one walk pass per block.  Long-range models have boundary
    planes, the odd-Y model complex ones, and unary long-range n=4 (12
    planes a batch), hybrid long-range n=4 (15) and unary TFIM n=4 (13)
    run 16 planes in two batches."""
    h = odd_y_model if model == "odd_y" else suite_models[model]
    bundle = build_walk(normalize(h, "auto"), encoding)
    report = walk_eigenphases(bundle)
    pairs, closure = _phases_one_block_at_a_time(bundle)
    assert np.array(report.pairs).tobytes() == np.array(pairs).tobytes()
    assert np.float64(report.closure_error).tobytes() == np.float64(closure).tobytes()


@pytest.mark.parametrize(
    "n, encoding, has_pe_qubit, size",
    [(6, "binary", False, 7), (9, "binary", False, 1), (5, "unary", True, 1)],
)
def test_a_batch_holds_at_most_2_14_amplitudes_of_rows(n, encoding, has_pe_qubit, size):
    """k planes a batch, k = max(1, 2**14 // (2 * row length)): 7 at binary
    TFIM n=6 (rows of 1,025), one at binary n=9 (16,385), both on a
    register without the pe qubit, where planes reach the labels they reach
    with it, and at unary TFIM n=5 (4,385), so the memory bounds of one
    plane at a time still hold there."""
    bundle = walk_on(normalize(tfim(n, 1.0, 1.0), "auto"), encoding, has_pe_qubit)
    width = len(plane_subspace(bundle).reach) + 1
    batch, rows = next(blocks._plane_batches(bundle))
    assert rows.shape == (size, 2, width) and rows.flags.c_contiguous and len(batch) == size


def test_walk_eigenphases_runs_one_select_and_one_walk_pass_a_batch(monkeypatch):
    """Binary TFIM n=6: 64 planes in batches of 7, so 10 select and 10 walk
    passes where one plane a pass took 128."""
    bundle = build_walk(normalize(tfim(6, 1.0, 1.0), "auto"), "binary")
    passes = []

    def counted(circuit, rows, space):
        passes.append((circuit, len(rows)))
        return apply_in_subspace(circuit, rows, space)

    apply_in_subspace = blocks.apply_in_subspace
    monkeypatch.setattr(blocks, "apply_in_subspace", counted)
    report = walk_eigenphases(bundle)
    assert report.max_error < ROUNDOFF and report.closure_error < ROUNDOFF
    assert [c for c, _ in passes] == [bundle.select, bundle.walk] * 10
    assert [k for _, k in passes] == [7, 14] * 9 + [1, 2]
