"""The spectral check has teeth: `walk_eigenphases` fails a broken walk.

Each encoding's walk is mutated in two ways.  Without its sign, the Pauli
word -I after select, the circuit is -W: every invariant plane survives,
but every eigenphase moves by pi, so the phase match must fail.  Without
one select gate the circuit no longer preserves the planes, so the closure
must fail.

The planes are float64 exactly when the encoded operator and the walk are
real; a word with an odd number of Ys keeps them complex.  They are stored
on the basis states the walk can reach, and read as full-register vectors
that equal the planes built on the whole register bit for bit.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from specwalk import long_range_ising, normalize, tfim
from specwalk.blocks import invariant_blocks, plane_subspace, walk_eigenphases
from specwalk.circuits import PAULI, Circuit
from specwalk.simulator import QuantumState
from specwalk.walk_core import build_walk, dressed_state

ROUNDOFF = 1e-9
FAILED = 1e-6


@pytest.fixture(scope="module", params=["binary", "unary", "hybrid"])
def bundle(request):
    # four sites: the hybrid encoding needs a power-of-two number of them
    return build_walk(normalize(long_range_ising(4, 1.0, 2.0)), request.param, with_pe=False)


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
    bundle = build_walk(normalize(model), encoding, with_pe=True)
    assert {block.plane.dtype for block in invariant_blocks(bundle)} == {np.dtype(np.float64)}
    report = walk_eigenphases(bundle)
    assert report.max_error < ROUNDOFF and report.closure_error < ROUNDOFF


@pytest.mark.parametrize("encoding", ["binary", "unary"])
def test_an_odd_y_word_keeps_complex_planes(odd_y_model, encoding):
    bundle = build_walk(normalize(odd_y_model), encoding, with_pe=True)
    assert not bundle.select.is_real
    assert {block.plane.dtype for block in invariant_blocks(bundle)} == {np.dtype(complex)}
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


@pytest.mark.parametrize("with_pe", [False, True])
@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("long_range3", "unary"), ("long_range4", "hybrid"),
     ("odd_y", "binary"), ("odd_y", "unary")],
)
def test_compact_planes_read_as_the_whole_register_planes(
    suite_models, odd_y_model, model, encoding, with_pe
):
    """`plane`, `phi0` and `phi1` expand the compact rows into vectors that
    equal the planes built on the whole register bit for bit, signed zeros
    at the reach states included."""
    h = odd_y_model if model == "odd_y" else suite_models[model]
    bundle = build_walk(normalize(h, "auto"), encoding, with_pe=with_pe)
    reach = plane_subspace(bundle).reach
    for block in invariant_blocks(bundle):
        want = _dense_plane(bundle, block)
        got = block.plane
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got[:, reach])), np.signbit(part(want[:, reach])))
        assert np.array_equal(block.phi0, want[0])
        assert block.is_boundary or np.array_equal(block.phi1, want[1])


def test_planes_hold_only_the_states_the_walk_can_reach():
    """Binary TFIM n=6 with pe is 15 qubits: the dressed states live on 768
    basis states, and select, reflect and walk reach 1,024 of the 32,768.
    Each compact row holds those and one zero slot."""
    bundle = build_walk(normalize(tfim(6, 1.0, 1.0), "auto"), "binary", with_pe=True)
    space = plane_subspace(bundle)
    assert bundle.layout.total_qubits == 15
    assert (len(space.support), len(space.reach)) == (768, 1024)
    for block in invariant_blocks(bundle):
        assert block.rows.shape == (len(block.rows), 1025) and not block.rows[:, -1].any()


def test_walk_eigenphases_stays_far_below_one_register_vector():
    """Unary TFIM n=5 with pe is 22 qubits, 32 MiB per real vector; its
    planes hold 4,385 floats a row.  Once the plans are compiled, matching
    every phase peaks far below one register vector."""
    bundle = build_walk(normalize(tfim(5, 1.0, 1.0), "auto"), "unary", with_pe=True)
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

    bundle = build_walk(normalize(tfim(6, 1.0, 1.0), "auto"), "unary", with_pe=True)
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
