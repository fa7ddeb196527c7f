import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from specwalk import binary_walk, dense_matrix, normalize, tfim
from specwalk.blocks import block_matrices, invariant_blocks, walk_eigenphases
from specwalk.circuits import MROT, ROT, Circuit, Gate
from specwalk.pauli import PauliString, to_matrix
from specwalk.simulator import QuantumState, circuit_unitary
from specwalk.walk_core import dressed_state, encoded_dense

from conftest import expand, random_lcu, walk_eigenvector


def small_walk(h):
    return binary_walk(normalize(h))


def unitary_on(bundle, circuit):
    return circuit_unitary(circuit)


def control_block(bundle, u):
    """Restrict a full-register unitary to the ancilla/pe vacuum sector."""
    dim = 1 << (bundle.layout.system_qubits + bundle.layout.control_qubits)
    return u[:dim, :dim]


def test_prepare_amplitudes_match_weights(suite_models):
    r = normalize(suite_models["tfim3"])
    b = binary_walk(r)
    state = QuantumState.zero_state(b.layout)
    state.apply_circuit(b.prepare)
    weights = np.array([w for w, _ in r.weights])
    # control index j lives in the bits above the system register
    amps = np.array(
        [state.vec[j << b.layout.system_qubits] for j in range(1 << b.layout.control_qubits)]
    )
    assert np.max(np.abs(amps[: len(weights)] - np.sqrt(weights))) < 1e-10
    assert np.max(np.abs(amps[len(weights) :])) < 1e-12
    assert np.min(amps.real) >= -1e-12  # all real non-negative


def test_prepare_degenerate_weights():
    from specwalk.circuits import Circuit, RegisterLayout
    from specwalk.walk_binary import build_prepare_b

    layout = RegisterLayout(system_qubits=1, control_qubits=2)
    circ = build_prepare_b([1.0, 0.0, 0.0, 0.0], layout)
    assert len(circ) == 0  # weight already on the vacuum

    layout1 = RegisterLayout(system_qubits=1, control_qubits=1)
    circ2 = build_prepare_b([0.5, 0.5], layout1)
    state = QuantumState.zero_state(layout1)
    state.apply_circuit(circ2)
    assert abs(state.vec[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(state.vec[2] - 1 / math.sqrt(2)) < 1e-12


def test_prepare_rotation_budget(suite_models, random_models):
    for h in list(suite_models.values()) + random_models[:5]:
        r = normalize(h)
        b = binary_walk(r)
        assert b.prepare.census.rotations <= r.n_select_terms


def test_reflection_matrix_is_householder(suite_models):
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    u = control_block(b, circuit_unitary(b.reflect))
    beta = np.empty(1 << b.layout.total_qubits, dtype=complex)
    dressed_state(b.branches, np.array([1.0, 0, 0, 0], dtype=complex), beta)
    # reflection about |beta> x |system>: build the oracle from the outer product
    dim = u.shape[0]
    beta_block = np.zeros((dim, dim), dtype=complex)
    n_sys = 1 << b.layout.system_qubits
    ctrl_dim = dim // n_sys
    beta_ctrl = np.array([b2.amplitude for b2 in b.branches])
    full_beta = np.zeros(ctrl_dim)
    for br in b.branches:
        full_beta[br.control_state] = br.amplitude
    oracle = np.kron(
        np.eye(ctrl_dim) - 2 * np.outer(full_beta, full_beta), np.eye(n_sys)
    )
    # reorder: control bits are the high bits, system the low bits
    assert np.max(np.abs(u - oracle)) < 1e-10


def test_reflection_fixes_orthogonal_states(suite_models):
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    beta = np.empty(1 << b.layout.total_qubits, dtype=complex)
    dressed_state(b.branches, np.array([1, 0, 0, 0], dtype=complex), beta)
    state = QuantumState(b.layout, beta.copy())
    state.apply_circuit(b.reflect)
    assert np.max(np.abs(state.vec + beta)) < 1e-10  # S|beta> = -|beta>


def test_select_applies_each_word(random_models):
    h = random_models[0]
    r = normalize(h)
    b = binary_walk(r)
    n_sys = 1 << b.layout.system_qubits
    for j, (w, p) in enumerate(r.weights):
        sys_vec = np.zeros(n_sys, dtype=complex)
        sys_vec[min(3, n_sys - 1)] = 1.0
        full = np.zeros(1 << b.layout.total_qubits, dtype=complex)
        full[(j << b.layout.system_qubits) + np.arange(n_sys)] = sys_vec
        state = QuantumState(b.layout, full)
        state.apply_circuit(b.select)
        got = state.vec[(j << b.layout.system_qubits) + np.arange(n_sys)]
        assert np.max(np.abs(got - to_matrix(p) @ sys_vec)) < 1e-10


def test_select_v_squares_to_identity(suite_models):
    # an involution on the physical (ancilla-vacuum) sector
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    u = control_block(b, circuit_unitary(b.select))
    assert np.max(np.abs(u @ u - np.eye(u.shape[0]))) < 1e-10


def test_s_and_v_square_to_identity_as_matrices(suite_models):
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    s = control_block(b, circuit_unitary(b.reflect))
    assert np.max(np.abs(s @ s - np.eye(s.shape[0]))) < 1e-10


def test_walk_spectral_map(suite_models):
    for h in suite_models.values():
        rep = walk_eigenphases(binary_walk(normalize(h)))
        assert rep.max_error < 1e-9
        assert rep.closure_error < 1e-9


def test_walk_spectral_map_random(random_models):
    for h in random_models[:8]:
        rep = walk_eigenphases(binary_walk(normalize(h)))
        assert rep.max_error < 1e-9


def test_walk_spectral_map_random_two_qubit():
    rng = np.random.default_rng(91)
    for _ in range(6):
        h = random_lcu(rng, n_qubits=2, max_terms=7)
        rep = walk_eigenphases(binary_walk(normalize(h)))
        assert rep.max_error < 1e-9


def test_walk_identity_only():
    from specwalk import LcuHamiltonian

    h = LcuHamiltonian.from_terms(1, [(1.0, PauliString.identity(1))])
    rep = walk_eigenphases(binary_walk(normalize(h, "none")))
    assert np.max(np.abs(rep.expected)) == 0.0
    assert rep.max_error < 1e-12


def test_walk_i_plus_z_phases():
    from specwalk import LcuHamiltonian

    h = LcuHamiltonian.from_terms(
        1, [(1.0, PauliString.identity(1)), (1.0, PauliString.from_label("Z"))]
    )
    rep = walk_eigenphases(binary_walk(normalize(h, "none")))
    assert np.allclose(np.sort(rep.expected), [-math.pi / 2, 0.0, math.pi / 2], atol=1e-12)
    assert rep.max_error < 1e-12


def test_invariant_block_matrices(suite_models):
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    for block in invariant_blocks(b):
        if block.is_boundary:
            continue
        s2, v2 = block_matrices(b, block)
        e = block.energy
        root = math.sqrt(1.0 - e * e)
        assert np.max(np.abs(s2 - np.diag([-1.0, 1.0]))) < 1e-9
        assert np.max(np.abs(v2 - np.array([[e, root], [root, -e]]))) < 1e-9


def test_block_v_at_zero_energy(half_identity_x):
    b = binary_walk(half_identity_x)
    blocks = invariant_blocks(b)
    zero = [blk for blk in blocks if abs(blk.energy) < 1e-12][0]
    _, v2 = block_matrices(b, zero)
    assert np.max(np.abs(v2 - np.array([[0, 1], [1, 0]]))) < 1e-9


def test_boundary_block_is_one_dimensional(half_identity_x):
    b = binary_walk(half_identity_x)
    blocks = invariant_blocks(b)
    top = [blk for blk in blocks if blk.energy > 1 - 1e-9][0]
    assert blk_boundary(top)


def blk_boundary(block):
    return block.is_boundary and block.theta == 0.0


def test_basis_orthonormal_and_walk_confined(suite_models):
    r = normalize(suite_models["tfim3"])
    b = binary_walk(r)
    basis = np.vstack([expand(block) for block in invariant_blocks(b)])
    gram = basis.conj() @ basis.T
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-9
    # W^m stays inside the subspace
    psi = np.zeros(1 << b.layout.system_qubits, dtype=complex)
    psi[5] = 1.0
    vec = np.empty(1 << b.layout.total_qubits, dtype=complex)
    dressed_state(b.branches, psi, vec)
    state = QuantumState(b.layout, vec)
    proj = basis.T @ basis.conj()
    for _ in range(8):
        state.apply_circuit(b.walk)
        leak = np.linalg.norm(state.vec - proj @ state.vec)
        assert leak < 1e-9


def test_walk_eigenphases_holds_one_plane_at_a_time():
    b = binary_walk(normalize(tfim(5, 0.7, 1.3)))
    walk_eigenphases(b)  # compiles and caches the circuit plans
    tracemalloc.start()
    try:
        walk_eigenphases(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole subspace is 64 register vectors here; one batch of planes
    # (15 here, at most 2**14 amplitudes of rows) and its images are a few
    assert peak < 16 * (1 << b.layout.total_qubits) * 16


def test_a_walk_that_mixes_two_planes_fails_the_closure():
    # X0 X1 commutes with Z0 Z1, so W X0 X1 keeps the whole invariant
    # subspace but swaps the boundary planes of |00> and |11>
    b = binary_walk(normalize(tfim(2, 0.0, 1.0)))
    walk = Circuit(b.layout, [*b.walk, *(Gate.x(q) for q in b.layout.system)])
    rep = walk_eigenphases(dataclasses.replace(b, walk=walk))
    assert rep.closure_error > 1e-6


def test_eigenstate_relation(suite_models):
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    for block in invariant_blocks(b):
        if block.is_boundary:
            continue
        for sign, vec in ((1, walk_eigenvector(block, "+")), (-1, walk_eigenvector(block, "-"))):
            state = QuantumState(b.layout, vec.copy())
            state.apply_circuit(b.walk)
            expect = np.exp(1j * sign * block.theta) * vec
            assert np.max(np.abs(state.vec - expect)) < 1e-9


def test_circuit_matrix_agreement(suite_models):
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    u = control_block(b, circuit_unitary(b.walk))
    # direct construction: -S V from the branch table
    n_sys = 1 << b.layout.system_qubits
    ctrl_dim = (1 << b.layout.control_qubits)
    full_beta = np.zeros(ctrl_dim)
    v = np.zeros((ctrl_dim * n_sys, ctrl_dim * n_sys), dtype=complex)
    for br in b.branches:
        full_beta[br.control_state] = br.amplitude
        v[
            br.control_state * n_sys : (br.control_state + 1) * n_sys,
            br.control_state * n_sys : (br.control_state + 1) * n_sys,
        ] = to_matrix(br.word)
    for j in range(ctrl_dim):  # unused indices act as identity
        if not any(br.control_state == j for br in b.branches):
            v[j * n_sys : (j + 1) * n_sys, j * n_sys : (j + 1) * n_sys] = np.eye(n_sys)
    s = np.kron(np.eye(ctrl_dim) - 2 * np.outer(full_beta, full_beta), np.eye(n_sys))
    assert np.max(np.abs(u - (-s @ v))) < 1e-9


def test_controlled_walk_exact(suite_models):
    r = normalize(suite_models["tfim2"])
    b = binary_walk(r)
    total = b.layout.total_qubits
    u = circuit_unitary(b.controlled_walk)
    half = 1 << (total - 1)  # pe is the top qubit
    dim = 1 << (b.layout.system_qubits + b.layout.control_qubits)
    off = u[:dim, :dim]  # pe=0, ancillas |0>
    assert np.max(np.abs(off - np.eye(dim))) < 1e-10
    on = u[half : half + dim, half : half + dim]  # pe=1, ancillas |0>
    w = circuit_unitary(b.walk)
    assert np.max(np.abs(on - w[:dim, :dim])) < 1e-10
    assert np.max(np.abs(u[:half, half : half + dim])) < 1e-12


def test_select_toffoli_bound(suite_models, random_models):
    for h in list(suite_models.values()) + random_models[:5]:
        r = normalize(h)
        b = binary_walk(r)
        n = r.n_select_terms
        c = b.layout.control_qubits
        toffolis = b.select.census.toffoli
        assert toffolis <= 2 * n * max(1, math.log2(n + 1))


def test_census_matches_structure(suite_models):
    r = normalize(suite_models["tfim4"])
    b = binary_walk(r)
    assert b.select.census.rotations == 0
    assert b.prepare.census.toffoli == 0
    # rotations appear only in prepare and its inverse
    assert (
        b.walk.census.rotations
        == b.prepare.census.rotations + b.prepare_dagger.census.rotations
    )
