import math

import numpy as np
import pytest

from specwalk import (
    LcuHamiltonian,
    PauliString,
    binary_walk,
    dense_matrix,
    group,
    hybrid_long_range_walk,
    long_range_ising,
    normalize,
    tfim,
    unary_walk,
)
from specwalk.blocks import walk_eigenphases
from specwalk.circuits import FANOUT, RegisterLayout, distinct_rotation_count
from specwalk.simulator import QuantumState
from specwalk.walk_core import encoded_dense
from specwalk.walk_unary import build_fanout


def make_unary(h):
    r = normalize(h)
    return unary_walk(group(r), r)


def control_amplitudes(bundle):
    """Amplitudes of B|0> indexed by control-register state."""
    state = QuantumState.zero_state(bundle.layout)
    state.apply_circuit(bundle.prepare)
    n_sys = bundle.layout.system_qubits
    c = bundle.layout.control_qubits
    return np.array([state.vec[j << n_sys] for j in range(1 << c)])


def test_head_prep_amplitudes():
    r = normalize(tfim(4, 1.0, 0.7))
    g = group(r)
    bundle = unary_walk(g, r)
    from specwalk.walk_unary import build_head_prep

    layout = bundle.layout
    heads = [math.sqrt(grp.n_padded * grp.strength_sq) for grp in g.groups]
    positions = [layout.control[grp.offset - 1] for grp in g.groups]
    circ = build_head_prep(layout, g.beta0_sq, heads, positions)
    state = QuantumState.zero_state(layout)
    state.apply_circuit(circ)
    amps = np.array(
        [state.vec[j << layout.system_qubits] for j in range(1 << layout.control_qubits)]
    )
    assert abs(amps[0] - math.sqrt(g.beta0_sq)) < 1e-10
    for grp in g.groups:
        head = 1 << (grp.offset - 1)
        expect = math.sqrt(grp.n_padded * grp.strength_sq)
        assert abs(amps[head] - expect) < 1e-10
    # nothing anywhere else
    live = {0} | {1 << (grp.offset - 1) for grp in g.groups}
    for j, a in enumerate(amps):
        if j not in live:
            assert abs(a) < 1e-12
    assert circ.census.rotations == g.k_distinct


def test_head_prep_single_group_no_identity():
    # all weight on one group head: the preparation degrades to an X
    h = LcuHamiltonian.from_terms(
        2, [(0.0, PauliString.identity(2)), (1.0, PauliString.from_label("XX"))]
    )
    r = normalize(h, "none")
    bundle = unary_walk(group(r), r)
    assert bundle.prepare.census.rotations == 0
    amps = control_amplitudes(bundle)
    assert abs(amps[1] - 1.0) < 1e-12


def test_head_prep_equal_halves():
    h = LcuHamiltonian.from_terms(
        2,
        [
            (0.0, PauliString.identity(2)),
            (1.0, PauliString.from_label("XI")),
            (1.0, PauliString.from_label("ZZ")),
        ],
    )
    r = normalize(h, "none")
    g = group(r)
    assert g.k_distinct == 1  # equal weights share one group
    bundle = unary_walk(g, r)
    amps = control_amplitudes(bundle)
    assert abs(amps[0b01] - 1 / math.sqrt(2)) < 1e-10
    assert abs(amps[0b10] - 1 / math.sqrt(2)) < 1e-10


def test_fanout_tree_counts_and_uniformity():
    layout = RegisterLayout(system_qubits=1, control_qubits=8)
    circ = build_fanout(layout, 1, 8)
    assert sum(1 for g in circ.gates if g.kind == FANOUT) == 7
    state = QuantumState.zero_state(layout)
    state.apply(__import__("specwalk").Gate.x(1))
    state.apply_circuit(circ)
    for slot in range(8):
        amp = state.vec[(1 << slot) << 1]
        assert abs(amp - 1 / math.sqrt(8)) < 1e-10
    empty = build_fanout(layout, 1, 1)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        build_fanout(layout, 1, 6)


def test_prepare_is_one_hot(suite_models):
    bundle = make_unary(suite_models["tfim3"])
    amps = control_amplitudes(bundle)
    for j, a in enumerate(amps):
        if bin(j).count("1") >= 2:
            assert abs(a) < 1e-12
    weights = np.abs(amps) ** 2
    assert abs(weights.sum() - 1.0) < 1e-10


def test_prepare_amplitudes_match_branches(suite_models):
    bundle = make_unary(suite_models["tfim4"])
    amps = control_amplitudes(bundle)
    for br in bundle.branches:
        assert abs(amps[br.control_state] - br.amplitude) < 1e-10


def test_select_is_clifford_only(suite_models):
    for h in suite_models.values():
        bundle = make_unary(h)
        census = bundle.select.census
        assert census.rotations == 0
        assert census.third_level_total == 0


def test_select_applies_signed_words():
    h = tfim(2, -0.9, 0.7)  # negative field: signs absorbed into the words
    bundle = make_unary(h)
    n_sys = 1 << bundle.layout.system_qubits
    from specwalk.pauli import to_matrix

    for br in bundle.branches:
        if br.control_state == 0:
            continue
        sys_vec = np.zeros(n_sys, dtype=complex)
        sys_vec[1] = 1.0
        full = np.zeros(1 << bundle.layout.total_qubits, dtype=complex)
        full[(br.control_state << bundle.layout.system_qubits) + np.arange(n_sys)] = sys_vec
        state = QuantumState(bundle.layout, full)
        state.apply_circuit(bundle.select)
        got = state.vec[(br.control_state << bundle.layout.system_qubits) + np.arange(n_sys)]
        assert np.max(np.abs(got - to_matrix(br.word) @ sys_vec)) < 1e-10


def test_encoded_operator_matches_rescaled(suite_models):
    for h in suite_models.values():
        r = normalize(h)
        bundle = unary_walk(group(r), r)
        assert (
            np.max(np.abs(encoded_dense(bundle.branches, r.n_qubits) - dense_matrix(r)))
            < 1e-10
        )


def test_unary_eigenphases(suite_models):
    for h in suite_models.values():
        rep = walk_eigenphases(make_unary(h))
        assert rep.max_error < 1e-9
        assert rep.closure_error < 1e-9


def test_encoding_equivalence(suite_models, random_models):
    for h in list(suite_models.values()) + random_models[:5]:
        r = normalize(h)
        rb = walk_eigenphases(binary_walk(r))
        ru = walk_eigenphases(unary_walk(group(r), r))
        assert np.max(np.abs(np.sort(rb.expected) - np.sort(ru.expected))) < 1e-9
        assert rb.max_error < 1e-9 and ru.max_error < 1e-9


def test_single_term_equivalence():
    h = LcuHamiltonian.from_terms(
        1, [(1.0, PauliString.identity(1)), (1.0, PauliString.from_label("Z"))]
    )
    r = normalize(h, "none")
    rb = walk_eigenphases(binary_walk(r))
    ru = walk_eigenphases(unary_walk(group(r), r))
    assert np.max(np.abs(np.sort(rb.expected) - np.sort(ru.expected))) < 1e-10


def test_controlled_walk_identity_off_branch(suite_models):
    bundle = make_unary(suite_models["tfim3"])
    psi = np.zeros(1 << bundle.layout.system_qubits, dtype=complex)
    psi[3] = 1.0
    from specwalk.walk_core import dressed_state

    vec = np.empty(1 << bundle.layout.total_qubits, dtype=complex)
    dressed_state(bundle.branches, psi, vec)
    state = QuantumState(bundle.layout, vec.copy())
    state.apply_circuit(bundle.controlled_walk)
    assert np.max(np.abs(state.vec - vec)) < 1e-10


def test_rotation_censuses(suite_models):
    # one-hot controlled walk: K synthesis parameters, 2K rotation gates;
    # binary controlled walk: at least N/2 synthesis parameters
    for name in ("tfim3", "tfim4"):
        h = suite_models[name]
        r = normalize(h)
        g = group(r)
        bundle = unary_walk(g, r)
        assert distinct_rotation_count(bundle.controlled_walk) == g.k_distinct
        assert bundle.controlled_walk.census.rotations == 2 * g.k_distinct
        bb = binary_walk(r)
        assert distinct_rotation_count(bb.controlled_walk) >= r.n_select_terms / 2
        assert bb.controlled_walk.census.rotations >= r.n_select_terms


def test_fanout_total_bound(suite_models):
    for h in suite_models.values():
        r = normalize(h)
        g = group(r)
        bundle = unary_walk(g, r)
        fanouts = sum(1 for gate in bundle.prepare.gates if gate.kind == FANOUT)
        assert fanouts == sum(grp.n_padded - 1 for grp in g.groups)
        assert fanouts <= 2 * r.n_select_terms


# --- mixed one-hot / binary encoding ---------------------------------------


def test_hybrid_matches_binary_n4():
    r = normalize(long_range_ising(4, 1.0, 2.0))
    hy = hybrid_long_range_walk(r)
    assert (
        np.max(np.abs(encoded_dense(hy.branches, 4) - dense_matrix(r))) < 1e-10
    )
    rep = walk_eigenphases(hy)
    rb = walk_eigenphases(binary_walk(r))
    assert rep.max_error < 1e-9
    assert np.max(np.abs(np.sort(rep.expected) - np.sort(rb.expected))) < 1e-9


def test_hybrid_single_pair():
    r = normalize(long_range_ising(2, 1.0, 1.0))
    rep = walk_eigenphases(hybrid_long_range_walk(r))
    vals = np.linalg.eigvalsh(dense_matrix(r))
    expect = sorted({round(v, 12) for v in np.arccos(np.clip(vals, -1, 1))})
    assert rep.max_error < 1e-9


def test_hybrid_rotation_and_swap_budget():
    r = normalize(long_range_ising(4, 1.0, 2.0))
    hy = hybrid_long_range_walk(r)
    k = 3
    assert distinct_rotation_count(hy.controlled_walk) == k
    census = hy.controlled_walk.census
    assert census.controlled_swap <= 4 * k * 4  # c * K * n with c = 4
    assert census.rotations == 2 * k


def test_hybrid_rejects_non_power_of_two():
    r = normalize(long_range_ising(3, 1.0, 2.0))
    with pytest.raises(ValueError):
        hybrid_long_range_walk(r)


def test_hybrid_rejects_non_ising():
    r = normalize(tfim(4, 1.0, 1.0))
    with pytest.raises(ValueError):
        hybrid_long_range_walk(r)


def test_build_walk_dispatches_by_name():
    from specwalk.walk_core import build_walk

    r = normalize(long_range_ising(4, 1.0, 2.0))
    built = {
        "binary": binary_walk(r),
        "unary": unary_walk(group(r), r),
        "hybrid": hybrid_long_range_walk(r),
    }
    for encoding, expected in built.items():
        bundle = build_walk(r, encoding, with_pe=True)
        assert bundle.encoding == encoding
        assert bundle.walk.gates == expected.walk.gates
        assert bundle.controlled_walk.gates == expected.controlled_walk.gates
    assert len(build_walk(r, "unary", with_pe=False).controlled_walk) == 0
    with pytest.raises(ValueError, match="unknown encoding"):
        build_walk(r, "ternary", with_pe=True)


def test_identity_only_model_has_an_empty_control_register():
    h = LcuHamiltonian.from_terms(2, [(1.0, PauliString.identity(2))])
    bundle = make_unary(h)
    assert bundle.layout.control_qubits == 0
    assert walk_eigenphases(bundle).max_error < 1e-9
