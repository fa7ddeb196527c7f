import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk.census import GateCensus
from specwalk.circuits import Circuit, Gate, RegisterLayout, distinct_rotation_count
from specwalk.pauli import PauliString
from specwalk.simulator import QuantumState, circuit_unitary, make_rng


def plain_layout(n):
    return RegisterLayout(system_qubits=n)


def test_hadamard_on_zero():
    st_ = QuantumState.zero_state(plain_layout(1))
    st_.apply(Gate.h(0))
    assert np.allclose(st_.vec, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_fanout_splits_one_hot():
    st_ = QuantumState.zero_state(plain_layout(2))
    st_.apply(Gate.x(0))  # |10> in (src, dst) order
    st_.apply(Gate.fanout(0, 1))
    expect = np.zeros(4)
    expect[1] = expect[2] = 1 / math.sqrt(2)  # indices: bit0=src, bit1=dst
    assert np.allclose(st_.vec, expect, atol=1e-12)
    # the excitation-number-zero state is untouched
    vac = QuantumState.zero_state(plain_layout(2))
    vac.apply(Gate.fanout(0, 1))
    assert vac.vec[0] == 1.0


def test_fanout_inverse():
    layout = plain_layout(2)
    circ = Circuit(layout, [Gate.fanout(0, 1)])
    u = circuit_unitary(circ)
    ui = circuit_unitary(circ.inverse())
    assert np.max(np.abs(u @ ui - np.eye(4))) < 1e-12


def test_random_circuit_matches_matrix_oracle():
    rng = np.random.default_rng(17)
    layout = plain_layout(3)
    gates = []
    for _ in range(25):
        kind = rng.integers(6)
        a, b, c = (int(q) for q in rng.permutation(3))
        if kind == 0:
            gates.append(Gate.h(a))
        elif kind == 1:
            gates.append(Gate.ry(float(rng.uniform(-3, 3)), a))
        elif kind == 2:
            gates.append(Gate.cnot(a, b))
        elif kind == 3:
            gates.append(Gate.toffoli(a, b, c))
        elif kind == 4:
            gates.append(Gate.cswap(a, b, c))
        else:
            gates.append(Gate.fanout(a, b))
    circ = Circuit(layout, gates)
    u = circuit_unitary(circ)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    st_ = QuantumState(layout, vec.copy())
    st_.apply_circuit(circ)
    assert np.max(np.abs(st_.vec - u @ vec)) < 1e-10


@given(st.lists(st.tuples(st.integers(0, 2), st.floats(-3, 3)), max_size=12))
@settings(max_examples=30, deadline=None)
def test_norm_preserved_under_random_rotations(spec):
    layout = plain_layout(3)
    st_ = QuantumState.zero_state(layout)
    st_.apply(Gate.h(0))
    st_.apply(Gate.cnot(0, 1))
    for q, angle in spec:
        st_.apply(Gate.ry(angle, q))
    assert abs(st_.norm - 1.0) < 1e-12


def test_multiplexed_rotation_pattern_indexing():
    layout = plain_layout(3)
    # target 0, select (2, 1) with 2 the most-significant pattern bit
    angles = [0.0, 0.3, 0.7, 1.1]
    g = Gate.multiplexed_ry(0, (2, 1), angles)
    for pattern in range(4):
        st_ = QuantumState.zero_state(layout)
        if pattern & 2:
            st_.apply(Gate.x(2))
        if pattern & 1:
            st_.apply(Gate.x(1))
        st_.apply(g)
        p1, _, _ = st_.measure({0: 1})
        assert abs(p1 - math.sin(angles[pattern] / 2) ** 2) < 1e-12


def test_controlled_pauli_sign():
    layout = plain_layout(2)
    minus_x = PauliString.from_label("-X")
    st_ = QuantumState.zero_state(layout)
    st_.apply(Gate.x(1))  # control on
    st_.apply(Gate.pauli_word(minus_x, (0,), (1,)))
    expect = np.zeros(4, dtype=complex)
    expect[3] = -1.0
    assert np.allclose(st_.vec, expect)


def test_expectation_values():
    layout = plain_layout(1)
    zero = QuantumState.zero_state(layout)
    assert zero.expectation(PauliString.from_label("Z")) == pytest.approx(1.0, abs=1e-14)
    plus = QuantumState.zero_state(layout)
    plus.apply(Gate.h(0))
    assert plus.expectation(PauliString.from_label("Z")) == pytest.approx(0.0, abs=1e-14)
    assert plus.expectation(PauliString.from_label("X")) == pytest.approx(1.0, abs=1e-14)


def test_measure_analyze_and_determinism():
    layout = plain_layout(1)
    plus = QuantumState.zero_state(layout)
    plus.apply(Gate.h(0))
    p1, one, zero_post = plus.measure({0: 1})
    assert p1 == pytest.approx(0.5, abs=1e-12)
    again = plus.measure({0: 1})
    assert again[0] == p1
    assert np.array_equal(again[1].vec, one.vec)
    assert np.array_equal(again[2].vec, zero_post.vec)
    zero = QuantumState.zero_state(layout)
    p1, one, zero_post = zero.measure({0: 1})
    assert p1 == 0.0
    assert one is None
    assert np.array_equal(zero_post.vec, zero.vec)
    with pytest.raises(ValueError):
        zero.measure({1: 0})


def test_make_rng_needs_an_explicit_seed():
    with pytest.raises(ValueError):
        make_rng(None)
    gen = make_rng(5)
    assert make_rng(gen) is gen
    assert make_rng(5).random() == make_rng(5).random()


def test_project_control_vacuum():
    layout = RegisterLayout(system_qubits=1, control_qubits=2)
    vacuum = dict.fromkeys(layout.control, 0)
    state = QuantumState.zero_state(layout)
    p, succ, fail = state.measure(vacuum)
    assert p == pytest.approx(1.0)
    assert fail is None
    # put weight 1/3 on a nonzero control state
    state.vec[:] = 0
    state.vec[0] = math.sqrt(1 / 3)
    state.vec[1 << 1] = math.sqrt(2 / 3)  # control bit 0 set
    p, succ, fail = state.measure(vacuum)
    assert p == pytest.approx(1 / 3, abs=1e-12)
    # brute-force cross-check over the raw amplitudes
    brute = sum(
        abs(state.vec[i]) ** 2
        for i in range(len(state.vec))
        if (i >> 1) & 0b11 == 0
    )
    assert p == pytest.approx(brute, abs=1e-15)
    assert abs(succ.norm - 1) < 1e-12 and abs(fail.norm - 1) < 1e-12


def test_extract_system_requires_clean_registers():
    layout = RegisterLayout(system_qubits=1, control_qubits=1)
    state = QuantumState.zero_state(layout)
    state.apply(Gate.h(1))
    with pytest.raises(ValueError):
        state.extract_system()


def test_census_against_hand_counts():
    layout = RegisterLayout(system_qubits=2, control_qubits=3)
    circ = Circuit(layout)
    circ.append(Gate.h(0))  # 1 Clifford
    circ.append(Gate.mcz((2, 3, 4)))  # 2 controls: 1 Toffoli, 1 work qubit
    circ.append(Gate.ry(0.4, 2, (3,)))  # 1 rotation
    circ.append(Gate.fanout(2, 3))  # 1 fanout, 2 Clifford corrections
    circ.append(Gate.multiplexed_ry(0, (2, 3), [0.1, 0.0, 0.2, 0.3]))  # 3 rotations, 4 Clifford
    # 5 layout qubits, no ancilla register, so the MCZ work qubit adds one
    assert circ.census == GateCensus(
        clifford=7, toffoli=1, fanout_sqrt_swap=1, rotations=4, qubits=6
    )
    circ.append(Gate.toffoli(0, 1, 2))
    assert circ.census == GateCensus(
        clifford=7, toffoli=2, fanout_sqrt_swap=1, rotations=4, qubits=6
    )
    with_ancilla = Circuit(
        RegisterLayout(system_qubits=2, control_qubits=3, ancilla_qubits=1), circ.gates
    )
    assert with_ancilla.census.qubits == 6  # the ancilla register holds the work qubit


def test_census_additivity():
    layout = RegisterLayout(system_qubits=2, control_qubits=2)
    a = Circuit(layout, [Gate.h(0), Gate.fanout(1, 3), Gate.ry(0.5, 2)])
    b = Circuit(layout, [Gate.toffoli(0, 1, 2), Gate.cswap(0, 1, 2)])
    merged = Circuit(layout, a.gates + b.gates)
    for field in ("clifford", "toffoli", "fanout_sqrt_swap", "controlled_swap", "rotations"):
        assert getattr(merged.census, field) == getattr(a.census, field) + getattr(
            b.census, field
        )


def test_census_tiers():
    layout = RegisterLayout(system_qubits=3, control_qubits=2)
    x = PauliString.from_label("X")
    assert Gate.pauli_word(x, (0,), (3,)).census().clifford == 1  # one control: Clifford
    two_ctrl = Gate.pauli_word(x, (0,), (3, 4)).census()
    assert two_ctrl.toffoli == 2  # AND ladder
    assert Gate.mcz((0, 1)).census().clifford == 1  # CZ
    assert Gate.mcz((0, 1, 2, 3)).census().toffoli == 2  # 3 controls
    mrot = Gate.multiplexed_ry(0, (3, 4), [0.0, 0.5, 0.0, 0.2]).census()
    assert mrot.rotations == 2 and mrot.clifford == 4


def test_distinct_rotation_count_identifies_adjoint_pairs():
    layout = plain_layout(2)
    circ = Circuit(
        layout,
        [
            Gate.ry(0.7, 0),
            Gate.ry(-0.7, 1),
            Gate.ry(0.7, 1),
            Gate.ry(0.2, 0),
        ],
    )
    assert circ.census.rotations == 4
    assert distinct_rotation_count(circ) == 2


def test_nan_angle_rejected():
    with pytest.raises(ValueError):
        Gate.ry(float("nan"), 0)


def test_gate_index_validation():
    layout = plain_layout(2)
    circ = Circuit(layout)
    with pytest.raises(ValueError):
        circ.append(Gate.h(5))


def test_simulation_cap():
    with pytest.raises(ValueError):
        QuantumState.zero_state(plain_layout(23))


def test_expectation_against_eigenvector_oracle():
    import specwalk as sw

    h = sw.tfim(3, 1.0, 1.0)
    vals, vecs = sw.eigensystem(h)
    ground = vecs[:, 0]
    state = QuantumState.from_system_state(plain_layout(3), ground)
    zz = PauliString.from_label("ZZI")
    direct = float(np.vdot(ground, sw.to_matrix(zz) @ ground).real)
    assert state.expectation(zz) == pytest.approx(direct, abs=1e-12)


def test_empty_circuit_census_is_zero():
    circ = Circuit(plain_layout(2))
    c = circ.census
    assert (c.clifford, c.rotations, c.third_level_total) == (0, 0, 0)


def test_build_reflection_named_op():
    import specwalk as sw
    from specwalk.walk_core import build_reflection

    r = sw.normalize(sw.tfim(2, 1, 1))
    bundle = sw.binary_walk(r)
    refl = build_reflection(bundle.prepare)
    assert [g.kind for g in refl.gates] == [g.kind for g in bundle.reflect.gates]


# --- differential kernel test against dense matrices ------------------------------
#
# The reference matrices below are built here from np.kron and projectors; they
# share no code with the simulator's kernel.

_E = {(i, j): np.outer(np.eye(2)[i], np.eye(2)[j]).astype(complex) for i in (0, 1) for j in (0, 1)}
_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _kron_on(n, factors):
    """kron over qubits n-1..0 (qubit 0 least significant), identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def _lift(n, qubits, local, controls=()):
    """Dense matrix of `local` on `qubits` (local bit i = qubits[i]), applied
    where every control reads 1 and the identity elsewhere."""
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    proj = {c: _E[1, 1] for c in controls}
    for i in range(local.shape[0]):
        for j in range(local.shape[1]):
            if local[i, j] != 0:
                factors = {q: _E[(i >> t) & 1, (j >> t) & 1] for t, q in enumerate(qubits)}
                out += local[i, j] * _kron_on(n, {**proj, **factors})
    if controls:
        out += np.eye(1 << n) - _kron_on(n, proj)
    return out


def _ry(angle):
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * _PAULI_1Q["Y"]


def _reference(gate, n):
    kind, qs, cs = gate.kind, gate.qubits, gate.controls
    if kind == "h":
        return _lift(n, qs, _H, cs)
    if kind == "cswap":
        return _lift(n, qs, np.eye(4)[[0, 2, 1, 3]], cs)
    if kind == "toffoli":
        return _lift(n, qs, _PAULI_1Q["X"], cs)
    if kind == "pauli":
        word = np.ones((1, 1), dtype=complex)
        for i in range(len(qs)):  # word position i is local bit i
            word = np.kron(_PAULI_1Q[gate.pauli.letter(i)], word)
        return _lift(n, qs, gate.pauli.phase * word, cs)
    if kind == "fanout":
        c, s = math.cos(gate.angle), math.sin(gate.angle)
        local = np.eye(4, dtype=complex)
        local[1:3, 1:3] = [[c, -s], [s, c]]  # |src=1,dst=0>, |src=0,dst=1>
        return _lift(n, qs, local, cs)
    if kind == "mcz":
        return np.eye(1 << n) - 2 * _kron_on(n, {q: _E[1, 1] for q in qs})
    if kind == "rot":
        return _lift(n, qs, _ry(gate.angle), cs)
    if kind == "mrot":
        d = len(cs)
        out = np.zeros((1 << n, 1 << n), dtype=complex)
        for p, angle in enumerate(gate.angles):  # cs[0] is the most significant bit
            sel = {c: _E[b, b] for c, b in ((c, (p >> (d - 1 - i)) & 1) for i, c in enumerate(cs))}
            rot = {qs[0]: _ry(angle)}
            out += _kron_on(n, {**sel, **rot})
        return out
    if kind == "gphase":
        return np.exp(1j * gate.angle) * np.eye(1 << n)
    raise AssertionError(kind)


_ANGLES = st.floats(-4, 4, allow_nan=False)


def _draw_pauli(q, d):
    n_ctrl = d(st.integers(0, min(3, len(q) - 1)))
    width = d(st.integers(1, len(q) - n_ctrl))
    word = PauliString(
        width, d(st.integers(0, (1 << width) - 1)), d(st.integers(0, (1 << width) - 1)),
        d(st.sampled_from((0, 2))),
    )
    return Gate.pauli_word(word, q[n_ctrl: n_ctrl + width], q[:n_ctrl])


def _draw_mrot(q, d):
    n_sel = d(st.integers(0, min(3, len(q) - 1)))
    angles = d(st.lists(st.sampled_from((0.0, 0.3, -1.2, 2.5)) | _ANGLES,
                        min_size=1 << n_sel, max_size=1 << n_sel))
    return Gate.multiplexed_ry(q[n_sel], q[:n_sel], angles)


def _draw_fanout(q, d):
    gate = Gate.fanout(q[0], q[1])
    return gate.inverse() if d(st.booleans()) else gate


# kind -> (qubits the gate needs, builder from (shuffled qubits, draw))
_BUILDERS = {
    "h": (1, lambda q, d: Gate.h(q[0])),
    "pauli": (1, _draw_pauli),
    "toffoli": (3, lambda q, d: Gate.toffoli(q[0], q[1], q[2])),
    "cswap": (3, lambda q, d: Gate.cswap(q[0], q[1], q[2])),
    "fanout": (2, _draw_fanout),
    "mcz": (1, lambda q, d: Gate.mcz(q[: d(st.integers(1, len(q)))])),
    "rot": (1, lambda q, d: Gate.ry(
        d(_ANGLES), q[0], q[1: 1 + d(st.integers(0, min(1, len(q) - 1)))]
    )),
    "mrot": (1, _draw_mrot),
    "gphase": (0, lambda q, d: Gate.global_phase(d(_ANGLES))),
}


def test_dense_reference_covers_the_emitted_gate_set(suite_models, monkeypatch):
    """The dense reference has a builder for exactly the gate kinds that the
    walk builders and `pe_step` emit."""
    from specwalk import normalize
    from specwalk.measurement import pe_step
    from specwalk.walk_core import build_walk

    kinds = set()
    for model in ("tfim3", "long_range4"):
        rescaled = normalize(suite_models[model], "auto")
        for encoding in ("binary", "unary", "hybrid"):
            if encoding == "hybrid" and model == "tfim3":
                continue  # the hybrid walk needs a power-of-two chain
            for with_pe in (False, True):
                bundle = build_walk(rescaled, encoding, with_pe=with_pe)
                for circuit in (bundle.prepare, bundle.walk, bundle.controlled_walk):
                    kinds |= {gate.kind for gate in circuit}
    # a state with p_minus > 0, so pe_step also applies its X
    state = QuantumState.zero_state(bundle.layout).apply(Gate.h(0))
    apply = QuantumState.apply
    monkeypatch.setattr(
        QuantumState, "apply", lambda state, gate: kinds.add(gate.kind) or apply(state, gate)
    )
    pe_step(state, bundle.controlled_walk)
    assert kinds == set(_BUILDERS)


def _check_against_reference(gate, n, vec):
    state = QuantumState(plain_layout(n), vec.copy())
    buffer = state.vec
    state.apply(gate)
    assert state.vec is buffer  # mutated in place
    want = _reference(gate, n) @ vec
    assert np.max(np.abs(state.vec - want)) < 1e-12, gate


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_every_gate_kind_matches_dense_reference(data):
    kind = data.draw(st.sampled_from(sorted(_BUILDERS)))
    needed, build = _BUILDERS[kind]
    n = data.draw(st.integers(max(1, needed), 6))
    qubits = data.draw(st.permutations(range(n)))
    gate = build(qubits, data.draw)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    _check_against_reference(gate, n, vec / np.linalg.norm(vec))


@pytest.mark.parametrize(
    "n, gate",
    [
        (1, Gate.h(0)),
        (1, Gate.ry(0.7, 0).inverse()),
        (1, Gate.mcz((0,))),
        (1, Gate.z(0)),
        (2, Gate.fanout(0, 1).inverse()),
        (2, Gate.fanout(1, 0)),
        (2, Gate.mcz((1, 0))),
        (2, Gate.ry(0.7, 0, (1,))),
        (2, Gate.multiplexed_ry(0, (1,), [0.4, -0.9])),
        (2, Gate.pauli_word(PauliString.from_label("Z"), (0,), (1,))),
        (3, Gate.cswap(2, 0, 1)),
        (3, Gate.pauli_word(PauliString.from_label("-I"), (0,), (1, 2))),
        (3, Gate.mcz((0, 1, 2))),
    ],
)
def test_gates_fixing_every_axis_still_write(n, gate):
    """Slices that fix every axis of the register must still be written."""
    vec = np.arange(1, (1 << n) + 1) * np.exp(0.3j * np.arange(1 << n))
    _check_against_reference(gate, n, vec / np.linalg.norm(vec))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_measure_matches_dense_projector(data):
    n = data.draw(st.integers(1, 5))
    qubits = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    bits = {q: data.draw(st.integers(0, 1)) for q in qubits}
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    vec /= np.linalg.norm(vec)
    state = QuantumState(plain_layout(n), vec.copy())
    on = _kron_on(n, {q: _E[b, b] for q, b in bits.items()})
    off = np.eye(1 << n) - on
    p, hit, miss = state.measure(bits)
    assert np.array_equal(state.vec, vec)  # the input is left as it was
    p_on = float(np.vdot(vec, on @ vec).real)
    assert p == pytest.approx(p_on, abs=1e-12)
    if not bits:
        assert p == 1.0 and miss is None
    for post, proj, weight in ((hit, on, p_on), (miss, off, 1.0 - p_on)):
        if weight < 1e-12:
            continue
        assert np.allclose(post.vec, proj @ vec / math.sqrt(weight), atol=1e-10)


# --- fused permutation runs -----------------------------------------------------

_RUN_KINDS = ("pauli", "toffoli", "cswap", "mcz")
_OTHER_KINDS = tuple(sorted(set(_BUILDERS) - set(_RUN_KINDS)))


def _draw_gate(kinds, n, d):
    _, build = _BUILDERS[d(st.sampled_from(kinds))]
    return build(d(st.permutations(range(n))), d)


def _draw_state(n, d):
    """A random state in which some amplitudes have a zero, of either sign,
    in the real or the imaginary part, so signed zeros are compared too."""
    rng = np.random.default_rng(d(st.integers(0, 2**32 - 1)))
    parts = rng.normal(size=(2, 1 << n))
    zeros = rng.random(size=parts.shape) < 0.3
    parts[zeros] = np.copysign(0.0, rng.normal(size=int(zeros.sum())))
    parts /= np.linalg.norm(parts)
    vec = np.empty(1 << n, dtype=complex)
    vec.real, vec.imag = parts  # complex arithmetic could change a zero's sign
    return vec


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fused_circuit_equals_gate_by_gate(data):
    """Runs of permutation gates (length 1 included, possibly at the end)
    between other gates: the fused pass repeats every float of the
    gate-by-gate pass, signed zeros included."""
    n, draw = data.draw(st.integers(3, 6)), data.draw
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        gates += [_draw_gate(_RUN_KINDS, n, draw) for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            gates.append(_draw_gate(_OTHER_KINDS, n, draw))
    layout, vec = plain_layout(n), _draw_state(n, draw)
    fused = QuantumState(layout, vec.copy()).apply_circuit(Circuit(layout, gates))
    stepwise = QuantumState(layout, vec.copy())
    for gate in gates:
        stepwise.apply(gate)
    _assert_same_bits(fused.vec, stepwise.vec)


def test_fused_run_with_controlled_imaginary_phases():
    """Controlled words with an odd number of Y letters multiply by +-i."""
    layout = plain_layout(4)
    gates = [
        Gate.pauli_word(PauliString.from_label("Y"), (0,), (3,)),
        Gate.pauli_word(PauliString.from_label("-XY"), (1, 2), (0,)),
        Gate.toffoli(0, 1, 2),
        Gate.mcz((1, 2, 3)),
        Gate.pauli_word(PauliString.from_label("YZ"), (3, 0)),
        Gate.cswap(1, 2, 3),
    ]
    circuit = Circuit(layout, gates)
    u = circuit_unitary(circuit)
    for b, vec in enumerate(np.eye(16, dtype=complex)):  # all other amplitudes +0
        fused = QuantumState(layout, vec.copy()).apply_circuit(circuit)
        stepwise = QuantumState(layout, vec.copy())
        for gate in gates:
            stepwise.apply(gate)
        _assert_same_bits(fused.vec, stepwise.vec)
        assert np.max(np.abs(fused.vec - u[:, b])) < 1e-15


@pytest.mark.parametrize(
    "gates",
    [
        [Gate.x(0), Gate.h(1)],  # mixes amplitudes
        [Gate.global_phase(math.pi / 4), Gate.x(0)],  # a phase that is not a power of i
        [Gate.ry(0.3, 1), Gate.cnot(0, 1)],
        [Gate.x(0), Gate.global_phase(math.pi)],  # exp(i pi) is not exactly -1
    ],
)
def test_non_monomial_run_is_refused(gates):
    from specwalk.simulator import _signed_permutation

    with pytest.raises(ValueError, match="not a signed permutation"):
        _signed_permutation(gates, 2)


@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("long_range3", "unary"), ("long_range4", "hybrid")],
)
def test_walk_passes_match_the_gate_by_gate_unitary(suite_models, model, encoding):
    from specwalk import normalize
    from specwalk.walk_core import build_walk

    bundle = build_walk(normalize(suite_models[model], "auto"), encoding, with_pe=True)
    rng = np.random.default_rng(5)
    for circuit in (bundle.walk, bundle.controlled_walk):
        assert circuit.layout.total_qubits <= 12
        u = circuit_unitary(circuit)
        for _ in range(3):
            vec = rng.normal(size=len(u)) + 1j * rng.normal(size=len(u))
            vec /= np.linalg.norm(vec)
            state = QuantumState(circuit.layout, vec.copy()).apply_circuit(circuit)
            assert np.max(np.abs(state.vec - u @ vec)) < 1e-12


def test_extended_circuit_compiles_again():
    layout = plain_layout(3)
    circ = Circuit(layout, [Gate.x(0), Gate.cnot(0, 1)])
    state = QuantumState.zero_state(layout).apply_circuit(circ)
    assert state.vec[3] == 1.0
    circ.extend([Gate.toffoli(0, 1, 2), Gate.z(2)])
    state = QuantumState.zero_state(layout).apply_circuit(circ)
    assert state.vec[7] == -1.0


def test_state_from_a_strided_real_column():
    """The gather views the vector as floats; the constructor makes it a
    contiguous complex array, leaving the caller's array alone."""
    layout = plain_layout(2)
    columns = np.eye(4)[:, ::-1]
    state = QuantumState(layout, columns[:, 0])
    state.apply_circuit(Circuit(layout, [Gate.cnot(0, 1), Gate.x(0)]))
    assert np.array_equal(state.vec, [1, 0, 0, 0])  # |11> -> |01> -> |00>
    assert np.array_equal(columns, np.eye(4)[:, ::-1])
