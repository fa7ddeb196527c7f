import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specwalk.census import GateCensus
from specwalk.circuits import Circuit, Gate, RegisterLayout, distinct_rotation_count
from specwalk.measurement import _expectation
from specwalk.pauli import PauliString
from specwalk.simulator import QuantumState, circuit_unitary, make_rng

from conftest import walk_on


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
    assert _expectation(zero.vec, PauliString.from_label("Z")) == pytest.approx(1.0, abs=1e-14)
    plus = QuantumState.zero_state(layout)
    plus.apply(Gate.h(0))
    assert _expectation(plus.vec, PauliString.from_label("Z")) == pytest.approx(0.0, abs=1e-14)
    assert _expectation(plus.vec, PauliString.from_label("X")) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="non-Hermitian"):
        _expectation(plus.vec, PauliString.from_label("iX"))


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
    with pytest.raises(ValueError, match="cannot read"):
        zero.measure({0: 2})


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
    gates = [
        Gate.h(0),  # 1 Clifford
        Gate.mcz((2, 3, 4)),  # 2 controls: 1 Toffoli, 1 work qubit
        Gate.ry(0.4, 2, (3,)),  # 1 rotation
        Gate.fanout(2, 3),  # 1 fanout, 2 Clifford corrections
        Gate.multiplexed_ry(0, (2, 3), [0.1, 0.0, 0.2, 0.3]),  # 3 rotations, 4 Clifford
    ]
    # 5 layout qubits, no ancilla register, so the MCZ work qubit adds one
    assert Circuit(layout, gates).census == GateCensus(
        clifford=7, toffoli=1, fanout_sqrt_swap=1, rotations=4, qubits=6
    )
    gates = [*gates, Gate.toffoli(0, 1, 2)]
    assert Circuit(layout, gates).census == GateCensus(
        clifford=7, toffoli=2, fanout_sqrt_swap=1, rotations=4, qubits=6
    )
    with_ancilla = Circuit(
        RegisterLayout(system_qubits=2, control_qubits=3, ancilla_qubits=1), gates
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


def test_toffoli_and_mcz_records_carry_their_controlled_word():
    """A Toffoli is X on its target under two controls, an MCZ Z on its last
    qubit under the others, and an MCZ on m + 1 qubits keeps the census and
    work qubits of m controls: one Clifford for m <= 1, else m - 1 Toffolis,
    and max(0, m - 1) work qubits."""
    toffoli, mcz = Gate.toffoli(0, 1, 2), Gate.mcz((0, 1, 2))
    assert (toffoli.qubits, toffoli.controls, toffoli.pauli.label()) == ((2,), (0, 1), "X")
    assert (mcz.qubits, mcz.controls, mcz.pauli.label()) == ((2,), (0, 1), "Z")
    for m in range(5):
        gate = Gate.mcz(tuple(range(m + 1)))
        assert gate.census() == (GateCensus(clifford=1) if m <= 1 else GateCensus(toffoli=m - 1))
        assert gate.workspace() == max(0, m - 1)
    for repeated in (lambda: Gate.mcz((1, 1, 2)), lambda: Gate.toffoli(0, 0, 1)):
        with pytest.raises(ValueError, match="a qubit repeats"):
            repeated()


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
    with pytest.raises(ValueError, match="outside the 2-qubit layout"):
        Circuit(plain_layout(2), [Gate.h(5)])


def test_simulation_cap():
    with pytest.raises(ValueError):
        QuantumState.zero_state(plain_layout(23))


def test_unitary_export_above_its_cap_is_refused_before_allocating():
    import tracemalloc

    from specwalk.simulator import UNITARY_QUBIT_CAP

    circuit = Circuit(plain_layout(UNITARY_QUBIT_CAP + 1), [Gate.h(0)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the unitary-export cap"):
            circuit_unitary(circuit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_expectation_against_eigenvector_oracle():
    import specwalk as sw

    h = sw.tfim(3, 1.0, 1.0)
    vals, vecs = sw.eigensystem(h)
    ground = vecs[:, 0]
    state = QuantumState(plain_layout(3), ground)
    zz = PauliString.from_label("ZZI")
    direct = float(np.vdot(ground, sw.to_matrix(zz) @ ground).real)
    assert _expectation(state.vec, zz) == pytest.approx(direct, abs=1e-12)


def test_empty_circuit_census_is_zero():
    circ = Circuit(plain_layout(2))
    c = circ.census
    assert (c.clifford, c.rotations, c.third_level_total) == (0, 0, 0)


def test_build_reflection_named_op():
    import specwalk as sw
    from specwalk.walk_core import vacuum_reflection

    r = sw.normalize(sw.tfim(2, 1, 1))
    bundle = sw.binary_walk(r)
    want = (*bundle.prepare_dagger, *vacuum_reflection(bundle.layout), *bundle.prepare)
    assert bundle.reflect.gates == want


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
        return np.eye(1 << n) - 2 * _kron_on(n, {q: _E[1, 1] for q in qs + cs})
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
            bundle = build_walk(rescaled, encoding)
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


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_real_sign_flip_is_exact_at_a_stride_of_64_bytes(n):
    """An MCZ on qubits 0, 1 and 2 negates a slice of stride 8 amplitudes,
    64 bytes on a real state, which numpy 2.4's float64 `negative` misreads;
    the real pass negates exactly the amplitudes whose three low bits are
    set."""
    vec = np.arange(1.0, (1 << n) + 1)
    want = np.where(np.arange(1 << n) & 7 == 7, -vec, vec)
    state = QuantumState(plain_layout(n), vec.copy()).apply(Gate.mcz((0, 1, 2)))
    assert np.array_equal(state.vec, want)


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
        [Gate.ry(0.3, 1), Gate.cnot(0, 1)],
        [Gate.x(0), Gate.ry(math.pi, 1)],  # a signed permutation only up to round-off
    ],
)
def test_non_monomial_run_is_refused(gates):
    from specwalk.simulator import _signed_permutation

    labels = np.arange(4)
    for dtype in (complex, float):
        with pytest.raises(ValueError, match="not a signed permutation"):
            _signed_permutation(gates, labels, lambda src: src, dtype)


@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("long_range3", "unary"), ("long_range4", "hybrid")],
)
def test_walk_passes_match_the_gate_by_gate_unitary(suite_models, model, encoding):
    from specwalk import normalize
    from specwalk.walk_core import build_walk

    bundle = build_walk(normalize(suite_models[model], "auto"), encoding)
    rng = np.random.default_rng(5)
    for circuit in (bundle.walk, bundle.controlled_walk):
        assert circuit.layout.total_qubits <= 12
        u = circuit_unitary(circuit)
        for _ in range(3):
            vec = rng.normal(size=len(u)) + 1j * rng.normal(size=len(u))
            vec /= np.linalg.norm(vec)
            state = QuantumState(circuit.layout, vec.copy()).apply_circuit(circuit)
            assert np.max(np.abs(state.vec - u @ vec)) < 1e-12


def test_unitary_columns_equal_gate_by_gate_basis_runs(suite_models):
    """`circuit_unitary` runs blocks of columns; each column must equal one
    basis state run through `apply`, bit for bit."""
    from specwalk import normalize
    from specwalk.walk_core import build_walk

    circuit = build_walk(normalize(suite_models["long_range4"], "auto"), "hybrid").walk
    u = circuit_unitary(circuit)
    for b in range(0, len(u), 37):
        state = QuantumState(circuit.layout, np.eye(len(u), dtype=complex)[b])
        for gate in circuit:
            state.apply(gate)
        _assert_same_bits(state.vec, u[:, b])


def _circuits(bundle, *names):
    """The named circuits that `bundle` has; without the pe qubit it has no
    controlled walk."""
    return [getattr(bundle, name) for name in names if getattr(bundle, name) is not None]


@pytest.mark.parametrize("has_pe_qubit", [False, True])
@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("tfim3", "unary"), ("long_range3", "binary"),
     ("long_range3", "unary"), ("long_range4", "hybrid")],
)
def test_walk_circuits_are_real(suite_models, model, encoding, has_pe_qubit):
    """The walk's sign is the word -I, not exp(i pi), so every gate is real:
    a float64 state, which refuses an imaginary gate, takes each one, and
    the complex pass of the same real data keeps no imaginary part."""
    from specwalk import normalize

    bundle = walk_on(normalize(suite_models[model], "auto"), encoding, has_pe_qubit)
    rng = np.random.default_rng(17)
    for circuit in _circuits(bundle, "prepare", "walk", "controlled_walk"):
        data = rng.standard_normal(1 << circuit.layout.total_qubits)
        real = QuantumState(circuit.layout, data.copy())
        complex_pass = QuantumState(circuit.layout, data.astype(complex))
        for gate in circuit:
            real.apply(gate)
            complex_pass.apply(gate)
        assert np.all(complex_pass.vec.imag == 0.0)


def test_a_circuit_cannot_change_once_made():
    """A compiled pass is keyed by the circuit's identity, so no edit may
    reach a circuit after its first pass."""
    layout = plain_layout(2)
    gates = [Gate.x(0), Gate.x(1)]
    circ = Circuit(layout, gates)
    gates[1] = Gate.x(0)
    assert circ.gates == (Gate.x(0), Gate.x(1))
    assert QuantumState.zero_state(layout).apply_circuit(circ).vec[3] == 1.0
    with pytest.raises(TypeError):
        circ.gates[1] = Gate.x(0)
    with pytest.raises(AttributeError):
        circ.gates = (Gate.x(0),)
    assert not hasattr(circ, "append") and not hasattr(circ, "extend")
    assert QuantumState.zero_state(layout).apply_circuit(circ).vec[3] == 1.0


def test_state_from_a_strided_real_column():
    """The gather views the vector as floats; the constructor makes real
    data a contiguous float64 array, leaving the caller's array alone."""
    layout = plain_layout(2)
    columns = np.eye(4)[:, ::-1]
    state = QuantumState(layout, columns[:, 0])
    state.apply_circuit(Circuit(layout, [Gate.cnot(0, 1), Gate.x(0)]))
    assert np.array_equal(state.vec, [1, 0, 0, 0])  # |11> -> |01> -> |00>
    assert np.array_equal(columns, np.eye(4)[:, ::-1])


def _assert_same_real_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("has_pe_qubit", [False, True])
@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("long_range3", "unary"), ("long_range4", "hybrid")],
)
def test_a_real_pass_is_the_real_part_of_the_complex_pass(
    suite_models, model, encoding, has_pe_qubit
):
    """A float64 state through each circuit of a real walk, fused and gate by
    gate, equals the real part of the complex128 pass of the same data in
    every value; the complex pass leaves no imaginary part.  Zeros may
    differ in sign, since the complex pass also moves signed zeros of the
    imaginary parts into the real ones."""
    from specwalk import normalize

    bundle = walk_on(normalize(suite_models[model], "auto"), encoding, has_pe_qubit)
    layout, rng = bundle.layout, np.random.default_rng(11)
    for circuit in _circuits(bundle, "prepare", "select", "walk", "controlled_walk"):
        vec = rng.normal(size=1 << layout.total_qubits)
        vec /= np.linalg.norm(vec)
        fused = QuantumState(layout, vec.copy()).apply_circuit(circuit)
        stepwise = QuantumState(layout, vec.copy())
        for gate in circuit:
            stepwise.apply(gate)
        complex_pass = QuantumState(layout, vec.astype(complex)).apply_circuit(circuit)
        _assert_same_real_bits(fused.vec, stepwise.vec)
        assert np.array_equal(fused.vec, complex_pass.vec.real)
        assert not complex_pass.vec.imag.any()


def test_a_real_state_refuses_an_imaginary_pauli_word():
    """An odd number of Ys is an odd power of i: a float64 state refuses it
    before any float changes, alone or in a fused run.  An even number is
    real, and the expectation of any Hermitian word is taken."""
    layout = plain_layout(3)
    vec = np.arange(1.0, 9.0) / math.sqrt(204.0)
    state = QuantumState(layout, vec.copy())
    zy = Gate.pauli_word(PauliString.from_label("ZY"), (0, 1))
    with pytest.raises(ValueError, match="imaginary"):
        state.apply(zy)
    with pytest.raises(ValueError, match="imaginary"):
        state.apply_circuit(Circuit(layout, [Gate.x(2), zy]))
    assert np.array_equal(state.vec, vec)
    yy = Gate.pauli_word(PauliString.from_label("YY"), (0, 1))
    complex_state = QuantumState(layout, vec.astype(complex)).apply(yy)
    assert np.array_equal(state.apply(yy).vec, complex_state.vec.real)
    for label in ("YZI", "XYZ", "ZZX"):
        word = PauliString.from_label(label)
        want = _expectation(complex_state.vec, word)
        assert _expectation(state.vec, word) == pytest.approx(want, abs=1e-15)


def test_a_circuit_runs_on_either_dtype_in_turn():
    """The plan cache keys on the dtype, so a circuit that ran on one dtype
    runs its own plan on the other."""
    layout = plain_layout(3)
    circ = Circuit(layout, [Gate.x(0), Gate.cnot(0, 1), Gate.z(1), Gate.h(2)])
    for dtype in (float, complex, float):
        state = QuantumState(layout, np.eye(8, dtype=dtype)[0]).apply_circuit(circ)
        assert state.vec.dtype == dtype
        assert np.array_equal(state.vec, np.kron([1, 1], [0, 0, 0, -1]) / math.sqrt(2))


def _slice_states(layout, dtype, rng):
    """States over `layout` that are nonzero on the system and control
    qubits, each with a different part above them nonzero: nothing, the
    ancillas, the pe half, or everything.  Zeros carry either sign.

    Yields (name, vec)."""
    k, total = layout.system_qubits + layout.control_qubits, layout.total_qubits
    top = k + layout.ancilla_qubits
    parts = {"none": (), "all": ((1 << k, 1 << total),)}
    if layout.ancilla_qubits:
        parts["ancillas"] = ((1 << k, 1 << top),)
    if layout.has_pe_qubit:
        parts["pe"] = ((1 << top, 1 << total),)
    for name, nonzero in parts.items():
        live = np.zeros(1 << total, dtype=bool)
        live[: 1 << k] = True
        for lo, hi in nonzero:
            live[lo:hi] = True
        floats = rng.normal(size=(2 if dtype == complex else 1, 1 << total))
        floats[:, ~live] = np.copysign(0.0, rng.normal(size=(len(floats), int((~live).sum()))))
        floats /= np.linalg.norm(floats)
        vec = np.empty(1 << total, dtype=dtype)
        if dtype == complex:
            vec.real, vec.imag = floats  # complex arithmetic could change a zero's sign
        else:
            vec[:] = floats[0]
        yield name, vec


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("has_pe_qubit", [False, True])
@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("long_range3", "binary"), ("long_range3", "unary"),
     ("long_range4", "hybrid")],
)
def test_segmented_passes_equal_gate_by_gate(suite_models, model, encoding, has_pe_qubit, dtype):
    """A compiled pass runs on the whole register, whichever part of it is
    zero, and repeats every float of the gate-by-gate pass, signed zeros
    included."""
    from specwalk import normalize

    bundle = walk_on(normalize(suite_models[model], "auto"), encoding, has_pe_qubit)
    layout, rng = bundle.layout, np.random.default_rng(17)
    circuits = _circuits(bundle, "prepare", "select", "reflect", "walk", "controlled_walk")
    for name, vec in _slice_states(layout, dtype, rng):
        for circuit in circuits:
            fused = QuantumState(layout, vec.copy()).apply_circuit(circuit)
            stepwise = QuantumState(layout, vec.copy())
            for gate in circuit:
                stepwise.apply(gate)
            assert np.array_equal(fused.vec, stepwise.vec), name
            _assert_same_bits(fused.vec, stepwise.vec)


def test_reflect_carries_a_tiny_amplitude_with_the_pe_qubit_set(suite_models):
    """Reflect acts on the control register, but its pass runs on the whole
    register: one tiny amplitude with the pe qubit set is carried as the
    gate-by-gate pass carries it."""
    from specwalk import normalize
    from specwalk.walk_core import build_walk

    bundle = build_walk(normalize(suite_models["tfim3"], "auto"), "binary")
    layout, rng = bundle.layout, np.random.default_rng(3)
    k = layout.system_qubits + layout.control_qubits
    vec = np.zeros(1 << layout.total_qubits)
    vec[: 1 << k] = rng.normal(size=1 << k)
    vec /= np.linalg.norm(vec)
    pe = 1 << layout.pe_qubit
    vec[pe] = 1e-30  # the pe qubit set, every other qubit 0
    fused = QuantumState(layout, vec.copy()).apply_circuit(bundle.reflect)
    stepwise = QuantumState(layout, vec.copy())
    for gate in bundle.reflect:
        stepwise.apply(gate)
    assert np.count_nonzero(stepwise.vec[pe:]) > 1
    _assert_same_real_bits(fused.vec, stepwise.vec)


@pytest.mark.parametrize("has_pe_qubit", [False, True])
@pytest.mark.parametrize(
    "model, encoding",
    [("tfim3", "binary"), ("tfim3", "unary"), ("long_range3", "unary"),
     ("long_range4", "hybrid")],
)
def test_prepare_from_the_vacuum_is_the_dressed_state(suite_models, model, encoding, has_pe_qubit):
    """Zeno starts each point from `dressed_state`, written from the branch
    table: the prepare circuit on |0>|psi> gives the same vector over the
    whole register, sum_b amp_b |ctrl_b>|psi>."""
    from specwalk import normalize
    from specwalk.walk_core import dressed_state

    bundle = walk_on(normalize(suite_models[model], "auto"), encoding, has_pe_qubit)
    layout, rng = bundle.layout, np.random.default_rng(41)
    dim = 1 << layout.system_qubits
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    vec = np.zeros(1 << layout.total_qubits, dtype=complex)
    vec[:dim] = psi
    prepared = QuantumState(layout, vec).apply_circuit(bundle.prepare).vec
    dressed = np.empty_like(prepared)
    dressed_state(bundle.branches, psi, dressed)
    assert np.count_nonzero(dressed) > dim
    assert np.max(np.abs(prepared - dressed)) < 1e-12


def _subspace_rows(space, dtype, rng, rows=2):
    """Random normalized rows on the support of `space`, as full-register
    vectors and as compact rows."""
    total, support = space.total, space.reach[~space.outside[:-1]]
    dense = np.zeros((rows, 1 << total), dtype=dtype)
    dense[:, support] = rng.normal(size=(rows, len(support)))
    if dtype == complex:
        dense.imag[:, support] = rng.normal(size=(rows, len(support)))
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    compact = np.zeros((rows, len(space.reach) + 1), dtype=dtype)
    compact[:, :-1] = dense[:, space.reach]
    return dense, compact


@pytest.mark.parametrize("has_pe_qubit", [False, True])
@pytest.mark.parametrize(
    "model, encoding, dtype",
    [("tfim3", "binary", float), ("long_range3", "unary", float),
     ("long_range4", "hybrid", float), ("tfim3", "binary", complex),
     ("long_range4", "hybrid", complex), ("odd_y", "binary", complex),
     ("odd_y", "unary", complex)],
)
def test_subspace_passes_equal_dense_passes(
    suite_models, odd_y_model, model, encoding, dtype, has_pe_qubit
):
    """A pass on compact rows equals the gate-by-gate `QuantumState.apply`
    pass bit for bit at every reach state, signed zeros included; the
    gate-by-gate pass is zero outside reach, and the zero slot stays zero."""
    from specwalk import normalize
    from specwalk.blocks import plane_subspace
    from specwalk.simulator import apply_in_subspace

    h = odd_y_model if model == "odd_y" else suite_models[model]
    bundle = walk_on(normalize(h, "auto"), encoding, has_pe_qubit)
    space, rng = plane_subspace(bundle), np.random.default_rng(29)
    outside = np.ones(1 << space.total, dtype=bool)
    outside[space.reach] = False
    for circuit in (bundle.select, bundle.reflect, bundle.walk):
        dense, compact = _subspace_rows(space, dtype, rng)
        apply_in_subspace(circuit, compact, space)
        for row, vec in zip(compact, dense):
            stepwise = QuantumState(bundle.layout, vec)
            for gate in circuit:
                stepwise.apply(gate)
            want = stepwise.vec
            assert want.dtype == row.dtype
            _assert_same_bits(row[:-1], want[space.reach])
            assert not want[outside].any() and row[-1] == 0


@pytest.mark.parametrize(
    "model, encoding, dtype",
    [("tfim3", "binary", float), ("odd_y", "binary", complex), ("long_range4", "unary", float)],
)
def test_a_pass_on_stacked_rows_equals_one_pass_per_row(
    suite_models, odd_y_model, model, encoding, dtype
):
    """The floats a compact pass writes for one row do not depend on the
    other rows: select and walk on k stacked rows equal k one-row passes
    bit for bit, signed zeros included.  `blocks.py` runs its planes in
    batches on this; the zero rows stand for boundary planes' second rows."""
    from specwalk import normalize
    from specwalk.blocks import plane_subspace
    from specwalk.simulator import apply_in_subspace
    from specwalk.walk_core import build_walk

    h = odd_y_model if model == "odd_y" else suite_models[model]
    bundle = build_walk(normalize(h, "auto"), encoding)
    space, rng = plane_subspace(bundle), np.random.default_rng(43)
    for circuit in (bundle.select, bundle.walk):
        _, stacked = _subspace_rows(space, dtype, rng, rows=6)
        stacked[[1, 4]] = 0.0
        single = [row[None].copy() for row in stacked]
        apply_in_subspace(circuit, stacked, space)
        for got, want in zip(stacked, single):
            apply_in_subspace(circuit, want, space)
            _assert_same_bits(got, want[0])


def _keeps_passengers(gate, bits):
    """The gate writes no qubit from `bits` up while it reads one below: its
    reads are its controls, and CSWAP's and FANOUT's pair too; a gate with
    a Pauli word writes the word's X qubits, any other gate its qubits."""
    reads = gate.controls + (gate.qubits if gate.kind in ("cswap", "fanout") else ())
    writes = gate.qubits
    if gate.pauli is not None:
        writes = [q for i, q in enumerate(gate.qubits) if gate.pauli.x_bits >> i & 1]
    return all(q < bits for q in writes) or all(q >= bits for q in reads)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_compact_passes_on_random_keys_equal_gate_by_gate(data):
    """Random circuits of every gate kind, zero and nonzero angles included,
    that keep the qubits below `bits` passengers, run on a compact row of a
    subspace of random start keys: every value at a reach state equals the
    gate-by-gate pass over the register (only a zero may differ in sign),
    and that pass is zero outside reach, in float64 and complex128."""
    from specwalk.simulator import Subspace, apply_in_subspace

    draw = data.draw
    total = draw(st.integers(3, 7))
    bits = draw(st.integers(1, total - 1))
    dtype = draw(st.sampled_from((float, complex)))
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        gate = _draw_gate(tuple(_BUILDERS), total, draw)
        real = gate.pauli is None or gate.pauli.is_real
        if _keeps_passengers(gate, bits) and (real or dtype is complex):
            gates.append(gate)
    layout = plain_layout(total)
    circuit = Circuit(layout, gates)
    keys = draw(st.lists(st.integers(0, (1 << (total - bits)) - 1), min_size=1, max_size=4,
                         unique=True))
    space = Subspace(total, bits, keys, [circuit])
    vec = _draw_state(total, draw)
    vec = vec.real.copy() if dtype is float else vec
    dense = np.zeros_like(vec)
    support = space.reach[~space.outside[:-1]]
    dense[support] = vec[support]
    assume(np.linalg.norm(dense) > 0)
    dense /= np.linalg.norm(dense)
    row = np.zeros((1, len(space.reach) + 1), dtype=dtype)
    row[0, :-1] = dense[space.reach]
    apply_in_subspace(circuit, row, space)
    stepwise = QuantumState(layout, dense)
    for gate in gates:
        stepwise.apply(gate)
    want = stepwise.vec
    assert np.array_equal(row[0, :-1], want[space.reach]) and row[0, -1] == 0
    outside = np.ones(1 << total, dtype=bool)
    outside[space.reach] = False
    assert not want[outside].any()


def test_a_row_nonzero_outside_its_plan_support_is_refused(suite_models):
    """A plan is compiled for the support of its rows: a row with one tiny
    amplitude elsewhere in reach, or in the zero slot, is refused before
    any float changes, and so is a circuit the subspace was not built
    from."""
    from specwalk import normalize
    from specwalk.blocks import plane_subspace
    from specwalk.simulator import apply_in_subspace
    from specwalk.walk_core import build_walk

    bundle = build_walk(normalize(suite_models["tfim3"], "auto"), "binary")
    space = plane_subspace(bundle)
    _, compact = _subspace_rows(space, float, np.random.default_rng(31))
    outside = np.flatnonzero(space.outside)
    assert len(outside) > 1 and outside[-1] == len(space.reach)
    for at in (outside[0], outside[-1]):  # a reach state, the slot
        bad = compact.copy()
        bad[1, at] = 1e-30
        kept = bad.copy()
        for circuit in (bundle.select, bundle.walk):
            with pytest.raises(ValueError, match="outside the support"):
                apply_in_subspace(circuit, bad, space)
            assert np.array_equal(bad, kept)
    with pytest.raises(ValueError, match="not built"):
        apply_in_subspace(bundle.prepare, compact, space)


def test_a_pass_that_changes_the_norm_is_refused(suite_models, monkeypatch):
    """Whole-register and compact passes check each pass for norm drift: a
    step that doubles one amplitude makes `apply_circuit` and
    `apply_in_subspace` raise."""
    from specwalk import normalize, simulator
    from specwalk.blocks import plane_subspace
    from specwalk.walk_core import build_walk

    def double_one(ten):
        flat = ten.reshape(-1)
        flat[np.argmax(np.abs(flat))] *= 2

    bundle = build_walk(normalize(suite_models["tfim3"], "auto"), "binary")
    space = plane_subspace(bundle)
    dense, compact = _subspace_rows(space, float, np.random.default_rng(37))
    monkeypatch.setattr(simulator, "_subspace_plan", lambda *_: ((double_one,),))
    with pytest.raises(AssertionError, match="norm drifted"):
        QuantumState(bundle.layout, dense[0]).apply_circuit(bundle.select)
    with pytest.raises(AssertionError, match="norm drifted"):
        simulator.apply_in_subspace(bundle.select, compact, space)


def test_a_whole_register_subspace_runs_no_closure(monkeypatch):
    """A subspace whose block is the register is one key, its own support
    and reach, for any circuit on the register; no closure runs over it."""
    from specwalk import simulator
    from specwalk.simulator import Subspace, apply_in_subspace

    def refuse(*_):
        raise AssertionError("closure over the whole register")

    monkeypatch.setattr(simulator, "_closure", refuse)
    layout = plain_layout(4)
    space = Subspace(4, 4, [0], ())
    assert space.whole and space.outside is None
    assert space.keys.tolist() == space.start.tolist() == [0]
    assert np.array_equal(space.reach, np.arange(16))
    circuit = Circuit(layout, [Gate.h(0), Gate.cnot(0, 3), Gate.x(1)])
    rows = np.eye(16)[:1].copy()
    apply_in_subspace(circuit, rows, space)
    assert np.array_equal(rows[0], QuantumState(layout, np.eye(16)[0]).apply_circuit(circuit).vec)
    assert np.flatnonzero(rows[0]).tolist() == [2, 11]


def _suite_bundles(suite_models):
    """(name, bundle) of every suite walk, binary, unary and hybrid."""
    from specwalk import normalize
    from specwalk.walk_core import build_walk

    for model in ("tfim3", "long_range4"):
        rescaled = normalize(suite_models[model], "auto")
        for encoding in ("binary", "unary", "hybrid"):
            if encoding == "hybrid" and model == "tfim3":
                continue  # the hybrid walk needs a power-of-two chain
            yield f"{model}-{encoding}", build_walk(rescaled, encoding)


def test_a_plane_subspace_is_one_closure_per_circuit_from_its_start(suite_models, monkeypatch):
    """The start of a plane subspace is the branches' control keys, whose
    blocks of system states ride along, and its keys are the union of one
    closure of each circuit from there: one select pass never leaves the
    start."""
    from specwalk import simulator
    from specwalk.blocks import plane_subspace

    closures = []
    closure = simulator._closure

    def counted(circuit, start, bits):
        closures.append(circuit)
        reached = closure(circuit, start, bits)
        assert isinstance(reached, np.ndarray)
        return reached

    monkeypatch.setattr(simulator, "_closure", counted)
    for _, bundle in _suite_bundles(suite_models):
        closures.clear()
        space = plane_subspace.__wrapped__(bundle)
        assert space.bits == bundle.n_system and not space.whole
        assert space.start.tolist() == sorted({b.control_state for b in bundle.branches})
        assert closures == [bundle.select, bundle.reflect, bundle.walk, bundle.prepare_dagger]


def test_keyed_reach_equals_the_label_closure(suite_models):
    """Under the passenger rule, a closure on one label per key reaches
    exactly the blocks that the closure over every (key, x) label of the
    start reaches, one call per circuit: `reach` is those labels, in
    order."""
    from specwalk.blocks import plane_subspace
    from specwalk.simulator import _closure, _union

    for name, bundle in _suite_bundles(suite_models):
        space = plane_subspace.__wrapped__(bundle)
        n = bundle.n_system
        labels = reach = (space.start[:, None] << n | np.arange(1 << n)).ravel()
        for circuit in space.circuits:
            reach = _union(reach, _closure(circuit, labels, 0))
        assert np.array_equal(space.reach, reach), name
        assert len(space.reach) == len(space.keys) << n, name


def test_a_gate_that_moves_a_key_by_a_system_qubit_is_refused():
    """The passenger rule: a gate may not write a qubit >= bits while it
    reads one below.  A system-controlled X on a control qubit, a CSWAP of
    a control and a system qubit, and a FANOUT of the same pair are
    refused when the subspace is built; a key-controlled X or CSWAP on
    system qubits, a Z on a key under a system control, an MCZ across
    both and a system-controlled rotation of a system qubit ride along."""
    from specwalk.simulator import Subspace

    layout = RegisterLayout(system_qubits=2, control_qubits=2)
    z = PauliString.single(1, 0, "Z")
    for gate in (Gate.cnot(0, 2), Gate.cswap(3, 1, 2), Gate.fanout(1, 2)):
        with pytest.raises(ValueError, match="writes a key qubit"):
            Subspace(4, 2, [0, 1], [Circuit(layout, [Gate.h(2), gate])])
    fine = [Gate.cnot(2, 0), Gate.cswap(3, 0, 1), Gate.pauli_word(z, (3,), (0,)),
            Gate.mcz((0, 3)), Gate.ry(0.4, 1, (0,)), Gate.h(3)]
    space = Subspace(4, 2, [0], [Circuit(layout, fine)])
    assert space.keys.tolist() == [0, 2] and space.reach.tolist() == [0, 1, 2, 3, 8, 9, 10, 11]


def test_a_subspace_beyond_its_labels_or_its_rows_is_refused_early():
    """A register wider than 62 qubits is refused before any label exists,
    and a closure stops as soon as its keys' blocks pass 2**22 amplitudes:
    Hadamards on 24 key qubits over 2**10 system states would reach 2**24
    keys, and the refusal holds arrays of 2**13 keys at most.  Rows of
    exactly 2**22 amplitudes pass."""
    import tracemalloc

    from specwalk.simulator import SIMULATION_QUBIT_CAP, Subspace

    with pytest.raises(ValueError, match="63 qubits exceeds the 62"):
        Subspace(63, 10, [0], ())
    layout = RegisterLayout(system_qubits=10, control_qubits=24)
    circuit = Circuit(layout, [Gate.h(q) for q in layout.control])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"cap of 2\\*\\*{SIMULATION_QUBIT_CAP}"):
            Subspace(34, 10, [0], [circuit])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    at_cap = Circuit(layout, [Gate.h(q) for q in layout.control[:12]])
    assert len(Subspace(34, 10, [0], [at_cap]).reach) == 1 << SIMULATION_QUBIT_CAP
