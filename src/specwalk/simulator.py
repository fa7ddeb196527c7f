"""Exact dense statevector simulation over a partitioned register.

States are owned values; applying a gate mutates the owner's amplitude
vector in place and preserves the norm.  `QuantumState.measure` is the one
measurement: it splits a state on a pattern of qubit values into the weight
of the matching slice and the renormalized posteriors on and off it, and it
consumes no randomness.  The phase-estimation ancilla (one qubit) and the
control-vacuum projection (the whole control register) both use it.
Callers that sample draw from a generator made by `make_rng` from an
explicit seed.  No global randomness anywhere.

Gate kernel.  A gate acts on strided views of ``vec.reshape((2,) * total)``,
where qubit ``q`` is axis ``total - 1 - q`` and each control value is fixed
by basic indexing, so no gate copies or transposes the whole vector:

- a Pauli word (X, Z, CNOT and Toffoli included) negates the slice where
  each Z axis reads 1, reverses its X axes with `np.flip` and applies its
  scalar power of i by negation and a real/imaginary swap
  (`pauli.view_action`, shared with `expectation` and `pauli.apply_pauli`);
- CSWAP exchanges the |10> and |01> slices of its two qubits;
- MCZ negates the slice where all its qubits read 1;
- GPHASE multiplies the vector by a scalar;
- H, ROT, each non-zero MROT angle and FANOUT mix two slices by a 2x2
  matrix.  `_ry` builds every rotation among them: Ry(angle) for ROT and an
  MROT slot, and Ry(2 * angle) on the |10> and |01> slices for FANOUT.

`_plan` compiles a gate into these steps once per (gate, total qubits) and
keeps the most recent ones in a bounded cache.  A gate plan holds only index
tuples, axis numbers and matrix entries, never an amplitude-sized array.
Every index ends in an Ellipsis, so it yields a writable view even when it
fixes every axis (an all-integer index would return a scalar copy).

Fused runs.  `apply_circuit` runs a circuit as one flat tuple of steps,
compiled once per (circuit, total qubits) by `_circuit_plan` and kept in a
second bounded cache of the 8 most recent plans.  Circuits hash by
identity, so a lookup hashes no gates; the key also holds the gate count,
so a circuit extended after a pass compiles again.  Each maximal run of two
or more PAULI, TOFFOLI, CSWAP or MCZ gates becomes one gather
``vec[j] <- i**k[j] * vec[src[j]]``: these kinds map each basis state to
one basis state times a power of i, and the kernel applies them with copies
and sign flips only, never a complex multiply.  `_signed_permutation`
derives `src` and `k` by running the run's own gate steps over the basis
labels 1..2**total, which are exact in float64, and refuses any result
that is not a signed permutation, so the gates, not a branch table, define
the map.  The gather works on the (re, im) floats, with one source index
and one +-1 factor per float, so it moves and negates exactly the floats
the gates would, signed zeros included: a fused pass equals the
gate-by-gate pass bit for bit.  Every other gate keeps its own steps.  H,
rotations and FANOUT are not monomial, and GPHASE multiplies by a complex
scalar, which a gather of signed floats would not repeat bit for bit.
`apply` and `circuit_unitary` still run gate by gate, so the unitary stays
an independent oracle for the fused path.  A state's vector is a contiguous
complex128 array, so the gather can view it as floats; the constructor
copies any other array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .circuits import (
    CSWAP,
    FANOUT,
    GPHASE,
    H,
    MCZ,
    MROT,
    PAULI,
    ROT,
    TOFFOLI,
    Circuit,
    Gate,
    RegisterLayout,
)
from .pauli import PauliString, apply_view_action, view_action

SIMULATION_QUBIT_CAP = 22
UNITARY_QUBIT_CAP = 12

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * (1 / math.sqrt(2))
_X = PauliString.single(1, 0, "X")
_FUSED_KINDS = frozenset({PAULI, TOFFOLI, CSWAP, MCZ})


def make_rng(seed) -> np.random.Generator:
    """Counter-based Philox generator from an int seed; a Generator is
    returned as it is.  `None` is refused: it would seed from OS entropy."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise ValueError("sampling requires an explicit seed")
    return np.random.Generator(np.random.Philox(seed))


def check_width(layout: RegisterLayout) -> None:
    """Refuse a register wider than SIMULATION_QUBIT_CAP; callers check
    before they allocate anything of size 2**total."""
    if layout.total_qubits > SIMULATION_QUBIT_CAP:
        raise ValueError(
            f"{layout.total_qubits} qubits exceeds the dense cap of {SIMULATION_QUBIT_CAP}"
        )


def _ry(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


# --- kernel steps: each takes the (2,)*total tensor first -----------------------


def _scale(ten, idx, factor):
    ten[idx] *= factor


def _negate(ten, idx):
    part = ten[idx]
    np.negative(part, out=part)


def _pauli(ten, idx, action):
    apply_view_action(ten[idx], action)


def _swap(ten, lo, hi):
    a, b = ten[lo], ten[hi]
    old_a = a.copy()
    a[...] = b
    b[...] = old_a


def _mix(ten, lo, hi, m00, m01, m10, m11):
    """(a, b) <- (m00 a + m01 b, m10 a + m11 b) on the slices lo and hi."""
    a, b = ten[lo], ten[hi]
    new_a = a * m00
    new_a += m01 * b
    b *= m11
    b += m10 * a
    a[...] = new_a


def _gather(ten, src, sign):
    """Fused run: float m of the vector becomes sign[m] * float src[m]
    (`sign` None: no float changes sign)."""
    flat = ten.reshape(-1).view(np.float64)
    if sign is None:
        flat[...] = flat.take(src)
    else:
        np.multiply(flat.take(src), sign, out=flat)


def _index(total: int, values) -> tuple:
    """Basic index fixing each (qubit, bit) in `values`; always a view."""
    idx = [slice(None)] * total
    for q, v in values:
        idx[total - 1 - q] = v
    return (*idx, Ellipsis)


def _mix_step(total, lo_values, hi_values, mat) -> tuple:
    """The step applying the 2x2 `mat` to the slices (lo, hi)."""
    (m00, m01), (m10, m11) = (tuple(complex(v) for v in row) for row in mat)
    return (_mix, _index(total, lo_values), _index(total, hi_values), m00, m01, m10, m11)


@lru_cache(maxsize=4096)
def _plan(gate: Gate, total: int) -> tuple:
    """The gate as a tuple of kernel steps `(fn, *args)` on `total` qubits."""
    kind = gate.kind
    on = tuple((q, 1) for q in gate.controls)
    if kind in (PAULI, TOFFOLI):
        word = gate.pauli if kind == PAULI else _X
        free = [q for q in range(total - 1, -1, -1) if q not in gate.controls]
        axes = tuple(free.index(q) for q in gate.qubits)
        return ((_pauli, _index(total, on), view_action(word, axes, len(free))),)
    if kind == MCZ:
        return ((_negate, _index(total, on + tuple((q, 1) for q in gate.qubits))),)
    if kind == GPHASE:
        return ((_scale, _index(total, on), complex(np.exp(1j * gate.angle))),)
    if kind in (CSWAP, FANOUT):
        a, b = gate.qubits
        lo, hi = on + ((a, 1), (b, 0)), on + ((a, 0), (b, 1))
        if kind == FANOUT:
            # Ry(pi/2) on (|10>, |01>): |10> -> (|10> + |01>)/sqrt(2)
            return (_mix_step(total, lo, hi, _ry(2 * gate.angle)),)
        return ((_swap, _index(total, lo), _index(total, hi)),)
    if kind not in (H, ROT, MROT):
        raise ValueError(f"unknown gate kind {kind!r}")
    (target,) = gate.qubits
    if kind == MROT:
        d = len(gate.controls)
        steps = []
        for p, angle in enumerate(gate.angles):
            if angle == 0.0:
                continue
            sel = tuple((q, (p >> (d - 1 - i)) & 1) for i, q in enumerate(gate.controls))
            steps.append(_mix_step(total, sel + ((target, 0),), sel + ((target, 1),), _ry(angle)))
        return tuple(steps)
    mat = _HADAMARD if kind == H else _ry(gate.angle)
    return (_mix_step(total, on + ((target, 0),), on + ((target, 1),), mat),)


def _signed_permutation(gates, total: int) -> tuple:
    """`_gather`'s (src, sign) for the product of `gates` on `total` qubits.

    The gates' own steps run over the basis labels 1..2**total, so entry j
    ends as i**k[j] * (src[j] + 1).  Raises ValueError unless every entry is
    a label times a power of i and every label is used once.
    """
    dim = 1 << total
    labels = np.arange(1, dim + 1, dtype=complex)
    ten = labels.reshape((2,) * total)
    for gate in gates:
        for fn, *args in _plan(gate, total):
            fn(ten, *args)
    re, im = labels.real, labels.imag
    odd = im != 0  # k odd: the label sits in the imaginary part
    signed = np.where(odd, im, re)
    neg = signed < 0  # k is 2 or 3
    if not (
        np.all(odd != (re != 0))
        and np.array_equal(np.sort(np.abs(signed)), np.arange(1, dim + 1))
    ):
        raise ValueError("gate run is not a signed permutation of the basis")
    re_src = 2 * (np.abs(signed).astype(np.intp) - 1)
    # i (a + bi) = -b + ai and -i (a + bi) = b - ai
    fsrc = np.empty(2 * dim, dtype=np.intp)
    fsrc[0::2] = re_src + odd
    fsrc[1::2] = re_src + ~odd
    sign = np.empty(2 * dim)
    sign[0::2] = np.where(odd ^ neg, -1.0, 1.0)
    sign[1::2] = np.where(neg, -1.0, 1.0)
    return fsrc, (sign if np.any(sign < 0) else None)


@lru_cache(maxsize=8)
def _circuit_plan(circuit: Circuit, total: int, n_gates: int) -> tuple:
    """The first `n_gates` gates of `circuit` as kernel steps on `total`
    qubits: a `_gather` per run of two or more gates of `_FUSED_KINDS`, the
    `_plan` steps of every other gate."""
    steps = []
    runs = groupby(circuit.gates[:n_gates], key=lambda g: g.kind in _FUSED_KINDS)
    for fused, run in runs:
        run = list(run)
        if fused and len(run) >= 2:
            steps.append((_gather, *_signed_permutation(run, total)))
        else:
            steps += [step for gate in run for step in _plan(gate, total)]
    return tuple(steps)


@dataclass
class QuantumState:
    layout: RegisterLayout
    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.ascontiguousarray(self.vec, dtype=complex)

    @classmethod
    def zero_state(cls, layout: RegisterLayout):
        check_width(layout)
        vec = np.zeros(1 << layout.total_qubits, dtype=complex)
        vec[0] = 1.0
        return cls(layout, vec)

    @classmethod
    def from_system_state(cls, layout, system_vec):
        """All non-system qubits |0>, the system register in `system_vec`."""
        state = cls.zero_state(layout)
        dim = 1 << layout.system_qubits
        if system_vec.shape != (dim,):
            raise ValueError("system vector has the wrong dimension")
        state.vec[:] = 0.0
        state.vec[:dim] = system_vec
        return state

    def copy(self) -> "QuantumState":
        return QuantumState(self.layout, self.vec.copy())

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    # --- unitary application ---------------------------------------------
    def apply(self, gate: Gate) -> "QuantumState":
        total = self.layout.total_qubits
        ten = self.vec.reshape((2,) * total)
        for fn, *args in _plan(gate, total):
            fn(ten, *args)
        return self

    def apply_circuit(self, circuit: Circuit) -> "QuantumState":
        total = self.layout.total_qubits
        before = self.norm
        ten = self.vec.reshape((2,) * total)
        for fn, *args in _circuit_plan(circuit, total, len(circuit.gates)):
            fn(ten, *args)
        if abs(self.norm - before) > 1e-9:
            raise AssertionError("statevector norm drifted across the circuit")
        return self

    # --- observables ----------------------------------------------------------
    def expectation(self, sigma: PauliString) -> float:
        """<state| sigma |state> with sigma acting on the system register.
        Real for +-1 signs; the imaginary residue is checked."""
        targets = self.layout.system
        if sigma.n_qubits != len(targets):
            raise ValueError("operator width does not match the target register")
        if sigma.phase_exp % 2:
            raise ValueError(f"expectation of a non-Hermitian word: {sigma.label()}")
        total = self.layout.total_qubits
        shifted = self.vec.copy()
        axes = tuple(total - 1 - q for q in targets)
        apply_view_action(shifted.reshape((2,) * total), view_action(sigma, axes, total))
        val = np.vdot(self.vec, shifted)
        if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
            raise ValueError(f"expectation of a non-Hermitian word: {val}")
        return float(val.real)

    # --- measurement --------------------------------------------------------
    def measure(self, bits: dict[int, int]):
        """Measure the qubits of `bits` against the pattern they name.

        Returns (p, hit, miss): the weight of the slice where every qubit q
        reads bits[q], the renormalized posterior on that slice and the one
        off it.  A posterior whose branch weighs <= 1e-300 is None; an empty
        pattern always hits.
        """
        layout, total = self.layout, self.layout.total_qubits
        for q in bits:
            if not 0 <= q < total:
                raise ValueError(f"qubit {q} outside the register")
        if not bits:
            return 1.0, QuantumState(layout, self.vec.copy()), None
        idx = _index(total, bits.items())
        block = self.vec.reshape((2,) * total)[idx]
        p = float(np.sum(np.abs(block) ** 2))
        hit = miss = None
        if p > 1e-300:
            hit = QuantumState(layout, np.zeros_like(self.vec))
            hit.vec.reshape((2,) * total)[idx] = block
            hit.vec /= math.sqrt(p)
        if 1.0 - p > 1e-300:
            miss = QuantumState(layout, self.vec.copy())
            miss.vec.reshape((2,) * total)[idx] = 0.0
            miss.vec /= math.sqrt(1.0 - p)
        return p, hit, miss

    def extract_system(self) -> np.ndarray:
        """System-register vector, requiring all other qubits to be |0>
        (residual weight at most 1e-9)."""
        dim = 1 << self.layout.system_qubits
        residue = float(np.sum(np.abs(self.vec[dim:]) ** 2))
        if residue > 1e-9:
            raise ValueError(
                f"non-system registers are not in |0>: residual weight {residue:.3e}"
            )
        out = self.vec[:dim].copy()
        return out / np.linalg.norm(out)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the circuit (small registers only)."""
    n = circuit.layout.total_qubits
    if n > UNITARY_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds the unitary-export cap of {UNITARY_QUBIT_CAP}")
    dim = 1 << n
    cols = np.empty((dim, dim), dtype=complex)
    for b in range(dim):
        state = QuantumState.zero_state(circuit.layout)
        state.vec[:] = 0.0
        state.vec[b] = 1.0
        for gate in circuit.gates:
            state.apply(gate)
        cols[:, b] = state.vec
    return cols

