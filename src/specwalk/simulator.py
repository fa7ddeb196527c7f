"""Exact statevector simulation over a partitioned register.

States are owned values; applying a gate mutates the owner's amplitude
vector in place and preserves the norm.  A state's vector is contiguous,
and its dtype comes from its data: the constructor keeps real data as
float64, makes anything else complex128, and copies only when it must.
`zero_state` is complex.  A float64 state takes every gate whose matrix is
real, which is every kind but a Pauli word with an odd number of Ys; it
refuses that one with ValueError.  Its pass equals the real part of the
complex pass of the same data in every value (only zeros may differ in
sign), so the invariant planes of a real walk (`blocks.py`) run as
float64, at half the memory and bandwidth.

`QuantumState.measure` is the one measurement: it splits a state on a
pattern of qubit values into the weight of the matching slice and the
renormalized posteriors on and off it, and it consumes no randomness.  The
phase-estimation ancilla (one qubit) and the control-vacuum projection (the
whole control register) both use it.  Callers that sample draw from a
generator made by `make_rng` from an explicit seed.  No global randomness
anywhere.

Gate kernel.  A gate acts on strided views of a tensor whose last axes are
qubits, counted from the low end: qubit ``q`` is axis ``-1 - q``, and any
leading axes are rows the gate treats alike.  Each control value is fixed
by basic indexing, so no gate copies or transposes the whole vector:

- a gate's Pauli word (PAULI, TOFFOLI and MCZ records carry one) negates
  the slice where each Z axis reads 1, reverses its X axes with `np.flip`
  and applies its scalar power of i by negation and a real/imaginary swap
  (`pauli.view_action`, shared with `pauli.apply_pauli`),
  so every sign, the walk's word -I included, comes from one function;
- CSWAP exchanges the |10> and |01> slices of its two qubits;
- H, ROT, each non-zero MROT angle and FANOUT mix two slices by a real
  2x2 matrix.  `_mixes` writes each mix once, as a record (mask, lo, hi,
  m00, m01, m10, m11) whose two slices hold the basis states whose bits
  under `mask` read `lo` and `hi`.  `_ry` builds every rotation among
  them: Ry(angle) for ROT and an MROT slot, and Ry(2 * angle) on the |10>
  and |01> slices for FANOUT.

`_plan` compiles a gate into these steps once and keeps the most recent
ones in a bounded cache.  A gate plan holds only index tuples, negative
axis numbers and matrix entries, never an amplitude-sized array, and it
has no dtype: a mix's entries are floats, which numpy promotes on a
complex slice to the complex entries they stand for, so a complex pass
makes the float operations that complex entries would.  `_index` turns a
slice (mask, value) into a basic index.  Every index starts with an
Ellipsis, so it yields a writable view even when it fixes every qubit axis
(an all-integer index would return a scalar copy), and one plan runs
unchanged on a tensor of any number of qubits and rows: the whole register
in `apply`, a block of basis states in `circuit_unitary`.  Only these two
run gate plans, gate by gate, so they stay an independent oracle for
compiled passes.

Fused runs.  PAULI, TOFFOLI, CSWAP and MCZ map each basis state to one
basis state times a power of i.  `_run_labels` maps integer basis labels
through a run of them by bit rules: where its controls read 1, a gate's
Pauli word flips its X qubits and takes the power of i of
`pauli.view_action`, with -1 for each Z qubit that reads 1, and CSWAP
swaps its two bits.  Each of these gates is its own inverse, so
`_signed_permutation` runs a run reversed on the labels of its
destinations to compile it into one gather
``vec[j] <- i**k[j] * vec[src[j]]``, with one source index and one +-1
factor per float of a (rows, floats) view: the (re, im) pairs of a complex
state, the amplitudes of a real one, which refuses an imaginary Pauli
word.  It moves and negates exactly the floats the gates would, signed
zeros included, and never multiplies a complex number.

Subspaces.  Every circuit pass is compiled for a `Subspace`, a set of
keys, the values of the qubits from `bits` up, each with its block of
2**`bits` states riding along, and runs on compact rows of the amplitudes
at its basis labels `reach`.  `QuantumState.apply_circuit` runs its
vector as the one row of the whole register, one key whose block is the
register.  `check_rows` is the one size rule: a row holds at most
2**SIMULATION_QUBIT_CAP amplitudes, however wide the register.

The walk W = -S V preserves span{|ctrl_b>} (x) H_sys, so the invariant
planes of `blocks.py`, and analysis Zeno's states, are blocks of
2**n_system system states under a few control keys.  Their subspace is
closed from the branches' control keys under select, reflect, walk and
prepare_dagger, one `_closure` each, on keys alone.  That is exact under
the passenger rule, which `Subspace` checks: no gate writes a key qubit
while it reads a system qubit (hybrid's system CSWAPs are steered by
site keys).  Rows may be nonzero before a pass only on the start keys'
blocks, the support, which holds both plane rows: select maps
|ctrl_b>|x> to |ctrl_b> word_b|x>, so phi1 = select(phi0) - E phi0 stays
on it.  The closures are never iterated to a fixpoint: the cancellations
that keep the walk on the plane are not seen, so a fixpoint would spread
over the register.

`_subspace_plan` compiles a circuit once per (circuit, dtype, subspace),
in a bounded cache.  Circuits are immutable and hash by identity, so a
lookup hashes no gates and a plan never goes stale.  Each run of
`_FUSED_KINDS`, a lone gate included, becomes a gather on the labels of
reach, whose sources outside reach read a zero slot after the row's
amplitudes, which no step writes; a whole register has none.  Each
`_mixes` record becomes `_take_mix`, which runs `_mix` itself with fancy
indices over the pairs of reach blocks on its two slices: a mix whose
lowest qubit is q pairs whole blocks of 2**min(bits, q) states.  A pair
with one block outside reach is zero whenever the pass meets it and is
left out.  Each amplitude gets the float operations of the gate-by-gate
pass, so every value at a reach state is bit for bit that pass's (a zero
may differ in sign), and that pass is zero everywhere else.
`apply_in_subspace` refuses, before any float changes, rows that are
nonzero outside the support their plan was compiled for, and a circuit the
subspace was not built from: it never truncates a row.  A whole register
takes any circuit and has no state outside its support, so it skips both
checks.  Every pass checks each row's norm drift.

No command runs one circuit on both dtypes: the walk's planes run select
and walk, Zeno's complex states run prepare, its inverse and the
controlled walk.
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
from .pauli import apply_view_action, view_action

SIMULATION_QUBIT_CAP = 22
UNITARY_QUBIT_CAP = 12

_HADAMARD = (1 / math.sqrt(2),) * 3 + (-1 / math.sqrt(2),)
_FUSED_KINDS = frozenset({PAULI, TOFFOLI, CSWAP, MCZ})


def make_rng(seed) -> np.random.Generator:
    """Counter-based Philox generator from an int seed; a Generator is
    returned as it is.  `None` is refused: it would seed from OS entropy."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        raise ValueError("sampling requires an explicit seed")
    return np.random.Generator(np.random.Philox(seed))


def check_rows(size: int) -> None:
    """Refuse rows of more than 2**SIMULATION_QUBIT_CAP amplitudes; callers
    check before they allocate one."""
    if size > 1 << (cap := SIMULATION_QUBIT_CAP):
        raise ValueError(f"rows of at least {size} amplitudes exceed the cap of 2**{cap}")


def _norm(array: np.ndarray) -> float:
    """2-norm of a contiguous real or complex array, summed over its floats
    by `einsum`: a BLAS reduction would wake the BLAS thread pool, whose
    threads then spin through the gate kernel."""
    flat = array.reshape(-1).view(np.float64)
    return math.sqrt(np.einsum("i,i->", flat, flat))


def _ry(angle: float) -> tuple:
    """(m00, m01, m10, m11) of Ry(angle)."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return c, -s, s, c


# --- kernel steps: each takes first a tensor whose last axes are qubits ----------


def _pauli(ten, idx, action):
    apply_view_action(ten[idx], action)


def _swap(ten, lo, hi):
    a, b = ten[lo], ten[hi]
    old_a = a.copy()
    a[...] = b
    b[...] = old_a


def _mix(ten, lo, hi, m00, m01, m10, m11):
    """(a, b) <- (m00 a + m01 b, m10 a + m11 b) on the slices lo and hi,
    basic or fancy indices.  Both are written back through the index: on a
    basic index b is a view, and numpy skips a copy onto itself."""
    a, b = ten[lo], ten[hi]
    new_a = a * m00
    new_a += m01 * b
    b *= m11
    b += m10 * a
    ten[lo] = new_a
    ten[hi] = b


def _gather(ten, src, sign):
    """Fused run: float m < len(src) of each row becomes sign[m] * float
    src[m] of that row (`sign` None: no float changes sign).  A row is one
    block of 2**w amplitudes, or a compact row, whose zero slot it leaves
    alone; a real row's floats are its amplitudes, a complex row's are
    their (re, im) pairs."""
    rows = ten.reshape(len(ten), -1).view(np.float64)
    out = rows[:, : len(src)]
    if sign is None:
        out[...] = rows.take(src, axis=1)
    else:
        np.multiply(rows.take(src, axis=1), sign, out=out)


def _index(mask: int, value: int) -> tuple:
    """Basic index of the slice whose bits under `mask` read `value`, with
    qubit q on axis -1 - q; always a view."""
    idx = [slice(None)] * mask.bit_length()
    for q in range(mask.bit_length()):
        if mask >> q & 1:
            idx[-1 - q] = value >> q & 1
    return (Ellipsis, *idx)


@lru_cache(maxsize=4096)
def _mixes(gate: Gate) -> tuple:
    """The mixes of an H, ROT, MROT or FANOUT gate, each a record (mask,
    lo, hi, m00, m01, m10, m11) of `_mix` on the slices whose bits under
    `mask` read `lo` and `hi`."""
    kind = gate.kind
    on = sum(1 << q for q in gate.controls)
    if kind == FANOUT:
        # Ry(pi/2) on (|10>, |01>): |10> -> (|10> + |01>)/sqrt(2)
        a, b = gate.qubits
        return ((on | 1 << a | 1 << b, on | 1 << a, on | 1 << b, *_ry(2 * gate.angle)),)
    if kind not in (H, ROT, MROT):
        raise ValueError(f"unknown gate kind {kind!r}")
    (target,) = gate.qubits
    mask = on | 1 << target
    if kind != MROT:
        return ((mask, on, on | 1 << target, *(_HADAMARD if kind == H else _ry(gate.angle))),)
    d = len(gate.controls)
    mixes = []
    for p, angle in enumerate(gate.angles):
        if angle != 0.0:
            sel = sum(((p >> (d - 1 - i)) & 1) << q for i, q in enumerate(gate.controls))
            mixes.append((mask, sel, sel | 1 << target, *_ry(angle)))
    return tuple(mixes)


@lru_cache(maxsize=4096)
def _plan(gate: Gate) -> tuple:
    """The gate as a tuple of kernel steps `(fn, *args)` on any tensor whose
    last axes are its qubits and every qubit below them, real or complex."""
    on = sum(1 << q for q in gate.controls)
    if gate.pauli is not None:
        # fixing the controls drops their axes: target q keeps those below it
        axes = tuple(sum(c < q for c in gate.controls) - 1 - q for q in gate.qubits)
        return ((_pauli, _index(on, on), view_action(gate.pauli, axes)),)
    if gate.kind == CSWAP:
        a, b = gate.qubits
        mask = on | 1 << a | 1 << b
        return ((_swap, _index(mask, on | 1 << a), _index(mask, on | 1 << b)),)
    return tuple((_mix, _index(m, lo), _index(m, hi), *e) for m, lo, hi, *e in _mixes(gate))


def _run_labels(gates, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(image, k): the product of `gates` maps basis label labels[j] to
    i**k[j] times basis label image[j], with k in 0..3.  Raises ValueError
    for a gate kind that is not a signed permutation of the basis."""
    image = np.array(labels, dtype=np.int64)
    k = np.zeros(len(image), dtype=np.int64)
    for gate in gates:
        qubits, word = gate.qubits, gate.pauli
        if gate.kind not in _FUSED_KINDS:
            raise ValueError(f"a {gate.kind} gate is not a signed permutation of the basis")
        mask = sum(1 << q for q in gate.controls)  # a gate acts where they all read 1
        on = (image & mask) == mask if mask else True
        if word is None:  # CSWAP
            a, b = qubits
            flips = (((image >> a) ^ (image >> b)) & 1) * (1 << a | 1 << b)
        else:  # i**(phase_exp + |x&z|) X^x Z^z, as in `pauli.view_action`
            z = [q for i, q in enumerate(qubits) if (word.z_bits >> i) & 1]
            if (coef := word.phase_exp + (word.x_bits & word.z_bits).bit_count()) or z:
                np.add(k, coef + 2 * sum((image >> q) & 1 for q in z), out=k, where=on)
            flips = sum(1 << q for i, q in enumerate(qubits) if (word.x_bits >> i) & 1)
        np.bitwise_xor(image, flips, out=image, where=on)
    return image, k & 3


def _signed_permutation(gates, dest: np.ndarray, positions, dtype) -> tuple:
    """`_gather`'s (src, sign) for the product of `gates` on rows of `dtype`
    that hold the amplitudes of the basis labels `dest`, in order, where
    `positions` maps labels to places in a row.  The gates are their own
    inverses: the run reversed maps each destination to i**-k times its
    source.  Raises ValueError for a gate that is not a signed permutation,
    and, on a real `dtype`, for an imaginary Pauli word."""
    real = np.dtype(dtype).kind != "c"
    if real and any(g.kind == PAULI and not g.pauli.is_real for g in gates):
        raise ValueError("a real state cannot take an imaginary Pauli word")
    source, k = _run_labels(reversed(gates), dest)
    src = positions(source)
    k = -k & 3
    odd = (k & 1).astype(bool)
    neg = k >= 2
    if real:
        sign = np.where(neg, -1.0, 1.0)
        return src, (sign if np.any(neg) else None)
    # i (a + bi) = -b + ai and -i (a + bi) = b - ai
    fsrc = np.empty(2 * len(src), dtype=np.intp)
    fsrc[0::2] = 2 * src + odd
    fsrc[1::2] = 2 * src + ~odd
    sign = np.empty(2 * len(src))
    sign[0::2] = np.where(odd ^ neg, -1.0, 1.0)
    sign[1::2] = np.where(neg, -1.0, 1.0)
    return fsrc, (sign if np.any(sign < 0) else None)


# --- subspace plans ------------------------------------------------------------


def _lookup(labels: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The place of each of `states` in the sorted `labels`; len(labels) if missing."""
    at = np.minimum(np.searchsorted(labels, states), len(labels) - 1)
    return np.where(labels[at] == states, at, len(labels))


def _union(labels: np.ndarray, more: np.ndarray) -> np.ndarray:
    """The sorted union of the sorted distinct `labels` and the distinct `more`."""
    if np.array_equal(labels, more):
        return labels
    fresh = more[_lookup(labels, more) == len(labels)]
    return np.sort(np.concatenate((labels, fresh))) if len(fresh) else labels


def _closure(circuit: Circuit, start: np.ndarray, bits: int) -> np.ndarray:
    """The sorted keys, basis labels >> `bits`, that one pass of `circuit`
    can make nonzero from states under the sorted keys `start`, start
    included, each run as its one label key << bits (the passenger rule
    makes that exact).  Keys are taken only before a fused run, which a
    plan gathers at once, and at the end; a `_mixes` record adds the
    partner of every key on either of its slices, regardless of cancellations.
    Refuses keys beyond `check_rows` as soon as they grow."""
    now = reached = start
    for fused, run in groupby(circuit.gates, key=lambda g: g.kind in _FUSED_KINDS):
        if fused:
            reached = _union(reached, now)
            check_rows(len(reached) << bits)
            now = np.sort(_run_labels(run, now << bits)[0] >> bits)
            continue
        for gate in run:
            for mask, lo, hi, *_ in _mixes(gate):
                mask, lo, hi = mask >> bits, lo >> bits, hi >> bits
                # with no partner missing, one slice is the other moved by hi - lo
                on_lo, on_hi = now[(now & mask) == lo], now[(now & mask) == hi]
                if not np.array_equal(on_lo ^ lo ^ hi, on_hi):
                    now = _union(now, np.concatenate((on_lo, on_hi)) ^ lo ^ hi)
                    check_rows(len(now) << bits)
    return _union(reached, now)


def _check_passengers(circuit: Circuit, bits: int) -> None:
    """Refuse a gate that writes a qubit >= `bits` while it reads one below:
    a gate reads its controls, CSWAP and FANOUT their pair too; a gate with a
    Pauli word writes the word's X qubits, any other its qubits."""
    for g in circuit.gates:
        reads = g.controls + (g.qubits if g.kind in (CSWAP, FANOUT) else ())
        writes = g.qubits
        if g.pauli is not None:
            writes = [q for i, q in enumerate(g.qubits) if g.pauli.x_bits >> i & 1]
        if min(reads, default=bits) < bits <= max(writes, default=-1):
            raise ValueError(f"a {g.kind} gate writes a key qubit by reading one below {bits}")


class Subspace:
    """The blocks of 2**`bits` basis states of a register of `total`
    qubits, keyed by its qubits from `bits` up, that passes of `circuits`,
    which must keep the low qubits passengers (`_check_passengers`), can
    reach from the sorted keys `start`, their support.

    `keys` holds, sorted, every key one pass of a circuit reaches, one
    `_closure` each, and `reach` their blocks' labels, in order.  A compact
    row holds a state's amplitudes at `reach`, then one zero slot that no
    plan step writes.  With `bits` == `total` it is `whole`: one key whose
    block is the register, for any circuit, with rows of no slot.  Over 62
    qubits (int64 labels) and keys beyond `check_rows` raise ValueError
    before any label exists.  Instances compare and hash by identity,
    which keys the cache of subspace plans.
    """

    def __init__(self, total: int, bits: int, start, circuits):
        if total > 62:
            raise ValueError(f"{total} qubits exceeds the 62 that an int64 basis label holds")
        self.total, self.bits, self.circuits = total, bits, tuple(circuits)
        self.whole = bits == total
        self.start = keys = np.sort(np.asarray(start, dtype=np.int64))
        for circuit in self.circuits:
            _check_passengers(circuit, bits)
            keys = _union(keys, _closure(circuit, self.start, bits))
            check_rows(len(keys) << bits)
        self.keys = keys
        self.reach = (keys[:, None] << bits | np.arange(1 << bits)).ravel()
        # where a row must hold zero before a pass; a whole row has no such place
        self.outside = None
        if not self.whole:
            self.outside = np.ones(len(self.reach) + 1, dtype=bool)
            self.outside[:-1].reshape(len(keys), -1)[_lookup(keys, self.start)] = False

    def positions(self, states: np.ndarray) -> np.ndarray:
        """Compact position of each basis state of `states`; a state outside
        reach reads the zero slot."""
        at = _lookup(self.keys, states >> self.bits)
        low = states & ((1 << self.bits) - 1)
        return np.where(at < len(self.keys), at << self.bits | low, len(self.reach))


@lru_cache(maxsize=1)
def _register(total: int) -> Subspace:
    """The whole register of `total` qubits, whose rows are state vectors."""
    return Subspace(total, total, (0,), ())


def _take_mix(rows, width, size, lo, hi, *entries):
    """`_mix` on the blocks `lo` and `hi` of `size` states of the first
    `width` amplitudes of compact rows."""
    ten = rows[:, :width].reshape(len(rows), -1, size)
    _mix(ten, (slice(None), lo), (slice(None), hi), *entries)


def _compact_mix(space: Subspace, mask, lo, hi, *entries) -> tuple:
    """A `_mixes` record as a `_take_mix` over the pairs of reach blocks of
    2**min(bits, q) states on its two slices, q its lowest qubit; a pair
    with one block outside reach is zero whenever the pass meets it."""
    size = 1 << min(space.bits, (mask & -mask).bit_length() - 1)
    first = space.reach[::size]
    lo_at = np.flatnonzero((first & mask) == lo)
    hi_at = space.positions(first[lo_at] ^ lo ^ hi)
    pair = hi_at < len(space.reach)
    return (_take_mix, len(space.reach), size, lo_at[pair], hi_at[pair] // size, *entries)


@lru_cache(maxsize=8)
def _subspace_plan(circuit: Circuit, dtype: np.dtype, space: Subspace) -> tuple:
    """The gates of `circuit` as kernel steps on compact rows of `space`:
    each run of `_FUSED_KINDS`, a lone gate included, as a `_gather` on the
    labels of reach, and each `_mixes` record of another gate as a
    `_compact_mix`."""
    if not space.whole and circuit not in space.circuits:
        raise ValueError("the subspace was not built for this circuit")
    steps = []
    for fused, run in groupby(circuit.gates, key=lambda g: g.kind in _FUSED_KINDS):
        run = tuple(run)
        if fused:
            steps.append((_gather, *_signed_permutation(run, space.reach, space.positions, dtype)))
            continue
        for gate in run:
            steps += (_compact_mix(space, *mix) for mix in _mixes(gate))
    return tuple(steps)


def apply_in_subspace(circuit: Circuit, rows: np.ndarray, space: Subspace) -> np.ndarray:
    """Run `circuit` in place on the C-order compact rows `rows` of `space`,
    shaped (rows, len(reach) + 1), or (rows, len(reach)) on a whole
    register.  Raises ValueError before any float changes if a row is
    nonzero outside the support its plan was compiled for, and
    AssertionError if a row's norm drifts."""
    plan = _subspace_plan(circuit, rows.dtype, space)
    if not space.whole and np.logical_and(rows != 0, space.outside).any():
        raise ValueError("a row is nonzero outside the support of its subspace plan")
    flat = rows.view(np.float64)
    before = np.einsum("ij,ij->i", flat, flat)
    for fn, *args in plan:
        fn(rows, *args)
    drift = np.sqrt(np.einsum("ij,ij->i", flat, flat)) - np.sqrt(before)
    if np.abs(drift).max() > 1e-9:
        raise AssertionError("statevector norm drifted across the circuit")
    return rows


@dataclass
class QuantumState:
    layout: RegisterLayout
    vec: np.ndarray

    def __post_init__(self):
        dtype = np.float64 if np.isrealobj(self.vec) else complex
        self.vec = np.ascontiguousarray(self.vec, dtype=dtype)

    @classmethod
    def zero_state(cls, layout: RegisterLayout):
        check_rows(1 << layout.total_qubits)
        vec = np.zeros(1 << layout.total_qubits, dtype=complex)
        vec[0] = 1.0
        return cls(layout, vec)

    def copy(self) -> "QuantumState":
        return QuantumState(self.layout, self.vec.copy())

    @property
    def norm(self) -> float:
        return _norm(self.vec)

    # --- unitary application ---------------------------------------------
    def apply(self, gate: Gate) -> "QuantumState":
        ten = self.vec.reshape((2,) * self.layout.total_qubits)
        for fn, *args in _plan(gate):
            fn(ten, *args)
        return self

    def apply_circuit(self, circuit: Circuit) -> "QuantumState":
        """Run the circuit's compiled plan on the vector, one row of the
        whole register."""
        apply_in_subspace(circuit, self.vec.reshape(1, -1), _register(self.layout.total_qubits))
        return self

    # --- measurement --------------------------------------------------------
    def measure(self, bits: dict[int, int]):
        """Measure the qubits of `bits` against the pattern they name.

        Returns (p, hit, miss): the weight of the slice where every qubit q
        reads bits[q], the renormalized posterior on that slice and the one
        off it.  A posterior whose branch weighs <= 1e-300 is None; an empty
        pattern always hits.
        """
        layout, total = self.layout, self.layout.total_qubits
        for q, v in bits.items():
            if not 0 <= q < total:
                raise ValueError(f"qubit {q} outside the register")
            if v not in (0, 1):
                raise ValueError(f"qubit {q} cannot read {v!r}")
        if not bits:
            return 1.0, QuantumState(layout, self.vec.copy()), None
        idx = _index(sum(1 << q for q in bits), sum(v << q for q, v in bits.items()))
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
    """Dense unitary of the circuit (small registers only), gate by gate.

    The gate steps run on blocks of 32 basis states at once: their indices
    start with an Ellipsis, so a leading row axis rides along.
    """
    n = circuit.layout.total_qubits
    if n > UNITARY_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds the unitary-export cap of {UNITARY_QUBIT_CAP}")
    dim = 1 << n
    width = min(dim, 32)
    cols = np.empty((dim, dim), dtype=complex)
    for lo in range(0, dim, width):
        block = np.zeros((width, dim), dtype=complex)
        block[:, lo : lo + width] = np.eye(width)
        ten = block.reshape((width,) + (2,) * n)
        for gate in circuit.gates:
            for fn, *args in _plan(gate):
                fn(ten, *args)
        cols[:, lo : lo + width] = block.T
    return cols
