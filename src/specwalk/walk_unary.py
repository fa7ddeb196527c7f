"""Walk construction in the one-hot control encoding, and the mixed
one-hot/binary encoding for chains with long-range couplings.

One-hot encoding: N control qubits partitioned into K equal-strength
registers of padded power-of-two sizes.  Prepare is a chain of K rotations
placing amplitude on each register head followed by fanout trees that
delocalize the heads; select is one singly-controlled Pauli word per control
qubit, all Clifford.  Padded slots act as identity and draw their weight
from the identity budget, so the prepared control state stays normalized.

Mixed encoding: a one-hot register with one qubit per distinct coupling
strength, and a binary site register in uniform superposition.  Select
cyclically shifts the system by the site index with controlled-SWAPs,
applies one controlled ZZ per strength, and undoes the shift; wrapped pairs
of the open chain are cancelled by per-site correction gates so they
contribute identity weight.
"""
from __future__ import annotations

import math

from .circuits import Circuit, Gate, RegisterLayout
from .hamiltonian import GroupedLcu, RescaledLcu
from .pauli import PauliString
from .walk_core import Branch, WalkBundle, assemble_bundle


def _chain_rotation(gates, target, control, cos_half, sin_half):
    """One amplitude-transfer link; exact 0 and pi angles degrade to
    Clifford gates (skip / X / CNOT), which is safe because the walk only
    depends on the prepared state B|0>, not on B elsewhere."""
    if sin_half == 0.0:
        return
    if cos_half == 0.0:
        if control is None:
            gates.append(Gate.x(target))
        else:
            gates.append(Gate.cnot(control, target))
        return
    angle = 2.0 * math.atan2(sin_half, cos_half)
    controls = () if control is None else (control,)
    gates.append(Gate.ry(angle, target, controls))


def build_head_prep(layout: RegisterLayout, beta0_sq: float, heads, positions) -> Circuit:
    """Chain preparation of  sqrt(beta0_sq) |vac> + sum_k heads[k] |positions[k]>.

    One initial rotation moves all non-vacuum weight onto the first head;
    each of the K-1 transfer links is one controlled rotation plus a CNOT,
    keeping the state one-hot.  Census: at most K generic rotations.
    """
    total = beta0_sq + sum(h * h for h in heads)
    if abs(total - 1.0) > 1e-9:
        raise ValueError("group weights do not sum to 1")
    if not heads:
        return Circuit(layout)
    gates = []
    tail = math.sqrt(max(0.0, 1.0 - beta0_sq))
    _chain_rotation(gates, positions[0], None, math.sqrt(beta0_sq), tail)
    for k in range(1, len(heads)):
        keep = heads[k - 1]
        rest = math.sqrt(max(0.0, tail * tail - keep * keep))
        if tail == 0.0:
            break
        _chain_rotation(gates, positions[k], positions[k - 1], keep / tail, rest / tail)
        if rest > 0.0:
            gates.append(Gate.cnot(positions[k], positions[k - 1]))
        tail = rest
    return Circuit(layout, gates)


def build_fanout(layout: RegisterLayout, head: int, size: int) -> Circuit:
    """Binary tree of size-1 fanout gates delocalizing a one-hot excitation
    from `head` uniformly over [head, head + size)."""
    if size & (size - 1):
        raise ValueError("fanout register size must be a power of two")
    gates = []

    def split(start, length):
        if length == 1:
            return
        half = length // 2
        gates.append(Gate.fanout(start, start + half))
        split(start, half)
        split(start + half, half)

    split(head, size)
    return Circuit(layout, gates)


def build_prepare_unary(grouped: GroupedLcu, layout: RegisterLayout) -> Circuit:
    """Heads sqrt(N_k s_k) on each group's first qubit, then fanout trees."""
    heads = [math.sqrt(g.n_padded * g.strength_sq) for g in grouped.groups]
    positions = [layout.control[g.offset - 1] for g in grouped.groups]
    fanouts = [
        gate
        for g, head in zip(grouped.groups, positions)
        for gate in build_fanout(layout, head, g.n_padded)
    ]
    return Circuit(layout, [*build_head_prep(layout, grouped.beta0_sq, heads, positions), *fanouts])


def unary_branches(grouped: GroupedLcu) -> tuple[Branch, ...]:
    branches = [
        Branch(math.sqrt(grouped.beta0_sq), PauliString.identity(grouped.n_qubits), 0)
    ]
    for g in grouped.groups:
        amp = math.sqrt(g.strength_sq)
        for slot, word in enumerate(g.members):
            branches.append(Branch(amp, word, 1 << (g.offset - 1 + slot)))
    return tuple(branches)


def build_select_v_unary(grouped: GroupedLcu, layout: RegisterLayout, pe_control: bool = False) -> Circuit:
    """One controlled Pauli word per one-hot control qubit; entirely Clifford.
    Padded identity slots emit no gate.  The pe-conditioned variant upgrades
    each word to two controls (costed as an AND ladder)."""
    pe = (layout.pe_qubit,) if pe_control else ()
    return Circuit(
        layout,
        [
            Gate.pauli_word(word, layout.system, pe + (layout.control[g.offset - 1 + slot],))
            for g in grouped.groups
            for slot, word in enumerate(g.members)
            if not (word.is_identity and word.phase == 1)
        ],
    )


def unary_walk(grouped: GroupedLcu, rescaled: RescaledLcu) -> WalkBundle:
    """Build B, S, V, W and the controlled walk in the one-hot encoding."""
    layout = RegisterLayout(
        system_qubits=grouped.n_qubits,
        control_qubits=grouped.n_control,
        ancilla_qubits=0,
        has_pe_qubit=True,
    )
    return assemble_bundle(
        "unary",
        layout,
        unary_branches(grouped),
        build_prepare_unary(grouped, layout),
        lambda pe_control: build_select_v_unary(grouped, layout, pe_control),
        rescaled,
    )


# --- mixed one-hot strength / binary site encoding -------------------------


def _long_range_structure(rescaled: RescaledLcu, n_sites: int):
    """Validate a two-body ZZ chain and return per-distance (weight, sign).

    Requires every non-identity term to be a ZZ pair and all pairs at one
    distance to share weight and sign.
    """
    per_distance: dict[int, tuple[float, int]] = {}
    seen_pairs = set()
    for w, p in rescaled.weights[1:]:
        if p.x_bits != 0 or p.z_bits.bit_count() != 2:
            raise ValueError("mixed encoding needs a pure two-body ZZ chain")
        i, j_site = sorted(q for q in range(n_sites) if (p.z_bits >> q) & 1)
        k = j_site - i
        sign = 1 if p.phase_exp == 0 else -1
        if k in per_distance:
            w0, s0 = per_distance[k]
            if abs(w0 - w) > 1e-12 or s0 != sign:
                raise ValueError(f"couplings at distance {k} are not uniform")
        else:
            per_distance[k] = (w, sign)
        seen_pairs.add((i, j_site))
    for k, (w, sign) in per_distance.items():
        for i in range(n_sites - k):
            if (i, i + k) not in seen_pairs:
                raise ValueError(f"missing pair ({i}, {i + k}) at distance {k}")
    return dict(sorted(per_distance.items()))


def _cyclic_shift_gates(site_bits, n_sites):
    """Controlled-SWAP network rotating the system register left by the site
    index: after it, system position p holds the original qubit (i + p) % n."""
    gates = []
    for b, site_qubit in enumerate(site_bits):
        shift = 1 << b
        perm = [(p + shift) % n_sites for p in range(n_sites)]
        placed = list(range(n_sites))
        for p in range(n_sites):
            want = perm[p]
            if placed[p] == want:
                continue
            src = placed.index(want)
            gates.append(Gate.cswap(site_qubit, p, src))
            placed[p], placed[src] = placed[src], placed[p]
    return gates


def hybrid_long_range_walk(rescaled: RescaledLcu) -> WalkBundle:
    """Mixed-encoding walk for an open chain with distance-dependent ZZ
    couplings.

    This validation is the one rule for which models may use the hybrid
    encoding: n a power of two (binary site register), every non-identity
    term a ZZ pair, the pairs at each distance all present with one weight
    and sign, and enough identity weight to absorb the wrapped pairs.  Any
    other model raises ValueError.
    """
    n = rescaled.n_qubits
    if n < 2 or n & (n - 1):
        raise ValueError("mixed encoding needs a power-of-two number of sites")
    per_distance = _long_range_structure(rescaled, n)
    distances = list(per_distance)
    k_registers = len(distances)
    site_width = n.bit_length() - 1

    # wrapped pairs act as identity and draw weight from the identity budget
    wrap_weight = sum(k * w for k, (w, _) in per_distance.items())
    beta0_sq = rescaled.beta0_sq - wrap_weight
    if beta0_sq < -1e-12:
        raise ValueError(
            "identity weight cannot absorb the wrapped pairs; "
            "normalize with shift_policy='auto'"
        )
    beta0_sq = max(beta0_sq, 0.0)

    layout = RegisterLayout(
        system_qubits=n,
        control_qubits=k_registers + site_width,
        ancilla_qubits=0,
        has_pe_qubit=True,
    )
    coupling = layout.control[:k_registers]
    site_bits = layout.control[k_registers:]
    site_base = k_registers  # bit offset of site bits inside the control state

    # branches
    identity = PauliString.identity(n)
    branches = []
    vac_amp = math.sqrt(beta0_sq / n)
    for i in range(n):
        branches.append(Branch(vac_amp, identity, i << site_base))
    for idx, k in enumerate(distances):
        w, sign = per_distance[k]
        amp = math.sqrt(w)
        for i in range(n):
            ctrl = (1 << idx) | (i << site_base)
            if i + k < n:
                word = PauliString(n, 0, (1 << i) | (1 << (i + k)), 0 if sign > 0 else 2)
            else:
                word = identity
            branches.append(Branch(amp, word, ctrl))

    # prepare: strength chain on the one-hot register, Hadamards on the site
    # register (Clifford) -- only the K chain links cost rotations.  Each
    # distance has one head of weight n*w, spread over the site register.
    heads = [math.sqrt(per_distance[k][0] * n) for k in distances]
    prepare = Circuit(
        layout,
        [*build_head_prep(layout, beta0_sq, heads, coupling), *(Gate.h(q) for q in site_bits)],
    )

    def build_select(pe_control: bool) -> Circuit:
        pe = (layout.pe_qubit,) if pe_control else ()
        shift = _cyclic_shift_gates(site_bits, n)
        gates = list(shift)
        for idx, k in enumerate(distances):
            _, sign = per_distance[k]
            zz = PauliString(2, 0, 3, 0 if sign > 0 else 2)
            gates.append(Gate.pauli_word(zz, (0, k), pe + (coupling[idx],)))
            # cancel the wrapped branches: same word, conditioned on the
            # wrapping site values
            wrapped = Gate.pauli_word(zz, (0, k), pe + (coupling[idx],) + site_bits)
            for i in range(n - k, n):
                flips = [Gate.x(site_bits[b]) for b in range(site_width) if not (i >> b) & 1]
                gates += [*flips, wrapped, *flips]
        gates += [g.inverse() for g in reversed(shift)]
        return Circuit(layout, gates)

    return assemble_bundle("hybrid", layout, branches, prepare, build_select, rescaled)

