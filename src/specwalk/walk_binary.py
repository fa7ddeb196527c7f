"""Walk construction in the binary control encoding.

The control register holds ceil(log2(N+1)) qubits whose basis states index
the Hamiltonian terms (index 0 = identity).  Prepare is a binary tree of
multiplexed Ry rotations; select is an index-iteration network of Toffoli
AND-ladders driving singly-controlled Pauli words (Clifford).  Unused
indices above N get zero amplitude and identity action.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, Gate, RegisterLayout
from .hamiltonian import RescaledLcu
from .walk_core import Branch, WalkBundle, assemble_bundle


def control_width(n_terms: int) -> int:
    """Qubits needed to index n_terms+1 branches (identity included)."""
    return max(0, (n_terms).bit_length()) if n_terms else 0


def build_prepare_b(weights, layout: RegisterLayout) -> Circuit:
    """Binary tree of multiplexed rotations mapping the control vacuum to
    sum_j sqrt(weights[j]) |j> with real non-negative amplitudes.

    Level d rotates the (c-1-d)-th control qubit under the d already-set
    higher bits; zero-angle slots emit no rotation, which keeps the generic
    rotation count at most N even when N+1 is not a power of two.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be non-negative and sum to 1")
    c = layout.control_qubits
    padded = np.zeros(1 << c)
    padded[: len(w)] = w
    circ = Circuit(layout)
    base = layout.control[0] if c else 0
    for d in range(c):
        # subtree weights at depth d+1: 2**(d+1) prefixes
        sub = padded.reshape(1 << (d + 1), -1).sum(axis=1)
        angles = []
        for p in range(1 << d):
            w0, w1 = sub[2 * p], sub[2 * p + 1]
            angles.append(2.0 * math.atan2(math.sqrt(w1), math.sqrt(w0)) if w0 + w1 > 0 else 0.0)
        target = base + c - 1 - d
        if d == 0:
            if angles[0] != 0.0:
                circ.append(Gate.ry(angles[0], target))
        elif any(a != 0.0 for a in angles):
            select = tuple(base + c - 1 - i for i in range(d))  # MSB first
            circ.append(Gate.multiplexed_ry(target, select, angles))
    return circ


def build_select_v(branches, layout: RegisterLayout, pe_control: bool = False) -> Circuit:
    """Index-iteration select: for each non-identity branch j, an AND ladder
    over the control bits (X-conjugated where the bit of j is 0) computes a
    flag ancilla that drives one singly-controlled Pauli word.

    Toffoli count: 2*(m-1) per branch for m AND inputs (m = control width,
    +1 when pe-conditioned), within 2 * N * log2(N+1).
    """
    circ = Circuit(layout)
    c = layout.control_qubits
    ctrl = layout.control
    anc = layout.ancilla
    sys_qubits = layout.system
    pe = (layout.pe_qubit,) if pe_control else ()
    for b in branches:
        if b.word.is_identity and b.word.phase == 1:
            continue
        j = b.control_state
        flips = [ctrl[t] for t in range(c) if not (j >> t) & 1]
        inputs = list(pe) + list(ctrl)
        for q in flips:
            circ.append(Gate.x(q))
        if len(inputs) == 1:
            circ.append(Gate.pauli_word(b.word, sys_qubits, (inputs[0],)))
        else:
            ladders = []
            acc = inputs[0]
            for i, q in enumerate(inputs[1:]):
                ladders.append(Gate.toffoli(acc, q, anc[i]))
                acc = anc[i]
            for g in ladders:
                circ.append(g)
            circ.append(Gate.pauli_word(b.word, sys_qubits, (acc,)))
            for g in reversed(ladders):
                circ.append(g)
        for q in flips:
            circ.append(Gate.x(q))
    return circ


def binary_branches(rescaled: RescaledLcu) -> tuple[Branch, ...]:
    return tuple(
        Branch(math.sqrt(w), p, j) for j, (w, p) in enumerate(rescaled.weights)
    )


def binary_walk(rescaled: RescaledLcu, with_pe: bool = True) -> WalkBundle:
    """Build B, S, V, W and the controlled walk for a rescaled Hamiltonian."""
    n = rescaled.n_qubits
    c = control_width(rescaled.n_select_terms)
    n_inputs = c + (1 if with_pe else 0)
    layout = RegisterLayout(
        system_qubits=n,
        control_qubits=c,
        ancilla_qubits=max(0, n_inputs - 1),
        has_pe_qubit=with_pe,
    )
    branches = binary_branches(rescaled)
    prepare = build_prepare_b([w for w, _ in rescaled.weights], layout)
    return assemble_bundle(
        "binary",
        layout,
        branches,
        prepare,
        lambda pe_control: build_select_v(branches, layout, pe_control),
        rescaled,
    )
