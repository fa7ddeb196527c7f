"""The walk operator, shared by every control encoding.

Every encoding reduces to a list of branches: a control-register basis state
carrying an amplitude and a signed Pauli word for the system.  The prepare
circuit B maps the control vacuum to sum_b amp_b |ctrl_b>, select applies the
word on each branch, and the walk is

    W = S * V * (-1),   S = B (1 - 2|0><0|) B'.

An encoding module supplies the layout, the branch table, B and a select
builder; `assemble_bundle` turns them into the walk circuit
[V][-1][B'][vacuum reflection][B] and the controlled walk.  The sign -1 is
the Pauli word -I, so every gate of the walk is real and the simulated walk
is exactly W.  The controlled walk conditions select, the vacuum reflection,
and the phase on the extra qubit while leaving B and B' unconditioned; at
control |0> the circuit collapses to B B' = 1 gate-by-gate, and at |1> it
is exactly W.
Conditioning only the prepare rotations instead (and nothing else) is not a
controlled-W: its off branch is -R0*V, which shifts the phase-measurement
statistics by an identity-weight-dependent amount.

`build_walk` is the one place that turns an encoding name into a walk.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circuits import Circuit, Gate, RegisterLayout
from .hamiltonian import RescaledLcu, group
from .pauli import PauliString, dense_sum

# The walk's sign; qubit 0 is always a system qubit.
_MINUS_ONE = Gate.pauli_word(-PauliString.identity(1), (0,))


@dataclass(frozen=True)
class Branch:
    """One control basis state of the block encoding."""

    amplitude: float  # >= 0; signs live in the word
    word: PauliString
    control_state: int  # bits of the control register, LSB = first control qubit


@dataclass(frozen=True)
class WalkBundle:
    encoding: str
    layout: RegisterLayout
    branches: tuple[Branch, ...]
    prepare: Circuit
    prepare_dagger: Circuit
    select: Circuit
    reflect: Circuit
    walk: Circuit
    controlled_walk: Circuit
    rescaled: RescaledLcu

    @property
    def n_system(self) -> int:
        return self.layout.system_qubits


def build_walk(rescaled: RescaledLcu, encoding: str) -> WalkBundle:
    """The walk of `rescaled` in the control encoding named `encoding`,
    with its pe qubit and its controlled walk.

    A builder raises ValueError for a model its encoding cannot carry; only
    the hybrid one refuses any normalized model.  The builders import this
    module, so they are imported here, and they are looked up on their
    modules at each call.
    """
    from . import walk_binary, walk_unary

    if encoding == "binary":
        return walk_binary.binary_walk(rescaled)
    if encoding == "unary":
        return walk_unary.unary_walk(group(rescaled), rescaled)
    if encoding == "hybrid":
        return walk_unary.hybrid_long_range_walk(rescaled)
    raise ValueError(f"unknown encoding {encoding!r}")


def assemble_bundle(
    encoding: str,
    layout: RegisterLayout,
    branches,
    prepare: Circuit,
    build_select: Callable[[bool], Circuit],
    rescaled: RescaledLcu,
) -> WalkBundle:
    """B', S, W and the controlled walk from the prepare circuit and the
    select builder; `build_select(pe_control)` conditions select on the pe
    qubit when asked."""
    prepare_dagger = prepare.inverse()
    select = build_select(False)
    reflect = Circuit(layout, [*prepare_dagger, *vacuum_reflection(layout), *prepare])
    walk = Circuit(layout, [*select, _MINUS_ONE, *reflect])
    pe_reflect = vacuum_reflection(layout, pe_control=True)
    controlled = Circuit(
        layout,
        [*build_select(True), *prepare_dagger, *pe_reflect, *prepare, Gate.z(layout.pe_qubit)],
    )
    return WalkBundle(
        encoding=encoding,
        layout=layout,
        branches=tuple(branches),
        prepare=prepare,
        prepare_dagger=prepare_dagger,
        select=select,
        reflect=reflect,
        walk=walk,
        controlled_walk=controlled,
        rescaled=rescaled,
    )


def encoded_dense(branches, n_system: int) -> np.ndarray:
    """sum_b amp_b^2 * word_b as a dense matrix; the operator the walk encodes."""
    return dense_sum(n_system, ((b.amplitude**2, b.word) for b in branches))


def dressed_state(branches, sys_vec: np.ndarray, out: np.ndarray, positions=None) -> None:
    """Write B|0> tensor |psi>, built from the branch table, into the
    full-register vector `out`, or into a compact row whose `positions`
    maps basis labels to places and holds each branch's states in order:
    sum_b amp_b |ctrl_b>|psi>.  A stack of system vectors, one per row of
    `out`, is written with one write per branch."""
    out.fill(0)
    dim = sys_vec.shape[-1]
    offsets = np.array([b.control_state * dim for b in branches], dtype=np.int64)
    if positions is not None:
        offsets = positions(offsets)
    for b, offset in zip(branches, offsets.tolist()):
        out[..., offset : offset + dim] += b.amplitude * sys_vec


def vacuum_reflection(layout: RegisterLayout, pe_control: bool = False) -> Circuit:
    """1 - 2|0><0| on the control register, X-conjugated multi-controlled Z.

    With `pe_control` the phase fires only when the pe qubit is set too.
    An empty control register degenerates to the sign -1: the word -I (or,
    pe-conditioned, a Z on the pe qubit).
    """
    ctrl = layout.control
    if not ctrl:
        return Circuit(layout, [Gate.z(layout.pe_qubit) if pe_control else _MINUS_ONE])
    flips = [Gate.x(q) for q in ctrl]
    qubits = ctrl + ((layout.pe_qubit,) if pe_control else ())
    return Circuit(layout, [*flips, Gate.mcz(qubits), *flips])
