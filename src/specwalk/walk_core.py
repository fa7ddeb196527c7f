"""The walk operator, shared by every control encoding.

Every encoding reduces to a list of branches: a control-register basis state
carrying an amplitude and a signed Pauli word for the system.  The prepare
circuit B maps the control vacuum to sum_b amp_b |ctrl_b>, select applies the
word on each branch, and the walk is

    W = S * V * (-1),   S = B (1 - 2|0><0|) B'.

An encoding module supplies the layout, the branch table, B and a select
builder; `assemble_bundle` turns them into the walk circuit
[V][B'][vacuum reflection][B][global phase] and the controlled walk.
The controlled walk conditions select, the vacuum reflection, and the phase
on the extra qubit while leaving B and B' unconditioned; at control |0> the
circuit collapses to B B' = 1 gate-by-gate, and at |1> it is exactly W.
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
from .pauli import PauliString, check_matrix_width, to_matrix


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
    rescaled: RescaledLcu | None = None

    @property
    def n_system(self) -> int:
        return self.layout.system_qubits


def build_walk(rescaled: RescaledLcu, encoding: str, with_pe: bool) -> WalkBundle:
    """The walk of `rescaled` in the control encoding named `encoding`.

    A builder raises ValueError for a model its encoding cannot carry; only
    the hybrid one refuses any normalized model.  The builders import this
    module, so they are imported here, and they are looked up on their
    modules at each call.
    """
    from . import walk_binary, walk_unary

    if encoding == "binary":
        return walk_binary.binary_walk(rescaled, with_pe=with_pe)
    if encoding == "unary":
        return walk_unary.unary_walk(group(rescaled), rescaled, with_pe=with_pe)
    if encoding == "hybrid":
        return walk_unary.hybrid_long_range_walk(rescaled, with_pe=with_pe)
    raise ValueError(f"unknown encoding {encoding!r}")


def assemble_bundle(
    encoding: str,
    layout: RegisterLayout,
    branches,
    prepare: Circuit,
    build_select: Callable[[bool], Circuit],
    rescaled: RescaledLcu | None,
) -> WalkBundle:
    """B', S, W and the controlled walk from the prepare circuit and the
    select builder; `build_select(pe_control)` conditions select on the pe
    qubit when asked.  Without a pe qubit the controlled walk is empty."""
    prepare_dagger = prepare.inverse()
    select = build_select(False)
    reflect = build_reflection(prepare)
    walk = Circuit(layout, [*select, *reflect, Gate.global_phase(np.pi)])
    controlled = Circuit(layout)
    if layout.has_pe_qubit:
        controlled.extend(build_select(True))
        controlled.extend(prepare_dagger)
        controlled.extend(vacuum_reflection(layout, pe_control=True))
        controlled.extend(prepare)
        controlled.append(Gate.z(layout.pe_qubit))
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
    check_matrix_width(n_system)
    out = np.zeros((1 << n_system, 1 << n_system), dtype=complex)
    for b in branches:
        out += b.amplitude**2 * to_matrix(b.word)
    return out


def dressed_state(branches, sys_vec: np.ndarray, out: np.ndarray) -> None:
    """Write B|0> tensor |psi>, built from the branch table, into the
    full-register vector `out`: sum_b amp_b |ctrl_b>|psi>."""
    out.fill(0)
    dim = len(sys_vec)
    for b in branches:
        offset = b.control_state * dim
        out[offset : offset + dim] += b.amplitude * sys_vec


def vacuum_reflection(layout: RegisterLayout, pe_control: bool = False) -> Circuit:
    """1 - 2|0><0| on the control register, X-conjugated multi-controlled Z.

    With `pe_control` the phase fires only when the pe qubit is set too.
    An empty control register degenerates to a bare (or pe-conditioned)
    global sign.
    """
    circ = Circuit(layout)
    ctrl = layout.control
    if not ctrl:
        if pe_control:
            circ.append(Gate.z(layout.pe_qubit))
        else:
            circ.append(Gate.global_phase(np.pi))
        return circ
    for q in ctrl:
        circ.append(Gate.x(q))
    qubits = ctrl + ((layout.pe_qubit,) if pe_control else ())
    circ.append(Gate.mcz(qubits))
    for q in ctrl:
        circ.append(Gate.x(q))
    return circ


def build_reflection(prepare: Circuit) -> Circuit:
    """S = B (1 - 2|0><0|) B' as a circuit: unprepare, reflect about the
    control vacuum, re-prepare."""
    layout = prepare.layout
    reflect = Circuit(layout)
    reflect.extend(prepare.inverse())
    reflect.extend(vacuum_reflection(layout))
    reflect.extend(prepare)
    return reflect
