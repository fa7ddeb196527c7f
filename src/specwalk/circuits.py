"""Gate records and circuits over a partitioned register.

A gate record carries enough structure to be simulated exactly and to be
costed by fault-tolerant tier.  A Pauli, Toffoli or MCZ record is the word
`pauli` on `qubits`, applied where all its `controls` read 1 (a Toffoli is X
under two controls, an MCZ Z on its last qubit under the others); its kind
picks only the cost.  Its census contribution is a pure function of the
record:

    Clifford     H, Pauli words with <= 1 control, and
                 multi-controlled Z with <= 1 control
    third level  Toffoli, fanout square-root-swap (+2 Clifford phase
                 corrections), controlled-SWAP; a multi-controlled Z with
                 m >= 2 controls is costed as its staircase of m-1 Toffolis
                 (m-1 work qubits); a Pauli word with m >= 2 controls as a
                 compute/uncompute AND ladder of 2(m-1) Toffolis
    rotation     y-rotations (controlled or not) and multiplexed
                 y-rotations, which cost one generic rotation per nonzero
                 angle slot plus 2**d Cliffords of multiplexing for d select
                 bits

A circuit's census is the sum over its gates, taken each time it is read;
each distinct gate is costed once and multiplied by its count.

Registers are laid out system-first: system qubits, then control, then
ancilla workspace, then an optional phase-estimation qubit.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from .census import GateCensus
from .pauli import PauliString

# gate kinds
H = "h"
PAULI = "pauli"  # signed Pauli word, 0..m controls
TOFFOLI = "toffoli"  # X under two controls
CSWAP = "cswap"
FANOUT = "fanout"  # amplitude-splitting square-root-swap variant
MCZ = "mcz"  # Z under 0..m controls: -1 on the all-ones state
ROT = "rot"  # Ry(angle) = exp(-i angle/2 Y), 0 or 1 control
MROT = "mrot"  # Ry multiplexed over select bits

_SELF_INVERSE = {H, TOFFOLI, CSWAP, MCZ}


@dataclass(frozen=True)
class RegisterLayout:
    system_qubits: int
    control_qubits: int = 0
    ancilla_qubits: int = 0
    has_pe_qubit: bool = False

    @property
    def total_qubits(self) -> int:
        return (
            self.system_qubits
            + self.control_qubits
            + self.ancilla_qubits
            + (1 if self.has_pe_qubit else 0)
        )

    @property
    def system(self) -> tuple[int, ...]:
        return tuple(range(self.system_qubits))

    @property
    def control(self) -> tuple[int, ...]:
        base = self.system_qubits
        return tuple(range(base, base + self.control_qubits))

    @property
    def ancilla(self) -> tuple[int, ...]:
        base = self.system_qubits + self.control_qubits
        return tuple(range(base, base + self.ancilla_qubits))

    @property
    def pe_qubit(self) -> int:
        if not self.has_pe_qubit:
            raise ValueError("layout has no phase-estimation qubit")
        return self.system_qubits + self.control_qubits + self.ancilla_qubits


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...] = ()
    controls: tuple[int, ...] = ()
    angle: float = 0.0
    pauli: PauliString | None = None
    angles: tuple[float, ...] = ()

    def __post_init__(self):
        if len({*self.qubits, *self.controls}) != len(self.qubits) + len(self.controls):
            raise ValueError("a qubit repeats among the gate's targets and controls")
        if self.kind in (ROT, MROT, FANOUT):
            vals = self.angles if self.kind == MROT else (self.angle,)
            if any(math.isnan(a) or math.isinf(a) for a in vals):
                raise ValueError("non-finite gate angle")

    # --- constructors -----------------------------------------------------
    @classmethod
    def h(cls, q):
        return cls(H, (q,))

    @classmethod
    def x(cls, q):
        return cls.pauli_word(PauliString.single(1, 0, "X"), (q,))

    @classmethod
    def z(cls, q):
        return cls.pauli_word(PauliString.single(1, 0, "Z"), (q,))

    @classmethod
    def cnot(cls, control, target):
        return cls.pauli_word(PauliString.single(1, 0, "X"), (target,), (control,))

    @classmethod
    def toffoli(cls, c1, c2, target):
        return cls(TOFFOLI, (target,), (c1, c2), pauli=PauliString.single(1, 0, "X"))

    @classmethod
    def cswap(cls, control, a, b):
        return cls(CSWAP, (a, b), (control,))

    @classmethod
    def fanout(cls, src, dst):
        """Splits a one-hot excitation: |1>|0> -> (|1>|0> + |0>|1>)/sqrt(2);
        `inverse()` gives the adjoint."""
        return cls(FANOUT, (src, dst), angle=math.pi / 4)

    @classmethod
    def mcz(cls, qubits):
        if len(qubits) < 1:
            raise ValueError("mcz needs at least one qubit")
        *controls, target = qubits
        return cls(MCZ, (target,), tuple(controls), pauli=PauliString.single(1, 0, "Z"))

    @classmethod
    def ry(cls, angle, q, controls=()):
        return cls(ROT, (q,), tuple(controls), angle=float(angle))

    @classmethod
    def multiplexed_ry(cls, target, select, angles):
        """Ry(angles[p]) on `target` for select-bit pattern p; select[0] is
        the most-significant pattern bit."""
        if len(angles) != 1 << len(select):
            raise ValueError("need one angle per select pattern")
        return cls(MROT, (target,), tuple(select), angles=tuple(float(a) for a in angles))

    @classmethod
    def pauli_word(cls, word: PauliString, qubits, controls=()):
        """Apply `word` with word position i on qubits[i]; any number of
        controls (conditioned on all-ones)."""
        if len(qubits) != word.n_qubits:
            raise ValueError("qubit list must match the word width")
        if word.phase_exp % 2 != 0:
            raise ValueError("circuit Pauli gates must carry a +-1 sign")
        return cls(PAULI, tuple(qubits), tuple(controls), pauli=word)

    # --- structure --------------------------------------------------------
    def inverse(self) -> "Gate":
        if self.kind in _SELF_INVERSE or (self.kind == PAULI):
            return self
        if self.kind in (ROT, FANOUT):
            return replace(self, angle=-self.angle)
        if self.kind == MROT:
            return replace(self, angles=tuple(-a for a in self.angles))
        raise ValueError(f"no inverse rule for kind {self.kind!r}")

    def census(self) -> GateCensus:
        if self.kind == H:
            return GateCensus(clifford=1)
        if self.kind == TOFFOLI:
            return GateCensus(toffoli=1)
        if self.kind == CSWAP:
            return GateCensus(controlled_swap=1)
        if self.kind == FANOUT:
            return GateCensus(clifford=2, fanout_sqrt_swap=1)
        if self.kind == PAULI:
            m = len(self.controls)
            if m <= 1:
                return GateCensus(clifford=1)
            return GateCensus(clifford=1, toffoli=2 * (m - 1))
        if self.kind == MCZ:
            m = len(self.controls)
            if m <= 1:
                return GateCensus(clifford=1)
            return GateCensus(toffoli=m - 1)
        if self.kind == ROT:
            return GateCensus(rotations=1)
        if self.kind == MROT:
            live = sum(1 for a in self.angles if a != 0.0)
            return GateCensus(clifford=len(self.angles), rotations=live)
        raise ValueError(f"unknown gate kind {self.kind!r}")

    def workspace(self) -> int:
        """Work qubits the costed decomposition needs beyond its own qubits."""
        if self.kind in (PAULI, MCZ):
            return max(0, len(self.controls) - 1)
        return 0

    def rotation_magnitudes(self) -> tuple[float, ...]:
        """|angle| of every live rotation slot (synthesis units)."""
        if self.kind == ROT:
            return (abs(self.angle),)
        if self.kind == MROT:
            return tuple(abs(a) for a in self.angles if a != 0.0)
        return ()


@dataclass(frozen=True, eq=False)
class Circuit:
    """An immutable tuple of gates over a register layout; each gate's
    qubits are checked against the layout once, when the circuit is made.

    A circuit cannot change once made; compose a new one from the gates of
    others, as in ``Circuit(layout, [*a, *b])``.  Circuits compare and hash
    by identity, which keys the simulator's cache of compiled circuits;
    compare `.gates` for equal content.
    """

    layout: RegisterLayout
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        gates = tuple(self.gates)
        total = self.layout.total_qubits
        for g in gates:
            for q in g.qubits + g.controls:
                if not 0 <= q < total:
                    raise ValueError(f"qubit {q} outside the {total}-qubit layout")
        object.__setattr__(self, "gates", gates)

    @property
    def census(self) -> GateCensus:
        """Sum of the gate censuses, taken once per distinct gate times its
        count.  The qubit figure is the layout width plus the work qubits of
        the widest costed decomposition beyond the ancilla register."""
        counts = Counter(self.gates)
        total = sum((g.census() * n for g, n in counts.items()), GateCensus())
        workspace = max((g.workspace() for g in counts), default=0)
        extra = max(0, workspace - self.layout.ancilla_qubits)
        return replace(total, qubits=self.layout.total_qubits + extra)

    @property
    def is_real(self) -> bool:
        """Every gate is a real matrix: all kinds are but a Pauli word with
        an odd number of Ys."""
        return all(g.kind != PAULI or g.pauli.is_real for g in self.gates)

    def inverse(self) -> "Circuit":
        return Circuit(self.layout, [g.inverse() for g in reversed(self.gates)])

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


def distinct_rotation_count(circuit: Circuit) -> int:
    """Number of distinct rotation magnitudes in the circuit.

    This is the synthesis-parameter count: a rotation and its adjoint share
    one synthesized sequence, so angles are compared by absolute value.
    Magnitudes produced by the same arithmetic compare exactly.
    """
    return len({m for g in circuit.gates for m in g.rotation_magnitudes()})
