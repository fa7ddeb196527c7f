"""Gate records and circuits over a partitioned register.

A gate record carries enough structure to be simulated exactly and to be
costed by fault-tolerant tier.  Its census contribution is a pure function
of the record:

    Clifford     H, global phase, Pauli words with <= 1 control, and
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

A circuit's census is the sum over its gates, taken each time it is read.

Registers are laid out system-first: system qubits, then control, then
ancilla workspace, then an optional phase-estimation qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .census import GateCensus
from .pauli import PauliString

# gate kinds
H = "h"
PAULI = "pauli"  # signed Pauli word, 0..m controls
TOFFOLI = "toffoli"
CSWAP = "cswap"
FANOUT = "fanout"  # amplitude-splitting square-root-swap variant
MCZ = "mcz"  # -1 on the all-ones state of its qubits
ROT = "rot"  # Ry(angle) = exp(-i angle/2 Y), 0 or 1 control
MROT = "mrot"  # Ry multiplexed over select bits
GPHASE = "gphase"  # global phase exp(i*angle)

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
        if set(self.qubits) & set(self.controls):
            raise ValueError("target and control qubits overlap")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated target qubit")
        if self.kind in (ROT, MROT, GPHASE, FANOUT):
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
        return cls(TOFFOLI, (target,), (c1, c2))

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
        return cls(MCZ, tuple(qubits))

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

    @classmethod
    def global_phase(cls, angle):
        return cls(GPHASE, angle=float(angle))

    # --- structure --------------------------------------------------------
    def inverse(self) -> "Gate":
        if self.kind in _SELF_INVERSE or (self.kind == PAULI):
            return self
        if self.kind in (ROT, GPHASE, FANOUT):
            return replace(self, angle=-self.angle)
        if self.kind == MROT:
            return replace(self, angles=tuple(-a for a in self.angles))
        raise ValueError(f"no inverse rule for kind {self.kind!r}")

    def census(self) -> GateCensus:
        if self.kind in (H, GPHASE):
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
            m = len(self.qubits) - 1
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
        if self.kind == MCZ:
            return max(0, len(self.qubits) - 2)
        if self.kind == PAULI and len(self.controls) >= 2:
            return len(self.controls) - 1
        return 0

    def rotation_magnitudes(self) -> tuple[float, ...]:
        """|angle| of every live rotation slot (synthesis units)."""
        if self.kind == ROT:
            return (abs(self.angle),)
        if self.kind == MROT:
            return tuple(abs(a) for a in self.angles if a != 0.0)
        return ()


@dataclass(eq=False)
class Circuit:
    """An ordered gate list over a register layout; each gate's qubits are
    checked against the layout when it is added.

    Built once by the walk constructors and treated as immutable afterwards.
    Circuits compare and hash by identity, which keys the simulator's cache
    of compiled circuits; compare `.gates` for equal content.
    """

    layout: RegisterLayout
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        gates, self.gates = self.gates, []
        self.extend(gates)

    def append(self, gate: Gate) -> None:
        total = self.layout.total_qubits
        for q in gate.qubits + gate.controls:
            if not 0 <= q < total:
                raise ValueError(f"qubit {q} outside the {total}-qubit layout")
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    @property
    def census(self) -> GateCensus:
        """Sum of the gate censuses.  The qubit figure is the layout width
        plus the work qubits of the widest costed decomposition beyond the
        ancilla register."""
        total = sum((g.census() for g in self.gates), GateCensus())
        workspace = max((g.workspace() for g in self.gates), default=0)
        extra = max(0, workspace - self.layout.ancilla_qubits)
        return replace(total, qubits=self.layout.total_qubits + extra)

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
