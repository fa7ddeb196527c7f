"""Gate-tier bookkeeping.

Gates fall into three fault-tolerance tiers: Clifford (cheap), third-level
(one magic-state distillation each: Toffoli, the fanout square-root-swap,
controlled-SWAP), and generic rotations (distillation times synthesis).

`rotations` counts rotation-gate instances and is additive under circuit
concatenation.  The synthesis-parameter count (distinct rotation magnitudes,
an adjoint pair being one synthesis unit) is computed separately by
`distinct_rotation_count` in `circuits`, because it is not additive.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GateCensus:
    clifford: int = 0
    toffoli: int = 0
    fanout_sqrt_swap: int = 0
    controlled_swap: int = 0
    rotations: int = 0
    qubits: int = 0

    @property
    def third_level_total(self) -> int:
        return self.toffoli + self.fanout_sqrt_swap + self.controlled_swap

    def __add__(self, other: "GateCensus") -> "GateCensus":
        # Gate counts add; the qubit figure is a width, so it takes the max.
        return GateCensus(
            self.clifford + other.clifford,
            self.toffoli + other.toffoli,
            self.fanout_sqrt_swap + other.fanout_sqrt_swap,
            self.controlled_swap + other.controlled_swap,
            self.rotations + other.rotations,
            max(self.qubits, other.qubits),
        )
