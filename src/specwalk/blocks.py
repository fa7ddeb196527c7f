"""Two-dimensional invariant blocks of the walk, and spectral verification.

For every eigenpair (E_k, phi_k) of the encoded operator, the walk preserves
the plane spanned by

    phi0_k = sum_b amp_b |ctrl_b> |phi_k>     (the dressed eigenstate)
    phi1_k = (V - E_k) phi0_k / sqrt(1 - E_k^2)

on which the reflections act as

    S -> [[-1, 0], [0, 1]],   V -> [[E, sqrt(1-E^2)], [sqrt(1-E^2), -E]],

so the walk has eigenvalues exp(+-i arccos E_k) with eigenvectors
(phi0 -+ +- i phi1)/sqrt(2).  Eigenvalues within BOUNDARY_EPS of +-1 give a
one-dimensional block (phi1 has a 0/0 form there).

Each plane is checked on its own.  A block owns a C-order
(1 or 2, 2**total) array whose rows are phi0 and, off the boundary, phi1.
`_restrict` restricts a circuit to the span of such rows: it runs the
circuit on a copy of each row and returns the restricted matrix and the
norm of the images' part outside the span.  `walk_eigenphases` builds the
planes one at a time, so it holds one plane and its images, never the
whole subspace, and its closure error also fails a walk that mixes two
planes.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .simulator import QuantumState, check_width
from .walk_core import WalkBundle, dressed_state, encoded_dense

BOUNDARY_EPS = 1e-9


@dataclass
class InvariantBlock:
    energy: float
    theta: float
    system_vector: np.ndarray
    plane: np.ndarray  # rows: phi0, then phi1 off the boundary

    @property
    def phi0(self) -> np.ndarray:
        return self.plane[0]

    @property
    def phi1(self) -> np.ndarray | None:
        return None if self.is_boundary else self.plane[1]

    @property
    def is_boundary(self) -> bool:
        return len(self.plane) == 1

    @property
    def phi_plus(self) -> np.ndarray:
        if self.is_boundary:
            return self.phi0
        return (self.phi0 + 1j * self.phi1) / math.sqrt(2)

    @property
    def phi_minus(self) -> np.ndarray:
        if self.is_boundary:
            return self.phi0
        return (self.phi0 - 1j * self.phi1) / math.sqrt(2)

    def eigenphases(self) -> tuple[float, ...]:
        """Walk eigenphases contributed by this block."""
        if self.is_boundary:
            return (self.theta,)
        return (self.theta, -self.theta)


def _blocks(bundle: WalkBundle):
    """One block per eigenvector of the encoded operator, built one at a
    time; the rows of each plane are orthonormal by construction.

    phi1 is produced by running the select circuit, so these blocks double
    as a check that the circuit realizes the intended branch table.
    """
    layout = bundle.layout
    check_width(layout)
    energies, vectors = np.linalg.eigh(encoded_dense(bundle.branches, bundle.n_system))
    for k, e in enumerate(energies.tolist()):
        phi = vectors[:, k]
        boundary = abs(e) >= 1.0 - BOUNDARY_EPS
        plane = np.empty((1 if boundary else 2, 1 << layout.total_qubits), dtype=complex)
        plane[0] = dressed_state(bundle.branches, layout, phi)
        if boundary:
            # A bare walk eigenvector with eigenvalue +-1; acos of a
            # within-epsilon energy would smear the phase by ~sqrt(eps).
            yield InvariantBlock(e, 0.0 if e > 0 else math.pi, phi, plane)
            continue
        phi0, phi1 = plane
        phi1[:] = phi0
        QuantumState(layout, phi1).apply_circuit(bundle.select)
        phi1 -= e * phi0
        phi1 /= math.sqrt(1.0 - e * e)
        yield InvariantBlock(e, math.acos(e), phi, plane)


def invariant_blocks(bundle: WalkBundle) -> list[InvariantBlock]:
    """One block per eigenvector of the encoded operator (see `_blocks`)."""
    return list(_blocks(bundle))


def _restrict(circuit, plane: np.ndarray) -> tuple[np.ndarray, float]:
    """`circuit` on the span of the orthonormal rows of `plane`: the matrix
    m[i, j] = <plane_i| circuit |plane_j> and the norm of the images' part
    outside the span."""
    images = plane.copy()
    for row in images:
        QuantumState(circuit.layout, row).apply_circuit(circuit)
    m = plane.conj() @ images.T
    images -= m.T @ plane
    return m, float(np.linalg.norm(images))


def block_matrices(bundle: WalkBundle, block: InvariantBlock):
    """2x2 matrices of S and V on span{phi0, phi1} (non-boundary blocks)."""
    if block.is_boundary:
        raise ValueError("boundary blocks are one-dimensional")
    return _restrict(bundle.reflect, block.plane)[0], _restrict(bundle.select, block.plane)[0]


@dataclass
class PhaseReport:
    expected: np.ndarray  # +-arccos(E_k) multiset from dense diagonalization
    pairs: list[tuple[float, float, float]]  # (expected, matched, abs error)
    closure_error: float

    @property
    def max_error(self) -> float:
        return max((p[2] for p in self.pairs), default=0.0)


def walk_eigenphases(bundle: WalkBundle) -> PhaseReport:
    """Restrict the walk circuit to each block's plane and match the phases
    of the restricted matrix against that block's own +-arccos(E_k) on the
    unit circle, nearest first; the pairs come sorted by expected phase."""
    pairs, residuals = [], []
    for block in _blocks(bundle):
        m, residual = _restrict(bundle.walk, block.plane)
        residuals.append(residual)
        free = list(np.angle(np.linalg.eigvals(m)))
        for e in sorted(block.eigenphases()):
            chords = [abs(cmath.exp(1j * e) - cmath.exp(1j * p)) for p in free]
            i = int(np.argmin(chords))
            # chord distance -> arc distance
            pairs.append((e, free.pop(i), 2.0 * math.asin(min(1.0, chords[i] / 2.0))))
    pairs.sort(key=lambda p: p[0])
    return PhaseReport(np.array([p[0] for p in pairs]), pairs, math.hypot(*residuals))
