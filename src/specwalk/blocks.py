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

The subspace is one array.  `_subspace` allocates a C-order
(rows, 2**total) array whose rows are, block by block, phi0 and then (for
an interior block) phi1; a block's `phi0` and `phi1` are views of its rows,
so a caller copies a block vector before running a circuit on it.
`_restrict` restricts a circuit to the span of such rows: it copies them
once, runs the circuit in place on each row, and forms the restricted
matrix and the part that leaves the span with two whole-matrix products.
They stay whole-matrix: on a 128 x 2**15 basis (2 vCPUs) the two gemms
took 0.15-0.32 s, and the same products taken row by row 0.50-0.95 s.
"""
from __future__ import annotations

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
    phi0: np.ndarray
    phi1: np.ndarray | None

    @property
    def is_boundary(self) -> bool:
        return self.phi1 is None

    @property
    def phi_plus(self) -> np.ndarray:
        if self.phi1 is None:
            return self.phi0
        return (self.phi0 + 1j * self.phi1) / math.sqrt(2)

    @property
    def phi_minus(self) -> np.ndarray:
        if self.phi1 is None:
            return self.phi0
        return (self.phi0 - 1j * self.phi1) / math.sqrt(2)

    def eigenphases(self) -> tuple[float, ...]:
        """Walk eigenphases contributed by this block."""
        if self.phi1 is None:
            return (self.theta,)
        return (self.theta, -self.theta)


def _subspace(bundle: WalkBundle) -> tuple[list[InvariantBlock], np.ndarray]:
    """One block per eigenvector of the encoded operator, and the array
    whose rows are their vectors (orthonormal by construction).

    phi1 is produced by running the select circuit, so these blocks double
    as a check that the circuit realizes the intended branch table.
    """
    layout = bundle.layout
    check_width(layout)
    energies, vectors = np.linalg.eigh(encoded_dense(bundle.branches, bundle.n_system))
    boundary = np.abs(energies) >= 1.0 - BOUNDARY_EPS
    rows = 2 * len(energies) - int(np.count_nonzero(boundary))
    basis = np.empty((rows, 1 << layout.total_qubits), dtype=complex)
    blocks = []
    row = 0
    for k, e in enumerate(energies.tolist()):
        phi = vectors[:, k]
        phi0 = basis[row]
        phi0[:] = dressed_state(bundle.branches, layout, phi)
        row += 1
        if boundary[k]:
            # A bare walk eigenvector with eigenvalue +-1; acos of a
            # within-epsilon energy would smear the phase by ~sqrt(eps).
            blocks.append(InvariantBlock(e, 0.0 if e > 0 else math.pi, phi, phi0, None))
            continue
        phi1 = basis[row]
        row += 1
        phi1[:] = phi0
        QuantumState(layout, phi1).apply_circuit(bundle.select)
        phi1 -= e * phi0
        phi1 /= math.sqrt(1.0 - e * e)
        blocks.append(InvariantBlock(e, math.acos(e), phi, phi0, phi1))
    return blocks, basis


def invariant_blocks(bundle: WalkBundle) -> list[InvariantBlock]:
    """One block per eigenvector of the encoded operator (see `_subspace`)."""
    return _subspace(bundle)[0]


def _restrict(circuit, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """`circuit` on the span of the orthonormal rows of `basis`: the matrix
    m[i, j] = <basis_i| circuit |basis_j> and the norm of the images' part
    outside the span."""
    images = basis.copy()
    for row in images:
        QuantumState(circuit.layout, row).apply_circuit(circuit)
    m = basis.conj() @ images.T
    images -= m.T @ basis
    return m, float(np.linalg.norm(images))


def block_matrices(bundle: WalkBundle, block: InvariantBlock):
    """2x2 matrices of S and V on span{phi0, phi1} (non-boundary blocks)."""
    if block.phi1 is None:
        raise ValueError("boundary blocks are one-dimensional")
    plane = np.stack([block.phi0, block.phi1])
    return _restrict(bundle.reflect, plane)[0], _restrict(bundle.select, plane)[0]


@dataclass
class PhaseReport:
    expected: np.ndarray  # +-arccos(E_k) multiset from dense diagonalization
    pairs: list[tuple[float, float, float]]  # (expected, matched, abs error)
    closure_error: float

    @property
    def max_error(self) -> float:
        return max((p[2] for p in self.pairs), default=0.0)


def walk_eigenphases(bundle: WalkBundle) -> PhaseReport:
    """Diagonalize the walk circuit restricted to the initialized subspace and
    match its phases against +-arccos(E_k) on the unit circle."""
    blocks, basis = _subspace(bundle)
    m, closure = _restrict(bundle.walk, basis)
    measured = np.angle(np.linalg.eigvals(m))
    expected = np.concatenate([b.eigenphases() for b in blocks])
    return PhaseReport(np.sort(expected), _match_phases(expected, measured), closure)


def _match_phases(expected, measured) -> list[tuple[float, float, float]]:
    """Greedy nearest matching on the unit circle (handles the +-pi seam)."""
    free = list(measured)
    pairs = []
    for e in sorted(expected):
        ze = complex(math.cos(e), math.sin(e))
        dists = [abs(ze - complex(math.cos(m), math.sin(m))) for m in free]
        i = int(np.argmin(dists))
        m = free.pop(i)
        # chord distance -> arc distance
        err = 2.0 * math.asin(min(1.0, dists[i] / 2.0))
        pairs.append((e, m, err))
    return pairs
