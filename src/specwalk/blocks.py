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

Each plane is checked on its own.  A block holds a C-order
(1 or 2, 2**total) array whose rows are phi0 and, off the boundary, phi1.
The plane is float64 when the encoded operator and the walk are real: the
eigenvectors of the one complex `eigh` (which also gives the energies, so
they do not depend on the dtype) have no imaginary part, and every gate of
select and walk is real (`Circuit.is_real`).  A Hamiltonian with a word of
an odd number of Ys keeps complex128 planes.
`_restrict` restricts a circuit to the span of such rows: it runs the
circuit on a copy of each row and returns the restricted matrix and the
norm of the images' part outside the span, both taken without BLAS.
`invariant_blocks` is a generator that builds the planes one at a time,
and every caller streams it, so none holds the whole subspace.  Each
block owns its plane.  `walk_eigenphases` reuses one images buffer for
every plane, and its closure error also fails a walk that mixes two planes.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .simulator import QuantumState, _norm, check_width
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


def invariant_blocks(bundle: WalkBundle) -> Iterator[InvariantBlock]:
    """One block per eigenvector of the encoded operator, yielded one at a
    time in ascending energy; the rows of each plane are orthonormal by
    construction.

    phi1 is produced by running the select circuit, so these blocks double
    as a check that the circuit realizes the intended branch table.
    """
    layout = bundle.layout
    check_width(layout)
    energies, vectors = np.linalg.eigh(encoded_dense(bundle.branches, bundle.n_system))
    if bundle.select.is_real and bundle.walk.is_real and not vectors.imag.any():
        vectors = vectors.real
    for k, e in enumerate(energies.tolist()):
        phi = vectors[:, k]
        rows = 1 if abs(e) >= 1.0 - BOUNDARY_EPS else 2
        plane = np.empty((rows, 1 << layout.total_qubits), dtype=vectors.dtype)
        dressed_state(bundle.branches, phi, plane[0])
        if rows == 1:
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


def _restrict(circuit, plane: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, float]:
    """`circuit` on the span of the orthonormal rows of `plane`: the matrix
    m[i, j] = <plane_i| circuit |plane_j> and the norm of the images' part
    outside the span.  `images`, of the plane's shape and dtype, is scratch.

    The products are `einsum` loops, not BLAS calls, so they never wake the
    BLAS thread pool and their bits do not depend on its thread count.
    """
    images[...] = plane
    for row in images:
        QuantumState(circuit.layout, row).apply_circuit(circuit)
    m = np.einsum("ik,jk->ij", plane.conj(), images)
    images -= np.einsum("ji,jk->ik", m, plane)
    return m, _norm(images)


def block_matrices(bundle: WalkBundle, block: InvariantBlock):
    """2x2 matrices of S and V on span{phi0, phi1} (non-boundary blocks)."""
    if block.is_boundary:
        raise ValueError("boundary blocks are one-dimensional")
    images = np.empty_like(block.plane)
    return (
        _restrict(bundle.reflect, block.plane, images)[0],
        _restrict(bundle.select, block.plane, images)[0],
    )


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
    images = None  # one scratch buffer of the planes' dtype for every plane
    for block in invariant_blocks(bundle):
        if images is None:
            images = np.empty((2, block.plane.shape[1]), dtype=block.plane.dtype)
        m, residual = _restrict(bundle.walk, block.plane, images[: len(block.plane)])
        residuals.append(residual)
        free = list(np.angle(np.linalg.eigvals(m)))
        for e in sorted(block.eigenphases()):
            chords = [abs(cmath.exp(1j * e) - cmath.exp(1j * p)) for p in free]
            i = int(np.argmin(chords))
            # chord distance -> arc distance
            pairs.append((e, free.pop(i), 2.0 * math.asin(min(1.0, chords[i] / 2.0))))
    pairs.sort(key=lambda p: p[0])
    return PhaseReport(np.array([p[0] for p in pairs]), pairs, math.hypot(*residuals))
