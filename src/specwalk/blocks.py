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

Each plane is checked on its own.  A block holds 1 or 2 compact rows,
phi0 and, off the boundary, phi1, over the `Subspace` of the bundle
(`plane_subspace`): the control keys that select, reflect, walk and
prepare_dagger can reach from the branches' keys, each with its block of
2**n_system system states, and one zero slot.  That is 16,384 of 2**18
amplitudes for binary TFIM n=9 and 4,384 of 2**21 for unary TFIM n=5.
Only these rows are capped, never the register: the subspace, built once
per bundle and before the dense `eigh`, refuses rows above 2**22.  A
block is only its rows, which no code expands over the register; they
equal the planes built on the whole register at reach, bit for bit.
The plane is float64 when the encoded operator and the walk are real: the
eigenvectors of the one complex `eigh` (which also gives the energies, so
they do not depend on the dtype) have no imaginary part, and every gate of
select and walk is real (`Circuit.is_real`).  A Hamiltonian with a word of
an odd number of Ys keeps complex128 planes.
The planes are built in batches of k = max(1, 2**14 // (2 * row length)),
so a batch's rows hold at most 2**14 amplitudes: 7 planes at binary TFIM
n=6 (rows of 1,025), one from binary n=9 (16,385) and at unary TFIM n=5
(4,385).  Short rows are passes bound by dispatch, not by memory, and a
batch runs each circuit once on all of its rows.  A batch is one C-order
(k, 2, len(reach) + 1) array: `dressed_state` writes every phi0 with one
write per branch, one select pass gives every phi1, and a boundary plane
keeps a zero second row that no block includes.  A compact pass writes
each row's floats from that row alone, so the batches change no bit.
`_span_part` restricts a circuit's images of a plane to its span: the
restricted matrix and the norm of the images' part outside the span,
plane by plane and without BLAS.  `_restrict` runs one block's rows
through a circuit first.
`invariant_blocks` is a generator that builds the planes a batch at a
time, and every caller streams it, so none holds the whole subspace.  A
block's rows are a view of its batch.  `walk_eigenphases` runs the walk
once per batch in one reused images buffer and takes every plane's
eigenvalues from stacked `eigvals` calls; its closure error also fails a
walk that mixes two planes.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simulator import Subspace, _norm, apply_in_subspace
from .walk_core import WalkBundle, dressed_state, encoded_dense

BOUNDARY_EPS = 1e-9


@dataclass
class InvariantBlock:
    energy: float
    theta: float
    system_vector: np.ndarray
    rows: np.ndarray  # compact rows of `space`: phi0, then phi1 off the boundary
    space: Subspace

    @property
    def is_boundary(self) -> bool:
        return len(self.rows) == 1

    def eigenphases(self) -> tuple[float, ...]:
        """Walk eigenphases contributed by this block."""
        if self.is_boundary:
            return (self.theta,)
        return (self.theta, -self.theta)


@lru_cache(maxsize=2)
def plane_subspace(bundle: WalkBundle) -> Subspace:
    """The subspace of the bundle's planes: the branches' control keys,
    each with its block of 2**n_system system states, through select,
    reflect, walk and prepare_dagger (for analysis Zeno; reflect reaches
    all it does).  Bundles hash their circuits by identity, so the last two
    bundles' subspaces are cached and a replaced walk gets its own."""
    keys = sorted({b.control_state for b in bundle.branches})
    circuits = (bundle.select, bundle.reflect, bundle.walk, bundle.prepare_dagger)
    return Subspace(bundle.layout.total_qubits, bundle.n_system, keys, circuits)


def _plane_batches(bundle: WalkBundle) -> Iterator[tuple[list[InvariantBlock], np.ndarray]]:
    """The blocks in ascending energy, a batch at a time, with the C-order
    (k, 2, len(reach) + 1) array that holds their rows: phi0 and phi1 of
    each plane, and a zero second row for a boundary plane.  One
    `dressed_state` writes every phi0 of a batch and one select pass gives
    every phi1."""
    space = plane_subspace(bundle)
    energies, vectors = np.linalg.eigh(encoded_dense(bundle.branches, bundle.n_system))
    if bundle.select.is_real and bundle.walk.is_real and not vectors.imag.any():
        vectors = vectors.real
    width = len(space.reach) + 1
    size = max(1, (1 << 14) // (2 * width))  # 2k rows of at most 2**14 amplitudes
    for lo in range(0, len(energies), size):
        es, phis = energies[lo : lo + size], vectors[:, lo : lo + size]
        boundary = np.abs(es) >= 1.0 - BOUNDARY_EPS
        rows = np.empty((len(es), 2, width), dtype=vectors.dtype)
        phi0 = rows[:, 0]
        dressed_state(bundle.branches, phis.T, phi0, space.positions)
        phi1 = phi0.copy()  # C-order, as a compact pass takes its rows
        apply_in_subspace(bundle.select, phi1, space)
        off = np.where(boundary, 0.0, es)[:, None]  # a boundary row is zeroed below
        phi1 -= off * phi0
        phi1 /= np.sqrt(1.0 - off * off)
        phi1[boundary] = 0.0
        rows[:, 1] = phi1
        blocks = []
        for k, e in enumerate(es.tolist()):
            if boundary[k]:
                # A bare walk eigenvector with eigenvalue +-1; acos of a
                # within-epsilon energy would smear the phase by ~sqrt(eps).
                theta, plane = 0.0 if e > 0 else math.pi, rows[k, :1]
            else:
                theta, plane = math.acos(e), rows[k]
            blocks.append(InvariantBlock(e, theta, phis[:, k], plane, space))
        yield blocks, rows


def invariant_blocks(bundle: WalkBundle) -> Iterator[InvariantBlock]:
    """One block per eigenvector of the encoded operator, in ascending
    energy; the rows of each plane are orthonormal by construction.

    phi1 is produced by running the select circuit, so these blocks double
    as a check that the circuit realizes the intended branch table.
    """
    for blocks, _ in _plane_batches(bundle):
        yield from blocks


def _span_part(rows: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, float]:
    """The matrix m[i, j] = <rows_i|images_j> of the images of the
    orthonormal `rows`, and the norm of the images' part outside their
    span, which is left in `images`.

    The products are `einsum` loops, not BLAS calls, so they never wake the
    BLAS thread pool and their bits do not depend on its thread count.
    """
    m = np.einsum("ik,jk->ij", rows.conj(), images)
    images -= np.einsum("ji,jk->ik", m, rows)
    return m, _norm(images)


def _restrict(circuit, block: InvariantBlock, images: np.ndarray) -> tuple[np.ndarray, float]:
    """`circuit` on the span of the orthonormal rows of the block's plane,
    as `_span_part` gives it.  `images`, of the compact rows' shape and
    dtype, is scratch; both rows run in one compact pass."""
    images[...] = block.rows
    apply_in_subspace(circuit, images, block.space)
    return _span_part(block.rows, images)


def block_matrices(bundle: WalkBundle, block: InvariantBlock):
    """2x2 matrices of S and V on span{phi0, phi1} (non-boundary blocks)."""
    if block.is_boundary:
        raise ValueError("boundary blocks are one-dimensional")
    images = np.empty_like(block.rows)
    return (
        _restrict(bundle.reflect, block, images)[0],
        _restrict(bundle.select, block, images)[0],
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
    unit circle, nearest first; the pairs come sorted by expected phase.
    The walk runs once per batch of planes, on all of its rows."""
    expected, matrices, residuals = [], [], []
    images = None  # one scratch buffer of the batches' shape and dtype
    for batch, rows in _plane_batches(bundle):
        if images is None:
            images = np.empty_like(rows)
        out = images[: len(rows)]
        out[...] = rows
        apply_in_subspace(bundle.walk, out.reshape(-1, rows.shape[-1]), batch[0].space)
        for block, image in zip(batch, out):
            m, residual = _span_part(block.rows, image[: len(block.rows)])
            expected.append(sorted(block.eigenphases()))
            matrices.append(m)
            residuals.append(residual)
    # one stacked call per matrix size: boundary blocks are 1x1
    free = [None] * len(matrices)
    for size in (1, 2):
        at = [i for i, m in enumerate(matrices) if len(m) == size]
        if at:
            for i, values in zip(at, np.linalg.eigvals(np.stack([matrices[i] for i in at]))):
                free[i] = list(np.angle(values))
    pairs = []
    for phases_expected, phases in zip(expected, free):
        for e in phases_expected:
            chords = [abs(cmath.exp(1j * e) - cmath.exp(1j * p)) for p in phases]
            i = int(np.argmin(chords))
            # chord distance -> arc distance
            pairs.append((e, phases.pop(i), 2.0 * math.asin(min(1.0, chords[i] / 2.0))))
    pairs.sort(key=lambda p: p[0])
    return PhaseReport(np.array([p[0] for p in pairs]), pairs, math.hypot(*residuals))
