"""Shared fixtures and independent oracles.

The kron-based builders here deliberately do not use the package's matrix
export, so matrix comparisons check two separate code paths.  `expand`
turns a block's compact rows into vectors of the whole register, which the
package itself never builds, so tests can run them gate by gate.
"""
import dataclasses
import math

import numpy as np
import pytest

from specwalk import (
    LcuHamiltonian,
    PauliString,
    long_range_ising,
    normalize,
    tfim,
)
from specwalk.circuits import Circuit
from specwalk.walk_core import build_walk

# --- independent dense oracle ------------------------------------------------

_I = np.eye(2, dtype=complex)
_OPS = {
    "I": _I,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(label: str) -> np.ndarray:
    """Matrix of a Pauli label built letter by letter (qubit 0 leftmost)."""
    sign = 1.0
    if label.startswith("-"):
        sign, label = -1.0, label[1:]
    out = np.array([[1.0]], dtype=complex)
    for ch in label:  # rightmost letter becomes the leftmost kron factor
        out = np.kron(_OPS[ch], out)
    return sign * out


def dense_oracle(h) -> np.ndarray:
    """Dense matrix of an LcuHamiltonian or RescaledLcu via kron_oracle."""
    pairs = h.terms if isinstance(h, LcuHamiltonian) else h.weights
    dim = 2**h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, p in pairs:
        out += coeff * kron_oracle(p.label())
    return out


def random_pauli(rng, n_qubits, allow_identity=False) -> PauliString:
    while True:
        x = int(rng.integers(0, 1 << n_qubits))
        z = int(rng.integers(0, 1 << n_qubits))
        if allow_identity or x or z:
            return PauliString(n_qubits, x, z)


def random_lcu(rng, n_qubits=3, max_terms=7) -> LcuHamiltonian:
    """Random Hamiltonian with distinct non-identity words, N <= max_terms."""
    n_terms = int(rng.integers(2, max_terms + 1))
    seen = {(0, 0)}
    pairs = [(float(rng.uniform(0, 0.5)), PauliString.identity(n_qubits))]
    while len(pairs) < n_terms + 1:
        p = random_pauli(rng, n_qubits)
        if (p.x_bits, p.z_bits) in seen:
            continue
        seen.add((p.x_bits, p.z_bits))
        coeff = float(rng.uniform(0.1, 1.0)) * (1 if rng.random() < 0.5 else -1)
        pairs.append((coeff, p))
    return LcuHamiltonian.from_terms(n_qubits, pairs)


# --- suite models --------------------------------------------------------------


@pytest.fixture(scope="session")
def suite_models():
    """The lattice models every spectral test runs over."""
    models = {}
    for n in (2, 3, 4):
        models[f"tfim{n}"] = tfim(n, 1.0, 1.0)
    for n in (3, 4):
        models[f"long_range{n}"] = long_range_ising(n, 1.0, 2.0)
    return models


@pytest.fixture(scope="session")
def half_identity_x():
    """The 2-term single-qubit model (I + X)/2, already normalized."""
    h = LcuHamiltonian.from_terms(
        1, [(0.5, PauliString.identity(1)), (0.5, PauliString.from_label("X"))]
    )
    return normalize(h, "none")


@pytest.fixture(scope="session")
def odd_y_model():
    """A two-qubit model with words of one Y: its walk is not real, so its
    invariant planes stay complex."""
    labels = [("II", 0.1), ("XY", 0.5), ("YX", -0.3), ("ZI", 0.7), ("IZ", 0.2)]
    return LcuHamiltonian.from_terms(
        2, [(c, PauliString.from_label(label)) for label, c in labels]
    )


def walk_on(rescaled, encoding, has_pe_qubit):
    """`build_walk(rescaled, encoding)`, or, without the pe qubit, its
    prepare, select, reflect and walk remade on a hand-made register that
    lacks it; remaking checks that no gate of theirs touches it.  The
    controlled walk acts on the pe qubit, so that bundle has none."""
    bundle = build_walk(rescaled, encoding)
    if has_pe_qubit:
        return bundle
    narrow = dataclasses.replace(bundle.layout, has_pe_qubit=False)
    names = ("prepare", "prepare_dagger", "select", "reflect", "walk")
    remade = {name: Circuit(narrow, getattr(bundle, name).gates) for name in names}
    return dataclasses.replace(bundle, layout=narrow, controlled_walk=None, **remade)


def expand(block, rows=None) -> np.ndarray:
    """Compact rows of the block's subspace, by default the block's own
    phi0 and phi1, as vectors of the whole register."""
    space = block.space
    rows = block.rows if rows is None else rows
    out = np.zeros(rows.shape[:-1] + (1 << space.total,), dtype=rows.dtype)
    out[..., space.reach] = rows[..., : len(space.reach)]
    return out


def walk_eigenvector(block, sign="+") -> np.ndarray:
    """(phi0 + i phi1)/sqrt(2) or, with `sign` "-", (phi0 - i phi1)/sqrt(2)
    of the block as a vector of the whole register; phi0 on the boundary."""
    if block.is_boundary:
        return expand(block, block.rows[0])
    phi0, phi1 = block.rows
    row = phi0 + 1j * phi1 if sign == "+" else phi0 - 1j * phi1
    return expand(block, row / math.sqrt(2))


@pytest.fixture(scope="session")
def random_models():
    rng = np.random.default_rng(20240811)
    return [random_lcu(rng) for _ in range(20)]
