"""Signed multi-qubit Pauli words in symplectic (x, z) bitmask form.

Qubit 0 is the least-significant bit of every computational-basis index in
this package.  A word on ``n`` qubits is ``i**phase_exp`` times the Kronecker
product ``kron(letter[n-1], ..., letter[0])`` of single-qubit letters, where
the letter at qubit ``q`` is encoded by two bits:

    (x, z) = (0, 0) -> I,  (1, 0) -> X,  (0, 1) -> Z,  (1, 1) -> Y.

Phases are tracked exactly as an integer exponent of i modulo 4.  Hamiltonian
terms carry only +-1; the +-i units arise from products.

Text syntax (files, CLI): a string over {I, X, Y, Z} with the leftmost
character at qubit 0 and an optional leading sign, e.g. ``-XZIZ``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

# Dense export guard: a 14-qubit word is the largest we ever materialise.
MATRIX_QUBIT_CAP = 14

_LETTER_MATRICES = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}
_LETTER_NAMES = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_NAME_BITS = {name: bits for bits, name in _LETTER_NAMES.items()}
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}


class PauliWidthError(ValueError):
    """Mismatched qubit counts, or a width beyond the dense-export cap."""


@dataclass(frozen=True)
class PauliString:
    """An immutable signed Pauli word; safe to share across threads."""

    n_qubits: int
    x_bits: int = 0
    z_bits: int = 0
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        mask = (1 << self.n_qubits) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise PauliWidthError(
                f"bitmask exceeds {self.n_qubits}-qubit width: "
                f"x={self.x_bits:#x} z={self.z_bits:#x}"
            )
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, letter: str) -> "PauliString":
        """One non-identity letter at `qubit`, identity elsewhere."""
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} outside width {n_qubits}")
        x, z = _NAME_BITS[letter.upper()]
        return cls(n_qubits, x << qubit, z << qubit)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse the text syntax; accepts '', '-', 'i', '-i' sign prefixes."""
        body = label.strip()
        phase_exp = 0
        if body.startswith("-i"):
            phase_exp, body = 3, body[2:]
        elif body.startswith("i") and len(body) > 1 and body[1] in "IXYZ":
            phase_exp, body = 1, body[1:]
        elif body.startswith("-"):
            phase_exp, body = 2, body[1:]
        elif body.startswith("+"):
            body = body[1:]
        if not body:
            raise ValueError(f"empty Pauli label {label!r}")
        x_bits = z_bits = 0
        for q, ch in enumerate(body):
            if ch.upper() not in _NAME_BITS:
                raise ValueError(f"bad letter {ch!r} in Pauli label {label!r}")
            x, z = _NAME_BITS[ch.upper()]
            x_bits |= x << q
            z_bits |= z << q
        return cls(len(body), x_bits, z_bits, phase_exp)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exp]

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def letter(self, qubit: int) -> str:
        return _LETTER_NAMES[(self.x_bits >> qubit) & 1, (self.z_bits >> qubit) & 1]

    def label(self) -> str:
        body = "".join(self.letter(q) for q in range(self.n_qubits))
        return _PHASE_PREFIX[self.phase_exp] + body

    def bare(self) -> "PauliString":
        """The same letters with phase +1."""
        return PauliString(self.n_qubits, self.x_bits, self.z_bits, 0)

    def __neg__(self) -> "PauliString":
        return PauliString(self.n_qubits, self.x_bits, self.z_bits, self.phase_exp + 2)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


def _check_widths(a: PauliString, b: PauliString) -> None:
    if a.n_qubits != b.n_qubits:
        raise PauliWidthError(f"width mismatch: {a.n_qubits} vs {b.n_qubits}")


def star(a: PauliString, b: PauliString) -> int:
    """0 if the words commute, 1 if they anticommute.

    Equals the parity of the number of qubits where both words carry
    differing non-identity letters (the symplectic form of the bitmasks).
    """
    _check_widths(a, b)
    return ((a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()) % 2


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product a*b with the exact accumulated power of i.

    Derivation: writing each letter as i^(x*z) X^x Z^z and commuting the
    inner Z^z1 X^x2 picks up (-1)^(z1&x2) per qubit.
    """
    _check_widths(a, b)
    x3 = a.x_bits ^ b.x_bits
    z3 = a.z_bits ^ b.z_bits
    exp = (
        a.phase_exp
        + b.phase_exp
        + (a.x_bits & a.z_bits).bit_count()
        + (b.x_bits & b.z_bits).bit_count()
        + 2 * (a.z_bits & b.x_bits).bit_count()
        - (x3 & z3).bit_count()
    )
    return PauliString(a.n_qubits, x3, z3, exp % 4)


def check_matrix_width(n: int) -> None:
    """Refuse a dense 2**n x 2**n export wider than MATRIX_QUBIT_CAP; callers
    check before they allocate the matrix."""
    if n > MATRIX_QUBIT_CAP:
        raise PauliWidthError(f"{n} qubits exceeds the dense cap of {MATRIX_QUBIT_CAP}")


def to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2**n matrix of the word (phase included)."""
    check_matrix_width(p.n_qubits)
    letters = [
        _LETTER_MATRICES[(p.x_bits >> q) & 1, (p.z_bits >> q) & 1]
        for q in range(p.n_qubits - 1, -1, -1)
    ]
    return p.phase * reduce(np.kron, letters)


def view_action(
    p: PauliString, axes: tuple[int, ...], ndim: int
) -> tuple[tuple[tuple, ...], tuple[int, ...], complex]:
    """Precomputed in-place action of `p` on a (2,)*ndim tensor view whose
    axis ``axes[q]`` carries word position ``q``.

    Uses P = i^(phase_exp + popcount(x&z)) * X^x Z^z: Z^z negates the slice
    where a Z axis reads 1, X^x reverses every X axis.  Returns (sign
    slices, flip axes, coefficient) for `apply_view_action`.  Every slice
    ends in an Ellipsis, so it is a view even when it fixes every axis.
    """
    signs, flips = [], []
    for q, axis in enumerate(axes):
        if (p.z_bits >> q) & 1:
            idx = [slice(None)] * ndim
            idx[axis] = 1
            signs.append((*idx, Ellipsis))
        if (p.x_bits >> q) & 1:
            flips.append(axis)
    coef = _PHASES[(p.phase_exp + (p.x_bits & p.z_bits).bit_count()) % 4]
    return tuple(signs), tuple(flips), coef


def apply_view_action(view: np.ndarray, action) -> None:
    """Apply a `view_action` result to `view` in place.

    Only copies and sign flips touch the floats, never a complex multiply,
    so every float of the result is exactly + or - an input float, signed
    zeros included, and runs of these actions compose exactly.
    """
    signs, flips, coef = action
    for idx in signs:
        part = view[idx]
        np.negative(part, out=part)
    # numpy buffers the overlapping reversed view before writing back
    src = np.flip(view, flips) if flips else view
    if coef == -1:
        np.negative(src, out=view)
    elif coef == 1j:  # i (a + bi) = -b + ai
        src = src.copy()
        np.negative(src.imag, out=view.real)
        view.imag[...] = src.real
    elif coef == -1j:  # -i (a + bi) = b - ai
        src = src.copy()
        view.real[...] = src.imag
        np.negative(src.real, out=view.imag)
    elif flips:
        view[...] = src


def apply_pauli(vec: np.ndarray, p: PauliString) -> np.ndarray:
    """Return p @ vec for a state vector of length 2**n, without the matrix."""
    n = p.n_qubits
    if vec.shape != (1 << n,):
        raise PauliWidthError(f"vector length {vec.shape} does not match 2**{n}")
    out = np.array(vec, dtype=complex)
    apply_view_action(out.reshape((2,) * n), view_action(p, tuple(range(n - 1, -1, -1)), n))
    return out
