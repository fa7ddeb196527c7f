"""Pauli-sum Hamiltonians: containers, rescaling, strength grouping, lattice
model builders, interpolation, and dense diagonalization oracles.

All containers are immutable.  Term index 0 is always the identity word with
a non-negative coefficient; duplicate Pauli words are merged at construction.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliWidthError, dense_sum

GROUP_TOL = 1e-12


class HamiltonianFileError(ValueError):
    """Malformed Hamiltonian file; carries a human-readable diagnostic."""


@dataclass(frozen=True)
class LcuHamiltonian:
    """H = sum_j alpha_j P_j with P_0 = I and alpha_0 >= 0.

    Every stored word carries phase +1; signs live in the coefficients.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        if not self.terms or not self.terms[0][1].is_identity:
            raise ValueError("term 0 must be the identity word")
        if self.terms[0][0] < 0:
            raise ValueError(f"identity coefficient must be >= 0, got {self.terms[0][0]}")
        seen = set()
        for coeff, p in self.terms:
            if p.n_qubits != self.n_qubits:
                raise PauliWidthError("term width does not match the Hamiltonian")
            if p.phase_exp != 0:
                raise ValueError("stored words must carry phase +1")
            key = (p.x_bits, p.z_bits)
            if key in seen:
                raise ValueError(f"duplicate term {p.label()}")
            seen.add(key)

    @classmethod
    def from_terms(cls, n_qubits, pairs) -> "LcuHamiltonian":
        """Build from (coeff, word) pairs: merges duplicates, folds any -1
        word phases into coefficients, drops zero non-identity terms, and
        inserts the identity term if absent.  A NaN or infinite coefficient
        is refused."""
        merged: dict[tuple[int, int], float] = {(0, 0): 0.0}
        for coeff, p in pairs:
            if p.n_qubits != n_qubits:
                raise PauliWidthError("term width does not match the Hamiltonian")
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff} on {p.label()}")
            if p.phase_exp == 2:
                coeff, p = -coeff, p.bare()
            elif p.phase_exp != 0:
                raise ValueError("Hamiltonian terms must have real sign")
            key = (p.x_bits, p.z_bits)
            merged[key] = merged.get(key, 0.0) + coeff
        terms = [(merged.pop((0, 0)), PauliString.identity(n_qubits))]
        for (x, z), coeff in merged.items():
            if coeff != 0.0:
                terms.append((coeff, PauliString(n_qubits, x, z)))
        return cls(n_qubits, tuple(terms))

    @property
    def identity_coeff(self) -> float:
        return self.terms[0][0]

    @property
    def n_select_terms(self) -> int:
        """N, the number of non-identity terms."""
        return len(self.terms) - 1


@dataclass(frozen=True)
class RescaledLcu:
    """H / N as sum_j |beta_j|^2 P_j with signs absorbed into the words.

    `shift_added` records the amount added to the identity coefficient before
    rescaling, so physical energies are N * E_rescaled - shift_added.
    """

    n_qubits: int
    normalization: float
    shift_added: float
    weights: tuple[tuple[float, PauliString], ...]

    @property
    def beta0_sq(self) -> float:
        return self.weights[0][0]

    @property
    def n_select_terms(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class StrengthGroup:
    strength_sq: float
    members: tuple[PauliString, ...]  # padded identities included, sign +1
    n_real: int
    n_padded: int
    offset: int  # m_k, 1-based position of the group head in the unary register


@dataclass(frozen=True)
class GroupedLcu:
    """Equal-strength grouping of a rescaled Hamiltonian, padded to powers of 2.

    Padded members are identity words carrying the group strength; their
    weight is taken out of the identity budget so that
    beta0_sq + sum_k strength_sq_k * n_padded_k == 1 still holds.
    """

    n_qubits: int
    beta0_sq: float
    groups: tuple[StrengthGroup, ...]

    @property
    def k_distinct(self) -> int:
        return len(self.groups)

    @property
    def n_control(self) -> int:
        """Width of the one-hot control register (sum of padded sizes)."""
        return sum(g.n_padded for g in self.groups)


def normalize(h: LcuHamiltonian, shift_policy: str = "auto") -> RescaledLcu:
    """Rescale by the coefficient 1-norm, absorbing signs into the words.

    shift_policy 'auto' first adds sum_{j>=1} |alpha_j| to the identity
    coefficient, a certified upper bound on -lambda_min, so the shifted
    operator is non-negative and the rescaled spectrum lies in [0, 1].
    Policy 'none' uses the coefficients as given.
    """
    if shift_policy not in ("auto", "none"):
        raise ValueError(f"unknown shift policy {shift_policy!r}")
    tail = sum(abs(c) for c, _ in h.terms[1:])
    shift = tail if shift_policy == "auto" else 0.0
    alpha0 = h.identity_coeff + shift
    norm = alpha0 + tail
    if norm <= 0.0:
        raise ValueError("cannot rescale an all-zero Hamiltonian")
    if not math.isfinite(norm):
        raise ValueError(f"the coefficient 1-norm overflows a float ({norm})")
    weights = [(alpha0 / norm, PauliString.identity(h.n_qubits))]
    for coeff, p in h.terms[1:]:
        weights.append((abs(coeff) / norm, p if coeff > 0 else -p))
    return RescaledLcu(h.n_qubits, norm, shift, tuple(weights))


def group(rescaled: RescaledLcu) -> GroupedLcu:
    """Group equal weights (relative tolerance GROUP_TOL) and pad each group
    with identity members to the next power of two.

    Padding draws its weight from the identity budget; raises if beta0_sq is
    too small to cover it (never the case after an 'auto' shift).
    """
    clusters: list[list[PauliString]] = []
    strengths: list[float] = []
    for w, p in rescaled.weights[1:]:
        for i, s in enumerate(strengths):
            if abs(w - s) <= GROUP_TOL * max(abs(w), abs(s)):
                clusters[i].append(p)
                break
        else:
            strengths.append(w)
            clusters.append([p])
    groups = []
    offset = 1
    pad_weight = 0.0
    identity = PauliString.identity(rescaled.n_qubits)
    for s, members in zip(strengths, clusters):
        n_real = len(members)
        n_padded = 1 << max(0, (n_real - 1).bit_length())
        pad_weight += s * (n_padded - n_real)
        padded = tuple(members) + (identity,) * (n_padded - n_real)
        groups.append(StrengthGroup(s, padded, n_real, n_padded, offset))
        offset += n_padded
    beta0 = rescaled.beta0_sq - pad_weight
    if beta0 < -1e-12:
        raise ValueError(
            "identity weight cannot absorb the padding; "
            "normalize with shift_policy='auto'"
        )
    beta0 = max(beta0, 0.0)
    total = beta0 + sum(g.strength_sq * g.n_padded for g in groups)
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"padded weights sum to {total}, not 1")
    return GroupedLcu(rescaled.n_qubits, beta0, tuple(groups))


def tfim(n: int, g: float, j: float, boundary: str = "open") -> LcuHamiltonian:
    """Transverse-field Ising chain  g * sum_i X_i + j * sum_<i,k> Z_i Z_k."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    pairs = []
    for i in range(n):
        pairs.append((g, PauliString.single(n, i, "X")))
    bonds = n if boundary == "periodic" else n - 1
    for i in range(bonds):
        zz = PauliString(n, 0, (1 << i) | (1 << ((i + 1) % n)))
        pairs.append((j, zz))
    return LcuHamiltonian.from_terms(n, pairs)


def long_range_ising(n: int, j: float, alpha: float) -> LcuHamiltonian:
    """Open chain  j * sum_{i<k} Z_i Z_k / (k - i)**alpha.

    An open chain of n sites has n-1 distinct coupling strengths.
    """
    if n < 2:
        raise ValueError("need at least 2 sites")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    pairs = []
    for i in range(n):
        for k in range(i + 1, n):
            zz = PauliString(n, 0, (1 << i) | (1 << k))
            try:
                coupling = j / (k - i) ** alpha
            except OverflowError:
                raise ValueError(f"alpha {alpha} overflows a float at distance {k - i}") from None
            pairs.append((coupling, zz))
    return LcuHamiltonian.from_terms(n, pairs)


@dataclass(frozen=True)
class InterpolatedModel:
    """H(g) = h0 + g * v on a shared register, with the g=0 ground state
    supplied as a concrete vector (used by the sequential-measurement
    preparation protocol)."""

    h0: LcuHamiltonian
    v: LcuHamiltonian
    h0_ground: np.ndarray | None = None

    def __post_init__(self):
        if self.h0.n_qubits != self.v.n_qubits:
            raise PauliWidthError("h0 and v must share a register")
        if self.h0_ground is not None and self.h0_ground.shape != (2**self.h0.n_qubits,):
            raise ValueError("supplied ground state has the wrong dimension")


def interpolate(model: InterpolatedModel, g: float) -> LcuHamiltonian:
    """Merged term list of h0 + g*v.

    Computed as the convex combination (1-g)*H(0) + g*H(1) per coefficient,
    which is exact at the endpoints and makes the g=0.5 coefficients equal
    floating-point means of the endpoint coefficients.
    """
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"g must lie in [0, 1], got {g}")
    c0: dict[tuple[int, int], float] = {}
    c1: dict[tuple[int, int], float] = {}
    for coeff, p in model.h0.terms:
        c0[(p.x_bits, p.z_bits)] = coeff
        c1[(p.x_bits, p.z_bits)] = coeff
    for coeff, p in model.v.terms:
        key = (p.x_bits, p.z_bits)
        c1[key] = c1.get(key, 0.0) + coeff
        c0.setdefault(key, 0.0)
    n = model.h0.n_qubits
    pairs = []
    for key in c0:
        coeff = (1.0 - g) * c0[key] + g * c1[key]
        pairs.append((coeff, PauliString(n, key[0], key[1])))
    return LcuHamiltonian.from_terms(n, pairs)


def dense_matrix(h: LcuHamiltonian | RescaledLcu) -> np.ndarray:
    """Dense Hermitian matrix sum_j c_j P_j (weights for a rescaled input)."""
    return dense_sum(h.n_qubits, h.terms if isinstance(h, LcuHamiltonian) else h.weights)


def eigensystem(h: LcuHamiltonian | RescaledLcu) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors as columns."""
    return np.linalg.eigh(dense_matrix(h))


def product_state(letters: str) -> np.ndarray:
    """Tensor product of single-qubit states named by '0', '1', '+', '-'.

    The leftmost character is qubit 0.
    """
    single = {
        "0": np.array([1, 0], dtype=complex),
        "1": np.array([0, 1], dtype=complex),
        "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
        "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
    }
    vec = np.array([1], dtype=complex)
    for ch in letters:  # qubit 0 is the least-significant index bit
        vec = np.kron(single[ch], vec)
    return vec


def write_hamiltonian(h: LcuHamiltonian, path: str) -> None:
    """UTF-8 JSON, terms sorted by Pauli label for determinism."""
    rows = sorted(
        ({"pauli": p.label(), "coeff": float(c)} for c, p in h.terms),
        key=lambda r: r["pauli"],
    )
    payload = {"n_qubits": h.n_qubits, "terms": rows}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_hamiltonian(path: str) -> LcuHamiltonian:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise HamiltonianFileError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        line = text.splitlines()[exc.lineno - 1] if text.splitlines() else ""
        raise HamiltonianFileError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg} in {line.strip()!r}"
        ) from exc
    try:
        n = payload["n_qubits"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"n_qubits must be an integer, got {n!r}")
        return LcuHamiltonian.from_terms(n, [_file_term(row) for row in payload["terms"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise HamiltonianFileError(f"{path}: {exc}") from exc


def _file_term(row: dict) -> tuple[float, PauliString]:
    """The (coeff, word) pair of one term of a Hamiltonian file.  The
    coefficient must be a JSON number and the label a string; any other
    type is refused, not converted."""
    coeff, label = row["coeff"], row["pauli"]
    if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
        raise ValueError(f"coeff must be a number, got {coeff!r}")
    if not isinstance(label, str):
        raise ValueError(f"pauli must be a string label, got {label!r}")
    return float(coeff), PauliString.from_label(label)
