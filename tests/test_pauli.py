import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk.pauli import (
    MATRIX_QUBIT_CAP,
    PauliString,
    PauliWidthError,
    apply_pauli,
    multiply,
    star,
    to_matrix,
)
from specwalk.walk_core import Branch, encoded_dense

from conftest import kron_oracle


def P(label):
    return PauliString.from_label(label)


def test_star_single_qubit_anticommute():
    assert star(P("X"), P("Z")) == 1


def test_star_even_overlap_commutes():
    assert star(P("XX"), P("ZZ")) == 0


def test_star_identity_commutes_with_everything():
    rng = np.random.default_rng(3)
    ident = PauliString.identity(4)
    for _ in range(20):
        q = PauliString(4, int(rng.integers(16)), int(rng.integers(16)))
        assert star(ident, q) == 0


def test_star_width_mismatch():
    with pytest.raises(PauliWidthError):
        star(P("X"), P("XX"))


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_star_symmetric(x1, z1, x2, z2):
    a, b = PauliString(5, x1, z1), PauliString(5, x2, z2)
    assert star(a, b) == star(b, a)


def test_multiply_table():
    assert multiply(P("X"), P("Z")).label() == "-iY"
    assert multiply(P("Z"), P("X")).label() == "iY"
    assert multiply(P("X"), P("Y")).label() == "iZ"
    assert multiply(P("XZ"), PauliString.identity(2)) == P("XZ")


def test_multiply_involution():
    p = P("-XZYI")
    sq = multiply(p, p)
    assert sq.is_identity and sq.phase == 1


def test_to_matrix_identity_and_z():
    assert np.array_equal(to_matrix(PauliString.identity(1)), np.eye(2))
    assert np.array_equal(to_matrix(P("Z")), np.diag([1.0, -1.0]))


def test_to_matrix_vs_kron_oracle():
    for label in ("-XZ", "YIZ", "XYZI", "-ZZXY"):
        assert np.allclose(to_matrix(P(label)), kron_oracle(label), atol=1e-14)


def test_to_matrix_homomorphism_exhaustive_two_qubits():
    words = [PauliString(2, x, z) for x in range(4) for z in range(4)]
    for a in words:
        for b in words:
            lhs = to_matrix(multiply(a, b))
            rhs = to_matrix(a) @ to_matrix(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_star_consistency_with_matrices():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = PauliString(3, int(rng.integers(8)), int(rng.integers(8)))
        b = PauliString(3, int(rng.integers(8)), int(rng.integers(8)))
        ab = to_matrix(a) @ to_matrix(b)
        ba = to_matrix(b) @ to_matrix(a)
        assert np.max(np.abs(ab - (-1.0) ** star(a, b) * ba)) < 1e-12


def test_matrix_cap():
    with pytest.raises(PauliWidthError):
        to_matrix(PauliString.identity(MATRIX_QUBIT_CAP + 1))


def test_wide_branch_table_is_refused_before_allocating():
    # a 15-qubit operator would be a 16 GiB dense matrix
    n = MATRIX_QUBIT_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(PauliWidthError, match="dense cap"):
            encoded_dense([Branch(1.0, PauliString.identity(n), 0)], n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_label_round_trip():
    for label in ("XYZ", "-XZIZ", "IIII", "-Z"):
        assert P(label).label() == label


def test_apply_pauli_matches_matrix():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = PauliString(3, int(rng.integers(8)), int(rng.integers(8)), int(rng.integers(4)))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        before = v.copy()
        assert np.allclose(apply_pauli(v, p), to_matrix(p) @ v, atol=1e-12)
        assert np.array_equal(v, before)  # the input is not touched
    with pytest.raises(PauliWidthError):
        apply_pauli(np.ones(4, dtype=complex), P("XYZ"))


def test_phase_validation():
    s = PauliString(2, 1, 2, 7)  # phase exponent normalizes mod 4
    assert s.phase_exp == 3
    with pytest.raises(PauliWidthError):
        PauliString(1, 2, 0)
