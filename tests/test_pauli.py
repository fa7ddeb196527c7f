import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwalk import dense_matrix, normalize, tfim
from specwalk.pauli import (
    MATRIX_QUBIT_CAP,
    PauliString,
    PauliWidthError,
    apply_pauli,
    dense_sum,
    multiply,
    star,
    to_matrix,
)
from specwalk.walk_core import Branch, build_walk, encoded_dense

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


def test_apply_pauli_acts_on_each_block_of_a_stack():
    """A stack of system blocks, such as the (keys, 2**n) view of a compact
    row, takes the word on every block, as a register whose system is the
    low qubits does."""
    rng = np.random.default_rng(6)
    blocks = rng.normal(size=(5, 2, 8)) + 1j * rng.normal(size=(5, 2, 8))
    for p in map(P, ("XYZ", "-iZIY", "IIX")):
        got = apply_pauli(blocks, p)
        assert got.shape == blocks.shape
        for key in np.ndindex(blocks.shape[:-1]):
            assert np.array_equal(got[key], apply_pauli(blocks[key], p))
        assert np.allclose(got, blocks @ to_matrix(p).T, atol=1e-12)
    with pytest.raises(PauliWidthError):
        apply_pauli(np.ones((3, 4), dtype=complex), P("XYZ"))


def test_phase_validation():
    s = PauliString(2, 1, 2, 7)  # phase exponent normalizes mod 4
    assert s.phase_exp == 3
    with pytest.raises(PauliWidthError):
        PauliString(1, 2, 0)


def _per_term(n, pairs):
    """sum_j c_j P_j with one whole matrix per term, added in order."""
    ref = np.zeros((1 << n, 1 << n), dtype=complex)
    for c, p in pairs:
        ref += c * to_matrix(p)
    return ref


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_dense_sums_equal_a_per_term_sum_bit_for_bit(suite_models, odd_y_model):
    models = dict(suite_models, odd_y=odd_y_model)
    for name, h in models.items():
        r = normalize(h, "auto")
        for source in (h, r):
            pairs = source.terms if source is h else source.weights
            assert _same_bits(dense_matrix(source), _per_term(h.n_qubits, pairs))
        encodings = ("binary", "unary") + (("hybrid",) if name == "long_range4" else ())
        for encoding in encodings:
            bundle = build_walk(r, encoding)
            pairs = [(b.amplitude**2, b.word) for b in bundle.branches]
            got = encoded_dense(bundle.branches, bundle.n_system)
            assert _same_bits(got, _per_term(bundle.n_system, pairs)), (name, encoding)


def test_dense_sum_refuses_a_word_of_another_width():
    with pytest.raises(PauliWidthError, match="2-qubit word in a 3-qubit sum"):
        dense_sum(3, [(1.0, P("XZ"))])


def test_encoded_dense_builds_no_per_term_matrix():
    # binary TFIM n=10: the output is 16 MiB and 20 words are added into it;
    # a whole matrix per term would take the peak to twice the output
    bundle = build_walk(normalize(tfim(10, 1.0, 1.0), "auto"), "binary")
    tracemalloc.start()
    try:
        out = encoded_dense(bundle.branches, bundle.n_system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 16 * 2**20
    assert peak <= 1.25 * out.nbytes
