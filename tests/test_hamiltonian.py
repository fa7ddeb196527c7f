import json

import numpy as np
import pytest

from specwalk import (
    InterpolatedModel,
    LcuHamiltonian,
    PauliString,
    dense_matrix,
    eigensystem,
    group,
    interpolate,
    long_range_ising,
    normalize,
    tfim,
)
from specwalk.hamiltonian import HamiltonianFileError, read_hamiltonian, write_hamiltonian

from conftest import dense_oracle

# dense diagonalization oracle values, computed from the kron construction
TFIM4_GROUND = -4.758770483143631


def test_normalize_equal_weights():
    h = LcuHamiltonian.from_terms(
        1, [(1.0, PauliString.identity(1)), (1.0, PauliString.from_label("Z"))]
    )
    r = normalize(h, "none")
    assert r.normalization == 2.0
    assert [w for w, _ in r.weights] == [0.5, 0.5]
    assert all(p.phase == 1 for _, p in r.weights)


def test_normalize_sign_absorption():
    h = LcuHamiltonian.from_terms(
        1, [(1.0, PauliString.identity(1)), (-1.0, PauliString.from_label("Z"))]
    )
    r = normalize(h, "none")
    assert [w for w, _ in r.weights] == [0.5, 0.5]
    assert r.weights[1][1].label() == "-Z"


def test_normalize_auto_shift_tfim2():
    r = normalize(tfim(2, 1, 1), "auto")
    assert r.shift_added == 3.0
    assert r.normalization == 6.0
    vals = np.linalg.eigvalsh(dense_oracle(r))
    assert vals[0] >= -1e-12
    assert vals[-1] <= 1.0 + 1e-12


def test_normalize_reproduces_shifted_matrix(suite_models):
    for h in suite_models.values():
        r = normalize(h)
        shifted = dense_oracle(h) + r.shift_added * np.eye(2**h.n_qubits)
        assert np.max(np.abs(r.normalization * dense_oracle(r) - shifted)) < 1e-10


def test_normalize_rejects_zero():
    h = LcuHamiltonian.from_terms(1, [(0.0, PauliString.identity(1))])
    with pytest.raises(ValueError):
        normalize(h)


def test_tfim_term_enumeration():
    h = tfim(2, 1, 1)
    labels = sorted(p.label() for _, p in h.terms[1:])
    assert labels == ["IX", "XI", "ZZ"]
    h3 = tfim(3, 0, 1, "periodic")
    assert len(h3.terms) - 1 == 3
    assert all(p.x_bits == 0 for _, p in h3.terms[1:])


def test_tfim_ground_energy_oracle():
    vals = np.linalg.eigvalsh(dense_oracle(tfim(4, 1, 1)))
    assert abs(vals[0] - TFIM4_GROUND) < 1e-10


def test_tfim_validation():
    with pytest.raises(ValueError):
        tfim(1, 1, 1)


def test_long_range_coefficients():
    h = long_range_ising(3, 1.0, 1.0)
    coeffs = sorted(c for c, _ in h.terms[1:])
    assert coeffs == [0.5, 1.0, 1.0]
    h4 = long_range_ising(4, 2.0, 2.0)
    by_label = {p.label(): c for c, p in h4.terms[1:]}
    assert by_label["ZIIZ"] == pytest.approx(2.0 / 9.0, abs=0)


def test_long_range_distinct_strengths():
    r = normalize(long_range_ising(4, 1.0, 2.0))
    assert group(r).k_distinct == 3  # distances 1, 2, 3 on an open chain


def test_long_range_validation():
    with pytest.raises(ValueError):
        long_range_ising(4, 1.0, 0.0)


def test_group_tfim4():
    # distinct field and coupling strengths: two groups, couplings padded 3 -> 4
    r = normalize(tfim(4, 1.0, 0.7))
    g = group(r)
    assert g.k_distinct == 2
    assert [(grp.n_real, grp.n_padded) for grp in g.groups] == [(4, 4), (3, 4)]
    total = g.beta0_sq + sum(grp.strength_sq * grp.n_padded for grp in g.groups)
    assert abs(total - 1.0) < 1e-12
    assert [grp.offset for grp in g.groups] == [1, 5]


def test_group_all_distinct():
    pairs = [(0.0, PauliString.identity(2))]
    pairs += [
        (0.3, PauliString.from_label("XI")),
        (0.5, PauliString.from_label("IX")),
        (0.9, PauliString.from_label("ZZ")),
    ]
    g = group(normalize(LcuHamiltonian.from_terms(2, pairs)))
    assert g.k_distinct == 3
    assert all(grp.n_real == 1 for grp in g.groups)


def test_group_tfim3_register_sizes():
    # distinct field/coupling strengths: registers pad to 4 + 2
    g = group(normalize(tfim(3, 1.0, 0.6)))
    assert [(grp.n_real, grp.n_padded) for grp in g.groups] == [(3, 4), (2, 2)]
    # equal strengths collapse to one padded register of 8
    g_uniform = group(normalize(tfim(3, 1.0, 1.0)))
    assert g_uniform.k_distinct == 1
    assert g_uniform.groups[0].n_padded == 8


def test_group_single_term():
    h = LcuHamiltonian.from_terms(
        2, [(0.0, PauliString.identity(2)), (1.0, PauliString.from_label("XX"))]
    )
    g = group(normalize(h))
    assert g.k_distinct == 1 and g.groups[0].n_padded == 1


def test_group_is_partition(suite_models):
    for h in suite_models.values():
        r = normalize(h)
        g = group(r)
        real = sorted(
            p.label() for grp in g.groups for p in grp.members if not p.is_identity
        )
        assert real == sorted(p.label() for _, p in r.weights[1:])


def test_group_padding_needs_identity_budget():
    # three equal strengths, no identity weight: padding cannot be absorbed
    h = LcuHamiltonian.from_terms(
        2,
        [
            (1.0, PauliString.from_label("XI")),
            (1.0, PauliString.from_label("IX")),
            (1.0, PauliString.from_label("ZZ")),
        ],
    )
    with pytest.raises(ValueError):
        group(normalize(h, "none"))


def test_interpolate_endpoints_and_cancellation():
    z = PauliString.from_label("Z")
    h0 = LcuHamiltonian.from_terms(1, [(1.0, z)])
    v = LcuHamiltonian.from_terms(1, [(-1.0, z)])
    model = InterpolatedModel(h0, v)
    assert interpolate(model, 0.0).terms == h0.terms
    merged = interpolate(model, 1.0)
    assert merged.n_select_terms == 0  # identity only


def test_interpolate_affine_exact():
    rng = np.random.default_rng(7)
    h0 = tfim(3, float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2)))
    v = tfim(3, float(rng.uniform(0.2, 2)), float(rng.uniform(0.2, 2)))
    model = InterpolatedModel(h0, v)
    c0 = {p.label(): c for c, p in interpolate(model, 0.0).terms}
    c1 = {p.label(): c for c, p in interpolate(model, 1.0).terms}
    ch = {p.label(): c for c, p in interpolate(model, 0.5).terms}
    for label, c in ch.items():
        assert c == (c0[label] + c1[label]) / 2.0  # exact float equality


def test_interpolate_domain():
    model = InterpolatedModel(tfim(2, 1, 1), tfim(2, 0, 1))
    with pytest.raises(ValueError):
        interpolate(model, 1.5)


def test_dense_matrix_and_eigensystem(suite_models):
    h = suite_models["tfim3"]
    assert np.max(np.abs(dense_matrix(h) - dense_oracle(h))) < 1e-12
    vals, vecs = eigensystem(h)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) < 1e-10


def test_eigensystem_char_poly_cross_check():
    # second independent solver path: Faddeev-LeVerrier characteristic
    # polynomial coefficients, then polynomial roots
    h = tfim(3, 1, 1)
    a = dense_oracle(h).real
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, a.shape[0] + 1):
        m = a @ m + coeffs[-1] * np.eye(a.shape[0])
        coeffs.append(-(a @ m).trace() / k)
    roots = np.sort(np.roots(coeffs).real)
    vals, _ = eigensystem(h)
    assert np.max(np.abs(roots - vals)) < 1e-9


def test_hamiltonian_file_round_trip(tmp_path):
    h = tfim(3, 0.8, -1.1)
    path = tmp_path / "model.json"
    write_hamiltonian(h, str(path))
    back = read_hamiltonian(str(path))
    assert back.n_qubits == h.n_qubits
    assert {p.label(): c for c, p in back.terms} == {p.label(): c for c, p in h.terms}
    # writer emits sorted terms
    rows = json.loads(path.read_text())["terms"]
    assert rows == sorted(rows, key=lambda r: r["pauli"])


def test_hamiltonian_file_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n_qubits": 2,\n  "terms": [}\n')
    with pytest.raises(HamiltonianFileError) as err:
        read_hamiltonian(str(path))
    assert "broken.json:2" in str(err.value)


def test_identity_coefficient_must_be_nonnegative():
    with pytest.raises(ValueError):
        LcuHamiltonian.from_terms(1, [(-0.5, PauliString.identity(1))])


def test_hamiltonian_file_unreadable(tmp_path):
    with pytest.raises(HamiltonianFileError) as err:
        read_hamiltonian(str(tmp_path / "absent.json"))
    assert "absent.json" in str(err.value)


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"n_qubits": 2, "terms": [{"pauli": 5, "coeff": 1.0}]}', "pauli must be a string"),
        ('{"n_qubits": 2.7, "terms": [{"pauli": "ZZ", "coeff": 1.0}]}', "n_qubits must be"),
        ('{"n_qubits": "2", "terms": [{"pauli": "ZZ", "coeff": 1.0}]}', "n_qubits must be"),
        ('{"n_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": true}]}', "coeff must be a number"),
        ('{"n_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": "1.5"}]}', "coeff must be a number"),
        ('{"n_qubits": 2, "terms": [{"pauli": "ZZ", "coeff": 1%s}]}' % ("0" * 400),
         "too large to convert"),
    ],
    ids=["int-label", "float-width", "string-width", "bool-coeff", "string-coeff", "huge-coeff"],
)
def test_hamiltonian_file_values_keep_their_json_types(tmp_path, text, named):
    path = tmp_path / "typed.json"
    path.write_text(text)
    with pytest.raises(HamiltonianFileError) as err:
        read_hamiltonian(str(path))
    assert named in str(err.value)
