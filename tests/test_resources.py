import math

import numpy as np
import pytest

from specwalk import (
    CostModel,
    CostQuery,
    GateCensus,
    encoding_table,
    long_range_ising,
    taylor_cost,
    tfim,
    trotter_cost,
    walk_cost,
)

UNIT = CostModel(distill_fn=lambda d: 1.0, synth_fn=lambda d: 1.0)


def q(**kw):
    base = dict(
        n=4, n_terms=7, k_distinct=2, normalization=6.0, gap=0.5, delta=1e-3
    )
    base.update(kw)
    return CostQuery(**base)


def test_walk_cost_trivial_census():
    report = walk_cost(q(), UNIT, GateCensus())
    assert report["per_call_measured"] == 0
    assert report["total_measured"] == 0


def test_walk_cost_closed_form_hand_value():
    # K=2, N=7, unit costs: per call 2*1*1 + 7*1 = 9
    report = walk_cost(q(n_terms=7, k_distinct=2), UNIT)
    assert report["per_call_estimate"] == 9
    # repetitions: ceil(norm * t), t = 1/gap: ceil(6 * 2) = 12
    assert report["repetitions"] == 12
    assert report["total_estimate"] == 108


def test_walk_cost_hand_value_with_census_and_costs():
    model = CostModel(distill_fn=lambda d: 2.0, synth_fn=lambda d: 3.0)
    census = GateCensus(rotations=4, toffoli=10)
    report = walk_cost(q(), model, census)
    assert report["per_call_measured"] == 4 * 2 * 3 + 10 * 2  # 44
    assert report["total_measured"] == 12 * 44


def test_trotter_hand_values():
    query = q(n=16, gap=0.1, normalization=20.0)
    report = trotter_cost(query, UNIT, "lattice")
    assert report["steps"] == pytest.approx(400.0)
    assert report["rotations_total"] == pytest.approx(6400.0)
    assert report["total_estimate"] == pytest.approx(6400.0)
    # gap halved: lattice total x4
    report2 = trotter_cost(q(n=16, gap=0.05, normalization=20.0), UNIT, "lattice")
    assert report2["total_estimate"] == pytest.approx(4 * 6400.0)
    # chemistry n doubled: x 2**9
    c1 = trotter_cost(q(n=2, gap=1.0, normalization=20.0), UNIT, "chemistry")
    c2 = trotter_cost(q(n=4, gap=1.0, normalization=20.0), UNIT, "chemistry")
    assert c2["total_estimate"] == pytest.approx(2**9 * c1["total_estimate"])
    assert c1["c_c_interpreted_as"] == "c_s"


def test_taylor_hand_values():
    query = q(gap=0.5, normalization=8.0)
    report = taylor_cost(query, UNIT)
    assert report["segments"] == 16
    assert report["order"] == math.ceil(math.log(8.0 / 0.25))  # ceil(ln 32) = 4
    assert report["savings_ratio"] == 64
    assert report["total_estimate"] == 64 * report["per_walk_call"]
    # boundary: norm equals the gap resolves in one segment
    edge = taylor_cost(q(gap=0.5, normalization=0.5), UNIT)
    assert edge["segments"] == 1


def test_taylor_rejects_gap_above_norm():
    with pytest.raises(ValueError):
        CostQuery(n=2, n_terms=2, k_distinct=1, normalization=1.0, gap=2.0, delta=1e-3)


def test_default_cost_model_logs():
    model = CostModel()
    assert model.c_d(math.exp(-1)) == pytest.approx(1.0)
    assert model.c_s(math.exp(-2)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        model.c_d(2.0)


def test_cost_monotonicity_sweep():
    rng = np.random.default_rng(42)
    model = CostModel()
    for _ in range(100):
        base = dict(
            n=int(rng.integers(2, 40)),
            n_terms=int(rng.integers(2, 200)),
            k_distinct=int(rng.integers(1, 20)),
            normalization=float(rng.uniform(1, 50)),
            gap=float(rng.uniform(0.01, 0.5)),
            delta=float(rng.uniform(1e-6, 0.1)),
        )
        total = walk_cost(CostQuery(**base), model)["total_estimate"]

        def bumped(**change):
            upd = dict(base)
            upd.update(change)
            return walk_cost(CostQuery(**upd), model)["total_estimate"]

        assert bumped(n_terms=base["n_terms"] + 5) >= total
        assert bumped(k_distinct=base["k_distinct"] + 2) >= total
        assert bumped(normalization=base["normalization"] * 1.5) >= total
        assert bumped(gap=base["gap"] * 1.5) <= total  # larger gap, cheaper
        assert bumped(delta=min(0.5, base["delta"] * 4)) <= total
        longer = CostQuery(**base, time_constant=2.0)
        assert longer.evolution_time == 2 * CostQuery(**base).evolution_time
        assert walk_cost(longer, model)["total_estimate"] >= total


def test_walk_vs_taylor_census_agreement():
    # measured census cost sits within a factor 4 of the closed form
    from specwalk import binary_walk, group, normalize, unary_walk

    r = normalize(tfim(4, 1.0, 0.7))
    g = group(r)
    bundle = unary_walk(g, r)
    census = bundle.controlled_walk.census
    query = CostQuery(
        n=4,
        n_terms=r.n_select_terms,
        k_distinct=g.k_distinct,
        normalization=r.normalization,
        gap=0.2,
        delta=1e-3,
    )
    report = walk_cost(query, CostModel(), census)
    ratio = report["per_call_measured"] / report["per_call_estimate"]
    assert ratio <= 4.0


def test_encoding_table_tfim4():
    rows = encoding_table(tfim(4, 1.0, 0.7))
    by = {r["encoding"]: r for r in rows}
    assert "hybrid" not in by  # the field terms are not ZZ pairs
    assert by["binary"]["control_qubits"] == 3
    assert by["unary"]["control_qubits"] == 8
    assert by["unary"]["rotations"] == 2  # K distinct synthesis parameters
    assert by["unary"]["rotation_gates"] == 4
    assert by["binary"]["rotations"] >= 4
    assert by["unary"]["rotations"] < by["binary"]["rotations"]
    assert by["unary"]["control_qubits"] > by["binary"]["control_qubits"]


def test_encoding_table_hybrid_long_range():
    rows = encoding_table(long_range_ising(4, 1.0, 2.0))
    by = {r["encoding"]: r for r in rows}
    assert list(by) == ["binary", "unary", "hybrid"]
    assert by["hybrid"]["rotations"] <= by["unary"]["rotations"]
    assert by["hybrid"]["control_qubits"] < by["unary"]["control_qubits"]


@pytest.mark.parametrize("n", [8, 16, 32, 128])
def test_tfim_rotations_at_resources_sizes(n):
    # the paper's second claim, on circuits far wider than any simulated
    # one: unary prepares the chain with K = 2 rotation parameters at every
    # size, binary takes N = 2n - 1 rotations in B and as many in B'
    by = {r["encoding"]: r for r in encoding_table(tfim(n, 1.0, 0.7))}
    assert (by["unary"]["rotations"], by["unary"]["rotation_gates"]) == (2, 4)
    assert by["binary"]["rotation_gates"] == 4 * n - 2


@pytest.mark.parametrize("n", [8, 16, 32])
def test_long_range_rotations_at_resources_sizes(n):
    # n - 1 distinct coupling strengths, one rotation parameter each
    by = {r["encoding"]: r for r in encoding_table(long_range_ising(n, 1.0, 2.0))}
    assert by["unary"]["rotations"] == by["hybrid"]["rotations"] == n - 1


def test_encoding_table_single_term_degenerates():
    from specwalk import LcuHamiltonian, PauliString

    h = LcuHamiltonian.from_terms(
        2, [(0.0, PauliString.identity(2)), (1.0, PauliString.from_label("ZZ"))]
    )
    rows = encoding_table(h)
    by = {r["encoding"]: r for r in rows}
    assert by["binary"]["control_qubits"] == 1
    assert by["unary"]["control_qubits"] == 1


def test_unary_third_level_bounds(suite_models):
    from specwalk import binary_walk, group, normalize, unary_walk

    for h in suite_models.values():
        r = normalize(h)
        g = group(r)
        bundle = unary_walk(g, r)
        third = bundle.walk.census.third_level_total
        n = r.n_select_terms
        assert n - g.k_distinct <= third <= 4 * n
