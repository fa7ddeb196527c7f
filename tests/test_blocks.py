"""The spectral check has teeth: `walk_eigenphases` fails a broken walk.

Each encoding's walk is mutated in two ways.  Without its sign, the Pauli
word -I after select, the circuit is -W: every invariant plane survives,
but every eigenphase moves by pi, so the phase match must fail.  Without
one select gate the circuit no longer preserves the planes, so the closure
must fail.

The planes are float64 exactly when the encoded operator and the walk are
real; a word with an odd number of Ys keeps them complex.
"""
import dataclasses

import numpy as np
import pytest

from specwalk import LcuHamiltonian, PauliString, long_range_ising, normalize, tfim
from specwalk.blocks import invariant_blocks, walk_eigenphases
from specwalk.circuits import PAULI, Circuit
from specwalk.walk_core import build_walk

ROUNDOFF = 1e-9
FAILED = 1e-6


@pytest.fixture(scope="module", params=["binary", "unary", "hybrid"])
def bundle(request):
    # four sites: the hybrid encoding needs a power-of-two number of them
    return build_walk(normalize(long_range_ising(4, 1.0, 2.0)), request.param, with_pe=False)


def with_walk(bundle, gates):
    return dataclasses.replace(bundle, walk=Circuit(bundle.layout, list(gates)))


def test_a_walk_without_its_global_phase_fails_the_phase_match(bundle):
    gates = bundle.walk.gates
    sign = len(bundle.select)
    assert gates[sign].kind == PAULI and gates[sign].pauli.label() == "-I"
    report = walk_eigenphases(with_walk(bundle, gates[:sign] + gates[sign + 1:]))
    assert report.closure_error < ROUNDOFF
    assert report.max_error > FAILED


def test_a_walk_missing_a_select_gate_fails_the_closure(bundle):
    gates = bundle.walk.gates
    assert gates[0] is bundle.select.gates[0]
    report = walk_eigenphases(with_walk(bundle, gates[1:]))
    assert report.closure_error > FAILED


@pytest.mark.parametrize("encoding", ["binary", "unary"])
@pytest.mark.parametrize("model", [tfim(4, 0.7, 1.3, "periodic"), long_range_ising(4, 1.0, 2.0)])
def test_real_models_run_real_planes(model, encoding):
    bundle = build_walk(normalize(model), encoding, with_pe=True)
    assert {block.plane.dtype for block in invariant_blocks(bundle)} == {np.dtype(np.float64)}
    report = walk_eigenphases(bundle)
    assert report.max_error < ROUNDOFF and report.closure_error < ROUNDOFF


@pytest.mark.parametrize("encoding", ["binary", "unary"])
def test_an_odd_y_word_keeps_complex_planes(encoding):
    labels = [("II", 0.1), ("XY", 0.5), ("YX", -0.3), ("ZI", 0.7), ("IZ", 0.2)]
    model = LcuHamiltonian.from_terms(
        2, [(c, PauliString.from_label(label)) for label, c in labels]
    )
    bundle = build_walk(normalize(model), encoding, with_pe=True)
    assert not bundle.select.is_real
    assert {block.plane.dtype for block in invariant_blocks(bundle)} == {np.dtype(complex)}
    report = walk_eigenphases(bundle)
    assert report.max_error < ROUNDOFF and report.closure_error < ROUNDOFF
