"""The spectral check has teeth: `walk_eigenphases` fails a broken walk.

Each encoding's walk is mutated in two ways.  Without its sign, the Pauli
word -I after select, the circuit is -W: every invariant plane survives,
but every eigenphase moves by pi, so the phase match must fail.  Without
one select gate the circuit no longer preserves the planes, so the closure
must fail.
"""
import dataclasses

import pytest

from specwalk import long_range_ising, normalize
from specwalk.blocks import walk_eigenphases
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
