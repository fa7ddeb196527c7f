"""Walk-based spectral measurement of Pauli-sum Hamiltonians, simulated
exactly at small scale, with fault-tolerant gate accounting.

Importing the package sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set, so it must come before the first import of numpy, as it does
in both CLI entry points.  The gate kernels are plain numpy and the
diagonalizations small, so a pool of BLAS threads mostly spins idle; and
LAPACK's results can depend on the thread count.  CLI bytes are identical
for a given ``OPENBLAS_NUM_THREADS``, so with the default of one thread
they do not depend on the host.  At eigh-bound sizes, threads save wall
time: on a 2-vCPU host, binary TFIM n=11 ``spectrum`` took 27-29 s with
one thread and 20-22 s with two, and analysis Zeno binary n=9 5.5-6.3 s
and 4.3-4.6 s.  Set ``OPENBLAS_NUM_THREADS`` to use them.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .blocks import BOUNDARY_EPS, InvariantBlock, invariant_blocks, walk_eigenphases
from .census import GateCensus
from .circuits import Circuit, Gate, RegisterLayout, distinct_rotation_count
from .hamiltonian import (
    GroupedLcu,
    InterpolatedModel,
    LcuHamiltonian,
    RescaledLcu,
    dense_matrix,
    eigensystem,
    group,
    interpolate,
    long_range_ising,
    normalize,
    product_state,
    read_hamiltonian,
    tfim,
    write_hamiltonian,
)
from .measurement import (
    MeasurementRecord,
    ZenoTrace,
    estimate_energy,
    gamma,
    pe_step,
    project_to_eigenstate,
    recover_expectation,
    uniform_schedule,
    verify_observable_recovery,
    zeno_prepare,
)
from .pauli import PauliString, apply_pauli, multiply, star, to_matrix
from .resources import CostModel, CostQuery, encoding_table, taylor_cost, trotter_cost, walk_cost
from .simulator import QuantumState, circuit_unitary, make_rng
from .walk_binary import binary_walk
from .walk_core import Branch, WalkBundle, encoded_dense
from .walk_unary import hybrid_long_range_walk, unary_walk

__version__ = "0.1.0"
