"""Phase-estimation statistics, eigenstate projection, sequential-measurement
ground-state preparation, and observable recovery from walk eigenstates.

One ancilla drives the estimation: prepared |+>, a controlled walk, then an
X-basis measurement whose outcome probabilities are (1 +- E_k)/2 on a walk
eigenstate.  Projection back to a bare eigenstate measures whether the
unprepared control register is in vacuum.  Analysis-mode routines compute
exact probabilities and posteriors and follow a branch by projecting onto
walk-eigenbasis rows (`_project`); projection, Zeno and observable
recovery do so on compact rows of the planes' subspace, never on a vector
of the whole register.  Sample-mode routines re-measure instead, with
`QuantumState.measure`, and consume an explicit seeded generator.  Every
analysis routine streams the blocks of `invariant_blocks` and none holds
the whole invariant subspace: Zeno builds only the ground planes and the
first plane above them, the eigenspace projection streams twice (it weighs
every eigenspace, then rebuilds the one taken), and observable recovery
reads each block once.
`estimate_energy` runs blocks of exact rounds, each round with one draw; a
block's first round is its eigenstate probe, and the eigenstate batch is a
branch of the block's round loop.  Sampled Zeno keeps only the state the
last block leaves, so it runs that block alone, through the same loop, with
the generator advanced past the draws of the blocks it skips.
Energies are always the rescaled ones in [-1, 1]; containers carry the
normalization and shift needed to map back to the physical scale.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blocks import BOUNDARY_EPS, invariant_blocks, plane_subspace
from .circuits import Gate
from .hamiltonian import (
    InterpolatedModel,
    RescaledLcu,
    dense_matrix,
    eigensystem,
    interpolate,
    normalize,
)
from .pauli import PauliString, apply_pauli, star
from .simulator import QuantumState, _norm, apply_in_subspace, make_rng
from .walk_core import WalkBundle, build_walk, dressed_state


class BoundaryEnergyError(ValueError):
    """The eigenvalue sits at +-1, where the recovery formula degenerates."""


class UnrecoverableExpectationError(ValueError):
    """The recovery scale factor vanishes; this observable cannot be
    extracted from walk eigenstates at this energy."""


class ProjectionFailedError(RuntimeError):
    """A sampled projection missed the vacuum in every allowed round."""


# --- single estimation steps -------------------------------------------------


def pe_step(state: QuantumState, controlled_walk, mode: str = "analyze", rng=None):
    """One estimation round: H on the pe qubit, the controlled walk, H again,
    then a computational measurement of the pe qubit (0 = '+').

    Returns (p_plus, posterior_plus, posterior_minus) in analyze mode and
    (outcome +-1, probability, posterior) in sample mode.  Posteriors have
    the pe qubit reset to |0> so steps compose.
    """
    _check_mode(mode)
    layout = state.layout
    if not layout.has_pe_qubit:
        raise ValueError("state layout has no phase-estimation qubit")
    pe = layout.pe_qubit
    work = state.copy()
    work.apply(Gate.h(pe))
    work.apply_circuit(controlled_walk)
    work.apply(Gate.h(pe))
    p_minus, post_minus, post_plus = work.measure({pe: 1})
    p_plus = 1.0 - p_minus
    if post_minus is not None:
        post_minus.apply(Gate.pauli_word(PauliString.single(1, 0, "X"), (pe,)))
    if mode == "analyze":
        return p_plus, post_plus, post_minus
    if make_rng(rng).random() < p_plus:
        return 1, p_plus, post_plus
    return -1, 1.0 - p_plus, post_minus


def _check_mode(mode: str) -> None:
    if mode not in ("analyze", "sample"):
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class MeasurementRecord:
    outcomes: tuple[int, ...]
    estimate: float
    half_width: float
    shots: int
    seed: int
    non_eigenstate: bool = False


ESTIMATE_BLOCKS = 10
ZENO_MAX_ROUNDS = 40
GROUND_TOL = 1e-12  # energies within this of the lowest share the ground branch
ROUND_OFF = 1e-12  # a branch that weighs less is floating-point noise


def estimate_energy(
    state: QuantumState, controlled_walk, shots: int, seed: int
) -> MeasurementRecord:
    """Repeated sampled estimation rounds on a refreshed ancilla.

    The shots are split into up to ESTIMATE_BLOCKS blocks; each block starts
    from a fresh copy of the input state and carries the measurement
    posterior within the block (re-preparation per block is how a
    finite-coherence run behaves).  Every round is an analysis-mode `pe_step`
    and one draw from the generator, which picks the posterior the state
    moves to.  A block's first round is also its eigenstate probe: if both
    posteriors stay on the input ray, the rounds are i.i.d., and a branch of
    the loop draws the whole block in one batch, which consumes the generator
    stream exactly as one draw per round would.  The estimate is
    2*(fraction of '+') - 1 with a fixed z=2 binomial half-width.  Off a walk
    eigenstate each block collapses toward a random eigenstate, the long-run
    estimate converges to the mixture mean, and the excess variance of the
    block means (threshold: four times the binomial expectation) raises the
    non_eigenstate flag.
    `state` is left in the final block's posterior, the state that sampled
    `zeno_prepare` carries forward; it runs that block alone (`_final_block`).
    """
    bounds = _block_bounds(shots)
    rng = make_rng(seed)
    initial = state.vec.copy()
    blocks = [
        _estimation_block(state, initial, controlled_walk, end - start, rng)
        for start, end in zip(bounds, bounds[1:])
    ]
    outcomes = [o for block in blocks for o in block]
    block_means = [sum(1 for o in block if o > 0) / len(block) for block in blocks]
    plus = sum(1 for o in outcomes if o > 0)
    p_hat = plus / shots
    estimate = 2.0 * p_hat - 1.0
    half_width = 2 * 2.0 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)
    return MeasurementRecord(
        tuple(outcomes),
        estimate,
        half_width,
        shots,
        seed,
        non_eigenstate=_drifting(block_means, p_hat, shots),
    )


def _block_bounds(shots: int) -> list[int]:
    """First shot of each estimation block, then the shot count: up to
    ESTIMATE_BLOCKS blocks of at least two shots, as even as rounding allows."""
    if shots < 1:
        raise ValueError("need at least one shot")
    n_blocks = max(1, min(ESTIMATE_BLOCKS, shots // 2))
    return [round(i * shots / n_blocks) for i in range(n_blocks + 1)]


def _estimation_block(state: QuantumState, initial, controlled_walk, size: int, rng) -> list[int]:
    """The outcomes of one block of `size` rounds started from `initial`;
    `state` is left in the block's last posterior.  Every round takes exactly
    one double from `rng`, the batch branch included."""
    state.vec[:] = initial
    block: list[int] = []
    while len(block) < size:
        p_plus, post_plus, post_minus = pe_step(state, controlled_walk)
        if not block and _fixed_point(initial, post_plus, post_minus):
            block = [1 if u < p_plus else -1 for u in rng.random(size)]
        else:
            block.append(1 if rng.random() < p_plus else -1)
        state.vec[:] = (post_plus if block[-1] > 0 else post_minus).vec
    return block


def _final_block(state: QuantumState, controlled_walk, shots: int, seed: int) -> list[int]:
    """The last block of `estimate_energy` with the same arguments, run alone:
    the generator skips the draws of the blocks before it (one double per
    round), so the outcomes and the state it leaves are bit for bit those of
    the full run."""
    bounds = _block_bounds(shots)
    rng = make_rng(seed)
    rng.random(bounds[-2])
    return _estimation_block(state, state.vec.copy(), controlled_walk, shots - bounds[-2], rng)


def _fixed_point(vec, *posteriors) -> bool:
    """Every posterior (None: a branch of zero weight) lies on the ray of `vec`."""
    return all(p is None or abs(abs(np.vdot(vec, p.vec)) - 1.0) < 1e-12 for p in posteriors)


def _drifting(block_means, p_hat, shots) -> bool:
    if len(block_means) < 2:
        return False
    size = shots / len(block_means)
    expected = p_hat * (1.0 - p_hat) / size
    if expected == 0.0:
        return bool(np.var(block_means) > 0.0)
    return bool(np.var(block_means) > 4.0 * expected)


# --- deterministic projection -----------------------------------------------


@dataclass
class ProjectionResult:
    system_state: np.ndarray | None
    rounds: int
    success: bool
    round_probs: tuple[float, ...]
    cumulative_success: tuple[float, ...]


def _projection_result(system_state, round_probs) -> ProjectionResult:
    """After L rounds of success weights p_l, success has weight 1 - prod (1 - p_l)."""
    cumulative = 1.0 - np.cumprod([1.0 - p for p in round_probs])
    return ProjectionResult(system_state, len(round_probs), system_state is not None,
                            tuple(round_probs), tuple(cumulative.tolist()))


def _project(state_vec, pairs) -> tuple[float, np.ndarray]:
    """Weight and unnormalized sum_k v_k <u_k|state_vec> over pairs (v_k,
    u_k) of compact rows: with u_k = v_k the projection of `state_vec` on
    the span of the orthonormal v_k, with u_k = U^-1 v_k, by unitarity,
    that of U `state_vec`.  It is complex, whatever the dtypes: a walk
    eigenvector phi0 +- i phi1 is complex even when its plane is real."""
    proj = np.zeros(state_vec.shape, dtype=np.result_type(state_vec, complex))
    for v, u in pairs:
        proj += v * np.vdot(u, state_vec)
    return float(np.vdot(proj, proj).real), proj


def _walk_eigenvectors(block) -> np.ndarray:
    """The block's walk eigenvectors as compact rows, paired with its
    `eigenphases`: (phi0 +- i phi1)/sqrt(2), or phi0 on the boundary."""
    if block.is_boundary:
        return block.rows
    phi0, phi1 = block.rows
    return np.stack((phi0 + 1j * phi1, phi0 - 1j * phi1)) / math.sqrt(2)


def _eigenvectors(bundle: WalkBundle):
    """(phase, (v, prepare_dagger v)) for each walk eigenvector v, as
    compact rows, streamed block by block."""
    for b in invariant_blocks(bundle):
        vecs = _walk_eigenvectors(b)
        unprepared = apply_in_subspace(bundle.prepare_dagger, vecs.astype(complex), b.space)
        yield from zip(b.eigenphases(), zip(vecs, unprepared))


def _eigenspace_projection(failure, bundle: WalkBundle) -> np.ndarray:
    """Re-prepare the compact row `failure` and measure it projectively in
    the walk eigenspaces (phases grouped within BOUNDARY_EPS); the most
    probable branch is taken.  The branch is sum_k v_k <prepare_dagger
    v_k|failure> over its eigenvectors v_k, prepare `failure` projected by
    unitarity, so no prepare pass runs.  The eigenbasis is streamed twice:
    once to weigh every eigenspace, once to rebuild the one taken."""
    phases: list[float] = []  # first phase of each eigenspace
    weights: list[float] = []  # weight of each eigenspace
    spaces: list[int] = []  # eigenspace of each eigenvector
    for phase, pair in _eigenvectors(bundle):
        for i, p0 in enumerate(phases):
            if abs(math.remainder(phase - p0, 2 * math.pi)) < BOUNDARY_EPS:
                break
        else:
            i = len(phases)
            phases.append(phase)
            weights.append(0.0)
        # _project's weight, so that a one-vector space weighs exactly what
        # its rebuilt branch does: after a failure the spaces of +theta and
        # -theta tie at 1/2, and round-off decides the tie
        weights[i] += _project(failure, (pair,))[0]
        spaces.append(i)
    total = sum(weights)
    if abs(total - 1.0) > 1e-8:
        raise AssertionError(f"state leaks out of the invariant subspace: {total}")
    i = int(np.argmax(weights))
    taken = (pair for space, (_, pair) in zip(spaces, _eigenvectors(bundle)) if space == i)
    p, proj = _project(failure, taken)
    return proj / math.sqrt(p)


def project_to_eigenstate(
    state: QuantumState, bundle: WalkBundle, max_rounds: int, mode: str = "analyze", rng=None
) -> ProjectionResult:
    """Strip the control register off a walk eigenstate.

    Each round applies the unprepare circuit and measures whether the control
    register returned to vacuum (probability exactly 1/2 on a two-dimensional
    walk eigenstate; 1 on a bare dressed eigenstate).  On failure the state
    is re-prepared and projectively re-measured in the walk eigenbasis, and
    the round repeats; the cumulative success probability after L rounds is
    1 - 2**-L, with L = `max_rounds`.

    Analysis mode follows the tree deterministically, re-measuring by
    projection onto the walk eigenbasis streamed from `invariant_blocks`,
    and reports exact round probabilities.  It reads the state once, at the
    reach of the bundle's planes, refuses one with weight elsewhere with
    ValueError, and runs every round on that compact row (`_project_row`).
    A branch that weighs less than ROUND_OFF is floating-point noise: a
    success branch that light is not taken, and a failure branch that
    light, as on a dressed eigenstate, ends the rounds.  Sample mode runs
    on the whole register: it re-measures with an estimation round, draws
    every branch from `rng` and never diagonalizes the walk.
    """
    _check_mode(mode)
    if mode == "analyze":
        return _project_row(state, bundle, max_rounds)
    rng = make_rng(rng)
    current, round_probs, system_state = state, [], None
    for _ in range(max_rounds):
        work = current.copy()
        work.apply_circuit(bundle.prepare_dagger)
        p, success_state, failure_state = work.measure(dict.fromkeys(bundle.layout.control, 0))
        round_probs.append(p)
        if rng.random() < p:
            system_state = success_state.extract_system()
            break
        if failure_state is None:
            break
        # re-prepare, re-measure with an estimation round, and retry
        failure_state.apply_circuit(bundle.prepare)
        current = pe_step(failure_state, bundle.controlled_walk, mode="sample", rng=rng)[2]
    return _projection_result(system_state, round_probs)


def _project_row(state: QuantumState, bundle: WalkBundle, max_rounds: int) -> ProjectionResult:
    """Analysis-mode `project_to_eigenstate` on a compact row of the plane
    subspace.  A round unprepares a copy of the row: the vacuum key's block
    weighs the success and, normalized, is the system state it returns;
    the rest, normalized, is the failure branch."""
    space = plane_subspace(bundle)
    row = np.zeros((1, len(space.reach) + 1), dtype=state.vec.dtype)
    np.take(state.vec, space.reach, out=row[0, :-1])
    if state.norm**2 - _norm(row) ** 2 > ROUND_OFF:
        raise ValueError("the state has weight off the basis states its planes reach")
    vacuum = space.positions(np.arange(1 << bundle.n_system))
    round_probs, system_state = [], None
    for rounds in range(1, max_rounds + 1):
        work = apply_in_subspace(bundle.prepare_dagger, row.copy(), space)[0]
        block = work[vacuum]
        p = _norm(block) ** 2
        round_probs.append(p)
        # a branch of round-off weight is noise: a success branch is not
        # taken, a failure branch ends the rounds, and no round reads the
        # last round's re-measurement
        if p >= ROUND_OFF and system_state is None:
            system_state = block / _norm(block)
        if 1.0 - p < ROUND_OFF or rounds == max_rounds:
            break
        work[vacuum] = 0.0
        row = _eigenspace_projection(work / math.sqrt(1.0 - p), bundle)[None]
    return _projection_result(system_state, round_probs)


# --- observable recovery ------------------------------------------------------


def gamma(sigma: PauliString, rescaled: RescaledLcu) -> float:
    """Weighted commutation sum  sum_j |beta_j|^2 (-1)**(sigma * P_j)."""
    total = 0.0
    for w, p in rescaled.weights:
        total += w * (-1.0 if star(sigma, p) else 1.0)
    return total


def recovery_scale(e_k: float, gamma_sigma: float) -> float:
    """(1 + (Gamma - E^2)/(1 - E^2)) / 2, the attenuation of a system
    observable measured on a two-dimensional walk eigenstate."""
    if abs(e_k) >= 1.0 - BOUNDARY_EPS:
        raise BoundaryEnergyError(f"eigenvalue {e_k} is at the spectral boundary")
    return 0.5 * (1.0 + (gamma_sigma - e_k * e_k) / (1.0 - e_k * e_k))


def recover_expectation(measured: float, e_k: float, gamma_sigma: float) -> float:
    """Invert the attenuation: the system-eigenstate expectation value."""
    scale = recovery_scale(e_k, gamma_sigma)
    if abs(scale) <= BOUNDARY_EPS:
        raise UnrecoverableExpectationError(
            f"recovery scale {scale} vanishes; observable not extractable"
        )
    return measured / scale


def _expectation(blocks: np.ndarray, sigma: PauliString) -> float:
    """<v|sigma|v> for the vector v of `blocks`, with sigma on its last
    axis: a system vector, or the (keys, 2**n_system) system blocks of a
    compact row, on each of which sigma acts alike."""
    if sigma.phase_exp % 2:
        raise ValueError(f"expectation of a non-Hermitian word: {sigma.label()}")
    return float(np.vdot(blocks, apply_pauli(blocks, sigma)).real)


def verify_observable_recovery(bundle: WalkBundle, sigmas) -> list[dict]:
    """For every (sigma, eigenstate, sign): compare the recovered expectation
    against the direct eigenvector expectation.

    Returns one record per case with status 'pass', 'fail', or
    'invalid-precondition' (boundary energy or vanishing scale), so coverage
    is total even where the formula does not apply.  Each walk eigenstate
    is a compact row of its block, and sigma acts on every key's system
    block of it (`_expectation`).
    """
    # one bucket of records per sigma, so the blocks stream once and the
    # records still come sigma-major
    cases = [(sigma, gamma(sigma, bundle.rescaled), []) for sigma in sigmas]
    for k, block in enumerate(invariant_blocks(bundle)):
        vecs = _walk_eigenvectors(block)
        for sigma, g, records in cases:
            direct = _expectation(block.system_vector, sigma)
            for sign, vec in zip("+-", vecs):
                rec = {
                    "sigma": sigma.label(),
                    "k": k,
                    "energy": block.energy,
                    "sign": sign,
                    "gamma": g,
                    "direct": direct,
                }
                if block.is_boundary:
                    rec.update(status="invalid-precondition", reason="boundary energy")
                    records.append(rec)
                    break  # one record per one-dimensional block
                measured = _expectation(vec[:-1].reshape(-1, 1 << bundle.n_system), sigma)
                rec["measured"] = measured
                try:
                    recovered = recover_expectation(measured, block.energy, g)
                except (BoundaryEnergyError, UnrecoverableExpectationError) as exc:
                    rec.update(status="invalid-precondition", reason=str(exc))
                    records.append(rec)
                    continue
                rec["recovered"] = recovered
                rec["error"] = abs(recovered - direct)
                rec["status"] = "pass" if rec["error"] <= 1e-9 else "fail"
                records.append(rec)
    return [rec for _, _, records in cases for rec in records]


# --- sequential-measurement preparation ---------------------------------------


@dataclass
class ZenoStep:
    g: float
    energy_rescaled: float
    energy: float
    ground_probability: float
    oracle_overlap: float
    success: bool


@dataclass
class ZenoTrace:
    schedule: tuple[float, ...]
    mode: str
    encoding: str
    seed: int | None
    steps: list[ZenoStep]
    success_probability: float
    final_fidelity: float


def uniform_schedule(steps: int) -> tuple[float, ...]:
    if steps < 1:
        raise ValueError("need at least one step")
    return tuple((j + 1) / steps for j in range(steps))


def _validate_schedule(schedule) -> tuple[float, ...]:
    sched = tuple(float(g) for g in schedule)
    if not sched or sched[-1] != 1.0:
        raise ValueError("schedule must end at g = 1")
    if any(b <= a for a, b in zip((0.0,) + sched, sched)):
        raise ValueError("schedule must increase strictly from 0 to 1")
    return sched


def zeno_prepare(
    model: InterpolatedModel,
    schedule,
    encoding: str = "binary",
    mode: str = "analyze",
    seed: int | None = None,
    shots: int = 200,
) -> ZenoTrace:
    """Drag the supplied g=0 ground state to g=1 by a sequence of energy
    measurements along the interpolation schedule.

    Each point starts from the dressed state B|0>|psi>, written from the
    branch table by `dressed_state`, not by a simulated prepare pass.
    Analysis mode: each measurement is the exact projective measurement onto
    the walk eigenspaces of H(g_j), the ground branch is followed, and the
    trace records exact branch probabilities, whose product telescopes into
    prod_j |<phi0(g_{j-1})|phi0(g_j)>|^2.  Only the ground planes, and the
    first plane above them, are built at each point, and the state is one
    of their compact rows, unprepared there by prepare_dagger; no vector
    of the whole register is built.  Sample mode:
    finite-shot estimation rounds followed by sampled projection (at most
    ZENO_MAX_ROUNDS rounds, else ProjectionFailedError), one trajectory.
    Only the state the estimation leaves is carried forward, so each point
    runs the last estimation block alone (`_final_block`), with the
    generator advanced past the draws of the blocks it skips; the state is
    bit for bit the one the full `estimate_energy` leaves.  It reads no
    invariant blocks;
    it builds and drops them only because the benchmark's sampled Zeno
    workload covers the blocks layer, until ROADMAP item 1 removes that.
    Ground fidelities are weights on the whole ground eigenspace of the
    dense oracle.
    """
    _check_mode(mode)
    if model.h0_ground is None:
        raise ValueError("the model must supply the g=0 ground state")
    schedule = _validate_schedule(schedule)
    sampling = mode == "sample"
    if sampling and seed is None:
        raise ValueError("sample mode requires a seed")
    rng = make_rng(seed) if sampling else None
    psi = model.h0_ground.astype(complex)
    psi = psi / np.linalg.norm(psi)
    _check_supplied_ground(model, psi)
    steps: list[ZenoStep] = []
    prev_ground = psi
    for g in schedule:
        h = interpolate(model, g)
        bundle = build_walk(normalize(h, "auto"), encoding)
        rescaled = bundle.rescaled
        matrix = dense_matrix(rescaled)
        oracle_vals, oracle_vecs = np.linalg.eigh(matrix)
        ground_vec = oracle_vecs[:, 0]
        overlap = float(abs(np.vdot(prev_ground, ground_vec)) ** 2)
        if sampling:
            state = QuantumState.zero_state(bundle.layout)
            dressed_state(bundle.branches, psi, state.vec)
            # Built and dropped: the benchmark's sampled Zeno workload covers
            # the blocks layer, and its tracer test checks that it does.
            for _ in invariant_blocks(bundle):
                pass
            _final_block(state, bundle.controlled_walk, shots, int(rng.integers(2**31)))
            projection = project_to_eigenstate(
                state, bundle, max_rounds=ZENO_MAX_ROUNDS, mode="sample", rng=rng
            )
            if not projection.success:
                raise ProjectionFailedError(
                    f"projection did not succeed within {ZENO_MAX_ROUNDS} rounds"
                )
            psi_next = projection.system_state
            ground_fid = _ground_weight(psi_next, oracle_vals, oracle_vecs)
            e_bar = float(np.vdot(psi_next, matrix @ psi_next).real)
            step_success = ground_fid > 0.5
            p_ground = ground_fid
        else:
            space = plane_subspace(bundle)
            row = np.empty(len(space.reach) + 1, dtype=complex)
            dressed_state(bundle.branches, psi, row, space.positions)
            p_ground, posterior, e_bar = _ground_branch(row, bundle)
            apply_in_subspace(bundle.prepare_dagger, posterior[None], space)
            psi_next = posterior[space.positions(np.arange(1 << bundle.n_system))]
            vacuum = np.linalg.norm(psi_next)
            if abs(vacuum**2 - 1.0) > 1e-9:
                raise AssertionError(
                    f"unprepared dressed eigenstate left the control register dirty: {vacuum**2}"
                )
            psi_next /= vacuum
            step_success = True
        e_phys = rescaled.normalization * e_bar - rescaled.shift_added
        steps.append(ZenoStep(g, e_bar, e_phys, p_ground, overlap, step_success))
        psi = psi_next
        prev_ground = ground_vec
    final_fidelity = _ground_weight(psi, *eigensystem(interpolate(model, 1.0)))
    success_probability = math.prod(s.ground_probability for s in steps)
    return ZenoTrace(schedule, mode, encoding, seed, steps, success_probability, final_fidelity)


def _check_supplied_ground(model: InterpolatedModel, psi: np.ndarray) -> None:
    matrix = dense_matrix(model.h0)
    vals = np.linalg.eigvalsh(matrix)
    energy = float(np.vdot(psi, matrix @ psi).real)
    if not (math.isfinite(energy) and np.isfinite(vals).all()):
        raise ValueError("the energy or spectrum of h0 overflows a float")
    scale = max(1.0, abs(vals[0]))
    if abs(energy - vals[0]) > 1e-9 * scale:
        raise ValueError("supplied state is not a ground state of h0")


def _ground_weight(psi: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> float:
    """Weight of `psi` on the ground eigenspace of the eigensystem (vals, vecs)."""
    ground = np.flatnonzero(vals <= vals[0] + GROUND_TOL)
    return float(sum(abs(np.vdot(psi, vecs[:, k])) ** 2 for k in ground))


def _ground_branch(state_vec, bundle: WalkBundle):
    """Probability and normalized posterior of the lowest-energy branch of an
    exact energy measurement (degenerate ground energies share the branch),
    and the ground energy.  The blocks stream in ascending energy, so the
    stream stops at the first block above the ground branch."""
    blocks = invariant_blocks(bundle)
    first = next(blocks)
    ground = itertools.takewhile(
        lambda b: b.energy <= first.energy + GROUND_TOL, itertools.chain((first,), blocks)
    )
    p, proj = _project(state_vec, ((vec, vec) for b in ground for vec in b.rows))
    if p <= 0.0:
        raise ValueError("the state has no weight on the ground branch")
    return p, proj / math.sqrt(p), first.energy
