"""Cost models and method comparisons under user-supplied distillation and
synthesis costs.

All formula evaluations set every asymptotic constant to 1 and are labeled
"estimate (constants = 1)" in reports.  Logarithms are natural throughout.
The per-step synthesis cost symbol of product-formula decompositions is
interpreted as the rotation-synthesis cost C_S (flagged in reports).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .census import GateCensus
from .circuits import distinct_rotation_count
from .hamiltonian import normalize
from .walk_core import WalkBundle, build_walk

ESTIMATE_NOTE = "estimate (constants = 1)"


@dataclass(frozen=True)
class CostModel:
    """C_D(delta): cost of one distilled third-level gate; C_S(delta): cost of
    synthesizing one generic rotation, in third-level gates.

    Defaults: C_D = a * log(1/delta)**b, C_S = c * log(1/delta) with
    a = b = c = 1.  Callables override the closed forms.
    """

    distill_a: float = 1.0
    distill_b: float = 1.0
    synth_c: float = 1.0
    distill_fn: Callable[[float], float] | None = None
    synth_fn: Callable[[float], float] | None = None

    def __post_init__(self):
        for name in ("distill_a", "synth_c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def c_d(self, delta: float) -> float:
        self._check(delta)
        if self.distill_fn is not None:
            return float(self.distill_fn(delta))
        return self.distill_a * math.log(1.0 / delta) ** self.distill_b

    def c_s(self, delta: float) -> float:
        self._check(delta)
        if self.synth_fn is not None:
            return float(self.synth_fn(delta))
        return self.synth_c * math.log(1.0 / delta)

    @staticmethod
    def _check(delta: float) -> None:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"per-gate accuracy must lie in (0, 1), got {delta}")


@dataclass(frozen=True)
class CostQuery:
    """Problem parameters for the comparison formulas.

    gap is the target energy resolution on the physical scale; delta the
    per-gate accuracy; the evolution time is time_constant / gap.  The
    normalization stands in for the operator norm.
    """

    n: int  # system size
    n_terms: int  # N, number of non-identity terms
    k_distinct: int  # K, number of distinct strengths
    normalization: float
    gap: float
    delta: float
    time_constant: float = 1.0

    def __post_init__(self):
        names = ("n", "n_terms", "k_distinct", "normalization", "gap", "delta", "time_constant")
        for name in names:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.normalization < self.gap:
            raise ValueError("the resolution target cannot exceed the operator norm")

    @property
    def evolution_time(self) -> float:
        return self.time_constant / self.gap


def _finite(cost):
    """`cost`, refusing a report with a term that overflows a float.  Python
    raises OverflowError or ZeroDivisionError for some overflows (a float
    power, the ceiling of inf, a quotient by an underflowed gap**2) and
    returns inf for others, so both are checked."""

    @functools.wraps(cost)
    def checked(query: CostQuery, *args) -> dict:
        try:
            report = cost(query, *args)
        except (OverflowError, ZeroDivisionError) as exc:
            detail = str(exc)
        else:
            detail = ", ".join(
                k for k, v in report.items() if isinstance(v, float) and not math.isfinite(v)
            )
            if not detail:
                return report
        raise ValueError(f"{cost.__name__} at gap {query.gap} overflows a float: {detail}")

    return checked


@_finite
def walk_cost(query: CostQuery, model: CostModel, census: GateCensus | None = None) -> dict:
    """Repetition count and per-call cost of the walk-based measurement.

    The closed form K*C_D*C_S + N*C_D is always reported; a measured census
    adds the rotation-instance and third-level totals (the instance count
    carries both prepare blocks, so it sits within a small constant factor
    of the closed form).
    """
    cd = model.c_d(query.delta)
    cs = model.c_s(query.delta)
    t = query.evolution_time
    repetitions = math.ceil(query.normalization * t)
    per_call_estimate = query.k_distinct * cd * cs + query.n_terms * cd
    report = {
        "method": "walk",
        "kind": "estimate",
        "note": ESTIMATE_NOTE,
        "repetitions": repetitions,
        "evolution_time": t,
        "c_d": cd,
        "c_s": cs,
        "per_call_estimate": per_call_estimate,
        "total_estimate": repetitions * per_call_estimate,
    }
    if census is not None:
        per_call = census.rotations * cd * cs + census.third_level_total * cd
        report.update(
            kind="measured",
            per_call_measured=per_call,
            total_measured=repetitions * per_call,
            rotations=census.rotations,
            third_level=census.third_level_total,
        )
    return report


@_finite
def trotter_cost(query: CostQuery, model: CostModel, regime: str = "lattice") -> dict:
    """Product-formula baseline at ground-state resolution (t ~ 1/gap,
    per-step accuracy ~ gap), constants set to 1.

    lattice:    steps ~ sqrt(n)/gap^2, n rotations per step
    chemistry:  steps ~ n^5/gap^2,     n^4 rotations per step
    """
    cd = model.c_d(query.delta)
    cs = model.c_s(query.delta)
    if regime == "lattice":
        steps = math.sqrt(query.n) / query.gap**2
        rotations_per_step = float(query.n)
    elif regime == "chemistry":
        steps = query.n**5 / query.gap**2
        rotations_per_step = float(query.n**4)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    rotations_total = steps * rotations_per_step
    return {
        "method": f"trotter-{regime}",
        "kind": "estimate",
        "note": ESTIMATE_NOTE,
        "c_c_interpreted_as": "c_s",
        "steps": steps,
        "rotations_total": rotations_total,
        "total_estimate": rotations_total * cd * cs,
    }


@_finite
def taylor_cost(
    query: CostQuery, model: CostModel, census: GateCensus | None = None
) -> dict:
    """Truncated-series baseline: r segments of an order-M expansion, each
    segment costing about M times one walk call; the walk needs r*M times
    fewer gates by using one first-order segment."""
    norm = query.normalization
    r = math.ceil(norm / query.gap)
    m = math.ceil(math.log(norm / query.gap**2))
    m = max(m, 1)
    cd = model.c_d(query.delta)
    cs = model.c_s(query.delta)
    per_call = query.k_distinct * cd * cs + query.n_terms * cd
    kind = "estimate"
    if census is not None:
        per_call = census.rotations * cd * cs + census.third_level_total * cd
        kind = "measured"
    return {
        "method": "taylor",
        "kind": kind,
        "note": ESTIMATE_NOTE,
        "segments": r,
        "order": m,
        "per_walk_call": per_call,
        "total_estimate": r * m * per_call,
        "savings_ratio": r * m,
    }


def buildable_walks(rescaled) -> dict[str, WalkBundle]:
    """Encoding name -> walk bundle, for every encoding whose builder
    accepts the model.  Only the hybrid builder refuses any:
    it needs a power-of-two ZZ chain that is uniform per distance."""
    bundles = {}
    for encoding in ("binary", "unary", "hybrid"):
        try:
            bundles[encoding] = build_walk(rescaled, encoding)
        except ValueError:
            continue
    return bundles


def encoding_row(bundle: WalkBundle) -> dict:
    """Measured controlled-walk census of one walk.

    Columns: control qubits, rotation instances, distinct rotation
    magnitudes (synthesis parameters), third-level total, Clifford count,
    qubits.
    """
    census = bundle.controlled_walk.census
    return {
        "encoding": bundle.encoding,
        "kind": "measured",
        "control_qubits": bundle.layout.control_qubits,
        "rotation_gates": census.rotations,
        "rotations": distinct_rotation_count(bundle.controlled_walk),
        "third_level": census.third_level_total,
        "clifford": census.clifford,
        "qubits": census.qubits,
    }


def encoding_table(h) -> list[dict]:
    """One measured row per encoding whose walk builds for `h`."""
    return [encoding_row(b) for b in buildable_walks(normalize(h, "auto")).values()]
