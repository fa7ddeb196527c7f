"""Spans around the package's public functions, installed from outside.

The program carries no tracing of its own yet, so the benchmark wraps every
public function of the traced layers and rebinds each name that any
`specwalk` module imported (the CLI holds its own `walk_eigenphases` and
`zeno_prepare`, measurement its own `invariant_blocks`, and so on). Spans
are kept in memory; a layer's self time is its spans' time minus the time of
their child spans.

Gate applications are counted, not spanned: `QuantumState.apply` opens a span
only when it is called from outside the simulator (the single H and X gates
of an estimation round), never inside a circuit pass.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = {
    "cli": ("specwalk.cli",),
    "hamiltonian": ("specwalk.hamiltonian",),
    "walk": ("specwalk.walk_binary", "specwalk.walk_unary", "specwalk.walk_core"),
    "blocks": ("specwalk.blocks",),
    "simulator": ("specwalk.simulator",),
    "measurement": ("specwalk.measurement",),
}
# `circuits.py` gate kinds; each gets a `simulator.gate_apps.<kind>` count.
GATE_KINDS = (
    "h", "s", "sdg", "t", "tdg", "swap", "pauli", "toffoli", "cswap",
    "fanout", "mcz", "rot", "mrot", "gphase",
)
WALK_BUILDERS = ("binary_walk", "unary_walk", "hybrid_long_range_walk")

# name -> (unit, better); the order is the report order.
LAYER_METRICS = {
    "simulator.busy_s": ("s", "lower"),
    "simulator.us_per_gate": ("us", "lower"),
    "simulator.gate_apps": ("count", "lower"),
    **{f"simulator.gate_apps.{k}": ("count", "lower") for k in GATE_KINDS},
    "simulator.circuit_passes": ("count", "lower"),
    "simulator.bytes_computed": ("B", "lower"),
    "simulator.copies": ("count", "lower"),
    "simulator.measures": ("count", "lower"),
    "blocks.self_s": ("s", "lower"),
    "blocks.vectors": ("count", "lower"),
    "measurement.self_s": ("s", "lower"),
    "measurement.pe_steps": ("count", "lower"),
    "measurement.sampled_shot_frac": ("ratio", "lower"),
    "measurement.projection_rounds": ("count", "lower"),
    "measurement.projection_success_ratio": ("ratio", "higher"),
    "walk.build_s": ("s", "lower"),
    "walk.builds": ("count", "lower"),
    "walk.gates": ("count", "lower"),
    "hamiltonian.self_s": ("s", "lower"),
    "hamiltonian.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# span record fields
LAYER, NAME, PARENT, START, DUR, CHILD = range(6)


class Tracer:
    """Installs wrappers on `install()`, restores the originals on `uninstall()`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these objects.
        self.spans.clear()
        self.counts.clear()

    # --- span bookkeeping ------------------------------------------------------
    def _call(self, layer, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else None
        span = [layer, name, parent, 0.0, 0.0, 0.0]
        stack.append(len(spans))
        spans.append(span)
        self._depth[layer] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            self._depth[layer] -= 1
            span[START], span[DUR] = t0, dur
            if parent is not None:
                spans[parent][CHILD] += dur

    def _caller(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def _wrap(self, layer, name, fn, hook=None):
        tracer = self
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._call(layer, name, fn, args, kwargs)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return traced

    # --- counters taken from arguments and results ----------------------------
    def _hooks(self):
        counts = self.counts

        def walk_built(_, bundle):
            counts["walk.builds"] += 1
            counts["walk.gates"] += len(bundle.walk) + len(bundle.controlled_walk)

        def dressed(_, vec):
            if self._depth["blocks"]:
                counts["blocks.vectors"] += 1

        def pe_step(arguments, _):
            counts["measurement.pe_steps"] += 1
            if arguments["mode"] == "sample" and self._caller() == "estimate_energy":
                counts["sampled_shots"] += 1

        def estimate(arguments, _):
            counts["requested_shots"] += arguments["shots"]

        def projected(_, result):
            counts["measurement.projection_rounds"] += result.rounds
            counts["projection_successes"] += int(result.success)

        hooks = {name: walk_built for name in WALK_BUILDERS}
        hooks.update(
            dressed_state=dressed,
            pe_step=pe_step,
            estimate_energy=estimate,
            project_to_eigenstate=projected,
        )
        return hooks

    def _state_methods(self, state_cls):
        """Wrappers for QuantumState: counted gates, spanned public methods."""
        tracer, counts = self, self.counts
        originals = dict(vars(state_cls))
        apply, init = originals["apply"], originals["__init__"]

        def traced_apply(state, gate):
            counts[f"gate.{gate.kind}"] += 1
            counts["simulator.bytes_computed"] += 2 * state.vec.nbytes
            if tracer._stack and tracer.spans[tracer._stack[-1]][LAYER] == "simulator":
                return apply(state, gate)
            return tracer._call("simulator", "apply", apply, (state, gate), {})

        def traced_init(state, *args, **kwargs):
            if tracer._depth["blocks"]:
                counts["blocks.vectors"] += 1
            init(state, *args, **kwargs)

        methods = {"apply": traced_apply, "__init__": traced_init}
        for name, attr in originals.items():
            if name.startswith("_") or name in methods:
                continue
            if isinstance(attr, classmethod):
                methods[name] = classmethod(self._wrap("simulator", name, attr.__func__))
            elif inspect.isfunction(attr):
                methods[name] = self._wrap("simulator", name, attr)
        return methods

    # --- install / uninstall ---------------------------------------------------
    def install(self) -> None:
        import specwalk.cli  # noqa: F401  (loads every traced module)
        from specwalk.simulator import QuantumState

        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for layer, modules in LAYERS.items():
            for modname in modules:
                module = sys.modules[modname]
                for name, fn in vars(module).items():
                    if (inspect.isfunction(fn) and fn.__module__ == modname
                            and not name.startswith("_")):
                        wrapped[id(fn)] = self._wrap(layer, name, fn, hooks.get(name))
        # Rebind the name in every module that imported it.
        for modname, module in list(sys.modules.items()):
            if modname != "specwalk" and not modname.startswith("specwalk."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapped[id(obj)])
        for name, method in self._state_methods(QuantumState).items():
            self._patches.append((QuantumState, name, vars(QuantumState)[name]))
            setattr(QuantumState, name, method)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # --- per-layer metrics -------------------------------------------------------
    def layer_metrics(self, traced_wall: float, plain_wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since `reset()`."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        gate_time = walk_build = 0.0
        for span in self.spans:
            self_s[span[LAYER]] += span[DUR] - span[CHILD]
            calls[span[LAYER]] += 1
            if span[NAME] in ("apply_circuit", "apply"):
                gate_time += span[DUR]
            if span[NAME] in WALK_BUILDERS:
                walk_build += span[DUR]
        c = self.counts
        gate_apps = sum(v for k, v in c.items() if k.startswith("gate."))
        rounds = c["measurement.projection_rounds"]
        out = {
            "simulator.busy_s": self_s["simulator"],
            "simulator.us_per_gate": 1e6 * gate_time / gate_apps if gate_apps else 0.0,
            "simulator.gate_apps": gate_apps,
            **{f"simulator.gate_apps.{k}": c[f"gate.{k}"] for k in GATE_KINDS},
            "simulator.circuit_passes": sum(
                1 for s in self.spans if s[NAME] == "apply_circuit"
            ),
            "simulator.bytes_computed": c["simulator.bytes_computed"],
            "simulator.copies": sum(1 for s in self.spans if s[NAME] == "copy"),
            "simulator.measures": sum(
                1 for s in self.spans if s[NAME] in ("measure", "project_control_vacuum")
            ),
            "blocks.self_s": self_s["blocks"],
            "blocks.vectors": c["blocks.vectors"],
            "measurement.self_s": self_s["measurement"],
            "measurement.pe_steps": c["measurement.pe_steps"],
            "measurement.sampled_shot_frac": (
                c["sampled_shots"] / c["requested_shots"] if c["requested_shots"] else 0.0
            ),
            "measurement.projection_rounds": rounds,
            "measurement.projection_success_ratio": (
                c["projection_successes"] / rounds if rounds else 0.0
            ),
            "walk.build_s": walk_build,
            "walk.builds": c["walk.builds"],
            "walk.gates": c["walk.gates"],
            "hamiltonian.self_s": self_s["hamiltonian"],
            "hamiltonian.calls": calls["hamiltonian"],
            "cli.self_s": self_s["cli"],
            "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        }
        return out

    def span_records(self, op: int) -> list[dict]:
        """Spans as plain records; spans of one operation share `op`."""
        t0 = min((s[START] for s in self.spans), default=0.0)
        return [
            {
                "op": op, "id": i, "parent": s[PARENT], "layer": s[LAYER],
                "name": s[NAME], "start_s": s[START] - t0, "dur_s": s[DUR],
                "self_s": s[DUR] - s[CHILD],
            }
            for i, s in enumerate(self.spans)
        ]
