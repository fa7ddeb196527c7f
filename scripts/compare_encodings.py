#!/usr/bin/env python3
"""Encoding comparison experiment.

Builds the walk for a transverse-field Ising chain and a long-range chain
under every applicable control encoding, and prints the measured censuses
next to the formula estimates.  Small sizes only: everything is simulated
exactly and the spectra are cross-checked on the fly.
"""
import argparse

from specwalk import (
    CostModel,
    CostQuery,
    binary_walk,
    encoding_table,
    group,
    long_range_ising,
    normalize,
    tfim,
    taylor_cost,
    trotter_cost,
    walk_cost,
)
from specwalk.blocks import walk_eigenphases
from specwalk.cli import finite_float


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--gap", type=finite_float, default=0.1)
    ap.add_argument("--delta", type=finite_float, default=1e-4)
    args = ap.parse_args()

    for label, h in (
        (f"tfim n={args.n} (g=1, J=0.7)", tfim(args.n, 1.0, 0.7)),
        (f"long-range n={args.n} (alpha=2)", long_range_ising(args.n, 1.0, 2.0)),
    ):
        print(f"\n=== {label} ===")
        r = normalize(h)
        rep = walk_eigenphases(binary_walk(r))
        print(f"spectral check: max eigenphase error {rep.max_error:.2e}")
        rows = encoding_table(h)
        cols = ("encoding", "control_qubits", "rotations", "rotation_gates",
                "third_level", "clifford")
        print("  ".join(f"{c:>14}" for c in cols))
        for row in rows:
            print("  ".join(f"{row[c]:>14}" for c in cols))

        g = group(r)
        query = CostQuery(
            n=h.n_qubits,
            n_terms=r.n_select_terms,
            k_distinct=g.k_distinct,
            normalization=r.normalization,
            gap=args.gap,
            delta=args.delta,
        )
        model = CostModel()
        print("method totals (cost model: C_D = C_S = ln(1/delta)):")
        for report in (
            walk_cost(query, model),
            trotter_cost(query, model, "lattice"),
            taylor_cost(query, model),
        ):
            total = report.get("total_measured", report["total_estimate"])
            print(f"  {report['method']:>16}: {total:.4g}  [{report['kind']}]")


if __name__ == "__main__":
    main()
