#!/usr/bin/env python3
"""Schedule-length sweep for the sequential-measurement preparation.

Longer schedules push the success probability (the telescoping product of
successive ground-state overlaps) toward 1.  Analysis mode gives the exact
probabilities; pass --sample for stochastic trajectories.
"""
import argparse

from specwalk import InterpolatedModel, product_state, tfim, uniform_schedule, zeno_prepare


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--lengths", default="1,2,4,8,16")
    ap.add_argument("--sample", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--shots", type=int, default=120)
    args = ap.parse_args()

    model = InterpolatedModel(
        tfim(args.n, -1.0, 0.0),
        tfim(args.n, 0.0, 1.0),
        h0_ground=product_state("+" * args.n),
    )
    print(f"{'L':>4} {'success prob':>14} {'final fidelity':>15}")
    for length in (int(x) for x in args.lengths.split(",")):
        if args.sample:
            trace = zeno_prepare(
                model,
                uniform_schedule(length),
                mode="sample",
                seed=args.seed,
                shots=args.shots,
            )
        else:
            trace = zeno_prepare(model, uniform_schedule(length), mode="analyze")
        print(f"{length:>4} {trace.success_probability:>14.9f} {trace.final_fidelity:>15.9f}")


if __name__ == "__main__":
    main()
