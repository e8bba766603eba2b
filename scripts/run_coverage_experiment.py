#!/usr/bin/env python3
"""Run the headline coverage experiment and summarize it.

Seeds the squared-cost instance, records per-trial coverage and cost
ratios, and writes trials.csv plus text/CSV summaries under results/.
Large k (>= 1939, where the closed-form coverage bound becomes
non-vacuous) works too, just slower; k=200 keeps a laptop run short while
the qualitative behavior (coverage bounded well away from k, ratio floor
respected) is already stable.
"""

import argparse
import pathlib

from seedbounds.harness import (ExperimentConfig, report, run_experiment,
                                summarize, write_trials_csv)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variant", choices=("kmeans", "kmedian"), default="kmeans")
    ap.add_argument("--k", type=int, default=200)
    ap.add_argument("--m", type=float, default=4.0)
    ap.add_argument("--r", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=10**4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = ExperimentConfig(variant=args.variant, k=args.k, m=args.m, r=args.r,
                           trials=args.trials, master_seed=args.seed,
                           workers=args.workers)
    records = run_experiment(cfg)
    write_trials_csv(records, cfg, outdir / "trials.csv")
    summary = summarize(records, eta=cfg.eta, alpha=cfg.alpha, beta=cfg.beta)
    (outdir / "summary.txt").write_text(report(summary, "text"))
    (outdir / "summary.csv").write_text(report(summary, "csv"))
    print(report(summary, "text"))
    print(f"wrote {outdir}/trials.csv, summary.txt, summary.csv")


if __name__ == "__main__":
    main()
