"""Command-line interface.

Subcommands: ``gen`` (write an instance CSV), ``seed`` (run trials, write
trials.csv), ``exact`` (tiny-k exact coverage oracle), ``ballgame`` (urn
process distributions), ``report`` (summarize a trials.csv).

Exit codes: 0 success, 2 invalid configuration or arguments, 3 capacity
error (an exact routine asked to enumerate too much), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds, rng, urn
from .core import write_instance_csv
from .errors import CapacityError, ConfigError
from .harness import (ExperimentConfig, _fmt, _instance_for, read_trials_csv,
                      report, run_experiment, summarize, write_trials_csv)
from .instances import reference_costs
from .seeding import exact_distribution

__all__ = ["main"]


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=("kmeans", "kmedian"), default="kmeans")
    p.add_argument("--k", type=int, default=200)
    p.add_argument("--m", type=float, default=4.0)
    p.add_argument("--r", type=float, default=1.0)


def _cmd_gen(args) -> int:
    write_instance_csv(_instance_for(args), args.out)
    return 0


def _cmd_seed(args) -> int:
    cfg = ExperimentConfig(
        variant=args.variant, k=args.k, m=args.m, r=args.r,
        trials=args.trials, master_seed=args.seed, alpha=args.alpha,
        beta=args.beta, eta=args.eta, workers=args.workers)
    records = run_experiment(cfg)
    write_trials_csv(records, cfg, args.out)
    return 0


def _cmd_exact(args) -> int:
    inst = _instance_for(args)
    dist, expected_ratio = exact_distribution(inst)
    opt = reference_costs(inst)
    lines = [
        "# seedbounds exact v1",
        (f"# config variant={args.variant} k={args.k} m={_fmt(args.m)}"
         f" r={_fmt(args.r)} ell={inst.ell}"),
        f"# optimal_discrete,{opt.discrete.format_sci()}",
        f"# expected_ratio_discrete,{_fmt(expected_ratio)}",
        "coverage,probability",
    ]
    for i, p in enumerate(dist.probs):
        lines.append(f"{i},{_fmt(float(p))}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_ballgame(args) -> int:
    # the exact paths draw nothing, but the config line echoes the seed
    rng.check_seed(args.seed)
    if args.mode == "plain":
        # the uniform urn weighs every ball alike: only gamma = 1 describes it
        if args.gamma != 1.0:
            raise ConfigError(f"--mode plain draws uniformly, with gamma 1;"
                              f" got --gamma {_fmt(args.gamma)}")
        threshold = 7.0 / 8.0
        bound = bounds.uniform_tail_bound(args.k)
        if args.exact:
            dist = urn.distinct_colors_exact(args.k)
        else:
            dist = urn.distinct_colors_mc(args.k, args.trials, args.seed)
    else:
        threshold = 0.99
        bound = bounds.biased_tail_bound(args.k)
        if args.exact:
            dist = urn.biased_distinct_colors_dp(args.k, args.gamma)
        else:
            dist = urn.biased_distinct_colors_mc(args.k, args.gamma,
                                                 args.trials, args.seed)
    tail = urn.tail_probability(dist, threshold)
    source = "exact" if args.exact else f"mc:{args.trials}"
    lines = [
        "# seedbounds ballgame v1",
        (f"# config mode={args.mode} k={args.k} gamma={_fmt(args.gamma)}"
         f" source={source} seed={args.seed}"),
        f"# tail_threshold,{_fmt(threshold)}",
        f"# tail_probability,{_fmt(tail)}",
        f"# tail_bound,{_fmt(bound)}",
        f"# tail_bound_vacuous,{1 if bounds.is_vacuous(bound) else 0}",
        "i,probability",
    ]
    for i, p in enumerate(dist.probs):
        lines.append(f"{i},{_fmt(float(p))}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _header_param(args, cfg: ExperimentConfig, name: str) -> float:
    """A report parameter: the trials.csv header's value; a flag may only
    repeat it."""
    flag, value = getattr(args, name), getattr(cfg, name)
    if flag is not None and _fmt(flag) != _fmt(value):
        raise ConfigError(f"--{name} {_fmt(flag)} conflicts with the trials.csv"
                          f" header's {name}={_fmt(value)}")
    return value


def _cmd_report(args) -> int:
    records, cfg = read_trials_csv(args.input)
    summary = summarize(records, **{name: _header_param(args, cfg, name)
                                    for name in ("eta", "alpha", "beta")})
    doc = report(summary, fmt=args.format)
    if args.out is None:
        sys.stdout.write(doc)
    else:
        _write(args.out, doc)
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedbounds",
        description="Adversarial planar seeding instances and bound validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write an instance CSV")
    _add_instance_flags(p)
    p.add_argument("--out", default="instance.csv")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("seed", help="run seeding trials, write trials.csv")
    _add_instance_flags(p)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=0.999)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="trials.csv")
    p.set_defaults(func=_cmd_seed)

    p = sub.add_parser("exact", help="tiny-k exact coverage distribution")
    _add_instance_flags(p)
    p.add_argument("--out", default="exact.csv")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("ballgame", help="paired-color urn distributions")
    p.add_argument("--mode", choices=("plain", "biased"), default="plain")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--k", type=int, default=64)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="ballgame.csv")
    p.set_defaults(func=_cmd_ballgame)

    p = sub.add_parser("report", help="summarize a trials.csv")
    p.add_argument("input")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    # the trials.csv header's values; a flag may only repeat them
    p.add_argument("--eta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
