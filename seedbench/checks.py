"""Exact output checks for the benchmark workloads.

Every check is an identity or an inequality that holds for every workload
seed; none is a statistical tolerance.  Float comparisons use fixed
relative slack for rounding only.  A failed check is counted, never
raised, so one run reports how many of its checks failed.
"""

from __future__ import annotations

import math
import sys

from seedbounds import core, harness, seeding


class Checker:
    """Counts attempted and failed checks; keeps the first few messages."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(message)
        return ok

    def report(self, stream=sys.stderr) -> None:
        for msg in self.messages:
            print(f"check failed: {msg}", file=stream)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def ext_rel_close(a, b, rel: float) -> bool:
    """Relative closeness of two positive ExtScalars, without overflow."""
    return abs(a.ratio(b) - 1.0) <= rel


# ---------------------------------------------------------------------------
# seeding workloads
# ---------------------------------------------------------------------------

def check_records(chk: Checker, cfg, records) -> None:
    """Per-record bounds that every seeding outcome satisfies."""
    k = cfg.k
    chk.check([r.trial_index for r in records] == list(range(cfg.trials)),
              "records are not trials 0..T-1 in order")
    for r in records:
        t = r.trial_index
        chk.check((r.k, r.variant, r.ell) == (k, cfg.variant, cfg.resolved_ell()),
                  f"trial {t}: k/variant/ell {r.k}/{r.variant}/{r.ell} differ from config")
        chk.check(1 <= r.coverage_count <= k and r.coverage_fraction == r.coverage_count / k,
                  f"trial {t}: coverage {r.coverage_count} outside 1..{k}")
        chk.check(r.ratio_discrete >= 1.0 - 1e-9,
                  f"trial {t}: ratio_discrete {r.ratio_discrete} < 1")
        if cfg.variant == "kmeans":
            floor = (9.0 - r.coverage_fraction) / 8.0
            chk.check(r.ratio_discrete >= floor - 1e-9,
                      f"trial {t}: ratio_discrete {r.ratio_discrete} < (9-a)/8 = {floor}")
            chk.check(rel_close(r.ratio_continuous, 2.0 * r.ratio_discrete, 1e-9),
                      f"trial {t}: ratio_continuous {r.ratio_continuous}"
                      f" != 2*ratio_discrete {2.0 * r.ratio_discrete}")
        else:
            chk.check(rel_close(r.ratio_continuous, r.ratio_discrete, 1e-12),
                      f"trial {t}: ratio_continuous {r.ratio_continuous}"
                      f" != ratio_discrete {r.ratio_discrete}")


def check_replays(chk: Checker, cfg, inst, records, trial_indices) -> None:
    """Single-trial reruns reproduce batch rows bit for bit."""
    for t in trial_indices:
        rec = records[t]
        trace = seeding.seed(inst, n_centers=cfg.k, ell=cfg.resolved_ell(),
                             rng_seed=cfg.master_seed, trial_index=t)
        chk.check(trace.coverage_counts[-1] == rec.coverage_count
                  and core.coverage(inst, trace.centers)[0] == rec.coverage_count,
                  f"trial {t}: replayed coverage {trace.coverage_counts[-1]}"
                  f" != batch {rec.coverage_count}")
        chk.check(trace.final_cost == rec.final_cost,
                  f"trial {t}: replayed cost {trace.final_cost!r} != batch {rec.final_cost!r}")
        miss = seeding.early_miss_event(trace, cfg.alpha, cfg.beta)
        chk.check(miss == rec.early_miss,
                  f"trial {t}: replayed early_miss {miss} != batch {rec.early_miss}")
        c = core.cost(inst, trace.centers)
        chk.check(ext_rel_close(c, rec.final_cost, 1e-9),
                  f"trial {t}: cost(centers) {c!r} != final cost {rec.final_cost!r}")


_INT_FIELDS = ("trial_index", "k", "variant", "ell", "coverage_count", "early_miss")
_FLOAT_FIELDS = ("coverage_fraction", "ratio_discrete", "ratio_continuous")


def check_read_back(chk: Checker, cfg, records, csv_path) -> list:
    """trials.csv round trip: exact ints/bools, floats within rel 1e-12."""
    with open(csv_path) as fh:
        fh.readline()
        config_line = fh.readline().rstrip("\n")
    chk.check(config_line == f"# config {cfg.echo()}",
              f"trials.csv config line {config_line!r} does not echo the config")
    back, _ = harness.read_trials_csv(csv_path)
    chk.check(len(back) == len(records),
              f"read back {len(back)} records, wrote {len(records)}")
    for a, b in zip(records, back):
        bad = [f for f in _INT_FIELDS if getattr(a, f) != getattr(b, f)]
        bad += [f for f in _FLOAT_FIELDS if not rel_close(getattr(a, f), getattr(b, f), 1e-12)]
        if not ext_rel_close(b.final_cost, a.final_cost, 1e-12):
            bad.append("final_cost")
        chk.check(not bad, f"trial {a.trial_index}: read-back differs in {bad}")
    return back


def check_report(chk: Checker, cfg, read_back, report_text: str) -> None:
    """The report file is what summarize + report give for the file's records."""
    summary = harness.summarize(read_back, eta=cfg.eta, alpha=cfg.alpha, beta=cfg.beta)
    chk.check(harness.report(summary, fmt="text") == report_text,
              "report file differs from a re-rendered report of the read-back records")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def check_color_distribution(chk: Checker, name: str, dist) -> None:
    """Distinct colors of k draws from k pairs: at least ceil(k/2), total mass 1."""
    p = dist.probs
    low = math.ceil(dist.k / 2)
    chk.check(len(p) == dist.k + 1 and bool((p >= 0.0).all()),
              f"{name}: {len(p)} entries for k={dist.k}, or a negative one")
    chk.check(abs(float(p.sum()) - 1.0) <= 1e-12, f"{name}: mass {float(p.sum())!r} != 1")
    chk.check(bool((p[:low] == 0.0).all()), f"{name}: nonzero mass below {low}")


def check_exact_seeding(chk: Checker, name: str, dist, expected_ratio: float) -> None:
    p = dist.probs
    chk.check(abs(float(p.sum()) - 1.0) <= 1e-12, f"{name}: mass {float(p.sum())!r} != 1")
    chk.check(p[0] == 0.0 and bool((p >= 0.0).all()),
              f"{name}: mass on zero coverage or a negative entry")
    chk.check(expected_ratio >= 1.0 - 1e-9, f"{name}: expected ratio {expected_ratio} < 1")


def check_brute(chk: Checker, inst, opt_cost, best, reference) -> None:
    chk.check(ext_rel_close(opt_cost, reference, 1e-9),
              f"brute force cost {opt_cost!r} != reference {reference!r}")
    chk.check(core.coverage(inst, best)[0] == inst.k,
              f"brute force optimum {best} does not cover all {inst.k} bars")
