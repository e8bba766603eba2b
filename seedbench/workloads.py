"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload drives the public seedbounds API in this process with
``workers=1``.  ``setup(seed)`` makes the inputs (the package only ever
sees those), ``run_pass`` does the timed work, and ``check`` verifies a
pass's outputs.  A pass writes its files under the given work directory.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from seedbounds import cli, harness, instances, seeding, urn

import checks


@dataclass
class PassResult:
    work_s: float      # seconds of the pass's throughput step
    work: int          # trials done in that step
    output: object


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _derived_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


# ---------------------------------------------------------------------------
# `seed` then `report`
# ---------------------------------------------------------------------------

@dataclass
class SeedState:
    cfg: harness.ExperimentConfig
    inst: object
    replay_trials: tuple[int, ...]


@dataclass
class SeedOutput:
    records: list
    csv_path: Path
    report_path: Path

    def digest(self) -> str:
        return _sha256(self.csv_path.read_bytes(), self.report_path.read_bytes())


@dataclass(frozen=True)
class SeedWorkload:
    """``run_experiment`` + trials.csv write, then ``seedbounds report`` on the file."""

    name: str
    variant: str
    k: int
    trials: int
    replays: int          # sampled trials rerun through seeding.seed
    m: float = 4.0
    r: float = 1.0

    def setup(self, seed: int) -> SeedState:
        rnd = _derived_rng(self.name, seed)
        cfg = harness.ExperimentConfig(
            variant=self.variant, k=self.k, m=self.m, r=self.r, trials=self.trials,
            master_seed=rnd.getrandbits(32), workers=1)
        cfg.validate()
        gen = instances.gen_kmeans_bad if self.variant == "kmeans" else instances.gen_kmedian_bad
        inst = gen(self.k, self.m, self.r)
        replays = tuple(sorted(rnd.sample(range(self.trials), min(self.replays, self.trials))))
        return SeedState(cfg, inst, replays)

    def run_pass(self, state: SeedState, workdir: Path) -> PassResult:
        cfg = state.cfg
        csv_path, report_path = workdir / "trials.csv", workdir / "report.txt"
        t0 = perf_counter()
        records = harness.run_experiment(cfg)
        harness.write_trials_csv(records, cfg, csv_path)
        work_s = perf_counter() - t0
        rc = cli.main(["report", str(csv_path), "--format", "text",
                       "--out", str(report_path), "--eta", repr(cfg.eta),
                       "--alpha", repr(cfg.alpha), "--beta", repr(cfg.beta)])
        if rc != 0:
            raise RuntimeError(f"seedbounds report exited with {rc}")
        return PassResult(work_s, cfg.trials, SeedOutput(records, csv_path, report_path))

    def check(self, state: SeedState, out: SeedOutput, chk: checks.Checker) -> None:
        cfg = state.cfg
        checks.check_records(chk, cfg, out.records)
        checks.check_replays(chk, cfg, state.inst, out.records, state.replay_trials)
        back = checks.check_read_back(chk, cfg, out.records, out.csv_path)
        checks.check_report(chk, cfg, back, out.report_path.read_text())


# ---------------------------------------------------------------------------
# exact oracles and urn processes
# ---------------------------------------------------------------------------

@dataclass
class OraclesState:
    mc_seed: int
    biased_mc_seed: int
    exact_insts: tuple
    brute_inst: object


@dataclass
class OraclesOutput:
    closed: object
    dp: object
    mc: object
    biased_mc: object
    exact: list          # (instance, CoverageDistribution, expected ratio)
    brute: tuple         # (cost, best center indices)

    def digest(self) -> str:
        dists = (self.closed, self.dp, self.mc, self.biased_mc) + tuple(d for _, d, _ in self.exact)
        cost, best = self.brute
        return _sha256(*(d.probs.tobytes() for d in dists),
                       repr([r for _, _, r in self.exact]).encode(),
                       f"{cost.m!r} {cost.e} {best}".encode())


@dataclass(frozen=True)
class OraclesWorkload:
    """Urn closed form, DP and Monte Carlo; exact seeding and brute-force optima."""

    name: str
    urn_k: int = 2048
    gamma: float = 5.0
    mc_k: int = 64
    mc_trials: int = 50_000
    biased_mc_trials: int = 3_000
    exact_k: int = 5
    brute_k: int = 9
    m: float = 4.0
    r: float = 1.0

    def setup(self, seed: int) -> OraclesState:
        rnd = _derived_rng(self.name, seed)
        exact = (instances.gen_kmeans_bad(self.exact_k, self.m, self.r),
                 instances.gen_kmedian_bad(self.exact_k, self.m, self.r))
        return OraclesState(rnd.getrandbits(32), rnd.getrandbits(32), exact,
                            instances.gen_kmeans_bad(self.brute_k, self.m, self.r))

    def run_pass(self, state: OraclesState, workdir: Path) -> PassResult:
        closed = urn.distinct_colors_exact(self.urn_k)
        dp = urn.biased_distinct_colors_dp(self.urn_k, self.gamma)
        t0 = perf_counter()
        mc = urn.distinct_colors_mc(self.mc_k, self.mc_trials, state.mc_seed)
        biased_mc = urn.biased_distinct_colors_mc(self.mc_k, self.gamma,
                                                  self.biased_mc_trials, state.biased_mc_seed)
        work_s = perf_counter() - t0
        exact = [(inst, *seeding.exact_distribution(inst)) for inst in state.exact_insts]
        brute = instances.brute_force_opt(state.brute_inst)
        return PassResult(work_s, self.mc_trials + self.biased_mc_trials,
                          OraclesOutput(closed, dp, mc, biased_mc, exact, brute))

    def check(self, state: OraclesState, out: OraclesOutput, chk: checks.Checker) -> None:
        for label, dist in (("distinct_colors_exact", out.closed),
                            ("biased_distinct_colors_dp", out.dp),
                            ("distinct_colors_mc", out.mc),
                            ("biased_distinct_colors_mc", out.biased_mc)):
            checks.check_color_distribution(chk, label, dist)
        for inst, dist, ratio in out.exact:
            checks.check_exact_seeding(chk, f"exact_distribution {inst.variant} k={inst.k}",
                                       dist, ratio)
        cost, best = out.brute
        checks.check_brute(chk, state.brute_inst, cost, best,
                           instances.reference_costs(state.brute_inst).discrete)


WORKLOADS = {w.name: w for w in (
    # Why each workload exists: README.md and BENCHMARK.json.
    SeedWorkload("seed-k200", variant="kmeans", k=200, trials=1200, replays=8),
    SeedWorkload("seed-k2000", variant="kmeans", k=2000, trials=2, replays=1),
    SeedWorkload("csv-report-k16", variant="kmedian", k=16, trials=30_000, replays=32),
    OraclesWorkload("oracles"),
)}
