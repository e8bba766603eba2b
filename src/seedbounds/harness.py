"""Experiment driver, summary statistics, and deterministic reports.

``run_experiment`` builds the instance once and executes independent
seeding trials, optionally across worker processes that each receive the
instance and one contiguous trial range; for a fixed master seed the
records are identical whatever the worker count, because every trial's
randomness is a pure function of (master_seed, trial_index).
``summarize``/``report`` turn records into a byte-stable text or CSV
document comparing empirical tails against the closed-form bounds.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds, rng
from .core import ELL
from .errors import ConfigError
from .extfloat import ExtScalar
from .instances import gen_kmeans_bad, gen_kmedian_bad, reference_costs
from .seeding import TrialArrays, run_trials

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TRIAL_COLUMNS",
    "SummaryStats",
    "run_experiment",
    "summarize",
    "report",
    "write_trials_csv",
    "read_trials_csv",
    "wilson_interval",
]

QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)

TRIAL_COLUMNS = (
    "trial_index", "k", "variant", "coverage_count",
    "coverage_fraction", "final_cost", "ratio_discrete",
    "ratio_continuous", "early_miss",
)

_VERSION_LINE = "# seedbounds trials v2"


def _fmt(x: float) -> str:
    return f"{x:.15g}"


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str = "kmeans"
    k: int = 200
    m: float = 4.0
    r: float = 1.0
    trials: int = 1000
    master_seed: int = 0
    alpha: float = 0.1
    beta: float = 0.1
    eta: float = 0.999
    workers: int = 1

    def resolved_ell(self) -> int:
        return ELL[self.variant]

    def validate(self) -> None:
        if self.variant not in ELL:
            raise ConfigError(f"variant must be kmeans or kmedian, got {self.variant!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not (self.m >= 1.0):
            raise ConfigError(f"m must be >= 1, got {self.m}")
        if not (self.r > 0.0):
            raise ConfigError(f"r must be > 0, got {self.r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        bounds.check_fractions(self.alpha, self.beta, self.eta)
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def echo(self) -> str:
        """Semantic parameters only: worker count and paths never alter results."""
        return (f"variant={self.variant} k={self.k} m={_fmt(self.m)} r={_fmt(self.r)}"
                f" trials={self.trials}"
                f" master_seed={self.master_seed} alpha={_fmt(self.alpha)}"
                f" beta={_fmt(self.beta)} eta={_fmt(self.eta)}")


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    k: int
    variant: str
    coverage_count: int
    coverage_fraction: float
    final_cost: ExtScalar
    ratio_discrete: float
    ratio_continuous: float
    early_miss: bool

    @property
    def ell(self) -> int:
        """Distance power of the variant (``core.ELL``)."""
        return ELL[self.variant]


def _instance_for(cfg: ExperimentConfig):
    gen = gen_kmeans_bad if cfg.variant == "kmeans" else gen_kmedian_bad
    return gen(cfg.k, cfg.m, cfg.r)


def _run_block(inst, cfg: ExperimentConfig, lo: int, hi: int) -> TrialArrays:
    """Trials lo..hi-1 of cfg on inst, in a worker process or in-process."""
    return run_trials(inst, hi - lo, cfg.master_seed, alpha=cfg.alpha, beta=cfg.beta,
                      first_trial=lo)


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    """Run cfg.trials independent seeding trials; records in trial-index order."""
    cfg.validate()
    inst = _instance_for(cfg)
    step = -(-cfg.trials // cfg.workers)
    los = range(0, cfg.trials, step)
    his = [min(lo + step, cfg.trials) for lo in los]
    if len(los) > 1:
        with ProcessPoolExecutor(max_workers=len(los)) as pool:
            parts = list(pool.map(_run_block, [inst] * len(los), [cfg] * len(los),
                                  los, his))
    else:
        parts = [_run_block(inst, cfg, 0, cfg.trials)]

    opt = reference_costs(inst)
    records = []
    for part in parts:
        for i in range(len(part.trial_indices)):
            final = ExtScalar(float(part.final_m[i]), int(part.final_e[i]))
            records.append(TrialRecord(
                trial_index=int(part.trial_indices[i]),
                k=cfg.k,
                variant=cfg.variant,
                coverage_count=int(part.coverage[i]),
                coverage_fraction=int(part.coverage[i]) / cfg.k,
                final_cost=final,
                ratio_discrete=final.ratio(opt.discrete),
                ratio_continuous=final.ratio(opt.continuous),
                early_miss=bool(part.early_miss[i]),
            ))
    return records


# ---------------------------------------------------------------------------
# trials.csv
# ---------------------------------------------------------------------------

def write_trials_csv(records: list[TrialRecord], cfg: ExperimentConfig, path) -> None:
    lines = [
        _VERSION_LINE,
        f"# config {cfg.echo()}",
        f"# rng {rng.ALGORITHM}",
        ",".join(TRIAL_COLUMNS),
    ]
    for rec in records:
        lines.append(",".join([
            str(rec.trial_index),
            str(rec.k),
            rec.variant,
            str(rec.coverage_count),
            _fmt(rec.coverage_fraction),
            rec.final_cost.format_sci(),
            _fmt(rec.ratio_discrete),
            _fmt(rec.ratio_continuous),
            "1" if rec.early_miss else "0",
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trials_csv(path):
    """Returns (records, metadata dict parsed from the comment header).

    Raises ConfigError unless the file opens with the v2 version line,
    names ``rng.ALGORITHM``, has a header config whose variant is a key of
    ``core.ELL``, has only rows whose k and variant match the header
    config, and repeats no trial index.  A row is malformed unless it has
    one field per column, a trial index in 0 .. 2**63 - 1, parseable
    numbers and an ``early_miss`` of 0 or 1.  A record's ``ell`` is its
    variant's distance power, so the file does not store it.  Files of any
    other version, v1 included, are refused: rerun ``seedbounds seed``
    with the parameters of their config line.
    """
    meta: dict[str, str] = {}
    records: list[TrialRecord] = []
    seen: set[int] = set()
    with open(path, newline="") as fh:
        lines = (line for line in (raw.rstrip("\n") for raw in fh) if line)
        first = next(lines, None)
        if first != _VERSION_LINE:
            raise ConfigError(f"{path} does not start with {_VERSION_LINE!r} but with"
                              f" {first!r}; rerun `seedbounds seed` with the parameters"
                              " of its config line")
        header = None
        for line in lines:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("config "):
                    for part in body[len("config "):].split():
                        key, _, val = part.partition("=")
                        meta[key] = val
                elif body.startswith("rng "):
                    meta["rng"] = body[len("rng "):]
                continue
            if header is None:
                header = tuple(line.split(","))
                if header != TRIAL_COLUMNS:
                    raise ConfigError(f"unexpected trials.csv columns: {header}")
                if meta.get("rng") != rng.ALGORITHM:
                    raise ConfigError(f"{path} names rng {meta.get('rng')!r},"
                                      f" not {rng.ALGORITHM!r}")
                config = [meta.get("k"), meta.get("variant")]
                if config[1] not in ELL:
                    raise ConfigError(f"{path}: header variant={config[1]} is not one"
                                      f" of {', '.join(ELL)}")
                continue
            f = line.split(",")
            if f[1:3] != config:
                raise ConfigError(f"{path}: row {line!r} does not match the header's"
                                  f" k={config[0]} variant={config[1]}")
            try:
                if len(f) != len(TRIAL_COLUMNS) or f[8] not in ("0", "1"):
                    raise ValueError("wrong field count or early_miss flag")
                rec = TrialRecord(
                    trial_index=int(f[0]),
                    k=int(f[1]),
                    variant=f[2],
                    coverage_count=int(f[3]),
                    coverage_fraction=float(f[4]),
                    final_cost=ExtScalar.parse(f[5]),
                    ratio_discrete=float(f[6]),
                    ratio_continuous=float(f[7]),
                    early_miss=f[8] == "1",
                )
                if not 0 <= rec.trial_index <= np.iinfo(np.int64).max:
                    raise ValueError("trial index out of range")
            except ValueError as exc:
                raise ConfigError(f"{path}: malformed row {line!r}") from exc
            if rec.trial_index in seen:
                raise ConfigError(f"{path}: trial index {rec.trial_index} repeats")
            seen.add(rec.trial_index)
            records.append(rec)
    if header is None:
        raise ConfigError(f"{path} contains no trial rows")
    return records, meta


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson_interval(count: int, n: int, z: float = _WILSON_Z):
    """(p_hat, low, high) Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ConfigError("wilson_interval needs n >= 1")
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    low = 0.0 if count == 0 else max(0.0, center - half)
    high = 1.0 if count == n else min(1.0, center + half)
    return p, low, high


@dataclass(frozen=True)
class MetricStats:
    mean: float
    minimum: float
    maximum: float
    quantiles: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class BinomialStat:
    label: str
    count: int
    n: int
    p: float
    low: float
    high: float


@dataclass(frozen=True)
class BoundRow:
    name: str
    value: float
    vacuous: bool
    empirical: float


@dataclass(frozen=True)
class SummaryStats:
    n_trials: int
    k: int
    variant: str
    eta: float
    alpha: float
    beta: float
    metrics: tuple[tuple[str, MetricStats], ...]
    ratio_tails: tuple[BinomialStat, ...]
    early_miss: BinomialStat
    high_coverage: BinomialStat
    bounds: tuple[BoundRow, ...]

    @property
    def ell(self) -> int:
        """Distance power of the variant (``core.ELL``)."""
        return ELL[self.variant]


def _metric(values: np.ndarray) -> MetricStats:
    qs = np.quantile(values, QUANTILES)
    return MetricStats(
        mean=float(values.mean()),
        minimum=float(values.min()),
        maximum=float(values.max()),
        quantiles=tuple((q, float(v)) for q, v in zip(QUANTILES, qs)),
    )


def _binomial(label: str, count: int, n: int) -> BinomialStat:
    p, lo, hi = wilson_interval(count, n)
    return BinomialStat(label=label, count=count, n=n, p=p, low=lo, high=hi)


def summarize(records: list[TrialRecord], eta: float = 0.999,
              alpha: float = 0.1, beta: float = 0.1) -> SummaryStats:
    """Aggregate records (sorted first, so aggregation is order-independent)."""
    bounds.check_fractions(alpha, beta, eta)
    if not records:
        raise ConfigError("summarize needs at least one record")
    kinds = {(rec.k, rec.variant) for rec in records}
    if len(kinds) > 1:
        raise ConfigError(f"records mix (k, variant) values: {sorted(kinds)}")
    (k, variant), = kinds
    records = sorted(records, key=lambda rec: rec.trial_index)
    n = len(records)
    cov_frac = np.array([rec.coverage_fraction for rec in records])
    ratio_d = np.array([rec.ratio_discrete for rec in records])
    ratio_c = np.array([rec.ratio_continuous for rec in records])
    miss = np.array([rec.early_miss for rec in records])

    thresholds = (
        (f"ratio_discrete<(9-eta)/8={_fmt((9.0 - eta) / 8.0)}", (9.0 - eta) / 8.0),
        ("ratio_discrete<17/16", 17.0 / 16.0),
        ("ratio_discrete<9/8", 9.0 / 8.0),
    )
    tails = tuple(_binomial(label, int((ratio_d < t).sum()), n)
                  for label, t in thresholds)
    early = _binomial("early_miss", int(miss.sum()), n)
    high = _binomial(f"coverage_fraction>eta={_fmt(eta)}",
                     int((cov_frac > eta).sum()), n)

    bound_rows = []
    for name, empirical in (("early_miss", early.p), ("high_coverage", high.p)):
        value = bounds.evaluate(name, k, alpha=alpha, beta=beta)
        bound_rows.append(BoundRow(name=name, value=value,
                                   vacuous=bounds.is_vacuous(value),
                                   empirical=empirical))

    return SummaryStats(
        n_trials=n,
        k=k,
        variant=variant,
        eta=eta,
        alpha=alpha,
        beta=beta,
        metrics=(
            ("coverage_fraction", _metric(cov_frac)),
            ("ratio_discrete", _metric(ratio_d)),
            ("ratio_continuous", _metric(ratio_c)),
        ),
        ratio_tails=tails,
        early_miss=early,
        high_coverage=high,
        bounds=tuple(bound_rows),
    )


def report(summary: SummaryStats, fmt: str = "text") -> str:
    """Render a summary as a deterministic document (text or CSV)."""
    if fmt == "text":
        return _report_text(summary)
    if fmt == "csv":
        return _report_csv(summary)
    raise ConfigError(f"format must be text or csv, got {fmt!r}")


def _report_text(s: SummaryStats) -> str:
    lines = [
        "seedbounds experiment summary",
        "=============================",
        (f"variant={s.variant} k={s.k} ell={s.ell} trials={s.n_trials}"
         f" eta={_fmt(s.eta)} alpha={_fmt(s.alpha)} beta={_fmt(s.beta)}"),
        f"rng={rng.ALGORITHM}",
        "",
        "metric,mean,min," + ",".join(f"p{int(q * 100):02d}" for q in QUANTILES) + ",max",
    ]
    for name, m in s.metrics:
        cells = [name, _fmt(m.mean), _fmt(m.minimum)]
        cells += [_fmt(v) for _, v in m.quantiles]
        cells.append(_fmt(m.maximum))
        lines.append(",".join(cells))
    lines.append("")
    lines.append("tail probabilities (Wilson 95%)")
    for b in (*s.ratio_tails, s.early_miss, s.high_coverage):
        lines.append(f"P[{b.label}] = {b.count}/{b.n} -> p={_fmt(b.p)}"
                     f" interval=[{_fmt(b.low)},{_fmt(b.high)}]")
    lines.append("")
    lines.append(f"closed-form bounds at k={s.k}")
    vacuous = []
    for row in s.bounds:
        flag = " VACUOUS(>1)" if row.vacuous else ""
        lines.append(f"{row.name}: bound={_fmt(row.value)}"
                     f" empirical={_fmt(row.empirical)}{flag}")
        if row.vacuous:
            vacuous.append(row.name)
    lines.append("vacuous bounds: " + (",".join(vacuous) if vacuous else "none"))
    return "\n".join(lines) + "\n"


def _report_csv(s: SummaryStats) -> str:
    rows = [("section", "key", "value")]
    for key, val in (("variant", s.variant), ("k", str(s.k)), ("ell", str(s.ell)),
                     ("trials", str(s.n_trials)), ("eta", _fmt(s.eta)),
                     ("alpha", _fmt(s.alpha)), ("beta", _fmt(s.beta)),
                     ("rng", rng.ALGORITHM)):
        rows.append(("config", key, val))
    for name, m in s.metrics:
        rows.append(("metric", f"{name}.mean", _fmt(m.mean)))
        rows.append(("metric", f"{name}.min", _fmt(m.minimum)))
        for q, v in m.quantiles:
            rows.append(("metric", f"{name}.p{int(q * 100):02d}", _fmt(v)))
        rows.append(("metric", f"{name}.max", _fmt(m.maximum)))
    for b in (*s.ratio_tails, s.early_miss, s.high_coverage):
        rows.append(("tail", f"{b.label}.count", str(b.count)))
        rows.append(("tail", f"{b.label}.p", _fmt(b.p)))
        rows.append(("tail", f"{b.label}.wilson_low", _fmt(b.low)))
        rows.append(("tail", f"{b.label}.wilson_high", _fmt(b.high)))
    for row in s.bounds:
        rows.append(("bound", f"{row.name}.value", _fmt(row.value)))
        rows.append(("bound", f"{row.name}.vacuous", "1" if row.vacuous else "0"))
        rows.append(("bound", f"{row.name}.empirical", _fmt(row.empirical)))
    return "\n".join(",".join(r) for r in rows) + "\n"
