"""Experiment driver, summary statistics, and deterministic reports.

``run_experiment`` builds the instance once and executes independent
seeding trials, optionally across worker processes that each receive the
instance and one contiguous trial range; for a fixed master seed the
results are identical whatever the worker count, because every trial's
randomness is a pure function of (master_seed, trial_index).

Results travel as one columnar ``TrialTable`` from ``run_experiment``
through ``write_trials_csv``, ``read_trials_csv`` and ``summarize``; a
``TrialRecord`` is its per-row view.  The table holds what trials.csv
holds, ratios as the doubles of their 15-digit text and no coverage
fraction, so a table in memory and its trials.csv read back give the same
summary bytes.  The reader turns the header's config line back into the
``ExperimentConfig`` it echoes and accepts exactly the trials 0 .. trials - 1
it names.  Final costs repeat heavily (361 distinct of 30,000 at kmedian
k=16), so each distinct cost is divided by the reference optima and
formatted once, and each distinct row text after the trial index (548
of those 30,000) is parsed once, with ``ExtScalar``'s ``ratio``,
``format_sci`` and ``parse`` as the only arithmetic and text code.
``summarize``/``report`` turn a table into a byte-stable text or CSV
document comparing empirical tails against the closed-form bounds.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields, replace

import numpy as np

from . import bounds, rng
from .core import ELL
from .errors import ConfigError
from .extfloat import ExtScalar
from .instances import _check_params, gen_kmeans_bad, gen_kmedian_bad, reference_costs
from .seeding import TrialArrays, run_trials

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TrialTable",
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
        _check_params(self.k, self.m, self.r)
        # trial indices are int64: 0 .. 2**63 - 1
        if not 1 <= self.trials <= 2**63:
            raise ConfigError(f"trials must lie in 1 .. 2**63, got {self.trials}")
        rng.check_seed(self.master_seed)
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
    """One trial's outcome: a row of a ``TrialTable``."""

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


# The per-trial columns of a TrialTable; final_cost is the (final_m, final_e) pair.
_TABLE_COLUMNS = (
    "trial_index", "coverage_count", "final_m", "final_e",
    "ratio_discrete", "ratio_continuous", "early_miss",
)


@dataclass(frozen=True, eq=False)
class TrialTable:
    """Trial outcomes of one (k, variant) as numpy columns, one row per trial.

    It holds what trials.csv holds: ``final_m``/``final_e`` hold each final
    cost as its ``ExtScalar`` mantissa and exponent, the ratios are the
    doubles of their 15-digit text, and ``coverage_fraction`` is derived
    from the count.  So a table and its trials.csv read back differ at most
    in the last bits of a final cost, which the file holds to 16 digits.
    ``table[i]`` and iteration give ``TrialRecord`` rows, with Python ints,
    floats and bools and an ``ExtScalar`` final cost; a slice gives a
    table.  Tables compare equal when k, variant and every column are equal.
    """

    k: int
    variant: str
    trial_index: np.ndarray       # int64
    coverage_count: np.ndarray    # int64
    final_m: np.ndarray
    final_e: np.ndarray           # int64
    ratio_discrete: np.ndarray
    ratio_continuous: np.ndarray
    early_miss: np.ndarray        # bool

    @property
    def coverage_fraction(self) -> np.ndarray:
        """coverage_count / k, as the trials.csv writer derives its column."""
        return self.coverage_count / self.k

    def __len__(self) -> int:
        return len(self.trial_index)

    def _record(self, t, count, m, e, ratio_d, ratio_c, miss) -> TrialRecord:
        return TrialRecord(t, self.k, self.variant, count, count / self.k,
                           ExtScalar(m, e), ratio_d, ratio_c, miss)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, **{name: getattr(self, name)[i] for name in _TABLE_COLUMNS})
        return self._record(*(getattr(self, name)[i].item() for name in _TABLE_COLUMNS))

    def __iter__(self):
        for row in zip(*(getattr(self, name).tolist() for name in _TABLE_COLUMNS)):
            yield self._record(*row)

    def __eq__(self, other):
        if not isinstance(other, TrialTable):
            return NotImplemented
        return ((self.k, self.variant) == (other.k, other.variant)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _TABLE_COLUMNS))


def _distinct_costs(final_m: np.ndarray, final_e: np.ndarray):
    """(the distinct (m, e) pairs as ExtScalars, each row's index among them).

    One key per row from the ranks of its mantissa bits and its exponent:
    three 1-D sorts, where a unique over (m, e) rows sorts opaque records.
    """
    m_vals, m_rank = np.unique(final_m.view(np.int64), return_inverse=True)
    e_vals, e_rank = np.unique(final_e, return_inverse=True)
    keys, inverse = np.unique(e_rank * len(m_vals) + m_rank, return_inverse=True)
    e_of, m_of = np.divmod(keys, len(m_vals))
    costs = [ExtScalar(m, e) for m, e in zip(m_vals[m_of].view(np.float64).tolist(),
                                             e_vals[e_of].tolist())]
    return costs, inverse.reshape(-1)


def _instance_for(cfg: ExperimentConfig):
    gen = gen_kmeans_bad if cfg.variant == "kmeans" else gen_kmedian_bad
    return gen(cfg.k, cfg.m, cfg.r)


def _run_block(inst, cfg: ExperimentConfig, lo: int, hi: int) -> TrialArrays:
    """Trials lo..hi-1 of cfg on inst, in a worker process or in-process."""
    return run_trials(inst, hi - lo, cfg.master_seed, alpha=cfg.alpha, beta=cfg.beta,
                      first_trial=lo)


def run_experiment(cfg: ExperimentConfig) -> TrialTable:
    """Run cfg.trials independent seeding trials; a table in trial-index order.

    The workers' ``TrialArrays`` are concatenated, final costs as the
    engine gives them.  Each distinct final cost becomes one ``ExtScalar``,
    whose ``ratio`` to the two reference optima is taken once for all the
    trials that share it and kept as the double its trials.csv text reads
    back to.
    """
    cfg.validate()
    inst = _instance_for(cfg)
    step = -(-cfg.trials // cfg.workers)
    los = range(0, cfg.trials, step)
    his = [min(lo + step, cfg.trials) for lo in los]
    if len(los) > 1:
        # imported here: the process pool's modules take about 16 ms to import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(los)) as pool:
            parts = list(pool.map(_run_block, [inst] * len(los), [cfg] * len(los),
                                  los, his))
    else:
        parts = [_run_block(inst, cfg, 0, cfg.trials)]
    trials = TrialArrays(*(np.concatenate([getattr(p, f.name) for p in parts])
                           for f in fields(TrialArrays)))

    opt = reference_costs(inst)
    costs, inverse = _distinct_costs(trials.final_m, trials.final_e)
    return TrialTable(
        cfg.k, cfg.variant,
        trial_index=trials.trial_indices,
        coverage_count=trials.coverage,
        final_m=trials.final_m,
        final_e=trials.final_e,
        # 15 digits survive a round trip through a double, so these write
        # the same text as the full-precision ratios would
        ratio_discrete=np.array([float(_fmt(c.ratio(opt.discrete)))
                                 for c in costs])[inverse],
        ratio_continuous=np.array([float(_fmt(c.ratio(opt.continuous)))
                                   for c in costs])[inverse],
        early_miss=trials.early_miss,
    )


# ---------------------------------------------------------------------------
# trials.csv
# ---------------------------------------------------------------------------

def _texts(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of each entry of ``values`` as an object array, called once per
    distinct value (distinct by bits, so 0.0 and -0.0 stay apart)."""
    bits = values.view(np.dtype(f"i{values.itemsize}"))
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([fmt(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
    return text[inverse.reshape(-1)]


def write_trials_csv(table: TrialTable, cfg: ExperimentConfig, path) -> None:
    """Write a TrialTable as trials.csv v2 under the header of ``cfg``.

    Each distinct value of a column is formatted once (``format_sci`` for
    the final cost, ``_fmt`` for the ratios and for each coverage count's
    count / k), and the rows are written in blocks of the
    ``rng.trial_chunks`` grid, so the file never exists as one string.
    Raises ConfigError, before the file is opened, unless the table's k
    and variant are ``cfg``'s and its trial indices are 0 .. cfg.trials - 1
    in some order: the reader refuses any other file.
    """
    if (table.k, table.variant) != (cfg.k, cfg.variant):
        raise ConfigError(f"a k={table.k} {table.variant} table cannot be written under"
                          f" the header config k={cfg.k} variant={cfg.variant}")
    if len(table) != cfg.trials or not np.array_equal(np.sort(table.trial_index),
                                                      np.arange(cfg.trials)):
        raise ConfigError(f"a table of {len(table)} trials that are not trials"
                          f" 0..{cfg.trials - 1} cannot be written under the header"
                          f" config trials={cfg.trials}")
    costs, inverse = _distinct_costs(table.final_m, table.final_e)
    columns = (
        _texts(table.coverage_count, str),
        _texts(table.coverage_count, lambda count: _fmt(count / table.k)),
        np.array([c.format_sci() for c in costs], dtype=object)[inverse],
        _texts(table.ratio_discrete, _fmt),
        _texts(table.ratio_continuous, _fmt),
        _texts(table.early_miss, lambda miss: "1" if miss else "0"),
    )
    header = [_VERSION_LINE, f"# config {cfg.echo()}", f"# rng {rng.ALGORITHM}",
              ",".join(TRIAL_COLUMNS)]
    fixed = f",{table.k},{table.variant},"
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(header) + "\n")
        for lo, hi in rng.trial_chunks(0, len(table), len(TRIAL_COLUMNS)):
            rest = map(",".join, zip(*(col[lo:hi].tolist() for col in columns)))
            fh.write("".join([f"{t}{fixed}{r}\n" for t, r in
                              zip(table.trial_index[lo:hi].tolist(), rest)]))


def _int_field(text: str) -> int:
    """The int a field holds; ValueError unless it is in ``str(int)`` form."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not written as {value}")
    return value


def _cost_fields(text: str, k: int):
    """(m, e) of a final cost whose decimal exponent is at most 1000 + k in
    absolute value (:func:`read_trials_csv`), checked before it is parsed."""
    digits = text.rpartition("e")[2].lstrip("+-").lstrip("0")
    bound = 1000 + k
    if len(digits) > len(str(bound)) or int(digits or "0") > bound:
        raise ValueError(f"final cost {text!r} has a decimal exponent beyond +/-{bound}")
    cost = ExtScalar.parse(text)
    return cost.m, cost.e


class _HeaderMismatch(Exception):
    """A row's k or variant is not the header config's."""


class _DistinctRows(dict):
    """The row id of each trials.csv row remainder (the text after the
    trial index), and the values of the distinct rows as ``array`` columns.

    A remainder not held is checked by ``__missing__`` and its values are
    appended as a new row.  Past ``rng.CHUNK_ELEMS`` remainders the dict
    forgets them and starts over, so a file of mostly distinct rows keeps
    bounded memory; the rows, and so the ids already given, stay.
    """

    def __init__(self, k: int, variant: str):
        super().__init__()
        self.k = k
        self.config = [str(k), variant]
        self.columns = {name: array(code) for name, code in
                        zip(_TABLE_COLUMNS[1:], "qdqddb")}

    def __missing__(self, rest: str) -> int:
        """Check a remainder and append its values as a row; the row's id.

        Raises _HeaderMismatch, or ValueError for a malformed remainder.
        """
        f = rest.split(",")
        if f[:2] != self.config:
            raise _HeaderMismatch
        if len(f) != len(TRIAL_COLUMNS) - 1 or f[7] not in ("0", "1"):
            raise ValueError("wrong field count or early_miss flag")
        count = _int_field(f[2])
        if not 1 <= count <= self.k:
            raise ValueError(f"coverage count {count} outside 1..{self.k}")
        if f[3] != _fmt(count / self.k):
            raise ValueError("coverage fraction disagrees with the count")
        m, e = _cost_fields(f[4], self.k)
        ratios = float(f[5]), float(f[6])
        if not all(0.0 < ratio < math.inf for ratio in ratios):
            raise ValueError("a cost ratio is not finite and positive")
        if len(self) >= rng.CHUNK_ELEMS:
            self.clear()
        for col, value in zip(self.columns.values(), (count, m, e, *ratios, f[7] == "1")):
            col.append(value)
        row = self[rest] = len(col) - 1
        return row

    def gather(self, ids: np.ndarray) -> dict:
        """The columns of the rows ``ids``, as numpy arrays."""
        out = {name: np.frombuffer(col, dtype=col.typecode)[ids]
               for name, col in self.columns.items()}
        out["early_miss"] = out["early_miss"].view(bool)
        return out


def _nonblank_lines(path, fh):
    """The lines of ``fh`` without their newline; ConfigError naming the
    first blank one by its number, since the writer never writes one."""
    for number, raw in enumerate(fh, 1):
        line = raw.rstrip("\n")
        if not line:
            raise ConfigError(f"{path}: line {number} is blank")
        yield line


def _row_error(path, line: str, config, exc: Exception) -> ConfigError:
    """The refusal of a data line that failed its checks with ``exc``."""
    if line.startswith("#"):   # its trial index fails int(), so every such line ends here
        return ConfigError(f"{path}: comment line {line!r} after the column header")
    if isinstance(exc, _HeaderMismatch):
        return ConfigError(f"{path}: row {line!r} does not match the header's"
                           f" k={config[0]} variant={config[1]}")
    return ConfigError(f"{path}: malformed row {line!r}")


def _header_config(path, line: str) -> ExperimentConfig:
    """The config whose ``# config`` line is ``line``, each value converted by
    the type of its field's default.  Raises ConfigError unless the config
    is valid and ``line`` is exactly the line the writer writes for it."""
    types = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    try:
        values = dict(part.split("=", 1) for part in line.removeprefix("# config ").split(" "))
        cfg = ExperimentConfig(**{key: types[key](value)
                                  for key, value in values.items()})
        cfg.validate()
        if f"# config {cfg.echo()}" != line:
            raise ValueError(f"the writer writes '# config {cfg.echo()}'")
    except (KeyError, ValueError) as exc:   # ConfigError is a ValueError
        raise ConfigError(f"{path}: {line!r} is not a config line the writer"
                          f" writes ({exc})") from None
    return cfg


def read_trials_csv(path):
    """Returns (TrialTable, the ExperimentConfig of the header's config line).

    The file is streamed line by line.  Each data line is split once at
    its first comma: the trial index is checked on every line, and the
    remainder is looked up in one dict of the remainders already seen,
    whose miss checks the rest of the row and appends its values to the
    distinct rows.  Per line only the trial index and that row's id are
    kept, so ``ExtScalar.parse`` and ``float`` run once per distinct
    remainder (a few hundred in 30,000 kmedian k=16 trials).  The table
    holds the values of the text and no coverage fraction, which it
    derives from the count.

    Raises ConfigError unless the file opens with the four header lines
    the writer writes: the v2 version line, a config line that is the
    ``echo`` of a valid config (:func:`_header_config`), ``# rng`` with
    ``rng.ALGORITHM`` and the column line.  Its rows must then be exactly
    the header's trials 0 .. trials - 1, in any order: no comment line, no
    row whose k or variant differs from the header's, no repeated trial
    index, and neither fewer nor more rows, so a file cut at a line
    boundary is refused.  No line, in the header or among the rows, may be
    blank; that refusal gives the line's number.  A row is malformed unless
    it has one field per column, every integer field in its ``str(int)``
    form, a trial index in 0 .. trials - 1, a coverage count in 1 .. k, a
    coverage fraction written as the writer writes count / k, parseable
    numbers, a final cost whose decimal exponent is at most 1000 + k in
    absolute value, finite positive ratios, and an ``early_miss`` of 0 or
    1.  A row whose k or variant differs from the header's is refused as
    such, malformed or not.  Every refusal names the first offending line.
    A record's ``ell`` is its variant's distance power, so the file does
    not store it.  Files of any other version, v1 included, are refused:
    rerun ``seedbounds seed`` with the parameters of their config line.

    The exponent bound holds for every config the writer accepts: with
    m in [1, 2**1024) and r in [2**-1074, 2**1024), weights between
    m * 4**-(k-1) and m, and distinct locations between r and 2**(k+1) * r
    apart, a nonzero cost of k centers on the 2k locations lies between
    4**-(k-1) * r**2 and 2k * m * 4**(k+1) * r**2 for kmeans, and between
    2**-(k-1) * r and 2k * m * 2**(k+1) * r for kmedian: within
    10**(+/-(926 + 0.61 * k + log10 k)).  It is checked on the text,
    before ``ExtScalar.parse`` builds ``10**exponent`` as an exact integer,
    so a corrupt exponent costs no more time than any other bad field.
    """
    indices, ids = array("q"), array("q")
    add_index, add_id = indices.append, ids.append
    last, seen = -1, None   # largest trial index so far; all of them once out of order
    with open(path, newline="") as fh:
        lines = _nonblank_lines(path, fh)
        first = next(lines, None)
        if first != _VERSION_LINE:
            raise ConfigError(f"{path} does not start with {_VERSION_LINE!r} but with"
                              f" {first!r}; rerun `seedbounds seed` with the parameters"
                              " of its config line")
        cfg = _header_config(path, next(lines, ""))
        for expected in (f"# rng {rng.ALGORITHM}", ",".join(TRIAL_COLUMNS)):
            line = next(lines, None)
            if line != expected:
                raise ConfigError(f"{path}: header line {line!r} is not {expected!r}")
        rows = _DistinctRows(cfg.k, cfg.variant)
        for line in lines:
            index, _, rest = line.partition(",")
            try:
                row = rows[rest]
                t = int(index)
                if not 0 <= t < cfg.trials or str(t) != index:
                    raise ValueError("trial index out of range or not in str(int) form")
            except (_HeaderMismatch, ValueError) as exc:
                raise _row_error(path, line, rows.config, exc) from exc
            if seen is None and t <= last:   # out of trial order: index the rows so far
                seen = set(indices)
            if seen is None:
                last = t
            elif t in seen:
                raise ConfigError(f"{path}: trial index {t} repeats")
            else:
                seen.add(t)
            add_index(t)
            add_id(row)
    if len(indices) != cfg.trials:
        raise ConfigError(f"{path} holds {len(indices)} trial rows, not the header's"
                          f" trials={cfg.trials}")
    table = rows.gather(np.frombuffer(ids, dtype=np.int64))
    return TrialTable(cfg.k, cfg.variant,
                      trial_index=np.frombuffer(indices, dtype=np.int64), **table), cfg


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


def summarize(table: TrialTable, eta: float = 0.999,
              alpha: float = 0.1, beta: float = 0.1) -> SummaryStats:
    """Aggregate a TrialTable.

    The rows are taken in trial-index order, so aggregation is
    order-independent.  A table and the table read back from its
    trials.csv give the same summary, since they differ at most in final
    costs, which no statistic reads.
    """
    bounds.check_fractions(alpha, beta, eta)
    if not len(table):
        raise ConfigError("summarize needs at least one trial")
    k, variant, n = table.k, table.variant, len(table)
    order = np.argsort(table.trial_index, kind="stable")
    cov_frac = table.coverage_fraction[order]
    ratio_d = table.ratio_discrete[order]
    ratio_c = table.ratio_continuous[order]
    miss = table.early_miss

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
