"""Where the benchmark traces seedbounds, and the per-layer metrics it reports.

One layer per package module.  Each site below names the attribute the
package looks up at call time, so names imported into another module
(``harness.run_trials``, ``cli.summarize``, ...) are wrapped there too,
under the same span.  Hooks derive work counts from call arguments.
"""

from __future__ import annotations

import math
import os

from seedbounds import (bounds, cli, core, extfloat, harness, instances, rng,
                        seeding, urn)

# Span names in report order; each yields "<span>_s" (self seconds per
# pass) and "<span>_calls".
SPANS = (
    "cli.main",
    "harness.records", "harness.write", "harness.read", "harness.summarize",
    "harness.report",
    "seeding.engine", "seeding.exact",
    "rng.uniform", "rng.pick",
    "core.rows", "core.matrix", "core.cost",
    "instances.gen", "instances.brute",
    "urn.closed", "urn.dp", "urn.mc", "urn.biased_mc",
    "extfloat.format", "extfloat.parse", "extfloat.ratio",
    "bounds.evaluate",
)

# Work counters filled by the hooks, reported per pass.
COUNTERS = (
    ("seeding.elem_steps", "count"),
    ("core.matrix_bytes", "B"),
    ("instances.brute_subsets", "count"),
    ("urn.draws", "count"),
    ("harness.records_blocks", "count"),
    ("harness.csv_bytes", "B"),
)

# Hook values that are per-pass maxima rather than sums.
MAXIMA = ("seeding.chunk_rows", "seeding.locations")

# Computed from the counters and timings.
DERIVED = (
    ("seeding.ns_per_elem_step", "ns"),
    ("seeding.chunk_bytes", "B"),
    ("trace.pass_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace_overhead_frac", "frac"),
)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _harness_block(counts, parent, args, kwargs, result, child_calls):
    # run_trials(inst, trials, rng_seed, n_centers=None, ...), called once per
    # harness block: one step touches every location of every trial once
    # per center.
    counts["harness.records_blocks"] += 1
    inst = args[0]
    trials = _arg(args, kwargs, 1, "trials")
    n = _arg(args, kwargs, 3, "n_centers") or inst.k
    counts["seeding.elem_steps"] += trials * n * inst.n_locations
    counts["seeding.locations"] = max(counts["seeding.locations"], inst.n_locations)


def _uniform(counts, parent, args, kwargs, result, child_calls):
    # Rows of one engine chunk: uniform_matrix(seed, trial_indices, n).
    if parent == "seeding.engine":
        rows = len(_arg(args, kwargs, 1, "trial_indices"))
        counts["seeding.chunk_rows"] = max(counts["seeding.chunk_rows"], rows)


def _matrix(counts, parent, args, kwargs, result, child_calls):
    # A call that computed distance rows built the matrix; others hit the cache.
    if child_calls:
        counts["core.matrix_bytes"] += sum(a.nbytes for a in result)


def _brute(counts, parent, args, kwargs, result, child_calls):
    inst = args[0]
    n = _arg(args, kwargs, 1, "n_centers") or inst.k
    counts["instances.brute_subsets"] += math.comb(inst.n_locations, n)


def _draws(counts, parent, args, kwargs, result, child_calls):
    # Both Monte Carlo urns draw k balls per trial: (k, [gamma,] trials, seed).
    k = args[0]
    trials = args[-2] if len(args) >= 3 else kwargs["trials"]
    counts["urn.draws"] += k * trials


def _csv_bytes(counts, parent, args, kwargs, result, child_calls):
    counts["harness.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 2, "path"))


def sites():
    ext = extfloat.ExtScalar
    inst = core.Instance
    return (
        (cli, "main", "cli.main", None),
        (harness, "run_experiment", "harness.records", None),
        (harness, "write_trials_csv", "harness.write", _csv_bytes),
        (cli, "read_trials_csv", "harness.read", None),
        (cli, "summarize", "harness.summarize", None),
        (cli, "report", "harness.report", None),
        (harness, "run_trials", "seeding.engine", _harness_block),
        (seeding, "exact_distribution", "seeding.exact", None),
        (rng, "uniform_matrix", "rng.uniform", _uniform),
        (rng, "weighted_pick", "rng.pick", None),
        (inst, "distpow_rows", "core.rows", None),
        (inst, "weighted_distpow", "core.matrix", _matrix),
        (instances, "cost", "core.cost", None),
        (harness, "gen_kmeans_bad", "instances.gen", None),
        (harness, "gen_kmedian_bad", "instances.gen", None),
        (instances, "brute_force_opt", "instances.brute", _brute),
        (urn, "distinct_colors_exact", "urn.closed", None),
        (urn, "biased_distinct_colors_dp", "urn.dp", None),
        (urn, "distinct_colors_mc", "urn.mc", _draws),
        (urn, "biased_distinct_colors_mc", "urn.biased_mc", _draws),
        (ext, "format_sci", "extfloat.format", None),
        (ext, "parse", "extfloat.parse", None),
        (ext, "ratio", "extfloat.ratio", None),
        (bounds, "evaluate", "bounds.evaluate", None),
    )


def metric_units():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for span in SPANS:
        out += [(f"{span}_s", "s"), (f"{span}_calls", "count")]
    return out + list(COUNTERS) + list(DERIVED)


class LayerTotals:
    """Sums traced passes so per-pass means stay additive."""

    def __init__(self):
        self.passes = 0
        self.wall_s = 0.0
        self.spans = {span: [0, 0.0, 0.0] for span in SPANS}
        self.counts: dict[str, float] = {}

    def add(self, tracer, wall_s: float) -> None:
        self.passes += 1
        self.wall_s += wall_s
        for span, st in tracer.spans.items():
            acc = self.spans[span]
            acc[0] += st.calls
            acc[1] += st.self_s
            acc[2] += st.incl_s
        for name, value in tracer.counts.items():
            prev = self.counts.get(name, 0)
            self.counts[name] = max(prev, value) if name in MAXIMA else prev + value

    def metrics(self, untraced_pass_s: float) -> dict[str, float]:
        n = self.passes
        out = {}
        for span, (calls, self_s, _) in self.spans.items():
            out[f"{span}_s"] = self_s / n
            out[f"{span}_calls"] = calls / n
        for name, _ in COUNTERS:
            out[name] = self.counts.get(name, 0) / n
        steps = self.counts.get("seeding.elem_steps", 0)
        engine_incl = self.spans["seeding.engine"][2]
        out["seeding.ns_per_elem_step"] = engine_incl * 1e9 / steps if steps else 0.0
        # One (T, 2k) float64 work array of the largest engine chunk.
        out["seeding.chunk_bytes"] = (self.counts.get("seeding.chunk_rows", 0)
                                      * self.counts.get("seeding.locations", 0) * 8)
        traced = self.wall_s / n
        out["trace.pass_s"] = traced
        out["trace.unattributed_s"] = traced - sum(a[1] for a in self.spans.values()) / n
        out["trace_overhead_frac"] = traced / untraced_pass_s - 1.0
        return out
