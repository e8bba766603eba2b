"""Tests of the benchmark itself: its checks, its tracer and its workloads.

Run from the repository root:  python3 -m pytest seedbench -q
"""

from __future__ import annotations

import dataclasses
import json
import types
from argparse import Namespace

import pytest

import checks
import layers
import run
import workloads
from tracer import Tracer

# The workloads at sizes that keep this file fast; the same code paths and
# checks as the full-size runs of run.py.
SMALL = {
    "seed-k200": dict(trials=150),
    "seed-k2000": dict(trials=1),
    "csv-report-k16": dict(trials=3000),
    "oracles": dict(urn_k=256, mc_trials=4000, biased_mc_trials=400, brute_k=6),
}


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


def run_checked(wl, seed, workdir):
    state = wl.setup(seed)
    res = wl.run_pass(state, workdir)
    chk = checks.Checker()
    wl.check(state, res.output, chk)
    return state, res, chk


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", sorted(SMALL))
def test_no_check_fails(name, seed, tmp_path):
    _, _, chk = run_checked(small(name), seed, tmp_path)
    assert chk.attempted > 0
    assert chk.failed == 0, chk.messages


def test_corrupted_record_is_counted(tmp_path):
    wl = small("csv-report-k16")
    state, res, chk = run_checked(wl, 1, tmp_path)
    assert chk.failed == 0
    records = res.output.records
    t = state.replay_trials[0]
    for bad in (dict(coverage_count=records[t].coverage_count % wl.k + 1),
                dict(ratio_continuous=records[t].ratio_continuous * (1 + 1e-9)),
                dict(early_miss=not records[t].early_miss)):
        chk = checks.Checker()
        corrupted = list(records)
        corrupted[t] = dataclasses.replace(records[t], **bad)
        wl.check(state, dataclasses.replace(res.output, records=corrupted), chk)
        assert chk.failed >= 1, bad


def test_corrupted_csv_row_is_counted(tmp_path):
    wl = small("seed-k200")
    state, res, _ = run_checked(wl, 2, tmp_path)
    lines = res.output.csv_path.read_text().splitlines()
    fields = lines[10].split(",")
    fields[7] = repr(float(fields[7]) * (1 + 1e-9))       # ratio_discrete
    lines[10] = ",".join(fields)
    res.output.csv_path.write_text("\n".join(lines) + "\n")
    chk = checks.Checker()
    wl.check(state, res.output, chk)
    assert chk.failed >= 1


def test_corrupted_oracle_is_counted(tmp_path):
    wl = small("oracles")
    state, res, _ = run_checked(wl, 3, tmp_path)
    probs = res.output.mc.probs
    probs[wl.mc_k // 2 - 1] += 1e-6
    chk = checks.Checker()
    wl.check(state, res.output, chk)
    assert chk.failed >= 1


class _Drifting:
    """A workload whose output changes every pass."""

    def __init__(self):
        self.passes = 0

    def run_pass(self, state, workdir):
        self.passes += 1
        out = types.SimpleNamespace(digest=lambda n=self.passes: str(n))
        return workloads.PassResult(1e-3, 1, out)

    def check(self, state, out, chk):
        chk.check(True, "")


@pytest.mark.parametrize("trace", [0, 1])
def test_changed_digest_is_counted(trace, tmp_path):
    chk = checks.Checker()
    run.measure(_Drifting(), None, Namespace(seconds=0.0, trace=trace), tmp_path, chk)
    assert chk.failed == run.MIN_PASSES


def _site_values():
    return [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in layers.sites()]


@pytest.mark.parametrize("name", ["seed-k200", "oracles"])
def test_tracer_leaves_outputs_and_attributes_unchanged(name, tmp_path):
    wl = small(name)
    state = wl.setup(4)
    before = _site_values()
    plain = wl.run_pass(state, tmp_path).output.digest()
    with Tracer(layers.sites()) as tracer:
        traced = wl.run_pass(state, tmp_path).output.digest()
    assert traced == plain
    assert sum(s.calls for s in tracer.spans.values()) > 0
    for (owner, attr, raw), (_, _, now) in zip(before, _site_values()):
        assert now is raw, f"{owner.__name__}.{attr} not restored"


def test_tracer_restores_after_an_exception():
    before = _site_values()
    with pytest.raises(ZeroDivisionError):
        with Tracer(layers.sites()):
            1 / 0
    assert [v for _, _, v in _site_values()] == [v for _, _, v in before]


def test_self_times_add_up():
    mod = types.ModuleType("fake")

    def inner():
        return sum(range(20000))

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    sites = [(mod, "outer", "outer", None), (mod, "inner", "inner", None),
             (mod, "missing", "missing", None)]
    with Tracer(sites) as tracer:
        mod.outer()
    out, inn = tracer.spans["outer"], tracer.spans["inner"]
    assert (out.calls, inn.calls) == (1, 2)
    assert "missing" not in tracer.spans
    assert out.self_s + inn.self_s == pytest.approx(out.incl_s, rel=1e-9)
    assert tracer.total_self_s() == pytest.approx(out.incl_s, rel=1e-9)
    assert mod.outer is outer and mod.inner is inner


def test_engine_counters(tmp_path):
    wl = small("seed-k200")
    state = wl.setup(5)
    with Tracer(layers.sites()) as tracer:
        wl.run_pass(state, tmp_path)
    totals = layers.LayerTotals()
    totals.add(tracer, 1.0)
    m = totals.metrics(1.0)
    assert m["seeding.elem_steps"] == wl.trials * wl.k * 2 * wl.k
    assert m["seeding.chunk_bytes"] == wl.trials * 2 * wl.k * 8
    assert m["instances.gen_calls"] == m["harness.records_blocks"] + 1
    assert m["cli.main_calls"] == 1
    assert set(m) == {name for name, _ in layers.metric_units()}


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_units()
