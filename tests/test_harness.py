import csv
import dataclasses
import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from seedbounds import cli, harness, rng
from seedbounds.errors import ConfigError
from seedbounds.extfloat import ExtScalar
from seedbounds.harness import (ExperimentConfig, TrialRecord, TrialTable, _fmt,
                                _instance_for, read_trials_csv, report,
                                run_experiment, summarize, wilson_interval,
                                write_trials_csv)
from seedbounds.instances import reference_costs
from seedbounds.seeding import run_trials

from conftest import assert_rel_close


@pytest.fixture(scope="module")
def small_records():
    cfg = ExperimentConfig(variant="kmeans", k=6, m=4.0, r=1.0, trials=500,
                           master_seed=11)
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="module")
def kmedian_k16_records():
    # few distinct final costs and rows over many trials
    cfg = ExperimentConfig(variant="kmedian", k=16, trials=30_000, master_seed=7)
    return cfg, run_experiment(cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    ExperimentConfig().validate()
    bad = [
        dict(variant="kmodes"), dict(k=0), dict(m=0.5), dict(r=-1.0),
        dict(trials=0), dict(alpha=0.0), dict(beta=2.0), dict(eta=1.0),
        dict(workers=0), dict(trials=2**63 + 1),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            ExperimentConfig(**kw).validate()
    # trial indices 0 .. 2**63 - 1 are the int64 range
    ExperimentConfig(trials=2**63).validate()


def test_config_ell_defaults():
    assert ExperimentConfig(variant="kmeans").resolved_ell() == 2
    assert ExperimentConfig(variant="kmedian").resolved_ell() == 1
    # the variant fixes the distance power; there is no field to override it
    with pytest.raises(TypeError):
        ExperimentConfig(variant="kmeans", ell=1)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_records_sorted_and_invariant(small_records):
    cfg, records = small_records
    assert len(records) == cfg.trials
    assert [r.trial_index for r in records] == list(range(cfg.trials))
    for rec in records:
        assert rec.ratio_discrete >= 1.0 - 1e-9
        assert 0.0 < rec.coverage_fraction <= 1.0
        assert rec.coverage_count == round(rec.coverage_fraction * cfg.k)
        # squared-cost variant: continuous reference is half the discrete one
        assert_rel_close(rec.ratio_continuous, 2.0 * rec.ratio_discrete, 1e-9)
        # per-trial coverage floor
        floor = (9.0 - rec.coverage_fraction) / 8.0
        assert rec.ratio_discrete >= floor - 1e-9


def test_kmedian_ratio_continuous_equals_discrete():
    cfg = ExperimentConfig(variant="kmedian", k=4, m=2.0, trials=50, master_seed=3)
    for rec in run_experiment(cfg):
        assert_rel_close(rec.ratio_continuous, rec.ratio_discrete, 1e-12)


def test_single_trial_repeatable():
    cfg = ExperimentConfig(k=4, trials=1, master_seed=99)
    assert run_experiment(cfg) == run_experiment(cfg)


def test_worker_count_does_not_change_records(monkeypatch):
    from seedbounds import rng
    monkeypatch.setattr(rng, "CHUNK_ELEMS", 512)  # several chunks per range
    # 203 trials split into ranges of 102 + 101 and 68 + 68 + 67
    base = run_experiment(ExperimentConfig(k=5, trials=203, master_seed=7, workers=1))
    assert [r.trial_index for r in base] == list(range(203))
    for workers in (2, 3):
        cfg = ExperimentConfig(k=5, trials=203, master_seed=7, workers=workers)
        assert run_experiment(cfg) == base


def test_trial_record_pickles(small_records):
    _, records = small_records
    rows = list(records[:5])
    assert pickle.loads(pickle.dumps(rows)) == rows
    assert pickle.loads(pickle.dumps(records[:5])) == records[:5]


@pytest.mark.parametrize("variant, k, r, trials", [("kmeans", 2000, 1e300, 2),
                                                   ("kmedian", 16, 1.0, 3000)])
def test_table_matches_per_row_reference(tmp_path, variant, k, r, trials):
    # the columnar table, the writer and the reader against records built,
    # formatted and parsed one row at a time with the ExtScalar reference;
    # kmeans k=2000 at r=1e300 has final costs near 2**2006, past the doubles.
    # The table holds each ratio as the double of its trials.csv text.
    cfg = ExperimentConfig(variant=variant, k=k, r=r, trials=trials, master_seed=5)
    table = run_experiment(cfg)
    inst = _instance_for(cfg)
    arrays = run_trials(inst, trials, cfg.master_seed, alpha=cfg.alpha, beta=cfg.beta)
    opt = reference_costs(inst)
    expected = []
    for i in range(trials):
        final = ExtScalar(float(arrays.final_m[i]), int(arrays.final_e[i]))
        count = int(arrays.coverage[i])
        expected.append(TrialRecord(
            int(arrays.trial_indices[i]), k, variant, count, count / k, final,
            float(_fmt(final.ratio(opt.discrete))),
            float(_fmt(final.ratio(opt.continuous))), bool(arrays.early_miss[i])))
    assert list(table) == expected
    assert [table[i] for i in range(trials)] == expected and table[-1] == expected[-1]
    assert isinstance(table[1:], TrialTable) and list(table[1:]) == expected[1:]

    path = tmp_path / "trials.csv"
    write_trials_csv(table, cfg, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[4:]]
    assert rows == [[str(r.trial_index), str(k), variant, str(r.coverage_count),
                     _fmt(r.coverage_fraction), r.final_cost.format_sci(),
                     _fmt(r.ratio_discrete), _fmt(r.ratio_continuous),
                     "1" if r.early_miss else "0"] for r in expected]
    back, _ = read_trials_csv(path)
    assert list(back) == [
        TrialRecord(int(f[0]), int(f[1]), f[2], int(f[3]), float(f[4]),
                    ExtScalar.parse(f[5]), float(f[6]), float(f[7]), f[8] == "1")
        for f in rows]
    # only the final costs, written to 16 digits, may differ from the table's
    for name in ("trial_index", "coverage_count", "ratio_discrete", "ratio_continuous",
                 "early_miss"):
        assert np.array_equal(getattr(back, name), getattr(table, name)), name


def test_trials_csv_write_and_read_hold_no_object_per_row(tmp_path, kmedian_k16_records):
    # formatting once per distinct value and streaming the file keep the
    # write and the read near the table's own column bytes; per-row records
    # and the whole file as one string cost several times that
    cfg, table = kmedian_k16_records
    nbytes = sum(getattr(table, name).nbytes for name in harness._TABLE_COLUMNS)
    path = tmp_path / "trials.csv"
    tracemalloc.start()
    try:
        write_trials_csv(table, cfg, path)
        back, _ = read_trials_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.trial_index, table.trial_index)
    assert peak < 4 * nbytes


def test_mean_ratio_matches_exact_oracle():
    from seedbounds.instances import gen_kmeans_bad
    from seedbounds.seeding import exact_distribution
    cfg = ExperimentConfig(k=2, m=4.0, trials=10**4, master_seed=7)
    records = run_experiment(cfg)
    dist, expected = exact_distribution(gen_kmeans_bad(2, 4.0, 1.0))
    ratios = np.array([r.ratio_discrete for r in records])
    se = ratios.std() / math.sqrt(len(ratios))
    assert abs(ratios.mean() - expected) <= 4 * se
    full = np.mean([r.coverage_count == 2 for r in records])
    p = dist.probs[2]
    assert abs(full - p) <= 4 * math.sqrt(p * (1 - p) / len(records))


# ---------------------------------------------------------------------------
# trials.csv round trip
# ---------------------------------------------------------------------------

def test_trials_csv_round_trip(tmp_path, small_records):
    cfg, records = small_records
    path = tmp_path / "trials.csv"
    write_trials_csv(records, cfg, path)
    back, header = read_trials_csv(path)
    assert header == cfg
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.trial_index == b.trial_index
        assert a.coverage_count == b.coverage_count
        assert a.early_miss == b.early_miss
        assert_rel_close(b.ratio_discrete, a.ratio_discrete, 1e-14)
        assert_rel_close(b.final_cost.to_float(), a.final_cost.to_float(), 1e-12)


def test_trials_csv_identical_bytes(tmp_path, small_records):
    cfg, records = small_records
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trials_csv(records, cfg, p1)
    write_trials_csv(records, cfg, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _edited_trials_csv(tmp_path, small_records, edit):
    cfg, records = small_records
    path = tmp_path / "trials.csv"
    write_trials_csv(records[:20], dataclasses.replace(cfg, trials=20), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return path


def test_read_rejects_missing_version_line(tmp_path, small_records):
    path = _edited_trials_csv(tmp_path, small_records, lambda lines: lines[1:])
    with pytest.raises(ConfigError, match="does not start with"):
        read_trials_csv(path)


def test_read_rejects_foreign_rng(tmp_path, small_records):
    path = _edited_trials_csv(tmp_path, small_records, lambda lines: [
        "# rng pcg64" if line.startswith("# rng ") else line for line in lines])
    with pytest.raises(ConfigError, match="'# rng pcg64' is not '# rng splitmix64"):
        read_trials_csv(path)


@pytest.mark.parametrize("column, value", [(1, "7"), (2, "kmedian")])
def test_read_rejects_row_that_differs_from_header(tmp_path, small_records, column, value):
    def edit(lines):
        f = lines[-1].split(",")
        f[column] = value
        return lines[:-1] + [",".join(f)]
    path = _edited_trials_csv(tmp_path, small_records, edit)
    with pytest.raises(ConfigError, match="does not match the header"):
        read_trials_csv(path)


def test_read_rejects_v1_file(tmp_path, small_records, capsys):
    # v1 stored each variant's distance power as a header field and a column
    def edit(lines):
        out = ["# seedbounds trials v1", lines[1].replace(" trials=", " ell=2 trials="),
               lines[2]]
        for line in lines[3:]:
            f = line.split(",")
            out.append(",".join(f[:3] + ["ell" if f[0] == "trial_index" else "2"] + f[3:]))
        return out
    path = _edited_trials_csv(tmp_path, small_records, edit)
    with pytest.raises(ConfigError, match="rerun `seedbounds seed`"):
        read_trials_csv(path)
    capsys.readouterr()
    assert cli.main(["report", str(path)]) == 2
    assert "'# seedbounds trials v1'" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("variant=kmeans", "variant=kmeanz"), (" k=6", ""), (" k=6", " k=ten"),
    (" k=6", " k=06"), ("trials=20", "trials=1_000"), ("eta=0.999", "eta=1.5"),
    ("eta=0.999", "eta=0.999 workers=2"), ("trials=20", "trials=9223372036854775809"),
], ids=["variant-kmeanz", "missing-k", "k-word", "k-zero-led", "trials-digit-separator",
        "eta-out-of-range", "extra-workers", "trials-beyond-int64"])
def test_read_refuses_a_config_line_the_writer_never_writes(tmp_path, small_records,
                                                            capsys, old, new):
    path = _edited_trials_csv(tmp_path, small_records, lambda lines: [
        lines[0], lines[1].replace(old, new), *lines[2:]])
    with pytest.raises(ConfigError, match="is not a config line the writer writes"):
        read_trials_csv(path)
    assert cli.main(["report", str(path)]) == 2
    assert "is not a config line the writer writes" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:-10], "holds 10 trial rows, not the header's trials=20"),
    (lambda lines: lines[:4], "holds 0 trial rows, not the header's trials=20"),
    (lambda lines: lines[:-1] + [_with_field(lines[-1], 0, "20")], "malformed row '20,"),
    (lambda lines: lines + [_with_field(lines[-1], 0, "25")], "malformed row '25,"),
    # the largest header trials: its last index is the largest int64
    (lambda lines: [lines[0], lines[1].replace("trials=20", "trials=9223372036854775808"),
                    *lines[2:-1], _with_field(lines[-1], 0, "9223372036854775807")],
     "holds 20 trial rows, not the header's trials=9223372036854775808"),
], ids=["cut-at-a-line", "no-rows", "index-equal-to-trials", "extra-row-beyond-trials",
        "largest-index"])
def test_read_refuses_a_file_whose_rows_are_not_its_trials(tmp_path, small_records, capsys,
                                                           edit, message):
    path = _edited_trials_csv(tmp_path, small_records, edit)
    with pytest.raises(ConfigError, match=message):
        read_trials_csv(path)
    assert cli.main(["report", str(path)]) == 2
    assert message in capsys.readouterr().err


def _with_field(row, column, value):
    f = row.split(",")
    f[column] = value
    return ",".join(f)


@pytest.mark.parametrize("edit_row", [
    lambda row: "x" + row[row.index(","):],
    lambda row: row + ",0",
    lambda row: row[:-1] + "7",
    lambda row: "-5" + row[row.index(","):],
    lambda row: _with_field(row, 0, "1_9"),
    lambda row: _with_field(row, 3, "99"),
    lambda row: _with_field(row, 4, "0.9"),
    lambda row: _with_field(row, 6, "nan"),
    lambda row: _with_field(row, 7, "inf"),
    lambda row: _with_field(row, 6, "0"),
    lambda row: _with_field(row, 7, "-1_0"),
], ids=["index-not-a-number", "tenth-field", "early-miss-7", "negative-index",
        "index-digit-separator", "coverage-out-of-range", "fraction-disagrees",
        "ratio-nan", "ratio-inf", "ratio-zero", "ratio-negative"])
def test_read_rejects_malformed_row(tmp_path, small_records, edit_row):
    path = _edited_trials_csv(tmp_path, small_records,
                              lambda lines: lines[:-1] + [edit_row(lines[-1])])
    with pytest.raises(ConfigError, match="malformed row"):
        read_trials_csv(path)


def test_read_refuses_a_cost_exponent_beyond_the_bound_before_parsing(
        tmp_path, small_records, capsys, monkeypatch):
    # k = 6: a final cost's decimal exponent may reach +/-1006, not beyond;
    # parsing e+4000000 exactly would take seconds, so a refused cost must
    # never reach ExtScalar.parse
    for exponent in ("+1006", "-1006", "+001006"):
        path = _edited_trials_csv(tmp_path, small_records, lambda lines: lines[:-1] + [
            _with_field(lines[-1], 5, "1.000000000000000e" + exponent)])
        assert read_trials_csv(path)[0].final_e[-1] != 0
    parse = ExtScalar.parse
    refused = ["1.000000000000000e" + x
               for x in ("+1007", "-1007", "+4000000", "-4000000", "+" + "0" * 100 + "4000000")]

    def guarded_parse(text):
        assert text not in refused, f"{text!r} reached ExtScalar.parse"
        return parse(text)

    monkeypatch.setattr(ExtScalar, "parse", guarded_parse)
    for text in refused:
        path = _edited_trials_csv(tmp_path, small_records, lambda lines: lines[:-1] + [
            _with_field(lines[-1], 5, text)])
        with pytest.raises(ConfigError, match="malformed row"):
            read_trials_csv(path)
        assert cli.main(["report", str(path)]) == 2
        assert "malformed row" in capsys.readouterr().err


def test_read_rejects_repeated_trial_index(tmp_path, small_records):
    path = _edited_trials_csv(tmp_path, small_records, lambda lines: lines + lines[-1:])
    with pytest.raises(ConfigError, match="trial index 19 repeats"):
        read_trials_csv(path)
    # rows out of trial order: 10..19, then 0..9, then 15 again
    path = _edited_trials_csv(tmp_path, small_records, lambda lines: (
        lines[:4] + lines[14:] + lines[4:14] + lines[19:20]))
    with pytest.raises(ConfigError, match="trial index 15 repeats"):
        read_trials_csv(path)


def test_read_keeps_rows_out_of_trial_order(tmp_path, small_records):
    in_order, _ = read_trials_csv(_edited_trials_csv(tmp_path, small_records,
                                                     lambda lines: lines))
    path = _edited_trials_csv(tmp_path, small_records,
                              lambda lines: lines[:4] + lines[:3:-1])
    back, _ = read_trials_csv(path)
    assert list(back) == list(in_order)[::-1]
    assert report(summarize(back), "csv") == report(summarize(in_order), "csv")


@pytest.mark.parametrize("at", [6, None], ids=["among-rows", "last"])
def test_read_refuses_a_comment_after_the_column_header(tmp_path, small_records,
                                                        capsys, at):
    # the writer never writes one, and a config line there would override
    # the header the rows were written under
    comment = "# config variant=kmedian k=9 alpha=0.3"
    path = _edited_trials_csv(tmp_path, small_records, lambda lines: (
        lines[:at] + [comment] + (lines[at:] if at else [])))
    with pytest.raises(ConfigError, match="comment line '# config variant=kmedian"):
        read_trials_csv(path)
    assert cli.main(["report", str(path)]) == 2
    assert "after the column header" in capsys.readouterr().err


@pytest.mark.parametrize("edit, number", [
    (lambda lines: lines[:4] + [""] + lines[4:], 5),
    (lambda lines: lines[:10] + [""] + lines[10:], 11),
    (lambda lines: lines + ["", ""], 25),
    (lambda lines: lines[:1] + [""] + lines[1:], 2),
], ids=["after-the-column-line", "between-rows", "trailing", "in-the-header"])
def test_read_refuses_a_blank_line(tmp_path, small_records, capsys, edit, number):
    # the writer never writes one; the refusal names it by its number
    path = _edited_trials_csv(tmp_path, small_records, edit)
    with pytest.raises(ConfigError, match=f"line {number} is blank"):
        read_trials_csv(path)
    assert cli.main(["report", str(path)]) == 2
    assert f"line {number} is blank" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines[:6] + [lines[6][:-1] + "7"] + lines[6:8] + lines[7:8],
     "malformed row '2,"),
    (lambda lines: lines[:6] + lines[5:6] + [lines[6][:-1] + "7"] + lines[7:],
     "trial index 1 repeats"),
    (lambda lines: lines[:-1] + [_with_field(_with_field(lines[-1], 1, "7"), 8, "7")],
     "does not match the header"),
    (lambda lines: lines[:-1] + [_with_field(_with_field(lines[-1], 2, "kmedian"), 0, "x")],
     "does not match the header"),
], ids=["malformed-then-repeat", "repeat-then-malformed", "mismatch-and-bad-flag",
        "mismatch-and-bad-index"])
def test_read_names_the_first_of_two_defects(tmp_path, small_records, edit, message):
    path = _edited_trials_csv(tmp_path, small_records, edit)
    with pytest.raises(ConfigError, match=message):
        read_trials_csv(path)


def _counting_row_parse(monkeypatch):
    calls = []
    parse = harness._DistinctRows.__missing__

    def counted(self, rest):
        calls.append(rest)
        return parse(self, rest)

    monkeypatch.setattr(harness._DistinctRows, "__missing__", counted)
    return calls


def test_read_back_is_exact_when_the_row_memo_restarts(tmp_path, small_records,
                                                        monkeypatch):
    # a table read from trials.csv holds the values of its text, so writing
    # and reading it again gives the same bits, however often the memo of
    # row remainders starts over
    cfg, records = small_records
    path = tmp_path / "trials.csv"
    write_trials_csv(records, cfg, path)
    table, _ = read_trials_csv(path)
    write_trials_csv(table, cfg, path)
    remainders = {line.partition(",")[2] for line in path.read_text().splitlines()[4:]}
    calls = _counting_row_parse(monkeypatch)
    monkeypatch.setattr(rng, "CHUNK_ELEMS", 4)
    back, _ = read_trials_csv(path)
    assert back == table
    assert set(calls) == remainders and len(calls) > len(remainders) > 4


@pytest.mark.parametrize("index, message", [
    ("01", "malformed row '01,"), ("-0", "malformed row '-0,"),
    ("0", "trial index 0 repeats")])
def test_read_checks_the_index_of_a_row_whose_remainder_was_seen(
        tmp_path, small_records, index, message):
    # the memo's hit path: the remainder of the first row, already parsed
    path = _edited_trials_csv(tmp_path, small_records, lambda lines: (
        lines + [index + "," + lines[4].partition(",")[2]]))
    with pytest.raises(ConfigError, match=message):
        read_trials_csv(path)


def test_read_parses_each_distinct_remainder_once(tmp_path, monkeypatch,
                                                  kmedian_k16_records):
    cfg, table = kmedian_k16_records
    path = tmp_path / "trials.csv"
    write_trials_csv(table, cfg, path)
    remainders = [line.partition(",")[2] for line in path.read_text().splitlines()[4:]]
    calls = _counting_row_parse(monkeypatch)
    back, _ = read_trials_csv(path)
    assert np.array_equal(back.coverage_count, table.coverage_count)
    assert sorted(calls) == sorted(set(remainders))
    assert len(calls) < len(remainders) // 20


def test_summarize_rejects_fractions_out_of_range(small_records):
    _, records = small_records
    for kw in (dict(eta=2.0), dict(eta=-1.0), dict(eta=1.0), dict(alpha=0.0),
               dict(beta=1.5)):
        with pytest.raises(ConfigError, match="must lie in"):
            summarize(records, **kw)


@pytest.mark.parametrize("variant, k, trials", [("kmeans", 7, 3000),
                                               ("kmedian", 300, 100)])
def test_report_of_a_table_equals_the_report_of_its_trials_csv(tmp_path, variant, k,
                                                               trials):
    # a summary written next to trials.csv can be regenerated from the file;
    # at kmeans k=7 full-precision ratios moved the last digit of the mean,
    # at kmedian k=300 a fraction read from its text moved the last of p99
    cfg = ExperimentConfig(variant=variant, k=k, trials=trials, master_seed=3)
    table = run_experiment(cfg)
    path = tmp_path / "trials.csv"
    write_trials_csv(table, cfg, path)
    back, _ = read_trials_csv(path)
    for fmt in ("text", "csv"):
        assert report(summarize(table), fmt) == report(summarize(back), fmt)


def test_write_refuses_a_table_of_another_config(tmp_path, small_records):
    cfg, records = small_records
    path = tmp_path / "trials.csv"
    for table, change in ((records, dict(k=8)), (records, dict(variant="kmedian")),
                          (records, dict(k=8, variant="kmedian")),
                          # a partial table, and trials 480..499 under trials=20
                          (records[:20], {}), (records[-20:], dict(trials=20))):
        with pytest.raises(ConfigError, match="cannot be written under"):
            write_trials_csv(table, dataclasses.replace(cfg, **change), path)
        assert not path.exists()


# ---------------------------------------------------------------------------
# summarize / report
# ---------------------------------------------------------------------------

def test_wilson_interval_basics():
    p, lo, hi = wilson_interval(0, 100)
    assert p == 0.0 and lo == 0.0 and 0.0 < hi < 0.05
    p, lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(ConfigError):
        wilson_interval(1, 0)


def test_summarize_single_record(small_records):
    _, records = small_records
    s = summarize(records[:1])
    for _, metric in s.metrics:
        vals = {metric.mean, metric.minimum, metric.maximum,
                *(v for _, v in metric.quantiles)}
        assert len(vals) == 1
    assert s.n_trials == 1


def test_summarize_requires_records(small_records):
    _, records = small_records
    with pytest.raises(ConfigError, match="at least one trial"):
        summarize(records[:0])


def test_summarize_is_order_independent(small_records):
    _, records = small_records
    order = np.random.default_rng(0).permutation(len(records))
    shuffled = dataclasses.replace(records, **{name: getattr(records, name)[order]
                                               for name in harness._TABLE_COLUMNS})
    assert list(shuffled) != list(records)
    assert report(summarize(shuffled), "csv") == report(summarize(records), "csv")


def test_summarize_tail_and_bounds(small_records):
    _, records = small_records
    s = summarize(records, eta=0.999, alpha=0.1, beta=0.1)
    assert s.k == 6 and s.n_trials == len(records)
    cov = np.array([r.coverage_fraction for r in records])
    assert s.high_coverage.count == int((cov > 0.999).sum())
    names = [row.name for row in s.bounds]
    assert names == ["early_miss", "high_coverage"]
    # at k=6 the coverage bound exceeds 1 and must be flagged; the
    # early-miss bound (e^-0.02) does not
    flags = {row.name: row.vacuous for row in s.bounds}
    assert flags == {"early_miss": False, "high_coverage": True}


def test_report_text_byte_stable_and_flags_vacuous(small_records):
    _, records = small_records
    s = summarize(records)
    t1, t2 = report(s, "text"), report(s, "text")
    assert t1 == t2
    assert "VACUOUS(>1)" in t1
    assert "vacuous bounds: high_coverage" in t1
    with pytest.raises(ConfigError):
        report(s, "html")


def test_report_csv_parses_back(small_records):
    _, records = small_records
    s = summarize(records)
    doc = report(s, "csv")
    rows = list(csv.reader(io.StringIO(doc)))
    assert rows[0] == ["section", "key", "value"]
    by_key = {(r[0], r[1]): r[2] for r in rows[1:]}
    mean = float(by_key[("metric", "ratio_discrete.mean")])
    expect = np.mean([r.ratio_discrete for r in records])
    assert_rel_close(mean, float(expect), 1e-12)
    p99 = float(by_key[("metric", "coverage_fraction.p99")])
    assert_rel_close(p99, float(np.quantile([r.coverage_fraction for r in records], 0.99)),
                     1e-12)
    assert by_key[("bound", "high_coverage.vacuous")] == "1"
    # every float cell survives a 15-significant-digit round trip
    for (sec, key), val in by_key.items():
        if sec in ("metric", "tail", "bound") and not key.endswith("vacuous"):
            assert f"{float(val):.15g}" == val
