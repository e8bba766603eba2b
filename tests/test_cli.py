import hashlib

import numpy as np
import pytest

from seedbounds.cli import main
from seedbounds.extfloat import ExtScalar
from seedbounds.harness import read_trials_csv


def run(*args):
    return main([str(a) for a in args])


def test_gen_writes_instance_csv(tmp_path):
    out = tmp_path / "instance.csv"
    assert run("gen", "--variant", "kmeans", "--k", 3, "--m", 4, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "cluster_id,end_id,x,y,weight"
    assert len(lines) == 2 + 6


def test_seed_and_report_round_trip(tmp_path):
    trials = tmp_path / "trials.csv"
    assert run("seed", "--variant", "kmeans", "--k", 8, "--m", 4, "--trials", 300,
               "--seed", 5, "--out", trials) == 0
    records, cfg = read_trials_csv(trials)
    assert len(records) == 300 and cfg.k == 8

    text_out = tmp_path / "summary.txt"
    assert run("report", trials, "--format", "text", "--out", text_out) == 0
    assert "seedbounds experiment summary" in text_out.read_text()

    csv_out = tmp_path / "summary.csv"
    assert run("report", trials, "--format", "csv", "--out", csv_out) == 0
    assert csv_out.read_text().startswith("section,key,value")


def test_report_uses_header_parameters(tmp_path):
    trials = tmp_path / "trials.csv"
    assert run("seed", "--k", 40, "--trials", 50, "--alpha", 0.5, "--beta", 0.5,
               "--eta", 0.9, "--out", trials) == 0
    out = tmp_path / "summary.csv"
    assert run("report", trials, "--format", "csv", "--out", out) == 0
    rows = dict((f"{s},{k}", v) for s, k, v in
                (line.split(",") for line in out.read_text().splitlines()[1:]))
    assert rows["config,alpha"] == "0.5" and rows["config,eta"] == "0.9"
    # exp(-(0.5 * 0.5 / 3) * 40), not the alpha = beta = 0.1 value 0.875
    assert float(rows["bound,early_miss.value"]) == pytest.approx(0.0356739933472524)
    # flags that repeat the header are accepted, conflicting ones exit 2
    assert run("report", trials, "--alpha", 0.5, "--eta", 0.9, "--out", out) == 0
    assert run("report", trials, "--alpha", 0.1, "--out", out) == 2
    assert run("report", trials, "--eta", 0.999, "--out", out) == 2


def test_seed_determinism_across_workers(tmp_path):
    args = ["seed", "--variant", "kmedian", "--k", 5, "--m", 2, "--trials", 400,
            "--seed", 9]
    p1, p2, p3 = (tmp_path / f"t{i}.csv" for i in range(3))
    assert run(*args, "--workers", 1, "--out", p1) == 0
    assert run(*args, "--workers", 1, "--out", p2) == 0
    assert run(*args, "--workers", 8, "--out", p3) == 0
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


def test_exact_subcommand(tmp_path):
    out = tmp_path / "exact.csv"
    assert run("exact", "--variant", "kmeans", "--k", 2, "--m", 4, "--out", out) == 0
    lines = out.read_text().splitlines()
    ratio_line = next(l for l in lines if l.startswith("# expected_ratio_discrete"))
    assert abs(float(ratio_line.split(",")[1]) - 1.0703148425787108) < 1e-12
    data = [l.split(",") for l in lines if l and not l.startswith("#")]
    assert data[0] == ["coverage", "probability"]
    probs = [float(r[1]) for r in data[1:]]
    assert abs(sum(probs) - 1.0) < 1e-12


_KMEDIAN_30K = "175f1f7dd991d74b01419e5bce27a4c008f5e9e25e36247011a298f460ae5f89"


@pytest.mark.parametrize("args, digest", [
    (("seed", "--k", 64, "--trials", 300, "--seed", 7),
     "b9ba1a11e93e033c1e17d9fd7768014f5c51c377826a3a06905b5db713152764"),
    (("seed", "--variant", "kmedian", "--k", 16, "--trials", 1000, "--seed", 7),
     "dae9297141f302cc9e95441930f3590b0f21358f14414c3e5a682881bd591157"),
    (("exact", "--variant", "kmeans", "--k", 5),
     "038a7eb586194cb5a3c4c75f4a49d294d8c2ed9a60b821eb8308b7e413f4fa4c"),
    # above the matrix cap: rows come from the bar-gap kernel
    (("seed", "--k", 1100, "--trials", 3, "--seed", 7),
     "f07734754641a77ffc656279c63c56bb6ff04c1a43c5f89b27b8e0c2211ac87b"),
    # spans 1200 binary orders: plain rows reach 2**231, past the oracles' view
    (("seed", "--k", 600, "--trials", 4, "--seed", 7),
     "3609abb280a8eeb8601d2b61f7a3cbf568d265cc11b6ca122b8e6772ea0ccd93"),
    # alpha != beta: 72 early misses in 300 trials, 2 with the two swapped
    (("seed", "--k", 64, "--trials", 300, "--seed", 7, "--alpha", 0.05, "--beta", 0.02),
     "344f017687ae637eadbfbd993070e1a635a1f114f8d80326382af6f791d424d6"),
    # 30,000 rows in 5 blocks of the writer, 361 distinct final costs
    (("seed", "--variant", "kmedian", "--k", 16, "--trials", 30000, "--seed", 7),
     _KMEDIAN_30K),
    (("seed", "--variant", "kmedian", "--k", 16, "--trials", 30000, "--seed", 7,
      "--workers", 2), _KMEDIAN_30K),
    # the large-k pass: high_coverage_bound is below 1 from k=1939 on
    (("seed", "--k", 2000, "--trials", 2, "--seed", 7),
     "8e16df589f5b27fd7573a90d0c6b440827e35e901ba33a4b93a35093b1647bee"),
    (("seed", "--variant", "kmedian", "--k", 2000, "--trials", 2, "--seed", 7),
     "578cca4d70d445d21c3bb2871563ce5f9d8eddd42e4ff48df428ae866fb133d1"),
    # the generated coordinates and weights, x past 2**53 * r from cluster 54 on
    (("gen", "--k", 60, "--m", 4, "--r", 0.7),
     "51fa99bf17be9ebe91f959c70a5eb5dc6ba7e05e287e4f2a14378dc823c8b4da"),
    (("gen", "--variant", "kmedian", "--k", 60, "--m", 4, "--r", 0.7),
     "009d12ca5bc5fcbfccee2db1b1be21bb953ee90e9714be5557a2670f0e121542"),
    # the biased urn's Monte Carlo: the oracles workload's draw, in six trial
    # chunks, and one odd chunk of rows that end in zero padding
    (("ballgame", "--mode", "biased", "--gamma", 5, "--k", 64, "--trials", 3000, "--seed", 1),
     "2c621f623333a4eb5454517cbca54bd7ac49ad40b099ccb992f8a02f3b47efb6"),
    (("ballgame", "--mode", "biased", "--gamma", 1.3, "--k", 17, "--trials", 601, "--seed", 5),
     "34864d60781d6586b2199a5132d3d1d75fc4597af87d131179ead6436d01e63f"),
])
def test_output_bytes_are_pinned(tmp_path, args, digest):
    # a deliberate change to the numeric reference shows up here as a new digest
    out = tmp_path / "out.csv"
    assert run(*args, "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_report_bytes_are_pinned(tmp_path):
    trials = tmp_path / "trials.csv"
    assert run("seed", "--variant", "kmedian", "--k", 16, "--trials", 30000, "--seed", 7,
               "--out", trials) == 0
    assert hashlib.sha256(trials.read_bytes()).hexdigest() == _KMEDIAN_30K
    for fmt, digest in (
            ("text", "78e0fd90652fa8c5da44b15be86ac47e9b87a7c23993beefd5a96c5b784c8ec2"),
            ("csv", "2ffef0d2db9e4a027fb30cc7a9ca2fe9cd436a9b150709da81c1919c4e04b271")):
        out = tmp_path / f"report.{fmt}"
        assert run("report", trials, "--format", fmt, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_exact_capacity_exit_code(tmp_path):
    assert run("exact", "--k", 11, "--out", tmp_path / "x.csv") == 3


def test_invalid_config_exit_codes(tmp_path):
    assert run("seed", "--k", 0, "--out", tmp_path / "x.csv") == 2
    assert run("gen", "--variant", "kmodes") == 2  # argparse rejects the choice
    assert run("ballgame", "--mode", "biased", "--gamma", 9, "--exact",
               "--out", tmp_path / "x.csv") == 2
    # non-finite m and r are refused, not carried into the coordinates
    assert run("seed", "--k", 8, "--trials", 10, "--r", "inf", "--out", tmp_path / "x.csv") == 2
    assert run("seed", "--k", 8, "--trials", 10, "--m", "nan", "--out", tmp_path / "x.csv") == 2
    assert run("gen", "--k", 8, "--m", "inf", "--out", tmp_path / "x.csv") == 2


def test_io_error_exit_code(tmp_path):
    assert run("gen", "--k", 2, "--out", tmp_path / "nodir" / "x.csv") == 4
    assert run("report", tmp_path / "missing.csv") == 4


def test_ballgame_plain_exact(tmp_path):
    out = tmp_path / "ball.csv"
    assert run("ballgame", "--mode", "plain", "--k", 16, "--exact", "--out", out) == 0
    lines = out.read_text().splitlines()
    meta = {l.split(",")[0][2:]: l.split(",")[1] for l in lines if l.startswith("# tail")}
    assert float(meta["tail_threshold"]) == 0.875
    assert float(meta["tail_bound"]) == pytest.approx(5 * 4 * 2.0**-1)
    assert meta["tail_bound_vacuous"] == "1"
    probs = [float(l.split(",")[1]) for l in lines if l[0].isdigit()]
    assert abs(sum(probs) - 1.0) < 1e-12


def test_ballgame_biased_mc_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ballgame", "--mode", "biased", "--gamma", 5, "--k", 8,
            "--trials", 2000, "--seed", 3]
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ballgame_plain_refuses_a_gamma(tmp_path):
    # the uniform urn has no gamma: only 1, the default, describes it
    out = tmp_path / "x.csv"
    assert run("ballgame", "--mode", "plain", "--gamma", 7, "--k", 8, "--trials", 50,
               "--out", out) == 2
    assert run("ballgame", "--mode", "plain", "--gamma", 2, "--k", 8, "--exact",
               "--out", out) == 2
    assert not out.exists()
    assert run("ballgame", "--mode", "plain", "--gamma", 1, "--k", 8, "--trials", 50,
               "--out", out) == 0
    assert "gamma=1 " in out.read_text()


def test_seeds_outside_64_bits_exit_2(tmp_path):
    # -1 and 2**64 - 1 would give the same variates, as would 2**64 and 0
    out = tmp_path / "x.csv"
    for bad in (-1, 2**64):
        assert run("seed", "--k", 8, "--trials", 3, "--seed", bad, "--out", out) == 2
        for mode in ("plain", "biased"):
            assert run("ballgame", "--mode", mode, "--k", 8, "--trials", 50, "--seed", bad,
                       "--out", out) == 2
    assert not out.exists()
    top = 2**64 - 1
    assert run("seed", "--k", 8, "--trials", 3, "--seed", top, "--out", out) == 0
    assert f"master_seed={top} " in out.read_text()
    assert run("report", out, "--out", tmp_path / "r.txt") == 0
    assert run("ballgame", "--mode", "biased", "--gamma", 2, "--k", 8, "--trials", 50,
               "--seed", top, "--out", tmp_path / "b.csv") == 0
    # a trials.csv whose header names a seed outside the range is refused
    edited = tmp_path / "edited.csv"
    edited.write_text(out.read_text().replace(f"master_seed={top} ", "master_seed=-5 "))
    assert "master_seed=-5 " in edited.read_text()
    assert run("report", edited, "--out", tmp_path / "e.txt") == 2


def test_ballgame_exact_refuses_a_seed_outside_64_bits(tmp_path):
    # the exact paths draw nothing, but the config line echoes the seed
    out = tmp_path / "x.csv"
    for mode, gamma in (("plain", 1), ("biased", 2)):
        args = ("ballgame", "--mode", mode, "--gamma", gamma, "--k", 8, "--exact")
        for bad in (-5, -1, 2**64):
            assert run(*args, "--seed", bad, "--out", out) == 2
        assert not out.exists()
        assert run(*args, "--out", tmp_path / "a.csv") == 0
        assert run(*args, "--seed", 2**64 - 1, "--out", tmp_path / "b.csv") == 0
        want = (tmp_path / "a.csv").read_text().replace(" seed=0\n", f" seed={2**64 - 1}\n")
        assert (tmp_path / "b.csv").read_text() == want


def test_ballgame_requires_source(tmp_path):
    # neither --exact nor --trials
    assert run("ballgame", "--k", 8, "--out", tmp_path / "x.csv") == 2
