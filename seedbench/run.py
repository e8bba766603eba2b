"""Benchmark one seedbounds workload; the last line of stdout is the JSON result.

Run from the root of a seedbounds checkout (the package is imported from
its ``src/``; nothing needs installing):

    python3 seedbench/run.py --workload seed-k200 --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``layers.py``.  Both modes check every output, and the result
counts the checks attempted and failed.  Workloads and metrics are
described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PROBES = 11    # fresh interpreters per run; setup_s is their median
MIN_PASSES = 10      # timed passes per run, whatever --seconds says, so that the
                     # median ignores passes slowed by other load on the host

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("trials_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time: import, config validation and input generation in a fresh
# interpreter
# ---------------------------------------------------------------------------

def setup_probe(args) -> None:
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload].setup(args.seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(args) -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _cache_bytes() -> dict[str, int]:
    """Per-level data/unified cache sizes of CPU 0, from sysfs."""
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(idx / f) for f in ("level", "type", "size"))
        if None in (level, kind, size) or kind == "Instruction":
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * mult
    return out


def _cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():     # keep git from searching parent directories
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(chunk_bytes: float | None) -> dict:
    import numpy
    caches = _cache_bytes()
    levels = sorted(caches)
    prov = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "l2_bytes": caches.get("L2"),
    }
    if chunk_bytes is not None:
        prov["seeding.chunk_bytes"] = chunk_bytes
    prov.update({
        "llc_bytes": caches[levels[-1]] if levels else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    })
    return prov


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _timed_pass(wl, state, workdir):
    t0 = time.perf_counter()
    res = wl.run_pass(state, workdir)
    return time.perf_counter() - t0, res


def measure(wl, state, args, workdir, chk):
    """Warm-up pass (checked in full, sets peak RSS), then timed passes.

    Each pass starts from a collected heap with no earlier pass's output
    alive, so Python's cyclic GC sees the same objects every pass.  In trace
    mode the timed passes alternate untraced and traced, so the tracing
    overhead is measured under the same conditions.
    """
    import layers
    from tracer import Tracer

    _, first = _timed_pass(wl, state, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = first.output.digest()
    wl.check(state, first.output, chk)
    del first

    tracer = Tracer(layers.sites()) if args.trace else None
    totals = layers.LayerTotals()
    walls, rates = [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or i < MIN_PASSES:
        traced = tracer is not None and i % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            with tracer:
                wall, res = _timed_pass(wl, state, workdir)
            totals.add(tracer, wall)
            chk.check(tracer.total_self_s() <= wall + 1e-6,
                      f"traced pass {i}: self times exceed the pass wall time")
        else:
            wall, res = _timed_pass(wl, state, workdir)
            walls.append(wall)
            rates.append(res.work / res.work_s)
        chk.check(res.output.digest() == digest,
                  f"{'traced ' if traced else ''}pass {i}: output digest differs")
        del res
        i += 1

    pass_s = statistics.median(walls)
    if tracer is not None:
        return totals.metrics(pass_s), walls, totals
    return {"pass_s": pass_s, "trials_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb}, walls, None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seedbounds" / "__init__.py").is_file():
        print(f"error: no seedbounds package under {SRC}; run from a seedbounds checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    import layers
    import workloads
    from checks import Checker
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup_samples = [] if args.trace else measure_setup(args)

    state = wl.setup(args.seed)
    workdir = ROOT / ".seedbench-work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    chk = Checker()
    try:
        metrics, walls, totals = measure(wl, state, args, workdir, chk)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        units = dict(layers.metric_units())
    else:
        metrics["setup_s"] = statistics.median(setup_samples)
        units = dict(END_TO_END)
    chk.report()

    n_passes = len(walls)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: one warm-up pass,"
          f" then untraced passes of " + " ".join(f"{w:.3f}" for w in walls) + " s")
    if not args.trace:
        print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup_samples)}"
              f" fresh interpreters)")
        print(f"pass_s {metrics['pass_s']:.4f} s (median of {n_passes} warm passes)")
        print(f"trials_per_s {metrics['trials_per_s']:.2f} 1/s (median of {n_passes})")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (set-up plus one pass)")
    else:
        print(f"traced passes {totals.passes}; self times + trace.unattributed_s ="
              f" {metrics['trace.pass_s']:.4f} s per traced pass")
    frac = chk.failed / chk.attempted if chk.attempted else 1.0
    print(f"check_fail_frac {frac:.6g} ({chk.failed} failed / {chk.attempted} attempted)")
    chunk = metrics.get("seeding.chunk_bytes") if args.trace else None
    print("provenance " + json.dumps(provenance(chunk)))
    print(json.dumps({
        "correct": chk.failed == 0 and chk.attempted > 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
