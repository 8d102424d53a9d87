"""Benchmark of the moebiusband CLI, run from the root of a checkout.

One run:
    python3 perfbench/run.py --workload verify_full --seed 1 --seconds 20 --trace 0

prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Two sets of runs of the same code, compared metric
by metric against the bounds in BENCHMARK.json:
    python3 perfbench/run.py --compare

Every process it starts gets one OpenBLAS/OpenMP/MKL thread and the
checkout's src/ as its only PYTHONPATH entry.  End-to-end times are scaled
to a reference speed of the machine.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PROBES = 8            # timed set-up probes per run; setup_s is their median
IMPORTTIME_PROBES = 3
RUN_DEADLINE_S = 170  # a run must end within 180 s
COMPARE_RUNS = 10     # runs per set in --compare
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(RuntimeError):
    pass


def _config() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(argv, deadline, **kw) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run deadline passed")
    try:
        return subprocess.run(argv, env=_env(), cwd=ROOT, timeout=timeout, **kw)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{argv[1:3]} exceeded the run deadline") from exc


def _worker(workload, seed, work: Path, deadline, seconds=0.0, trace=0) -> dict:
    result = work.with_suffix(".json")
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work), "--result", str(result),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = _spawn(argv, deadline, stdout=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not result.exists():
        raise RunError(f"{workload} worker exited {proc.returncode}")
    with open(result) as fh:
        data = json.load(fh)
    result.unlink()
    return data


def _geom_import_s(deadline) -> float:
    """Cumulative import time of moebiusband.geom from `python -X importtime`."""
    values = []
    for _ in range(IMPORTTIME_PROBES):
        proc = _spawn([sys.executable, "-X", "importtime", "-c", "import moebiusband"],
                      deadline, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "moebiusband.geom":
                values.append(int(fields[1]) / 1e6)
    if len(values) != IMPORTTIME_PROBES:
        raise RunError("no moebiusband.geom line in -X importtime output")
    return statistics.median(values)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "moebiusband" / "__init__.py").is_file():
        raise RunError(f"no moebiusband package under {SRC}")
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # bytecode is written once per checkout, as an install would
    compileall.compile_dir(str(SRC), quiet=1)
    # probe 0 fills the file cache and is not counted; the timed probes are
    # split around the job so that they sample the machine's slow drifts in
    # speed over the whole run
    def probe(k):
        return _worker(workload, seed, run_dir / f"probe{k}", deadline)

    probes = [probe(k) for k in range(PROBES // 2 + 1)][1:]
    job = _worker(workload, seed, run_dir / "job", deadline, seconds, trace)
    probes += [probe(k) for k in range(PROBES // 2 + 1, PROBES + 1)]
    e2e = {
        "wall_s": (statistics.median(job["round_s"]), "s"),
        # each job's time is its mean over the rounds, which spread it over
        # the run; the median then does not jump with the machine's slow phases
        "job_s_p50": (statistics.median(map(statistics.mean, zip(*job["job_s"]))), "s"),
        "peak_rss_mb": (job["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
    }
    if trace:
        metrics = dict(job["layers"])
        metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["geom.import_s"] = (_geom_import_s(deadline), "s")
    else:
        metrics = e2e
    summary = {"correct": job["correct"], "attempted": job["attempted"], "failed": job["failed"],
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(run_dir / "result.json", "w") as fh:
        json.dump({"summary": summary, "end_to_end": e2e, "probes": probes, "job": job}, fh, indent=1)
    for err in job["errors"]:
        print(f"job error: {err}", file=sys.stderr)
    if trace:
        print("traced run, end to end: " + ", ".join(f"{k}={v:.4g} {u}" for k, (v, u) in e2e.items()),
              file=sys.stderr)
    return summary


def _spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def compare() -> bool:
    """Two sets of ten runs per workload, on seeds 1-10 and then 11-20.
    A metric agrees when neither set spreads (Q3-Q1 over median) beyond its
    bound and the two medians differ, either way, by no more than the bound;
    the share of failed operations must be equal."""
    cfg, runs = _config(), COMPARE_RUNS
    all_ok, record = True, {}
    for name in [w["name"] for w in cfg["workloads"]]:
        sets = []
        for k in range(2):
            seeds = range(1 + k * runs, 1 + (k + 1) * runs)
            out = []
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                     "--seconds", str(cfg["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_DEADLINE_S + 10)
                if proc.returncode != 0:
                    raise RunError(f"{name} seed {seed} exited {proc.returncode}")
                out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                print(f"{name} set {'AB'[k]} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in out[-1]["metrics"].items()),
                      file=sys.stderr)
            sets.append(out)
        record[name] = sets
        shares = [{r["failed"] / r["attempted"] for r in s} for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        ok = len(shares[0] | shares[1]) == 1 and correct
        print(f"\n{name}: failed share {sorted(shares[0] | shares[1])} "
              f"({'equal' if len(shares[0] | shares[1]) == 1 else 'DIFFERS'}), "
              f"correct in every run: {correct}")
        print(f"  {'metric':<12} {'set':>3} {'median':>10} {'Q1':>10} {'Q3':>10} {'spread':>7}"
              f" {'bound':>6} {'shift':>7}  agree")
        for m in cfg["end_to_end"]:
            stats = [_spread([r["metrics"][m["name"]]["value"] for r in s]) for s in sets]
            sign = 1.0 if m["better"] == "lower" else -1.0
            shift = sign * (stats[1][0] - stats[0][0]) / stats[0][0]
            agree = all(st[3] <= m["bound"] for st in stats) and abs(shift) <= m["bound"]
            ok = ok and agree
            for k, (med, q1, q3, spread) in enumerate(stats):
                tail = f" {m['bound']:>6.3f} {shift:>+7.3f}  {'yes' if agree else 'NO'}" if k else ""
                print(f"  {m['name'] if not k else '':<12} {'AB'[k]:>3} {med:>10.4f} {q1:>10.4f}"
                      f" {q3:>10.4f} {spread:>7.3f}{tail}")
        all_ok = all_ok and ok
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "compare.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"\ntwo sets agree within the bounds: {'yes' if all_ok else 'NO'}")
    return all_ok


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", action="store_true", help="run two sets of runs and compare them")
    args = p.parse_args()
    try:
        if args.compare:
            return 0 if compare() else 1
        if None in (args.workload, args.seed, args.seconds):
            p.error("--workload, --seed and --seconds are required")
        if args.workload not in [w["name"] for w in _config()["workloads"]]:
            p.error(f"unknown workload {args.workload!r}")
        summary = run(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
