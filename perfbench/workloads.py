"""The benchmark's workloads: input making, jobs and the round runner.

A job is one call of `moebiusband.cli.main`; a round is one pass over a
workload's jobs.  Builders make the inputs from the workload seed and return
the jobs together with the checks that need the whole round.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WRINKLE_EPS = (1e-3, 1e-4, 1e-5)
GRID = 1000
SWEEP_SEEDS = 2


class SetupError(RuntimeError):
    """Making a workload's inputs failed."""


@dataclass
class Job:
    argv: list
    # (exit code, stdout) -> (errors, values kept for the round check)
    check: Callable[[int, str], tuple]


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    errors: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    raised: bool = False
    ref_s: float = 0.0     # mean of reference_s() before and after the job


@dataclass
class Workload:
    jobs: list
    # outcomes of one round -> {job index: extra errors}
    round_check: Callable[[list], dict] = lambda outcomes: {}


# reference_s() at the median speed of the machine in README.md; every
# end-to-end time is scaled to this speed
REFERENCE_S = 0.010
_REF_IN = np.linspace(1.0, 2.0, 4096)
_REF_OUT = np.empty_like(_REF_IN)


def _reference_pass() -> None:
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    for _ in range(800):
        np.multiply(_REF_IN, 1.0001, out=_REF_OUT)
        np.sqrt(_REF_OUT, out=_REF_OUT)


def reference_s() -> float:
    """Time of a fixed computation that uses nothing of moebiusband: an
    interpreter loop and numpy calls on 32 KiB arrays.  An untimed pass
    first brings its code and data into the caches, so the timed pass
    depends neither on what ran before it nor on the heap; it reads the
    speed of the machine at that moment."""
    _reference_pass()
    t0 = time.perf_counter()
    _reference_pass()
    return time.perf_counter() - t0


def run_round(main, workload: Workload, seen: dict, tracer=None, round_no: int = 0) -> list:
    """Run every job once, with `reference_s` before each job and after the
    last.  A job that raises, exits non-zero, prints other output than an
    earlier identical call, or fails a check is marked with errors; the
    round always runs to its end."""
    outcomes, ref = [], []
    for i, job in enumerate(workload.jobs):
        ref.append(reference_s())
        out, err = io.StringIO(), io.StringIO()
        span = tracer.job(f"r{round_no}j{i}") if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                code = main(job.argv)
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            outcomes.append(Outcome(time.perf_counter() - t0, None, out.getvalue(),
                                    [f"{job.argv[0]} raised {type(exc).__name__}: {exc}"],
                                    raised=True))
            continue
        o = Outcome(time.perf_counter() - t0, code, out.getvalue())
        try:
            o.errors, o.values = job.check(code, o.stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            o.errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        key = tuple(job.argv)
        if seen.setdefault(key, o.stdout) != o.stdout:
            o.errors.append("stdout differs from an earlier identical call")
        outcomes.append(o)
    ref.append(reference_s())
    for o, before, after in zip(outcomes, ref, ref[1:]):
        o.ref_s = (before + after) / 2
    for i, errors in workload.round_check(outcomes).items():
        outcomes[i].errors.extend(errors)
    return outcomes


def _quiet(main, argv) -> None:
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SetupError(f"{' '.join(argv)} exited {code}")


def _build_bands(main, work: Path) -> list:
    """The ROADMAP's fixed band set: (label, path, wrinkle eps or None)."""
    bands = [("triangular", work / "triangular.json", None)]
    _quiet(main, ["build-triangular", "-o", str(bands[0][1])])
    for eps in WRINKLE_EPS:
        path = work / f"wrinkle-{eps:g}.json"
        _quiet(main, ["build-wrinkle", "--epsilon", repr(eps), "-o", str(path)])
        bands.append((f"wrinkle-{eps:g}", path, eps))
    return bands


def _report_check(report: Path, check, measured: str):
    """Check a job that writes a JSON report and keep the value `measured`
    of its last report for the round check.  The report is removed after
    reading, so a later call cannot pass on a stale file."""
    def run(code, stdout):
        try:
            reports = checks.read_report(report) if code == 0 else []
        finally:
            report.unlink(missing_ok=True)
        errors = check(code, reports)
        return errors, {} if errors else {measured: reports[-1]["measured"][measured]}
    return run


def verify_full(seed: int, work: Path, main) -> Workload:
    """`verify --report` with all three theorems on the fixed band set.
    The inputs are the same for every seed."""
    jobs, wrinkles = [], []
    for label, path, eps in _build_bands(main, work):
        with open(path) as fh:
            band = json.load(fh)
        report = work / f"{label}.report.json"
        check = partial(checks.check_verify_full, band=band, epsilon=eps)
        if eps is not None:
            wrinkles.append((len(jobs), band["lambda"] - checks.SQRT3))
        jobs.append(Job(["verify", "--input", str(path), "--report", str(report)],
                        _report_check(report, check, "hausdorff")))

    def slope(outcomes):
        if any(outcomes[i].errors for i, _ in wrinkles):
            return {}
        errors = checks.check_slope([e for _, e in wrinkles],
                                    [outcomes[i].values["hausdorff"] for i, _ in wrinkles])
        return {i: errors for i, _ in wrinkles} if errors else {}

    return Workload(jobs, slope)


def _random_motion(rng, proper: bool):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if (np.linalg.det(q) > 0.0) != proper:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-1.0, 1.0, size=3)


def tpattern_posed(seed: int, work: Path, main) -> Workload:
    """`tpattern` and `verify --theorem eff` on each band of the fixed set
    and on four copies of it: a proper and an improper rigid pose, the
    flipped band in a proper pose, and the band re-developed at a random
    cut in an improper pose."""
    from moebiusband.band import flip, read_json, redevelop, to_json_dict

    rng = np.random.default_rng(seed)
    jobs, groups = [], []
    for label, path, _ in _build_bands(main, work):
        band = read_json(path)
        # cuts stay off the wrap patch (N-1, N): redevelop mis-orders the
        # bends there, see CHANGES.md
        cut = float(rng.uniform(0.0, band.n_bends - 1))
        copies = [("unposed", band, None), ("proper", band, True), ("improper", band, False),
                  ("flip", flip(band), True), (f"cut{cut:.6f}", redevelop(band, cut), False)]
        eff_jobs = []
        for name, copy, proper in copies:
            data = to_json_dict(copy)
            if proper is not None:
                q, t = _random_motion(rng, proper)
                for bend in data["bends"]:
                    bend["space"] = (np.asarray(bend["space"]) @ q.T + t).tolist()
            file = work / f"{label}-{name}.json"
            with open(file, "w") as fh:
                json.dump(data, fh)
            report = work / f"{label}-{name}.report.json"
            jobs.append(Job(["tpattern", "--input", str(file)],
                            lambda code, out: (checks.check_tpattern(code, out), {})))
            eff_jobs.append(len(jobs))
            jobs.append(Job(["verify", "--input", str(file), "--theorem", "eff", "--report", str(report)],
                            _report_check(report, checks.check_eff, "deviation")))
        groups.append(eff_jobs)

    def same_deviation(outcomes):
        extra = {}
        for unposed, *posed in groups:
            if outcomes[unposed].errors:
                continue
            ref = outcomes[unposed].values["deviation"]
            for i in posed:
                if not outcomes[i].errors:
                    errors = checks.check_same_deviation(outcomes[i].values["deviation"], ref)
                    if errors:
                        extra[i] = errors
        return extra

    return Workload(jobs, same_deviation)


def bounds_sweep(seed: int, work: Path, main) -> Workload:
    """`bounds-sweep --grid 1000` at seeds drawn from the workload seed; the
    first seed runs twice per round, so byte-identical repeat output is
    checked in every round."""
    seeds = [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=SWEEP_SEEDS)]
    check = lambda code, out: (checks.check_bounds_sweep(code, out, GRID), {})
    return Workload([Job(["bounds-sweep", "--grid", str(GRID), "--seed", str(s)], check)
                     for s in seeds + seeds[:1]])


BUILDERS = {
    "verify_full": verify_full,
    "tpattern_posed": tpattern_posed,
    "bounds_sweep": bounds_sweep,
}
