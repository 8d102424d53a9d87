"""One benchmark process: import moebiusband, make the workload's inputs
and, unless it is a set-up probe, run whole rounds of jobs for the given
number of seconds.  Writes its figures as JSON to --result.

Started by run.py with the checkout's src/ on PYTHONPATH and one BLAS/OpenMP
thread; nothing that imports numpy is loaded before the timed import.
"""

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=0.0, help="0: set-up probe only")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    t0 = time.perf_counter()
    import moebiusband
    from moebiusband import cli
    import_s = time.perf_counter() - t0
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(moebiusband.__file__).resolve().parents:
        print(f"moebiusband imported from {moebiusband.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    args.work.mkdir(parents=True, exist_ok=True)
    t1 = time.perf_counter()
    with tracer.job("setup") if tracer else nullcontext():
        workload = workloads.BUILDERS[args.workload](args.seed, args.work, cli.main)
    setup_s = import_s + time.perf_counter() - t1
    ref_s = sorted(workloads.reference_s() for _ in range(3))[1]
    # end-to-end times are scaled to the reference speed of the machine,
    # read by reference_s() next to each measured interval
    scale = lambda seconds, ref: seconds * workloads.REFERENCE_S / ref
    result = {"import_s": import_s, "raw_setup_s": setup_s, "ref_s": ref_s,
              "setup_s": scale(setup_s, ref_s)}

    if args.seconds > 0:
        rounds, seen = [], {}
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(workloads.run_round(cli.main, workload, seen, tracer, len(rounds)))
        job_s = [[scale(o.seconds, o.ref_s) for o in r] for r in rounds]
        outcomes = [o for r in rounds for o in r]
        result.update(
            round_s=[sum(r) for r in job_s],
            job_s=job_s,
            raw_job_s=[[o.seconds for o in r] for r in rounds],
            job_ref_s=[[o.ref_s for o in r] for r in rounds],
            attempted=len(outcomes),
            failed=sum(bool(o.errors) for o in outcomes),
            correct=not any(o.errors for o in outcomes if not o.raised),
            errors=[e for o in outcomes for e in o.errors][:20],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer:
            result["layers"] = tracer.layer_metrics()
            tracer.write(args.work.parent / "trace.json")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
