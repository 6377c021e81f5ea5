"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py, never by hand.  It prints ``ready`` once kfock is imported
and the inputs are generated (the parent times set-up up to that line), then
runs passes over the workload's commands, each issued after the previous one
returns, and prints one JSON line describing every pass.  With
``--setup-only`` it exits after ``ready``.
"""

import argparse
import gc
import io
import json
import os
import platform
import resource
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

from kfock import cli

import oracles
import workloads
from tracer import Tracer, layer_times


def run_pass(commands, out_dir, tracer=None):
    """Issue every command once; return the pass's timings and failures."""
    cmd_s, errors, failed = {}, [], 0
    for i, cmd in enumerate(commands):
        argv = cmd.argv_with_out(os.path.join(out_dir, f"c{i}"))
        main = cli.main if tracer is None else tracer.wrap("cmd." + cmd.name, cli.main)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                rc = main(argv)
        except Exception as ex:  # a crashing command is a failed attempt
            rc = f"{type(ex).__name__}: {ex}"
        cmd_s[cmd.name] = cmd_s.get(cmd.name, 0.0) + time.perf_counter() - start
        mismatches = workloads.check(cmd, rc, stdout.getvalue())
        if tracer is not None:
            mismatches += [f"basis dimension {dim}, census {oracles.path_census(g, trunc)}"
                           for g, trunc, dim in tracer.spaces_built
                           if oracles.path_census(g, trunc) != dim]
            tracer.spaces_built.clear()
        if mismatches:
            failed += 1
            errors += [f"{' '.join(cmd.argv)}: {m}" for m in mismatches]
    return {"wall_s": sum(cmd_s.values()), "cmd_s": cmd_s, "attempted": len(commands),
            "failed": failed, "errors": errors}


def layer_stats(tracer):
    """Flat per-layer numbers of one traced pass."""
    calls, self_s, total_s = layer_times(tracer.spans)
    stats = dict(tracer.counts)
    for name in calls:
        stats[f"{name}.calls"] = calls[name]
        stats[f"{name}.self_s"] = self_s[name]
        stats[f"{name}.total_s"] = total_s[name]
    stats["fock.left_op.distinct"] = len(tracer.distinct)
    return stats


def calibration_s():
    """Time of a fixed pure-Python loop, to show drift in machine speed."""
    start = time.perf_counter()
    sum(i * i % 7 for i in range(1_000_000))
    return time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    commands = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return

    import numpy
    import scipy

    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_s(),
        "passes": [],
    }
    spans = []
    last_pass_s = {}  # by traced flag: how long the last such pass took, checks included
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=args.out) as tmp:
        while True:
            traced = bool(args.trace) and len(result["passes"]) % 2 == 1
            warm = len(result["passes"]) >= (2 if args.trace else 1)
            if warm and time.perf_counter() - start + last_pass_s[traced] > args.seconds:
                break
            gc.collect()
            pass_start = time.perf_counter()
            if traced:
                tracer = Tracer()
                with tracer.patched():
                    p = run_pass(commands, tmp, tracer)
                p["layers"] = layer_stats(tracer)
                spans += [[len(result["passes"]), *s] for s in tracer.spans]
                del tracer
            else:
                p = run_pass(commands, tmp)
            p["traced"] = traced
            last_pass_s[traced] = time.perf_counter() - pass_start
            result["passes"].append(p)
            if len(result["passes"]) == 1:
                # users run each command in a fresh process, so later passes,
                # which reuse a grown heap, do not count towards the peak
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spans:
        path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
        result["spans_file"] = path
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
