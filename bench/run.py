"""kfock benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload fock-exact --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  Set-up is sampled by starting
``SETUP_SAMPLES`` fresh worker processes; the last one then runs the workload
as a closed loop with one client for about ``--seconds`` seconds.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  The line before it gives the machine and every pass.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, out_dir, setup_only):
    """Start a worker and wait for its ``ready`` line; return it and the
    set-up time measured from just before the process was started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # unbuffered, so reading the ready line leaves the rest for communicate()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, bufsize=0)
    readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if readable else b""
    setup = time.perf_counter() - start
    if line.strip() != b"ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout):
    """Wait for a worker and return its remaining output; kill it and raise
    if it runs past ``timeout``."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out.decode("utf-8")


def run_workload(args, out_dir):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(args, out_dir, setup_only=True)
        setups.append(setup)
        finish(proc, CHILD_TIMEOUT_S)
    proc, setup = start_worker(args, out_dir, setup_only=False)
    setups.append(setup)
    result = json.loads(finish(proc, CHILD_TIMEOUT_S).strip().splitlines()[-1])
    result["setup_samples_s"] = setups
    return result


def pass_count_errors(traced):
    """Counts must repeat exactly between traced passes of one seed."""
    first = {k: v for k, v in traced[0]["layers"].items() if not k.endswith("_s")}
    return [f"traced pass {i} counts differ from traced pass 0"
            for i, p in enumerate(traced[1:], 1)
            if {k: v for k, v in p["layers"].items() if not k.endswith("_s")} != first]


def metric_value(name, result):
    """Value of one BENCHMARK.json metric from a worker's result."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    if name == "wall_s":
        return statistics.median(p["wall_s"] for p in untraced)
    if name == "setup_s":
        return statistics.median(result["setup_samples_s"])
    if name == "peak_rss_mb":
        return result["peak_rss_mb"]
    if name == "machine.calibration_s":
        return result["calibration_s"]
    if name == "trace.overhead_s":
        return (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    if name.startswith("cmd."):
        return statistics.median(p["cmd_s"].get(name[4:-2], 0.0) for p in untraced)
    layers = traced[0]["layers"]
    if name == "fock.left_op.distinct_ratio":
        calls = layers.get("fock.left_op.calls", 0)
        return layers["fock.left_op.distinct"] / calls if calls else 0.0
    layer, _, field = name.rpartition(".")
    if layer not in tracer.LAYER_NAMES or (field not in ("calls", "self_s", "total_s")
                                          and name not in tracer.COUNTERS):
        raise KeyError(f"the benchmark does not measure {name!r}")
    if name.endswith("_s"):
        return statistics.median(p["layers"].get(name, 0.0) for p in traced)
    return layers.get(name, 0)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "kfock" / "__init__.py").is_file():
        sys.exit(f"no kfock sources under {ROOT / 'src'}; run from a checkout of the repository")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        result = run_workload(args, out_dir)
    except (RuntimeError, ValueError) as ex:
        sys.exit(f"benchmark failed: {ex}")

    passes = result["passes"]
    errors = [e for p in passes for e in p["errors"]]
    if args.trace:
        errors += pass_count_errors([p for p in passes if p["traced"]])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": metric_value(m["name"], result), "unit": m["unit"]}
               for m in wanted}

    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)
    info = {k: result[k] for k in ("python", "numpy", "scipy", "nproc", "calibration_s",
                                   "setup_samples_s", "peak_rss_mb")}
    info["fail_ratio"] = failed / attempted
    info["spans_file"] = result.get("spans_file")
    info["passes"] = [{"traced": p["traced"], "wall_s": p["wall_s"], "cmd_s": p["cmd_s"]}
                      for p in passes]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "info": info}))
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
