#!/usr/bin/env python3
"""Runs the host-cost benchmark.

Builds the hostcost program (this directory, a Go module of its own that
imports the repository's packages) and runs one workload:

    python3 perfbench/run.py --workload bulk_tcp --seed 1 --seconds 30 --trace 0

Run it from the repository root. --trace 0 makes one untraced run and
reports the end-to-end metrics. --trace 1 makes an untraced run and then
a traced one with the same seed, each for half the time, checks that both simulated exactly the
same thing (equal digests), and reports the per-layer metrics, including
the tracing overhead. Every metric of the runs is printed as a table
first; the last line of standard output is the JSON result. --workload
all runs the three workloads in turn.

The exit code is non-zero when the build fails, a correctness check
fails, or the traced and untraced digests differ.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["bulk_tcp", "web_small", "control_churn"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(d)


def go_env(out):
    """Keeps the Go toolchain's caches and temporary files inside the
    checkout and stops it from looking for anything on the network."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "TMPDIR": os.path.join(out, "tmp"),
    })
    return env


def build():
    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    binary = os.path.join(out, "hostcost")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                          env=go_env(out), stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=840)
    if proc.returncode != 0:
        sys.stderr.write("build failed:\n" + proc.stdout)
        return None
    return binary


def run_once(binary, workload, seed, seconds, traced):
    cmd = [binary, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds)]
    if traced:
        cmd.append("-trace")
    env = go_env(build_dir())
    # One P unless the caller says otherwise: the engine runs one
    # goroutine at a time, and with a second P every proc hand-off wakes
    # an idle thread, which on a virtualized host makes wall time swing
    # by tens of percent between runs (see README.md).
    env.setdefault("GOMAXPROCS", "1")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, env=env)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s: no output (exit %d)" % (workload, proc.returncode))
    return json.loads(lines[-1])


def table(title, metrics):
    print(title)
    for name in sorted(metrics):
        m = metrics[name]
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))


def run_workload(binary, workload, seed, seconds, trace):
    # A traced run splits the time budget between its two halves.
    if trace:
        seconds /= 2
    plain = run_once(binary, workload, seed, seconds, False)
    env = plain["env"]
    print("%s seed=%d go=%s GOMAXPROCS=%d nproc=%d repetitions=%d digest=%s"
          % (workload, seed, env["go"], env["gomaxprocs"], env["nproc"],
             plain["reps"], plain["digest"]))
    checks = list(plain["checks"] or [])
    correct = plain["correct"]
    table("end-to-end (untraced):", plain["e2e"])
    table("raw host time (untraced, not gated: follows the machine's speed):",
          plain["raw"])
    metrics = plain["e2e"]
    if trace:
        traced = run_once(binary, workload, seed, seconds, True)
        checks += traced["checks"] or []
        correct = correct and traced["correct"]
        if traced["digest"] != plain["digest"]:
            correct = False
            checks.append("traced digest %s differs from untraced %s"
                          % (traced["digest"], plain["digest"]))
        # The profile split comes from the traced run; counters and
        # host-time spans from the untraced one, which tracing cannot
        # slow down (the digests prove the counters are equal).
        layers = dict(traced["layers"])
        layers.update(plain["layers"])
        fast = plain["raw"]["ops_per_host_s"]["value"]
        slow = traced["raw"]["ops_per_host_s"]["value"]
        layers["trace.overhead_pct"] = {
            "value": (fast / slow - 1) * 100 if slow else 0.0, "unit": "%"}
        table("per-layer (traced, %d repetitions):" % traced["reps"], layers)
        metrics = layers
    for c in checks:
        print("CHECK FAILED: " + c)
    return {"correct": bool(correct), "attempted": plain["attempted"],
            "failed": plain["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for w in names:
            results[w] = run_workload(binary, w, args.seed, args.seconds,
                                      args.trace == 1)
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run failed: %s\n" % e)
        return 1
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {w + "." + k: v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
