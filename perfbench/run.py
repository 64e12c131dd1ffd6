#!/usr/bin/env python3
"""Entry point of the repository benchmark.  Run it from a checkout's root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady K --workload NAME [--trace 0|1]
    python3 perfbench/run.py --record --workload NAME

The first form builds the benchmark and the daemon from source, runs one
workload and prints, as its last line, one JSON object with the op counts
and the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
run (--trace 1).  --steady runs a workload K times with seeds 1..K and
prints each metric's median and quartile spread.  --record regenerates
a workload's golden answers from the code in the checkout.  See NOTES.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD = ".bench_build"
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
SERVE = os.path.join(BUILD, "default", "bin", "spack_serve.exe")
OUT = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join("perfbench", "golden")
RUN_LIMIT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            die("%s not found: run from the root of a full checkout" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD, "cache")))
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD, "perfbench/perfbench.exe", "bin/spack_serve.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")
    os.makedirs(OUT, exist_ok=True)


def run_exe(args, timeout):
    """Run the benchmark executable in its own process group, so that a
    timeout also stops any daemon it started."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE,
                         start_new_session=True)

    def stop(signum, _frame):
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(128 + signum)

    handlers = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("run exceeded %d s" % timeout)
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        for s, h in handlers.items():
            signal.signal(s, h)
    if p.returncode != 0:
        die("benchmark exited with status %d" % p.returncode)
    return out.decode()


def run_once(bench, workload, seed, seconds, trace, deadline):
    out = run_exe(["run", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--golden", GOLDEN, "--out", OUT, "--serve-bin", SERVE],
                  max(1, deadline - time.monotonic()))
    lines = out.strip().splitlines()
    if not lines:
        die("benchmark printed no result")
    line = lines[-1]
    result = json.loads(line)
    expected = bench["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result has keys %s" % sorted(result))
    for m in expected:
        if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
            die("metric %s missing or in the wrong unit" % m["name"])
    if len(got) != len(expected):
        die("result has metrics not in BENCHMARK.json")
    return line, result


def steady(bench, args):
    """Run one workload K times and print each metric's median and spread
    (interquartile distance as a share of the median)."""
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for i in range(args.steady):
        seed = i + 1
        _, r = run_once(bench, args.workload, seed, args.seconds, args.trace,
                        time.monotonic() + RUN_LIMIT_S)
        print("seed %d: correct=%s attempted=%d failed=%d %s" %
              (seed, r["correct"], r["attempted"], r["failed"],
               " ".join("%s=%.4g" % (k, m["value"]) for k, m in r["metrics"].items()
                        if not args.trace)), flush=True)
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-32s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(name)
        flag = " !" if b is not None and name != "setup_s" and spread > b / 3 else ""
        print("%-32s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, med, q1, q3, spread, "" if b is None else b, flag))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        die("unknown workload %s (one of %s)" % (args.workload, ", ".join(names)))
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    build()
    start = time.monotonic()
    if args.record:
        run_exe(["record", "--workload", args.workload, "--golden", GOLDEN], 3600)
    elif args.steady:
        steady(bench, args)
    else:
        line, _ = run_once(bench, args.workload, args.seed, args.seconds,
                           args.trace, start + RUN_LIMIT_S)
        print(line)


if __name__ == "__main__":
    main()
