#!/usr/bin/env python3
"""Host-performance benchmark of the GPS multi-GPU simulator.

    python3 hostbench/run.py --workload paper4 --seed 1 --seconds 35 --trace 0
    python3 hostbench/run.py --selftest

Run from the repository root. The script builds the simulator library
(../src) and the hostbench binary into .bench_build/hostbench, then runs
one workload of BENCHMARK.json:

  paper4    the paper's Table 1 system (4 GPUs, PCIe 3.0, scale 1): the
            Fig. 8 grid, the Fig. 11 all-to-all rows and the 1-GPU
            baselines, 64 rows in one warm-started sweep;
  scaleout  128/256 GPUs in 8-GPU NVLink 3.0 nodes on IB NDR, scale
            0.125: g128/Jacobi/Memcpy, g256/ALS/GPS, g256/Jacobi/GPS;
  observed  32 GPUs in four nodes, scale 1, six rows with the metric
            registry (sampled every 1 us of simulated time), timeline,
            profile and causal collectors on.

The simulator is deterministic and its apps take no seed: --seed only
permutes the row order, so simulated outputs repeat exactly and only host
time and memory vary. Every row is checked against hostbench/pinned.tsv.

--trace 0 runs untraced passes, each in a fresh process, for about
--seconds (at least two), and reports the end-to-end metrics: the fastest
pass's wall time and Macc/s, the median set-up time (Runner::run's set-up
sequence, timed twice per pass) and the largest peak RSS of a pass
process. Interference from other tenants of a shared host only ever slows
a pass, so the fastest pass is a steadier estimate of the program's own
cost than the median pass.

--trace 1 runs one process that makes untraced passes (on paper4, two
warm and two cold sweeps; on observed, two passes each with collectors on
and off; the side that runs first alternates; on scaleout, one pass),
replays every row through the traced copy of Runner::run (mirror.hh),
writes the spans to .bench_build/hostbench/spans/ and reports the
per-layer metrics; metrics another workload measures read 0 and are
listed as not applicable.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` (rows that threw or differ from their pinned
outputs; the error rate is failed / attempted) and `metrics`. Every metric
printed must be declared in BENCHMARK.json with the same unit.

--selftest plants a fault in each check and expects it to fire: a
perturbed pinned value must fail its row, a traced copy that skips
Paradigm::endKernel must mismatch, and an undeclared metric or unit must
be rejected.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD, "hostbench")
PINNED = os.path.join(HERE, "pinned.tsv")

MIN_PASSES = 2


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   stdout=sys.stderr, check=True)


def run_binary(args):
    """Run the hostbench binary to completion.

    Returns (stdout lines, its result object, peak RSS in MB).
    """
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or \
            not lines[-1].startswith("hostbench-result "):
        raise RuntimeError("hostbench %s exited with %d" %
                           (" ".join(args), proc.returncode))
    result = json.loads(lines[-1].split(" ", 1)[1])
    return lines[:-1], result, usage.ru_maxrss / 1024.0


def declared(spec, trace):
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def undeclared(metrics, spec, trace):
    """Problems with `metrics` against the mode's declared set."""
    want = declared(spec, trace)
    problems = []
    for name, m in metrics.items():
        if name not in want:
            problems.append("%s is not declared" % name)
        elif want[name] != m["unit"]:
            problems.append("%s is in %s, declared in %s" %
                            (name, m["unit"], want[name]))
    problems += ["%s is declared but missing" % name
                 for name in want if name not in metrics]
    return problems


def measure(workload, seed, seconds):
    """Untraced passes in fresh processes; returns the result object.

    Passes run until one more would end farther from `seconds` than
    stopping now, and at least MIN_PASSES run.
    """
    walls, setups, rss = [], [], []
    attempted = failed = accesses = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(walls) >= MIN_PASSES and \
                elapsed + elapsed / len(walls) / 2 > seconds:
            break
        lines, res, peak = run_binary(
            ["measure", "--workload", workload,
             "--seed", str(seed * 1000 + len(walls)), "--pinned", PINNED])
        for line in lines:
            if not walls or "FAILED" in line:
                print(line)
        walls.append(res["wall_s"])
        setups += res["setup_s"]
        rss.append(peak)
        attempted += int(res["attempted"])
        failed += int(res["failed"])
        accesses = int(res["accesses"])
        print("pass %d: wall %.3f s, set-up %s s, peak RSS %.1f MB, "
              "%d/%d rows failed" %
              (len(walls) - 1, res["wall_s"],
               " ".join("%.3f" % x for x in res["setup_s"]), peak,
               int(res["failed"]), int(res["attempted"])), flush=True)
    wall = min(walls)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "macc_per_s": {"value": accesses / wall / 1e6, "unit": "Macc/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(rss), "unit": "MB"},
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def trace(workload, seed):
    """One traced process; returns the result object."""
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    lines, res, _ = run_binary(
        ["trace", "--workload", workload, "--seed", str(seed),
         "--pinned", PINNED, "--spans-out",
         os.path.join(spans, "%s-%d.json" % (workload, seed))])
    for line in lines:
        print(line)
    for name in res["not_applicable"]:
        print("%s: not applicable to %s, reported as 0" % (name, workload))
    return {"attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": res["metrics"]}


def selftest(spec):
    """Plant one fault per check; returns the number of checks missed."""
    missed = 0

    def expect(ok, what):
        nonlocal missed
        print("%s: %s" % ("ok" if ok else "MISSED", what), flush=True)
        missed += 0 if ok else 1

    row = "g32/Jacobi/GPS"
    base = ["--workload", "observed", "--only", row, "--seed", "0"]
    os.makedirs(BUILD, exist_ok=True)
    perturbed = os.path.join(BUILD, "pinned-perturbed.tsv")
    with open(PINNED) as src, open(perturbed, "w") as dst:
        for line in src:
            f = line.split()
            if f[:2] == ["observed", row]:
                f[2] = str(int(f[2]) + 1)
                line = " ".join(f) + "\n"
            dst.write(line)

    _, good, _ = run_binary(["measure", "--pinned", PINNED] + base)
    expect(good["failed"] == 0, "pinned outputs reproduce")
    _, bad, _ = run_binary(["measure", "--pinned", perturbed] + base)
    expect(bad["failed"] > 0, "a perturbed pinned value fails its row")

    _, good, _ = run_binary(["trace", "--pinned", PINNED] + base)
    expect(good["metrics"]["trace.mismatch"]["value"] == 0,
           "the traced copy matches Runner::run")
    expect(not undeclared(good["metrics"], spec, True),
           "every per-layer metric printed is declared with its unit")
    _, bad, _ = run_binary(["trace", "--pinned", PINNED,
                            "--skip-end-kernel"] + base)
    expect(bad["metrics"]["trace.mismatch"]["value"] > 0,
           "a copy that skips endKernel mismatches")

    planted = dict(good["metrics"])
    planted["made.up_s"] = {"value": 1.0, "unit": "s"}
    expect(undeclared(planted, spec, True) != [],
           "an undeclared metric is rejected")
    planted = dict(good["metrics"])
    planted["replay.access_s"] = {"value": 1.0, "unit": "ms"}
    expect(undeclared(planted, spec, True) != [],
           "a metric in the wrong unit is rejected")
    return missed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.selftest:
        return 1 if selftest(spec) else 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))

    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    problems = undeclared(result["metrics"], spec, args.trace)
    if problems:
        log("metrics do not match BENCHMARK.json: " + "; ".join(problems))
        return 3
    for name, m in result["metrics"].items():
        print("metric %s = %.6g %s" % (name, m["value"], m["unit"]))
    print("rows failed: %d of %d" % (result["failed"], result["attempted"]))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log("hostbench: %s" % e)
        sys.exit(1)
