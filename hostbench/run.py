#!/usr/bin/env python3
"""Host-cost benchmark of the ActYP simulator.

Builds the `hostbench` program (hostbench/CMakeLists.txt, Release, linked
against the repository's own actyp_core) and runs it.

  python3 hostbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last stdout line is the JSON result. --trace 0 gives
      the end-to-end metrics, --trace 1 the per-layer metrics.
  python3 hostbench/run.py --layers W [--seed N] [--seconds S]
      Only the traced (per-layer) pass of workload W.
  python3 hostbench/run.py [--seconds S]
      The sweep: the untraced pass of every workload at the default seed,
      one table of end-to-end metrics.
  python3 hostbench/run.py --steadiness 10 [--seed N] [--seconds S]
      Two sets of 10 runs of every workload on seeds N, N+1, ...; writes
      each end-to-end metric's spread (quartile distance / median) per
      set and the drift between the sets' medians, against its bound in
      BENCHMARK.json, to steadiness.json.
  python3 hostbench/run.py --write-digests
      Re-pins digests.json (the default seed's sim reports). Only for a
      change that alters the simulated model on purpose.

At the default seed each run is checked against digests.json; any failed
check prints ok_ratio 0 and exits non-zero. Run from the repository root.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["wan_lp", "lan_indexed", "wan_churn"]
DEFAULT_SEED = 1
DIGESTS = os.path.join(HERE, "digests.json")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170
TCP_EDGE_WHY = ("loopback TCP: wall time and rate are fixed by its 500/s x "
                "25 s schedule and its sub-ms latency is scheduler noise; "
                "the edge codec is measured by the net.* replays instead")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "hostbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output kept off stdout. On timeout the
    whole process group (cmake, ninja, compilers) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("hostbench: build step timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        log(out[-4000:])
        raise SystemExit("hostbench: build step failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds `hostbench`; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "actyp",
                                                  "scenario.hpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit("hostbench: repository sources not found (" +
                             needed + "); run from a full checkout")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "build.ninja")):
        run_quiet(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "--target", "hostbench", "-j", jobs],
              BUILD_TIMEOUT_S)
    return os.path.join(out, "hostbench")


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def hostbench_args(binary, workload, seed, seconds, trace):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if seed == DEFAULT_SEED:
        expected = load_digests().get(workload)
        if expected:
            args += ["--expect", expected]
    return args


def run_hostbench(args):
    """Runs `hostbench` to completion; returns (exit code, stdout)."""
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("hostbench: run timed out")
    return proc.returncode, out


def sweep(binary, seconds):
    failed = False
    rows = []
    for workload in WORKLOADS:
        code, out = run_hostbench(hostbench_args(binary, workload, DEFAULT_SEED,
                                           seconds, False))
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if code != 0 or not result.get("correct"):
            failed = True
            log("hostbench: " + workload + " failed its correctness check")
        rows.append((workload, result.get("metrics", {})))
    names = list(rows[0][1].keys()) if rows and rows[0][1] else []
    print("%-18s" % "metric" +
          "".join("%16s" % workload for workload, _ in rows) + "  unit")
    for name in names:
        unit = rows[0][1][name]["unit"]
        print("%-18s" % name + "".join(
            "%16.6g" % metrics.get(name, {}).get("value", float("nan"))
            for _, metrics in rows) + "  " + unit)
    print("cores=%d build=Release seed=%d seconds=%s" %
          (os.cpu_count() or 0, DEFAULT_SEED, seconds))
    return 1 if failed else 0


def git_revision():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=30).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(binary, runs, first_seed, seconds):
    """Two sets of `runs` runs per workload, on distinct seeds, set 2
    after set 1 has finished for every workload. A metric holds when
    each set's spread is within its bound and the two sets' medians
    differ by at most the bound, in either direction."""
    spec = load_spec()
    record = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "build_type": "Release",
        "git_revision": git_revision(),
        "seconds": seconds,
        "seeds": [list(range(first_seed + k * runs,
                             first_seed + (k + 1) * runs)) for k in (0, 1)],
        "spread": "(q3 - q1) / median over one set's runs, "
                  "statistics.quantiles(values, n=4)",
        "drift": "|set 2 median - set 1 median| as a share of set 1's",
        "worse_by": "set 2 median vs set 1 median, in the metric's worse "
                    "direction, as a share of set 1's",
        "workloads": {w["name"]: {"why": w["why"], "metrics": {}}
                      for w in spec["workloads"]},
        "dropped": {"tcp_edge": TCP_EDGE_WHY},
    }
    values = {}  # (set, workload, metric) -> values
    ok = True
    for k, seeds in enumerate(record["seeds"]):
        for name in record["workloads"]:
            for seed in seeds:
                code, out = run_hostbench(hostbench_args(binary, name, seed,
                                                   seconds, False))
                result = json.loads(out.strip().splitlines()[-1])
                ok = ok and code == 0 and result["correct"]
                for metric, v in result["metrics"].items():
                    values.setdefault((k, name, metric), []).append(
                        v["value"])
    for name, entry in record["workloads"].items():
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            row = {"bound": bound}
            for k in (0, 1):
                vs = values[(k, name, metric)]
                q1, _, q3 = statistics.quantiles(vs, n=4)
                median = statistics.median(vs)
                row["median_%d" % (k + 1)] = round(median, 6)
                row["spread_%d" % (k + 1)] = round(
                    (q3 - q1) / median if median else 0.0, 4)
            m1, m2 = row["median_1"], row["median_2"]
            worse = (m2 - m1) if m["better"] == "lower" else (m1 - m2)
            row["worse_by"] = round(worse / m1 if m1 else 0.0, 4)
            row["drift"] = round(abs(m2 - m1) / m1 if m1 else 0.0, 4)
            row["holds"] = (row["drift"] <= bound and
                            max(row["spread_1"], row["spread_2"]) <= bound)
            ok = ok and row["holds"]
            entry["metrics"][metric] = row
            print("%-12s %-18s %s" % (name, metric, json.dumps(row)),
                  flush=True)
    with open(os.path.join(HERE, "steadiness.json"), "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return 0 if ok else 1


def write_digests(binary):
    digests = {}
    for workload in WORKLOADS:
        _, out = run_hostbench([binary, "--workload", workload, "--seed",
                             str(DEFAULT_SEED), "--seconds", "0.01",
                             "--trace", "0"])
        for line in out.splitlines():
            if line.startswith("sim_report "):
                digests[workload] = line.split("digest=")[1].split()[0]
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(digests, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--layers", choices=WORKLOADS,
                        help="run only the traced pass of this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="record each workload's spread, 2 sets of RUNS")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.steadiness is not None and args.steadiness < 2:
        parser.error("--steadiness needs at least 2 runs per set")

    binary = build()
    if args.write_digests:
        return write_digests(binary)
    if args.steadiness:
        return steadiness(binary, args.steadiness, args.seed, args.seconds)
    workload, trace = args.workload, bool(args.trace)
    if args.layers:
        workload, trace = args.layers, True
    if workload is None:
        return sweep(binary, args.seconds)
    code, out = run_hostbench(hostbench_args(binary, workload, args.seed,
                                       args.seconds, trace))
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
