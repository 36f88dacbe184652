#!/usr/bin/env python3
"""Ting benchmark front end.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --self-check              # exact-repeat gates

Run from the repository root. The first run builds ting_perfbench
(perfbench/CMakeLists.txt) into .bench_build/perfbench. Every workload run
gets its own process and a fresh, empty directory under .bench_run/, which
is deleted afterwards; a full record of the run (host, raw measurements,
metrics) is kept in .bench_results/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
The exit status is 0 only when every correctness gate passed.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ting_perfbench")
RUNS = os.path.join(ROOT, ".bench_run")
RESULTS = os.path.join(ROOT, ".bench_results")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ["scan", "daemon_journal", "daemon_6k", "serve"]
# Counters that must repeat exactly at a fixed seed (read from the traced
# run's layer metrics).
EXACT_COUNTERS = [
    "engine.circuits_built", "engine.half_cache_hits", "engine.reseeds",
    "journal.fsyncs_per_pair", "planner.pairs_planned", "store.pairs",
]
# End-to-end figures printed in every report but not bounded in
# BENCHMARK.json: the two gates are zero whenever a run is healthy, and
# staleness spreads wider between runs than the largest bound allows.
UNBOUNDED = [("staleness_ms_p50", "ms"), ("failed_fraction", "ratio"),
             ("publishes_missed", "count")]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (once) and build ting_perfbench; exit 2 if that fails."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = BUILD + ".log"
    configured = os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
    steps = [] if configured else [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]]
    steps.append(["cmake", "--build", BUILD, "--target", "ting_perfbench",
                  "-j", "3"])
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                if not configured:
                    shutil.rmtree(BUILD, ignore_errors=True)
                log(f"perfbench: build step failed ({' '.join(cmd)}); "
                    f"see {os.path.relpath(build_log, ROOT)}")
                sys.exit(2)


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fs_type(path):
    """Filesystem type of the mount holding `path` (fsync cost depends on it)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) > len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def host_record(run_dir):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "kernel": platform.release(),
        "build_type": build_type(),
        "run_dir_fs": fs_type(run_dir),
    }


def fresh_run_dir(name):
    path = os.path.join(RUNS, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    if os.listdir(path):
        raise RuntimeError(f"run directory {path} is not empty")
    return path


def run_workload(workload, seed, seconds, trace, shards=None):
    """One workload in its own process and empty directory; returns its raw
    result dict (or None if it crashed or timed out) and the host record."""
    name = f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    run_dir = fresh_run_dir(name)
    host = host_record(run_dir)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if shards is not None:
        cmd += ["--shards", str(shards)]
    # Earlier runs' deletions and unwritten data would otherwise be flushed
    # (and, on a disk mounted with discard, trimmed) inside this run's
    # fsyncs; flush them before the run, and this run's after it.
    os.sync()
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S}s and was killed")
        out = b""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.sync()
    lines = out.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]), host
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} produced no result (exit {proc.returncode})")
        return None, host


def golden_problems(workload, seed, raw):
    """Differences from the pinned outputs; only the pinned seed is pinned."""
    if not os.path.exists(GOLDEN):
        return ["perfbench/golden.json is missing"]
    pinned = load_json(GOLDEN).get(workload)
    if pinned is None:
        return [f"no golden entry for {workload}"]
    if seed != pinned["seed"]:
        return []
    problems = []
    for key, want in pinned["digests"].items():
        got = raw["digests"].get(key)
        if got != want:
            problems.append(f"digest {key}: {got} != golden {want}")
    counters = dict(raw["counters"])
    counters.update(raw["layers"])
    for key, want in pinned["counters"].items():
        if key in counters and counters[key] != want:
            problems.append(f"counter {key}: {counters[key]} != golden {want}")
    return problems


def evaluate(workload, seed, seconds, trace, spec):
    """Runs one workload and returns (ok, final line dict, full record)."""
    raw, host = run_workload(workload, seed, seconds, trace)
    problems = []
    if raw is None:
        return False, None, {"host": host, "problems": ["workload process failed"]}
    problems += raw["violations"]
    problems += golden_problems(workload, seed, raw)
    section = "per_layer" if trace else "end_to_end"
    source = raw["layers"] if trace else raw["e2e"]
    metrics = {}
    for m in spec[section]:
        v = source.get(m["name"])
        if v is None or not math.isfinite(v):
            problems.append(f"metric {m['name']} was not measured")
            continue
        if not trace and v <= 0:
            problems.append(f"metric {m['name']} is {v}, expected > 0")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    line = {
        "correct": not problems,
        "attempted": max(1, int(raw["attempted"])),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host, "problems": problems,
              "raw": raw, "result": line}
    return not problems, line, record


def describe(record, spec):
    """Human-readable report of one run (stdout, before the result line)."""
    raw, host = record["raw"], record["host"]
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} iterations={raw['iterations']} | "
          f"host nproc={host['nproc']} cpu=\"{host['cpu_model']}\" "
          f"kernel={host['kernel']} build={host['build_type']} "
          f"fs={host['run_dir_fs']}")
    info = raw["info"]
    if not record["trace"]:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, unit in units.items():
            extra = ""
            if name.startswith("query_"):
                extra = (f"  (n={info.get('query_us.count', 0):.0f}, "
                         f"p{info.get('query_us.tail_pct', 0):g}="
                         f"{info.get('query_us.tail', 0):.3f} us)")
            print(f"  {name:<18} {raw['e2e'].get(name, float('nan')):>14.6g} "
                  f"{unit}{extra}")
        for name, unit in UNBOUNDED:
            value = raw["e2e"].get(name, info.get(name, 0))
            print(f"  {name:<18} {value:>14.6g} {unit}  (not bounded)")
    else:
        for name in sorted(raw["layers"]):
            print(f"  {name:<28} {raw['layers'][name]:>14.6g}")
    for key, digest in sorted(raw["digests"].items()):
        print(f"  digest.{key:<11} {digest}")
    for p in record["problems"]:
        print(f"  FAILED: {p}")


def save_record(record):
    os.makedirs(RESULTS, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}.json")
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def self_check(workloads, seconds):
    """Each workload twice, traced, at the pinned seed: outputs and exact
    counters must match each other and the golden file; the scan's matrix
    must not depend on the shard count."""
    golden = load_json(GOLDEN)
    ok = True
    for w in workloads:
        seed = golden[w]["seed"]
        runs = [run_workload(w, seed, seconds, 1)[0] for _ in range(2)]
        if any(r is None or r["violations"] for r in runs):
            log(f"self-check {w}: run failed: "
                f"{[r and r['violations'] for r in runs]}")
            ok = False
            continue
        counters = [{k: r["layers"].get(k) for k in EXACT_COUNTERS}
                    for r in runs]
        same = counters[0] == counters[1] and \
            runs[0]["digests"] == runs[1]["digests"]
        pinned = golden_problems(w, seed, runs[0])
        log(f"self-check {w}: counters {counters[0]} "
            f"{'repeat exactly' if same else 'DIFFER: ' + str(counters[1])}"
            f"{'; golden ok' if not pinned else '; ' + '; '.join(pinned)}")
        ok = ok and same and not pinned
        if w == "scan":
            one = run_workload(w, seed, seconds, 0, shards=1)[0]
            invariant = one is not None and \
                one["digests"] == runs[0]["digests"]
            log(f"self-check scan: W=1 matrix digest "
                f"{'equals' if invariant else 'DIFFERS from'} W=2")
            ok = ok and invariant
    return ok


def write_golden(seconds):
    """Pins the current outputs at seed 1 (only when they change on purpose)."""
    golden = {}
    for w in WORKLOADS:
        raw = run_workload(w, 1, seconds, 1)[0]
        if raw is None or raw["violations"]:
            log(f"write-golden: {w} failed")
            return False
        golden[w] = {"seed": 1, "digests": raw["digests"],
                     "counters": {k: raw["layers"][k] for k in EXACT_COUNTERS}}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.write_golden:
        return 0 if write_golden(min(seconds, 6)) else 1
    if args.self_check:
        return 0 if self_check(workloads, min(seconds, 6)) else 1

    all_ok = True
    for w in workloads:
        started = time.time()
        ok, line, record = evaluate(w, args.seed, seconds, args.trace, spec)
        record["wall_s"] = time.time() - started
        if line is not None:
            describe(record, spec)
            save_record(record)
            print(json.dumps(line), flush=True)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
