"""Benchmark runner for jpaut: one workload, fresh worker processes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

A run is a closed loop of passes.  Each pass starts a fresh worker
(worker.py), so in-process caches start cold as they do for a command-line
user, runs every item of the workload once in the order the seed gives,
and ends the worker; one worker runs at a time.  A further pass starts only
while the median pass so far still fits in --seconds, and the first pass
always runs.  Every report is checked against its known answer and its
recorded digest.

With --trace 0 the last line reports the end-to-end metrics, each the
median over the passes: wall_s and cpu_s of the timed body (the
cli.main calls), setup_s from worker start to ready (at least
SETUP_SAMPLES starts), and the worker's peak_rss_mb.  With --trace 1 the
passes run with layer spans on and the last line reports the per-layer
metrics of layertrace.py; the recheck command lines of the workload then
run once more in another traced worker, and their deterministic counters
must equal those of the pass.  The line before the last carries the
provenance and the per-pass figures.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_worker(job, timeout):
    """Start a worker, time it to ready, run the job; (setup_s, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT,
                            env=_worker_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            raise BenchError("worker did not start (is src/jpaut present?)")
        out, _ = proc.communicate(json.dumps(job), timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def _field(report, path):
    value = report
    for part in path.split("."):
        if isinstance(value, list) and part.isdigit() and int(part) < len(value):
            value = value[int(part)]
        elif isinstance(value, dict) and part in value:
            value = value[part]
        else:
            return "<missing>"
    return value


def check(item, result):
    """Problems with one item's outcome; empty when it is correct."""
    if result["error"]:
        return [f"raised {result['error']}"]
    problems = []
    if result["rc"] != item.expect.get("rc", 0):
        problems.append(f"exit code {result['rc']}")
    report = result["report"]
    if report is None:
        return problems + ["no report written"]
    for path, want in item.expect.items():
        if path != "rc" and _field(report, path) != want:
            problems.append(f"{path} = {_field(report, path)!r}, "
                            f"expected {want!r}")
    if item.sha256 is None:
        problems.append("no recorded report digest")
    elif result["sha256"] != item.sha256:
        problems.append("report differs from the recorded digest")
    return problems


def _jobs_free(argv):
    argv = list(argv)
    if "--jobs" in argv:
        i = argv.index("--jobs")
        del argv[i:i + 2]
    return tuple(argv)


def provenance(worker_result):
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "jpaut"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker_result.get("numpy"),
        "jpaut": worker_result.get("jpaut"),
        "machine": platform.machine(),
    }


def run_workload(workload, seed, seconds, trace):
    """Run passes of one workload; returns (result line, details line)."""
    started = time.perf_counter()
    deadline = started + seconds
    rng = random.Random(seed)
    out_dir = os.path.join(WORK, f"out-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{workload.name}.json")
    setups, passes, layer_runs, problems = [], [], [], []
    attempted = failed = 0
    pass_counters = {}
    try:
        while True:
            order = list(workload.items)
            rng.shuffle(order)
            job = {"items": [it.argv for it in order], "out_dir": out_dir,
                   "spans": spans_path if trace else None}
            limit = RUN_LIMIT_S - (time.perf_counter() - started)
            setup, res = run_worker(job, limit)
            setups.append(setup)
            passes.append(res)
            for item, result in zip(order, res["items"]):
                attempted += 1
                bad = check(item, result)
                if bad:
                    failed += 1
                    problems.append(f"{item.key}: {'; '.join(bad)}")
            if trace:
                with open(spans_path, encoding="utf-8") as fh:
                    table = layertrace.SpanTable(json.load(fh))
                layer_runs.append(layertrace.layer_metrics(table))
                for item, c in zip(order, table.item_counters()):
                    pass_counters.setdefault(_jobs_free(item.argv), c)
            estimate = statistics.median(
                p["wall"] for p in passes) + statistics.median(setups)
            if time.perf_counter() + estimate > deadline:
                break
        if trace and workload.recheck:
            recheck_path = spans_path.replace(".json", "-recheck.json")
            job = {"items": [list(a) for a in workload.recheck],
                   "out_dir": out_dir, "spans": recheck_path}
            limit = RUN_LIMIT_S - (time.perf_counter() - started)
            _, res = run_worker(job, limit)
            with open(recheck_path, encoding="utf-8") as fh:
                counters = layertrace.SpanTable(json.load(fh)).item_counters()
            for argv, result, c in zip(workload.recheck, res["items"],
                                       counters):
                attempted += 1
                first = pass_counters.get(_jobs_free(argv))
                if result["error"] or first != c:
                    failed += 1
                    problems.append(f"recheck {' '.join(argv)}: counters "
                                    f"{c} differ from the pass: {first}")
        while len(setups) < SETUP_SAMPLES:
            setup, _ = run_worker({"items": [], "out_dir": out_dir,
                                   "spans": None}, 30)
            setups.append(setup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if trace:
        metrics = {name: {"value": statistics.median(r[name]
                                                     for r in layer_runs),
                          "unit": unit}
                   for name, unit, _ in layertrace.PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall"] for p in passes),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu"] for p in passes),
                      "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    details = {
        "workload": workload.name, "seed": seed, "trace": bool(trace),
        "provenance": provenance(passes[0]),
        "passes": len(passes),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_cpu_s": [p["cpu"] for p in passes],
        "setup_samples_s": setups,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isdir(os.path.join(SRC, "jpaut")):
            raise BenchError(f"no jpaut package under {SRC}")
        table = workloads.load()
        if args.workload not in table:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"known: {', '.join(table)}")
        result, details = run_workload(table[args.workload], args.seed,
                                       args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
