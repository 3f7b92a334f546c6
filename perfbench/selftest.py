"""Fast self-test of the benchmark harness (about 5 s on two cores).

    python3 perfbench/selftest.py

Runs a small fixture workload through run.py's own code, untraced and
traced, and exits non-zero unless
- the emitted metrics are exactly those BENCHMARK.json names;
- a deliberately wrong expected order counts as one failed item per pass,
  and the correct items pass;
- the traced recheck finds the deterministic counters equal;
- every item of the real workloads carries a recorded report digest;
- BENCHMARK.json keeps its keys, names and bounds within the limits of
  its format.
"""

import json
import os
import re
import sys

import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fixture():
    """Three cheap real items; the Mplus one expects a wrong order."""
    real = {it.key: it for w in workloads.load().values() for it in w.items}
    rect = real["check vhi-rect --ring F3 --jobs 1"]
    viv = real["verify VIV(1,F3)"]
    mplus = real["enumerate Mplus(2,F3) --jobs 2 --dump-elements"]
    wrong = workloads.Item(mplus.argv, {**mplus.expect, "order": 47},
                           mplus.sha256)
    return workloads.Workload("fixture", (rect, viv, wrong), recheck=(
        ("enumerate", "Mplus(2,F3)", "--jobs", "1", "--dump-elements"),
        rect.argv,
    ))


def check_benchmark_json(spec, errors):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    if len(names) != len(set(names)):
        errors.append("a name is used twice")
    errors += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"bound of {m['name']} out of range")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] < max(m["bound"]
                                            for m in spec["end_to_end"]):
        errors.append("setup_s must exist and have the largest bound")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"why of {w['name']} is not one short line")
    if set(w["name"] for w in spec["workloads"]) != set(workloads.load()):
        errors.append("workloads differ from workloads.py")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    check_benchmark_json(spec, errors)
    for w in workloads.load().values():
        errors += [f"{w.name}: no digest for {it.key}"
                   for it in w.items if it.sha256 is None]

    for trace, group, rechecks in ((0, "end_to_end", 0), (1, "per_layer", 2)):
        result, details = run.run_workload(fixture(), 0, 1, trace)
        # a fast pass may leave time for another within the second
        passes = details["passes"]
        want_failed, attempted = passes, 3 * passes + rechecks
        want = [m["name"] for m in spec[group]]
        if sorted(result["metrics"]) != sorted(want):
            errors.append(f"trace {trace}: metrics "
                          f"{sorted(set(want) ^ set(result['metrics']))} "
                          f"missing or unexpected")
        if (result["failed"], result["attempted"]) != (want_failed, attempted):
            errors.append(f"trace {trace}: {result['failed']} of "
                          f"{result['attempted']} failed, expected "
                          f"{want_failed} of {attempted}: {details['problems']}")
        elif "order = 48, expected 47" not in details["problems"][0]:
            errors.append(f"trace {trace}: wrong problem reported: "
                          f"{details['problems']}")
        if result["correct"]:
            errors.append(f"trace {trace}: a failed item left correct true")
        zero = [k for k, v in result["metrics"].items()
                if group == "end_to_end" and not v["value"] > 0]
        errors += [f"end-to-end metric {k} is not positive" for k in zero]

    for line in errors:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
