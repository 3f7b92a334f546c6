"""One benchmark pass in a fresh interpreter.

run.py starts this script, reads the line ``ready`` once the
interpreter, numpy and jpaut are loaded (that interval is the set-up time),
then sends one JSON job on stdin:

    {"items": [[argv...], ...], "out_dir": "...", "spans": "..." | null}

Each item runs through ``jpaut.cli.main(argv + ["--out", file])`` exactly as
on the command line, with the exhaustive-set cache of ``jpaut.claims``
cleared first.  The worker prints one JSON line with each item's exit code,
report digest and report (element lists reduced to their length), and the
wall and CPU seconds and peak RSS of the pass.  With ``spans`` set it
traces the layer boundaries and writes the spans to that file at exit.
"""

import hashlib
import json
import os
import resource
import sys
import time

import numpy
import jpaut
from jpaut import claims, cli


def _report_summary(text):
    report = json.loads(text)
    if isinstance(report.get("elements"), list):
        report["elements"] = len(report["elements"])
    return report


def run_item(main, argv, out_path):
    claims.clear_cache()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    error = None
    try:
        rc = main(list(argv) + ["--out", out_path])
    except SystemExit as exc:  # argparse refusing the command line
        rc = exc.code
    except Exception as exc:  # any other raise fails the item, not the pass
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    result = {"rc": rc, "error": error, "wall": wall, "cpu": cpu,
              "sha256": None, "report": None}
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
        result["sha256"] = hashlib.sha256(data).hexdigest()
        result["report"] = _report_summary(data.decode("utf-8"))
    return result


def main():
    print("ready", flush=True)
    job = json.loads(sys.stdin.read())
    tracer = None
    entry = cli.main
    if job.get("spans"):
        from layertrace import ROOT_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, ROOT_SPAN)
    out_path = os.path.join(job["out_dir"], f"report-{os.getpid()}.json")
    items = [run_item(entry, argv, out_path) for argv in job["items"]]
    if tracer is not None:
        tracer.dump(job["spans"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "items": items,
        "wall": sum(r["wall"] for r in items),
        "cpu": sum(r["cpu"] for r in items),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "jpaut": jpaut.__version__,
    }), flush=True)


if __name__ == "__main__":
    main()
