"""Spans at jpaut's module boundaries, recorded from outside the package.

`Tracer.install` replaces public functions with timing wrappers.  Names
bound by `from x import y` live in the importing module, so each wrapper
is patched into the caller's namespace (``cli.parse_system``,
``claims.generate_closure``, ...); the fastscan kernels are looked up as
module attributes at call time, so they are patched on `jpaut.fastscan`
itself.  A name that a later version of the package no longer has is
skipped, and the metrics it feeds read 0.

Spans are kept in memory as ``[name, start, end, parent, counts]`` and
written out once, when the worker ends.  Every wrapped function is called
from the worker's main thread (the fastscan thread pools run inside a
kernel span), so one stack gives each span its parent.

`layer_metrics` turns the `SpanTable` of one pass into the per-layer
metrics listed in BENCHMARK.json.  A span's self time is its duration minus the
time its direct children cover; a layer's ``.s`` is the duration of its
outermost spans, so recursion is not counted twice.
"""

import functools
import inspect
import json
import time

ROOT_SPAN = "cli.main"

FASTSCAN_KERNELS = ("scan_triple", "scan_pair_with_trace",
                    "scan_algebra_unit_fixing", "scan_similitudes")

# Deterministic per-item counters; they must repeat exactly between runs
# and between --jobs values.
COUNTERS = ("fastscan.raw_candidates", "fastscan.invertible_candidates",
            "fastscan.survivors", "jordan.identities_checked",
            "catalog.validate.calls", "oracle.closure.elements")


def _gl_order(p, d):
    out = 1
    for i in range(d):
        out *= p ** d - p ** i
    return out


def _scan_counts(kernel):
    """Candidate counts of one fastscan call, from its (p, d) arguments.

    Raw candidates are the matrices the kernel decodes; invertible ones are
    those with nonzero determinant.  The unit-fixing algebra scan ranges
    over {A : A u = u}, whose invertible members are the stabilizer of the
    vector u in GL_d, of order |GL_d| / (p^d - 1).
    """
    def count(args, result):
        p, d = args[0], args[1]
        if kernel == "scan_algebra_unit_fixing":
            raw = p ** (d * (d - 1))
            invertible = _gl_order(p, d) // (p ** d - 1)
        else:
            raw, invertible = p ** (d * d), _gl_order(p, d)
        return {"raw": raw, "invertible": invertible,
                "survivors": len(result)}
    return count


def _identities(args, result):
    return {"identities": result.checked}


def _closure_elements(args, result):
    return {"elements": result.order}


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx, counts):
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counts

    def wrap(self, fn, name, count=None):
        """fn with a span around each call; count(args, result) -> dict."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, result)
                return result
            finally:
                self._close(idx, counts)
        return traced

    def wrap_generator(self, fn, name):
        """Generator function fn with one span around each next()."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._close(idx, {"yielded": 0})
                    return
                except BaseException:
                    self._close(idx, None)
                    raise
                self._close(idx, {"yielded": 1})
                yield item
        return traced

    def _patch(self, owner, attr, name, count=None, generator=False):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        wrapped = (self.wrap_generator(fn, name) if generator
                   else self.wrap(fn, name, count))
        setattr(owner, attr, wrapped)

    def install(self):
        """Patch the layer boundaries of the imported jpaut package."""
        from jpaut import catalog, claims, cli, fastscan, oracle
        for kernel in FASTSCAN_KERNELS:
            self._patch(fastscan, kernel, f"fastscan.{kernel}",
                        _scan_counts(kernel))
        for mod in (cli, claims):
            self._patch(mod, "enumerate_automorphisms", "oracle.enumerate")
        self._patch(cli, "parse_system", "catalog.parse_system")
        self._patch(cli, "check_axioms", "jordan.check_axioms", _identities)
        self._patch(catalog, "check_axioms", "catalog.validate")
        self._patch(oracle, "dual_inverse", "jordan.dual_inverse")
        for kind in ("pair", "triple", "algebra"):
            self._patch(oracle, f"is_{kind}_automorphism", "jordan.predicate")
        self._patch(claims, "is_pair_automorphism", "jordan.predicate")
        self._patch(claims, "generate_closure", "oracle.closure",
                    _closure_elements)
        self._patch(claims, "compare", "oracle.compare")
        self._patch(claims, "run_claim", "claims.run_claim")
        self._patch(claims, "standard_generated", "claims.standard_generated")
        self._patch(oracle.AutomorphismSet, "verify_group_closed",
                    "oracle.verify_group_closed")
        for attr, obj in list(vars(claims).items()):
            if not inspect.isfunction(obj):
                continue
            if obj.__module__ == "jpaut.autfam":
                self._patch(claims, attr, "autfam")
            elif obj.__module__ == "jpaut.gradelie":
                self._patch(claims, attr, "gradelie")
            elif (obj.__module__ == "jpaut.matrix"
                  and attr.startswith("enumerate_")):
                self._patch(claims, attr, "matrix.enumerate", generator=True)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# -- aggregation ----------------------------------------------------------------

PER_LAYER = (
    ("fastscan.s", "s", "lower"),
    ("fastscan.share", "ratio", "lower"),
    ("fastscan.scan_triple.s", "s", "lower"),
    ("fastscan.scan_pair_with_trace.s", "s", "lower"),
    ("fastscan.scan_algebra_unit_fixing.s", "s", "lower"),
    ("fastscan.scan_similitudes.s", "s", "lower"),
    ("fastscan.raw_candidates", "count", "lower"),
    ("fastscan.invertible_candidates", "count", "lower"),
    ("fastscan.survivors", "count", "higher"),
    ("fastscan.hit_ratio", "ratio", "higher"),
    ("fastscan.invertible_per_s", "1/s", "higher"),
    ("oracle.enumerate.self_s", "s", "lower"),
    ("oracle.closure.s", "s", "lower"),
    ("oracle.closure.elements", "count", "higher"),
    ("oracle.compare.s", "s", "lower"),
    ("oracle.verify_group_closed.s", "s", "lower"),
    ("oracle.verify_group_closed.calls", "count", "lower"),
    ("jordan.check_axioms.s", "s", "lower"),
    ("jordan.check_axioms.calls", "count", "lower"),
    ("jordan.identities_checked", "count", "higher"),
    ("jordan.identities_per_s", "1/s", "higher"),
    ("jordan.dual_inverse.s", "s", "lower"),
    ("jordan.dual_inverse.calls", "count", "lower"),
    ("jordan.predicate.s", "s", "lower"),
    ("jordan.predicate.calls", "count", "lower"),
    ("catalog.parse_system.self_s", "s", "lower"),
    ("catalog.validate.s", "s", "lower"),
    ("catalog.validate.calls", "count", "lower"),
    ("autfam.s", "s", "lower"),
    ("autfam.calls", "count", "lower"),
    ("matrix.enumerate.s", "s", "lower"),
    ("matrix.enumerate.yielded", "count", "higher"),
    ("gradelie.s", "s", "lower"),
    ("claims.run_claim.self_s", "s", "lower"),
    ("claims.standard_generated.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


class SpanTable:
    """Inclusive, self and outermost times of one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        child_time = [0.0] * n
        self.outermost = [True] * n
        self.root = list(range(n))
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent < 0:
                continue
            child_time[parent] += end - start
            self.root[i] = self.root[parent]
            up = parent
            while up >= 0 and self.outermost[i]:
                self.outermost[i] = spans[up][0] != name
                up = spans[up][3]
        self.self_time = [s[2] - s[1] - child_time[i]
                          for i, s in enumerate(spans)]

    def total(self, name):
        return sum((s[2] - s[1] for i, s in enumerate(self.spans)
                    if s[0] == name and self.outermost[i]), 0.0)

    def self_total(self, name):
        return sum((self.self_time[i] for i, s in enumerate(self.spans)
                    if s[0] == name), 0.0)

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def counted(self, name, key):
        return sum((s[4] or {}).get(key, 0) for s in self.spans
                   if s[0] == name)

    def item_counters(self):
        """COUNTERS summed per root span, in root order."""
        per_root = {}
        for i, (name, _, _, _, counts) in enumerate(self.spans):
            acc = per_root.setdefault(self.root[i], dict.fromkeys(COUNTERS, 0))
            if name.startswith("fastscan.") and counts:
                acc["fastscan.raw_candidates"] += counts["raw"]
                acc["fastscan.invertible_candidates"] += counts["invertible"]
                acc["fastscan.survivors"] += counts["survivors"]
            elif name == "jordan.check_axioms" and counts:
                acc["jordan.identities_checked"] += counts["identities"]
            elif name == "catalog.validate":
                acc["catalog.validate.calls"] += 1
            elif name == "oracle.closure" and counts:
                acc["oracle.closure.elements"] += counts["elements"]
        return [per_root[r] for r in sorted(per_root)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t):
    """Per-layer metrics of one pass's SpanTable, named as in PER_LAYER."""
    counters = {k: sum(item[k] for item in t.item_counters())
                for k in COUNTERS}
    kernels = {k: t.total(f"fastscan.{k}") for k in FASTSCAN_KERNELS}
    scan_s = sum(kernels.values())
    wall = t.total(ROOT_SPAN)
    invertible = counters["fastscan.invertible_candidates"]
    check_s = t.total("jordan.check_axioms")
    identities = counters["jordan.identities_checked"]
    out = {
        "fastscan.s": scan_s,
        "fastscan.share": _ratio(scan_s, wall),
        **{f"fastscan.{k}.s": v for k, v in kernels.items()},
        **counters,
        "fastscan.hit_ratio": _ratio(counters["fastscan.survivors"],
                                     invertible),
        "fastscan.invertible_per_s": _ratio(invertible, scan_s),
        "oracle.enumerate.self_s": t.self_total("oracle.enumerate"),
        "oracle.closure.s": t.total("oracle.closure"),
        "oracle.compare.s": t.total("oracle.compare"),
        "oracle.verify_group_closed.s": t.total("oracle.verify_group_closed"),
        "oracle.verify_group_closed.calls":
            t.calls("oracle.verify_group_closed"),
        "jordan.check_axioms.s": check_s,
        "jordan.check_axioms.calls": t.calls("jordan.check_axioms"),
        "jordan.identities_per_s": _ratio(identities, check_s),
        "jordan.dual_inverse.s": t.total("jordan.dual_inverse"),
        "jordan.dual_inverse.calls": t.calls("jordan.dual_inverse"),
        "jordan.predicate.s": t.total("jordan.predicate"),
        "jordan.predicate.calls": t.calls("jordan.predicate"),
        "catalog.parse_system.self_s": t.self_total("catalog.parse_system"),
        "catalog.validate.s": t.total("catalog.validate"),
        "autfam.s": t.total("autfam"),
        "autfam.calls": t.calls("autfam"),
        "matrix.enumerate.s": t.total("matrix.enumerate"),
        "matrix.enumerate.yielded": t.counted("matrix.enumerate", "yielded"),
        "gradelie.s": t.total("gradelie"),
        "claims.run_claim.self_s": t.self_total("claims.run_claim"),
        "claims.standard_generated.self_s":
            t.self_total("claims.standard_generated"),
        "cli.self_s": t.self_total(ROOT_SPAN),
        "trace.wall_s": wall,
        "trace.spans": len(t.spans),
    }
    return {name: out[name] for name, _, _ in PER_LAYER}
