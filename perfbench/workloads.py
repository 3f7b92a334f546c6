"""The benchmark's workloads: fixed jpaut command lines with known answers.

Every item is one ``jpaut`` command line.  ``expect`` maps a field of its
JSON report (a dotted path; ``rc`` is the exit code) to the value the
acceptance tests establish, and ``sha256`` is the digest of the report the
seed commit writes, so the byte-identical-output rule is enforced too.  The
item set of a workload is fixed; the seed only permutes the order of a pass.
"""

import json
import os
from dataclasses import dataclass
from typing import Optional

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


@dataclass(frozen=True)
class Item:
    argv: tuple
    expect: dict
    sha256: Optional[str] = None

    @property
    def key(self):
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple
    # Command lines run again in a second traced worker; their deterministic
    # counters must equal those of the item whose argv differs at most in
    # the --jobs value.
    recheck: tuple = ()


def _exhaustive(spec, order, candidates, jobs):
    return Item(("enumerate", spec, "--jobs", str(jobs), "--dump-elements"),
                {"rc": 0, "mode": "exhaustive", "order": order,
                 "generator_provenance":
                     f"exhaustive scan of {candidates} candidates "
                     f"(engine fast)"})


def _generated(spec, order, *extra):
    return Item(("enumerate", spec, "--mode", "generated", "--jobs", "1")
                + extra, {"rc": 0, "mode": "generated", "order": order})


def _check(claim, ring=None, n=None, m=None, order=None, passed=True,
           outcome="verified"):
    argv = ["check", claim]
    for flag, value in (("--ring", ring), ("--m", m), ("--n", n)):
        if value is not None:
            argv += [flag, str(value)]
    expect = {"rc": 0 if passed else 1, "pass": passed, "outcome": outcome}
    if order is not None:
        expect["details.exhaustive_order"] = order
    return Item(tuple(argv + ["--jobs", "1"]), expect)


def _verify(spec, ok=True, **fields):
    return Item(("verify", spec), {"rc": 0 if ok else 1, "ok": ok, **fields})


SCAN = Workload("scan", (
    _exhaustive("ThI(2,F3)", 96, 24261120, 2),
    _exhaustive("VhI(2,2,F3)", 2304, 24261120, 2),
    _exhaustive("Mplus(2,F3)", 48, 531441, 2),
    _exhaustive("TIV(3,F5)", 16, 1488000, 2),
), recheck=(
    ("enumerate", "Mplus(2,F3)", "--jobs", "1", "--dump-elements"),
    ("enumerate", "TIV(3,F5)", "--jobs", "1", "--dump-elements"),
))

# Orders from acceptance criteria 02, 03, 04, 05 and 07.
_GRID = ((1, "F3"), (2, "F3"), (2, "F5"), (3, "F3"))
_AUTV_IV = {(1, "F3"): 2, (2, "F3"): 16, (2, "F5"): 32, (3, "F3"): 48}
_AUTT_IV = {(1, "F3"): 2, (2, "F3"): 8, (2, "F5"): 8, (3, "F3"): 48}

CLAIMS = Workload("claims", (
    *(_check("autV-IV", ring, n, order=_AUTV_IV[n, ring]) for n, ring in _GRID),
    *(_check("autT-IV", ring, n, order=_AUTT_IV[n, ring]) for n, ring in _GRID),
    _check("aut-TJI", "F5", 1, order=2),
    # the split carrier at n = 2: order 8 against a product model of 4
    _check("aut-TJI", "F5", 2, order=8, passed=False, outcome="failed"),
    _check("aut-TJI", "F5", 3, order=16),
    _check("schemesJandJTS", order=16),
    _check("vhi-rect", "F3", order=48),
    _check("vhi-rect", "F5", order=480),
    *(_check("block-grading", ring, n, m) for ring in ("F3", "F5")
      for m, n in ((1, 1), (1, 2), (2, 2))),
    _check("lambda-iso", "F5", 2),
    _check("lambda-iso", "F5", 3),
    _check("lambda-iso", "F3", outcome="refused"),
    _check("mnplus-structure", order=48),
    _check("detSim"),
    _check("phi-n-kernel"),
    _check("tti-multiplier", order=8),
    _check("vti-vhi-iso"),
    _exhaustive("VhI(1,3,F3)", 11232, 11232, 1),
    _generated("VhI(1,3,F3)", 11232, "--dump-elements"),
    _generated("VhI(2,2,F3)", 2304),
), recheck=(
    ("check", "vhi-rect", "--ring", "F3", "--jobs", "1"),
    ("check", "schemesJandJTS", "--jobs", "1"),
    ("enumerate", "VhI(2,2,F3)", "--mode", "generated", "--jobs", "1"),
))


def _sweep(ring):
    """The criterion-01 axiom sweep over one ring, as (spec, carrier dim)."""
    out = [(f"VIV({n},{ring})", n) for n in (1, 2, 3)]
    for n in (1, 2, 3, 4, 5, 6):
        out += [(f"{tag}({n},{ring})", n) for tag in ("ThatIV", "TIV", "Jbilin")]
    for m, n in ((1, 1), (1, 2), (1, 3)):
        out += [(f"{tag}({m},{n},{ring})", m * n) for tag in ("VhI", "VtI")]
    for m, n in ((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2),
                 (2, 3)):
        out.append((f"TtI({m},{n},{ring})", m * n))
    for n in (1, 2):
        out += [(f"{tag}({n},{ring})", n * n) for tag in ("ThI", "Mplus")]
    return out


# Q at carrier dimension 5 and 6 takes about 65 s on its own, longer than a
# run; dimension 4 already makes Fraction arithmetic the dominant cost.
AXIOMS = Workload("axioms", (
    *(_verify(spec) for ring in ("F3", "F5") for spec, _ in _sweep(ring)),
    *(_verify(spec) for spec, dim in _sweep("Q") if dim <= 4),
    _verify("BadPair(F3)", ok=False, **{
        "failures.0.identity": "outer-symmetry", "failures.0.sigma": 1,
        "failures.0.at": [0, 1, 1]}),
), recheck=(
    ("verify", "TIV(4,Q)"),
    ("verify", "VhI(1,3,F5)"),
    ("verify", "BadPair(F3)"),
))


def _with_digests(workload, digests):
    items = tuple(Item(it.argv, it.expect, digests.get(it.key))
                  for it in workload.items)
    return Workload(workload.name, items, workload.recheck)


def load():
    """The workloads by name, each item carrying its recorded digest."""
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    return {w.name: _with_digests(w, digests) for w in (SCAN, CLAIMS, AXIOMS)}
