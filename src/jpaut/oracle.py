"""Brute-force enumeration of automorphism sets, closures, and comparisons.

The enumerator is the ground truth the named families are measured against:
it scans candidate maps over a finite ring and keeps exactly those passing
the defining identities.  For pairs carrying a trace, only the + side
ranges over GL and the - side is pinned as the trace-dual inverse.  Budgets
are counted in invertible candidates considered, never raw tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (BadInput, BudgetExceeded, EngineMismatch, MixedSystems,
                     NonEnumerableRing)
from .jordan import (JordanAlgebra, JordanPair, JordanTriple, PairMap,
                     _carries, algebra_map_respects, dual_inverse,
                     is_algebra_automorphism, is_pair_automorphism,
                     is_triple_automorphism, pair_map_respects,
                     triple_map_respects, unwrap)
from .matrix import Matrix, enumerate_GL
from .ring import DualNumbers, PrimeField, ProductRing, Ring

DEFAULT_BUDGET = 30_000_000


def gl_order(ring: Ring, d: int) -> int:
    """|GL_d(R)| for the supported finite rings."""
    if d == 0:
        return 1
    if isinstance(ring, PrimeField):
        q = ring.p
        out = 1
        for i in range(d):
            out *= q ** d - q ** i
        return out
    if isinstance(ring, ProductRing):
        return gl_order(ring.left, d) * gl_order(ring.right, d)
    if isinstance(ring, DualNumbers):
        return gl_order(ring.base, d) * ring.base.size ** (d * d)
    raise NonEnumerableRing(f"no GL order over {ring.name}")


def element_key(el):
    if isinstance(el, PairMap):
        return (el.plus.entries, el.minus.entries)
    return (el.entries,)


def element_jsonable(el):
    return el.to_jsonable()


def _compose(x, y):
    return x.compose(y) if isinstance(x, PairMap) else x @ y


def _dedupe_sorted(elements: Iterable):
    by_key = {element_key(el): el for el in elements}
    return tuple(by_key[k] for k in sorted(by_key))


@dataclass(frozen=True)
class AutomorphismSet:
    """A finite automorphism set with deterministic canonical ordering."""
    system: str
    ring_name: str
    kind: str  # pair | triple | algebra
    mode: str  # exhaustive | generated
    engine: str  # fast | pure | closure | family
    candidates: int
    elements: tuple

    @classmethod
    def from_elements(cls, system, ring_name, kind, mode, engine,
                      candidates, elements) -> "AutomorphismSet":
        return cls(system, ring_name, kind, mode, engine, candidates,
                   _dedupe_sorted(elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def keys(self) -> frozenset:
        return frozenset(element_key(el) for el in self.elements)

    def to_jsonable(self, include_elements: bool = False) -> dict:
        out = {
            "system": self.system,
            "ring": self.ring_name,
            "kind": self.kind,
            "mode": self.mode,
            "engine": self.engine,
            "candidates": self.candidates,
            "order": self.order,
        }
        if include_elements:
            out["elements"] = [element_jsonable(el) for el in self.elements]
        return out

    def verify_group_closed(self, limit: int = 16) -> bool:
        """Composition/inverse closure; full below limit^2, else a
        deterministic evenly spaced sample."""
        keys = self.keys()
        n = self.order
        if n == 0:
            return False
        if n <= limit:
            ids = range(n)
        else:
            step = max(1, n // limit)
            ids = range(0, n, step)
        sampled = [self.elements[i] for i in ids]
        for x in sampled:
            if element_key(x.inverse()) not in keys:
                return False
            for y in sampled:
                if element_key(_compose(x, y)) not in keys:
                    return False
        return True


@dataclass(frozen=True)
class CompareReport:
    system: str
    equal: bool
    order_a: int
    order_b: int
    only_a: int
    only_b: int
    sample_only_a: tuple = ()
    sample_only_b: tuple = ()

    def to_jsonable(self) -> dict:
        return {**asdict(self), "sample_only_a": list(self.sample_only_a),
                "sample_only_b": list(self.sample_only_b)}


def compare(a: AutomorphismSet, b: AutomorphismSet) -> CompareReport:
    if a.kind != b.kind or a.ring_name != b.ring_name or a.system != b.system:
        raise MixedSystems(
            f"({a.system}, {a.ring_name}, {a.kind}) vs "
            f"({b.system}, {b.ring_name}, {b.kind})")
    ka, kb = a.keys(), b.keys()
    only_a = sorted(ka - kb)
    only_b = sorted(kb - ka)
    lookup_a = {element_key(el): el for el in a.elements}
    lookup_b = {element_key(el): el for el in b.elements}
    return CompareReport(
        a.system, not only_a and not only_b, a.order, b.order,
        len(only_a), len(only_b),
        tuple(element_jsonable(lookup_a[k]) for k in only_a[:4]),
        tuple(element_jsonable(lookup_b[k]) for k in only_b[:4]))


# -- exhaustive enumeration ---------------------------------------------------

def _budgeted(candidates: int, budget: int) -> int:
    if candidates > budget:
        raise BudgetExceeded(f"{candidates} candidates exceed budget {budget}")
    return candidates


def _use_fast(structure, dim_ok: bool, engine: str, name) -> bool:
    """The fast kernels read the int64 image, which exists over F_p only."""
    use_fast = (structure._int64 is not None and dim_ok
                and engine in ("auto", "fast"))
    if engine == "fast" and not use_fast:
        raise BadInput(f"fast engine unavailable for {name}")
    return use_fast


def _stack(matrices: Sequence[Matrix], d: int) -> np.ndarray:
    return np.array([m.entries for m in matrices],
                    dtype=np.int64).reshape(-1, d, d)


def _cross_check(els, structure, name):
    """Every fast-scan element must be an automorphism.

    One batched transport check per structure tensor (jordan._carries, an
    implementation independent of the scan kernels) decides all elements
    at once.  Invertibility: for traced pairs plus^T G minus == G, which
    also pins minus to the trace-dual inverse; else Matrix.is_invertible.
    """
    ring, image = structure.ring, structure._int64
    if isinstance(structure, JordanPair):
        d = structure.dplus
        plus = _stack([f.plus for f in els], d)
        minus = _stack([f.minus for f in els], d)
        g = image["trace"]
        ok = ((plus.transpose(0, 2, 1) @ g % ring.p) @ minus % ring.p
              == g).all(axis=(1, 2))
        for part, a, b in (("t_plus", plus, minus), ("t_minus", minus, plus)):
            ok &= _carries(ring, image[part], image[part], a, (a, b, a))
    else:
        tensor = image["tensor" if isinstance(structure, JordanTriple)
                       else "product"]
        phi = _stack(els, structure.dim)
        ok = np.array([m.is_invertible() for m in els], dtype=bool)
        ok &= _carries(ring, tensor, tensor, phi, (phi,) * (tensor.ndim - 1))
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise EngineMismatch(f"fast scan of {name} returned "
                             f"{element_jsonable(els[bad[0]])}, which the "
                             "transport predicate rejects")


def _enumerate_pair(pair: JordanPair, name, budget, jobs, engine):
    ring = pair.ring
    if pair.trace is not None:
        candidates = _budgeted(gl_order(ring, pair.dplus), budget)
        if _use_fast(pair, 2 <= pair.dplus <= 4, engine, name):
            from . import fastscan
            image, d = pair._int64, pair.dplus
            found = fastscan.scan_pair_with_trace(
                ring.p, d, image["t_plus"], image["t_minus"], image["trace"],
                jobs=jobs)
            els = [PairMap(Matrix(ring, d, d, plus), Matrix(ring, d, d, minus))
                   for plus, minus in found]
            _cross_check(els, pair, name)
            return els, candidates, "fast"
        els = []
        for phi in enumerate_GL(pair.dplus, ring):
            f = PairMap(phi, dual_inverse(pair, phi))
            if pair_map_respects(pair, f):
                els.append(f)
        return els, candidates, "pure"
    # untraced: both sides range independently
    candidates = _budgeted(
        gl_order(ring, pair.dplus) * gl_order(ring, pair.dminus), budget)
    els = []
    for fp in enumerate_GL(pair.dplus, ring):
        for fm in enumerate_GL(pair.dminus, ring):
            f = PairMap(fp, fm)
            if pair_map_respects(pair, f):
                els.append(f)
    return els, candidates, "pure"


def _enumerate_triple(trip: JordanTriple, name, budget, jobs, engine):
    ring = trip.ring
    candidates = _budgeted(gl_order(ring, trip.dim), budget)
    if _use_fast(trip, 2 <= trip.dim <= 4, engine, name):
        from . import fastscan
        tuples = fastscan.scan_triple(ring.p, trip.dim,
                                      trip._int64["tensor"], jobs=jobs)
        els = [Matrix(ring, trip.dim, trip.dim, tm) for tm in tuples]
        _cross_check(els, trip, name)
        return els, candidates, "fast"
    els = [phi for phi in enumerate_GL(trip.dim, ring)
           if triple_map_respects(trip, phi)]
    return els, candidates, "pure"


def _unit_pivot(ring: Ring, unit) -> Optional[int]:
    for i, p in enumerate(unit):
        if ring.is_unit(p):
            return i
    return None


def _enumerate_algebra(alg: JordanAlgebra, name, budget, jobs, engine):
    ring = alg.ring
    d = alg.dim
    pivot = None if alg.unit is None else _unit_pivot(ring, alg.unit)
    if pivot is None:
        candidates = _budgeted(gl_order(ring, d), budget)
        els = [phi for phi in enumerate_GL(d, ring)
               if algebra_map_respects(alg, phi)]
        return els, candidates, "pure"
    candidates = _budgeted(ring.size ** (d * (d - 1)), budget)
    if _use_fast(alg, d <= 4, engine, name):
        from . import fastscan
        image = alg._int64
        tuples = fastscan.scan_algebra_unit_fixing(
            ring.p, d, image["product"], image["unit"], jobs=jobs)
        els = [Matrix(ring, d, d, tm) for tm in tuples]
        _cross_check(els, alg, name)
        return els, candidates, "fast"
    # pure unit-fixing affine scan: free columns range, pivot column solved
    els = []
    free_cols = [j for j in range(d) if j != pivot]
    u = alg.unit
    ut_inv = ring.inv(u[pivot])
    for combo in itertools.product(ring.payloads(), repeat=d * (d - 1)):
        cols = {}
        for slot, j in enumerate(free_cols):
            cols[j] = combo[slot * d:(slot + 1) * d]
        acc = list(u)
        for j in free_cols:
            for r in range(d):
                acc[r] = ring.sub(acc[r], ring.mul(u[j], cols[j][r]))
        cols[pivot] = tuple(ring.mul(ut_inv, x) for x in acc)
        phi = Matrix(ring, d, d,
                     tuple(tuple(cols[j][r] for j in range(d))
                           for r in range(d)))
        if phi.is_invertible() and algebra_map_respects(alg, phi):
            els.append(phi)
    return els, candidates, "pure"


def _kind(structure) -> str:
    for cls, kind in ((JordanPair, "pair"), (JordanTriple, "triple"),
                      (JordanAlgebra, "algebra")):
        if isinstance(structure, cls):
            return kind
    raise BadInput(f"not a Jordan structure: {type(structure).__name__}")


def enumerate_automorphisms(system, budget: Optional[int] = None,
                            jobs: int = 1,
                            engine: str = "auto") -> AutomorphismSet:
    """Exhaustively enumerate the automorphisms of a desk-scale system.

    engine: auto (fast kernels when applicable), fast (demand them), or
    pure (reference scan).  Results are independent of engine and jobs.
    """
    if engine not in ("auto", "fast", "pure"):
        raise BadInput(f"unknown engine {engine!r}")
    name = getattr(system, "name", None) or "anonymous"
    structure = unwrap(system)
    budget = DEFAULT_BUDGET if budget is None else budget
    kind = _kind(structure)
    scan = {"pair": _enumerate_pair, "triple": _enumerate_triple,
            "algebra": _enumerate_algebra}[kind]
    if not structure.ring.is_finite:
        raise NonEnumerableRing(f"cannot enumerate over {structure.ring.name}")
    els, cand, engine_used = scan(structure, name, budget, jobs, engine)
    return AutomorphismSet.from_elements(
        name, structure.ring.name, kind, "exhaustive", engine_used,
        cand, els)


# -- closure generation -------------------------------------------------------

def _closure_pure(identity, generators, budget):
    seen = {element_key(identity): identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in generators:
                y = _compose(x, g)
                k = element_key(y)
                if k not in seen:
                    if len(seen) >= budget:
                        raise BudgetExceeded(
                            f"closure exceeded budget {budget}")
                    seen[k] = y
                    new_frontier.append(y)
        frontier = new_frontier
    return list(seen.values())


def _closure_prime_pairs(ring, generators, budget):
    p = ring.p
    dp = generators[0].plus.rows
    dm = generators[0].minus.rows
    gp = [np.array(g.plus.entries, dtype=np.int64) for g in generators]
    gm = [np.array(g.minus.entries, dtype=np.int64) for g in generators]

    def key(ap, am):
        return ap.tobytes() + am.tobytes()

    ip = np.eye(dp, dtype=np.int64)
    im = np.eye(dm, dtype=np.int64)
    seen = {key(ip, im): (ip, im)}
    fp, fm = ip[None], im[None]
    while fp.shape[0]:
        batch_p, batch_m = [], []
        for g_p, g_m in zip(gp, gm):
            batch_p.append(fp @ g_p % p)
            batch_m.append(fm @ g_m % p)
        cat_p = np.concatenate(batch_p)
        cat_m = np.concatenate(batch_m)
        fresh_p, fresh_m = [], []
        for i in range(cat_p.shape[0]):
            k = key(cat_p[i], cat_m[i])
            if k not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(f"closure exceeded budget {budget}")
                seen[k] = (cat_p[i], cat_m[i])
                fresh_p.append(cat_p[i])
                fresh_m.append(cat_m[i])
        if fresh_p:
            fp, fm = np.stack(fresh_p), np.stack(fresh_m)
        else:
            fp = np.empty((0, dp, dp), dtype=np.int64)
            fm = fp

    def to_matrix(arr, d):
        return Matrix(ring, d, d,
                      tuple(tuple(int(x) for x in row) for row in arr))
    return [PairMap(to_matrix(ap, dp), to_matrix(am, dm))
            for ap, am in seen.values()]


def generate_closure(system, generators: Sequence,
                     budget: Optional[int] = None) -> AutomorphismSet:
    """Smallest composition-closed set containing the generators.

    All generators must pass the matching automorphism predicate.  Every
    element has finite order, so composition closure is group closure.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    name = getattr(system, "name", None) or "anonymous"
    structure = unwrap(system)
    ring = structure.ring
    generators = list(generators)
    kind = _kind(structure)
    checker = {"pair": is_pair_automorphism, "triple": is_triple_automorphism,
               "algebra": is_algebra_automorphism}[kind]
    for g in generators:
        if not checker(structure, g):
            raise BadInput("generator fails the automorphism predicate")
    if kind == "pair":
        identity = PairMap.identity(ring, structure.dplus, structure.dminus)
        if generators and isinstance(ring, PrimeField):
            els = _closure_prime_pairs(ring, generators, budget)
        else:
            els = _closure_pure(identity, generators, budget)
    else:
        identity = Matrix.identity(ring, structure.dim)
        els = _closure_pure(identity, generators, budget)
    return AutomorphismSet.from_elements(
        name, ring.name, kind, "generated", "closure", len(els), els)


def family_image(system, kind: str, elements: Iterable,
                 engine: str = "family") -> AutomorphismSet:
    """Package a named-family image as a generated-mode set."""
    name = getattr(system, "name", None) or "anonymous"
    elements = _dedupe_sorted(elements)
    return AutomorphismSet(name, unwrap(system).ring.name, kind, "generated",
                           engine, len(elements), elements)
