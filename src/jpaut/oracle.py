"""Brute-force enumeration of automorphism sets, closures, and comparisons.

The enumerator is the ground truth the named families are measured against:
it scans candidate maps over a finite ring and keeps exactly those passing
the defining identities.  For pairs carrying a trace, only the + side
ranges over GL and the - side is pinned as the trace-dual inverse.  Budgets
are counted in invertible candidates considered, never raw tuples.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (BadDims, BadInput, BudgetExceeded, EngineMismatch,
                     MixedSystems, NonEnumerableRing)
from .jordan import (JordanAlgebra, JordanPair, JordanTriple, PairMap,
                     _carries, _fits_int64, algebra_map_respects, dual_inverse,
                     is_algebra_automorphism, is_pair_automorphism,
                     is_triple_automorphism, pair_map_respects,
                     triple_map_respects, unwrap)
from .matrix import Matrix, enumerate_GL, enumerate_matrices
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


def _compose(x, y):
    return x.compose(y) if isinstance(x, PairMap) else x @ y


def _dedupe_sorted(elements: Iterable):
    by_key = {element_key(el): el for el in elements}
    return tuple(by_key[k] for k in sorted(by_key))


def _sides(el) -> tuple:
    return (el.plus, el.minus) if isinstance(el, PairMap) else (el,)


class _Rows:
    """Maps of one shape as int64 rows of payload indices.

    A row holds every side of a map (plus, then minus for a PairMap),
    row-major.  Over F_p an index is the residue; over other rings payloads
    are numbered in the order this codec first meets them.
    """

    def __init__(self, like):
        self.pair = isinstance(like, PairMap)
        self.ring = ring = _sides(like)[0].ring
        self.dims = [m.rows for m in _sides(like)]
        self.width = sum(d * d for d in self.dims)
        self.identity = (PairMap.identity(ring, *self.dims) if self.pair
                         else Matrix.identity(ring, self.dims[0]))
        self.residues = isinstance(ring, PrimeField) and ring.p <= 2 ** 63
        self.fast = self.residues and _fits_int64(ring.p, max(self.dims),
                                                  ring.p - 1, 1, 2)
        self.index = {}

    def encode(self, els) -> np.ndarray:
        flat = [x for el in els for m in _sides(el)
                for row in m.entries for x in row]
        if not self.residues:
            flat = [self.index.setdefault(x, len(self.index)) for x in flat]
        return np.array(flat, dtype=np.int64).reshape(len(els), self.width)

    def split(self, rows: np.ndarray) -> list:
        """One (B, d, d) stack per side."""
        cuts = np.cumsum([d * d for d in self.dims])[:-1]
        return [side.reshape(-1, d, d) for side, d
                in zip(np.split(rows, cuts, axis=1), self.dims)]

    def decode(self, rows: np.ndarray) -> list:
        sides = [s.tolist() for s in self.split(rows)]
        if not self.residues:
            pool = list(self.index)
            sides = [[[[pool[i] for i in r] for r in m] for m in side]
                     for side in sides]
        mats = [[Matrix(self.ring, d, d, tuple(map(tuple, m))) for m in side]
                for side, d in zip(sides, self.dims)]
        return [PairMap(*ms) for ms in zip(*mats)] if self.pair else mats[0]

    def times(self, rows: np.ndarray, g, g_row: np.ndarray) -> np.ndarray:
        """The rows of x @ g for each row x.  Over F_p one matmul per side
        while d * (p - 1)**2 < 2**63; elsewhere decode, compose, encode."""
        if not self.fast:
            return self.encode([_compose(x, g) for x in self.decode(rows)])
        p = self.ring.p
        return np.concatenate(
            [(a @ b % p).reshape(len(rows), -1)
             for a, b in zip(self.split(rows), self.split(g_row[None]))],
            axis=1)


def _codec(structure) -> _Rows:
    ring = structure.ring
    if isinstance(structure, JordanPair):
        return _Rows(PairMap.identity(ring, structure.dplus, structure.dminus))
    return _Rows(Matrix.identity(ring, structure.dim))


def _keys(rows: np.ndarray) -> np.ndarray:
    """Rows as one opaque void key each, for sorting and searchsorted."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))
                     ).ravel()


def _closure(codec: _Rows, generators: Sequence, budget: int) -> np.ndarray:
    """Rows of the identity's closure under right multiplication by the
    generators, ascending by key; BudgetExceeded past budget elements."""
    frontier = codec.encode([codec.identity])
    seen = _keys(frontier)
    gen_rows = codec.encode(generators)
    while len(frontier) and len(generators):
        keys = np.sort(_keys(np.concatenate(
            [codec.times(frontier, g, r)
             for g, r in zip(generators, gen_rows)])))
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        pos = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != keys
        if len(seen) + np.count_nonzero(fresh) > budget:
            raise BudgetExceeded(f"closure exceeded budget {budget}")
        seen = np.insert(seen, pos[fresh], keys[fresh])
        frontier = keys[fresh].view(np.int64).reshape(-1, codec.width)
    return seen.view(np.int64).reshape(-1, codec.width)


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


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
            out["elements"] = [el.to_jsonable() for el in self.elements]
        return out

    def verify_group_closed(self) -> bool:
        """The elements form a group; decided for every element.

        Greedily pick generators T from the set: while some element lies
        outside the closure of T (which holds the identity), add the first
        one, which must be invertible.  A finite composition-closed set of
        invertible maps is a group, so the set is one exactly when that
        closure equals it.  The closure of T is then a subgroup, and each
        new generator at least doubles it: |T| <= log2(order) + 1.
        """
        if not self.elements:
            return False
        codec = _Rows(self.elements[0])
        mine = _keys(codec.encode(self.elements))
        unique = np.unique(mine)
        gens = []
        while True:
            try:
                closed = _keys(_closure(codec, gens, len(unique)))
            except BudgetExceeded:
                return False
            if np.count_nonzero(_member(unique, closed)) < len(closed):
                return False  # the closure left the set
            inside = _member(mine, closed)
            if inside.all():
                return True
            gen = self.elements[int(np.argmin(inside))]
            if not all(m.is_invertible() for m in _sides(gen)):
                return False
            gens.append(gen)


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
        tuple(lookup_a[k].to_jsonable() for k in only_a[:4]),
        tuple(lookup_b[k].to_jsonable() for k in only_b[:4]))


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


def _cross_check(found: np.ndarray, structure, name) -> list:
    """The fast-scan maps as elements, after checking every one.

    found is a kernel's int64 stack, (B, d, d) or (B, 2, d, d) for traced
    pairs, so each map reshapes to its _Rows row.  One batched transport
    check per structure tensor (jordan._carries, an implementation
    independent of the scan kernels) decides all elements at once.
    Invertibility: for traced pairs plus^T G minus == G, which also pins
    minus to the trace-dual inverse; else Matrix.is_invertible.
    """
    ring, image = structure.ring, structure._int64
    codec = _codec(structure)
    rows = found.reshape(len(found), codec.width)
    els, sides = codec.decode(rows), codec.split(rows)
    if isinstance(structure, JordanPair):
        plus, minus = sides
        g = image["trace"]
        ok = ((plus.transpose(0, 2, 1) @ g % ring.p) @ minus % ring.p
              == g).all(axis=(1, 2))
        for part, a, b in (("t_plus", plus, minus), ("t_minus", minus, plus)):
            ok &= _carries(ring, image[part], image[part], a, (a, b, a))
    else:
        tensor = image["tensor" if isinstance(structure, JordanTriple)
                       else "product"]
        phi = sides[0]
        ok = np.array([m.is_invertible() for m in els], dtype=bool)
        ok &= _carries(ring, tensor, tensor, phi, (phi,) * (tensor.ndim - 1))
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise EngineMismatch(f"fast scan of {name} returned "
                             f"{els[bad[0]].to_jsonable()}, which the "
                             "transport predicate rejects")
    return els


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
            return _cross_check(found, pair, name), candidates, "fast"
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
        found = fastscan.scan_triple(ring.p, trip.dim,
                                     trip._int64["tensor"], jobs=jobs)
        return _cross_check(found, trip, name), candidates, "fast"
    els = [phi for phi in enumerate_GL(trip.dim, ring)
           if triple_map_respects(trip, phi)]
    return els, candidates, "pure"


def _enumerate_algebra(alg: JordanAlgebra, name, budget, jobs, engine):
    ring = alg.ring
    d = alg.dim
    units = [i for i, x in enumerate(alg.unit or ()) if ring.is_unit(x)]
    pivot = units[0] if units else None
    if pivot is None:
        candidates = _budgeted(gl_order(ring, d), budget)
        els = [phi for phi in enumerate_GL(d, ring)
               if algebra_map_respects(alg, phi)]
        return els, candidates, "pure"
    candidates = _budgeted(ring.size ** (d * (d - 1)), budget)
    if _use_fast(alg, d <= 4, engine, name):
        from . import fastscan
        image = alg._int64
        found = fastscan.scan_algebra_unit_fixing(
            ring.p, d, image["product"], image["unit"], jobs=jobs)
        return _cross_check(found, alg, name), candidates, "fast"
    # pure unit-fixing scan: the free columns range, phi(u) = u solves the
    # pivot column
    free = tuple(u for j, u in enumerate(alg.unit) if j != pivot)
    scale = ring.inv(alg.unit[pivot])
    els = []
    for f in enumerate_matrices(ring, d, d - 1):
        col = [ring.mul(scale, ring.sub(u, fu))
               for u, fu in zip(alg.unit, f.apply(free))]
        phi = Matrix(ring, d, d, tuple(row[:pivot] + (c,) + row[pivot:]
                                       for row, c in zip(f.entries, col)))
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
    if 0 in structure._parts()[0][2]:  # the first tensor spans every carrier
        raise BadDims(f"{name} has a carrier of dimension 0")
    els, cand, engine_used = scan(structure, name, budget, jobs, engine)
    return AutomorphismSet.from_elements(
        name, structure.ring.name, kind, "exhaustive", engine_used,
        cand, els)


# -- closure generation -------------------------------------------------------

def generate_closure(system, generators: Sequence,
                     budget: Optional[int] = None) -> AutomorphismSet:
    """Smallest composition-closed set containing the generators.

    All generators must pass the matching automorphism predicate.  Every
    element has finite order, so composition closure is group closure.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    name = getattr(system, "name", None) or "anonymous"
    structure = unwrap(system)
    generators = list(generators)
    kind = _kind(structure)
    checker = {"pair": is_pair_automorphism, "triple": is_triple_automorphism,
               "algebra": is_algebra_automorphism}[kind]
    for g in generators:
        if not checker(structure, g):
            raise BadInput("generator fails the automorphism predicate")
    codec = _codec(structure)
    els = codec.decode(_closure(codec, generators, budget))
    return AutomorphismSet.from_elements(
        name, structure.ring.name, kind, "generated", "closure", len(els), els)


def family_image(system, kind: str, elements: Iterable,
                 engine: str = "family") -> AutomorphismSet:
    """Package a named-family image as a generated-mode set."""
    name = getattr(system, "name", None) or "anonymous"
    elements = _dedupe_sorted(elements)
    return AutomorphismSet(name, unwrap(system).ring.name, kind, "generated",
                           engine, len(elements), elements)
