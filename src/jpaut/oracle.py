"""Brute-force enumeration of automorphism sets, closures, and comparisons.

The enumerator is the ground truth the named families are measured against:
it scans candidate maps over a finite ring and keeps exactly those passing
the defining identities.  For pairs carrying a trace, only the + side
ranges over GL and the - side is pinned as the trace-dual inverse.  Budgets
are counted in invertible candidates considered, never raw tuples.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (BadDims, BadInput, BudgetExceeded, EngineMismatch,
                     MixedSystems, NonEnumerableRing, check_jobs)
from .jordan import (JordanAlgebra, JordanPair, JordanTriple, PairMap,
                     _carries, _fits_int64, algebra_map_respects, dual_inverse,
                     is_algebra_automorphism, is_pair_automorphism,
                     is_triple_automorphism, pair_map_respects,
                     triple_map_respects, unwrap)
from .matrix import Matrix, enumerate_GL, enumerate_matrices
from .ring import DualNumbers, PrimeField, ProductRing, Ring

DEFAULT_BUDGET = 30_000_000
# candidate rows a closure level multiplies out at once (_closure)
_BLOCK = 1 << 13


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


def _sides(el) -> tuple:
    return (el.plus, el.minus) if isinstance(el, PairMap) else (el,)


class _Rows:
    """Maps of one shape as int64 rows of payload indices.

    A row holds every side of a map (plus, then minus for a PairMap),
    row-major.  Over F_p an index is the residue; over other rings payloads
    are numbered in the order this codec first meets them.  The packed
    words of a row (words, key) are the only order and identity of rows in
    the oracle.
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
        # the digits of each word: (first column, radix powers), as many
        # columns as keep a word below 2**63; one a word off finite rings
        radix = ring.p if self.residues else ring.size
        per = 1
        while radix and radix ** (per + 1) <= 2 ** 63:
            per += 1
        self.packing = [
            (at, np.array([(radix or 1) ** e for e in
                           reversed(range(min(per, self.width - at)))],
                          dtype=np.int64))
            for at in range(0, self.width, per)]

    def encode(self, els) -> np.ndarray:
        flat = [x for el in els for m in _sides(el)
                for row in m.entries for x in row]
        if not self.residues:
            flat = [self.index.setdefault(x, len(self.index)) for x in flat]
        return np.array(flat, dtype=np.int64).reshape(len(els), self.width)

    def split(self, rows: np.ndarray) -> list:
        """One (B, d, d) stack per side."""
        cuts = np.cumsum([d * d for d in self.dims])[:-1]
        return [side.reshape(len(rows), d, d) for side, d
                in zip(np.split(rows, cuts, axis=1), self.dims)]

    def payloads(self, indices: np.ndarray) -> np.ndarray:
        """The payload of each index, in an array of the same shape: over
        F_p the indices themselves, else an object array of the payloads
        in the order the codec numbered them."""
        if self.residues:
            return indices
        pool = np.empty(len(self.index), dtype=object)
        for i, x in enumerate(self.index):  # tuple payloads stay elements
            pool[i] = x
        return pool[indices]

    def element_keys(self, rows: np.ndarray) -> list:
        """The element_key of each row's map, without building the map."""
        sides = [s.tolist() for s in self.split(self.payloads(rows))]
        return list(zip(*[[tuple(map(tuple, m)) for m in side]
                          for side in sides]))

    def decode(self, rows: np.ndarray) -> list:
        keys = self.element_keys(rows)
        mats = [[Matrix(self.ring, d, d, k[s]) for k in keys]
                for s, d in enumerate(self.dims)]
        return [PairMap(*ms) for ms in zip(*mats)] if self.pair else mats[0]

    def words(self, rows: np.ndarray) -> np.ndarray:
        """Each row packed into W int64 words, (B, W): its indices are the
        digits, most significant first, in radix p over F_p and ring.size
        over other finite rings.  Word rows order lexicographically, and
        compare equal, exactly as the index rows do."""
        return np.stack([rows[:, at:at + len(powers)] @ powers
                         for at, powers in self.packing], axis=1)

    def key(self, rows: np.ndarray) -> np.ndarray:
        """One sortable key per row, ordered as words(rows): the int64 word
        when W == 1, else the W words as one big-endian void, whose bytes
        compare as the non-negative words do."""
        words = self.words(rows)
        if words.shape[1] == 1:
            return words[:, 0]
        return np.ascontiguousarray(words, dtype=">i8").view(
            np.dtype((np.void, 8 * words.shape[1]))).ravel()

    def sorted_unique(self, rows: np.ndarray) -> np.ndarray:
        """rows without repeats, in element_key order: lexicographic in the
        payloads, which over F_p are the indices themselves, and otherwise
        their ranks in the sorted payloads; one sort of the keys."""
        ranked = rows
        if not self.residues:
            pool = list(self.index)
            rank = np.empty(len(pool), dtype=np.int64)
            rank[sorted(range(len(pool)), key=pool.__getitem__)] = \
                np.arange(len(pool))
            ranked = rank[rows]
        return rows[_distinct(self.key(ranked))[0]]

    def adopt(self, other: "_Rows", rows: np.ndarray) -> np.ndarray:
        """Rows of other's codec renumbered into this one's payloads."""
        if other is self or self.residues:
            return rows
        own = [self.index.setdefault(x, len(self.index)) for x in other.index]
        return np.array(own, dtype=np.int64)[rows]

    def times(self, rows: np.ndarray, gens: np.ndarray) -> np.ndarray:
        """The rows of x @ g for each row x and each row g of gens, x major:
        (len(rows) * len(gens), width).  Over F_p one broadcast matmul per
        side while d * (p - 1)**2 < 2**63; elsewhere each product is
        composed once from the decoded maps and encoded."""
        if not self.fast:
            gs = self.decode(gens)
            return self.encode([_compose(x, g) for x in self.decode(rows)
                                for g in gs])
        n = len(rows) * len(gens)
        return np.concatenate(
            [(a[:, None] @ b[None] % self.ring.p).reshape(n, d * d)
             for a, b, d in zip(self.split(rows), self.split(gens),
                                self.dims)], axis=1)


def _codec(structure) -> _Rows:
    ring = structure.ring
    if isinstance(structure, JordanPair):
        return _Rows(PairMap.identity(ring, structure.dplus, structure.dminus))
    return _Rows(Matrix.identity(ring, structure.dim))


def _distinct(keys: np.ndarray) -> tuple:
    """(positions, keys): one position of each distinct key, and the keys
    there, ascending."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return order[first], keys[first]


def _closure(codec: _Rows, gen_rows: np.ndarray, budget: int,
             start: Optional[tuple] = None) -> tuple:
    """(rows, keys): the rows of the identity's closure under right
    multiplication by the generator rows, level by level, and their keys
    (_Rows.key) ascending; BudgetExceeded past budget elements.

    A level multiplies the frontier by all generators at once (_Rows.times)
    in blocks of at most _BLOCK candidate rows.  Each block keeps one row
    of each key that no earlier level found, the level one row of each key
    across its blocks, and those rows are the next frontier.

    start, when given, is the (rows, keys) this returned for all generator
    rows but the last, a set that holds the identity and is closed under
    those generators.  The loop then continues from it: its first level
    multiplies those rows by the last generator alone.
    """
    if start is None:
        frontier = codec.encode([codec.identity])
        seen, gens = codec.key(frontier), gen_rows
    else:
        (frontier, seen), gens = start, gen_rows[-1:]
    found = [frontier]

    def unseen(block, gens):
        rows = codec.times(block, gens)
        at, keys = _distinct(codec.key(rows))
        new = ~_member(keys, seen)
        return rows[at[new]], keys[new]

    while len(frontier) and len(gens):
        step = max(1, _BLOCK // len(gens))
        rows, keys = (np.concatenate(part) for part in zip(
            *[unseen(frontier[at:at + step], gens)
              for at in range(0, len(frontier), step)]))
        if len(frontier) > step:  # blocks may share keys
            at, keys = _distinct(keys)
            rows = rows[at]
        if len(seen) + len(keys) > budget:
            raise BudgetExceeded(f"closure exceeded budget {budget}")
        seen = np.insert(seen, np.searchsorted(seen, keys), keys)
        found.append(rows)
        frontier, gens = rows, gen_rows
    return np.concatenate(found), seen


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


@dataclass(frozen=True, eq=False)
class AutomorphismSet:
    """A finite automorphism set with deterministic canonical ordering.

    The set is its rows: one int64 row per map (see _Rows), unique and in
    element_key order.  The Matrix/PairMap objects are built from them on
    first access to elements.
    """
    system: str
    ring_name: str
    kind: str  # pair | triple | algebra
    mode: str  # exhaustive | generated
    engine: str  # fast | pure | closure | family
    candidates: int
    codec: Optional[_Rows] = field(repr=False)  # None for the empty set
    rows: np.ndarray = field(repr=False)

    @classmethod
    def from_rows(cls, system, ring_name, kind, mode, engine, candidates,
                  codec: _Rows, rows: np.ndarray) -> "AutomorphismSet":
        return cls(system, ring_name, kind, mode, engine, candidates, codec,
                   codec.sorted_unique(rows))

    @classmethod
    def from_elements(cls, system, ring_name, kind, mode, engine,
                      candidates, elements) -> "AutomorphismSet":
        elements = list(elements)
        if not elements:
            return cls(system, ring_name, kind, mode, engine, candidates,
                       None, np.zeros((0, 0), dtype=np.int64))
        codec = _Rows(elements[0])
        return cls.from_rows(system, ring_name, kind, mode, engine,
                             candidates, codec, codec.encode(elements))

    @cached_property
    def elements(self) -> tuple:
        return tuple(self.codec.decode(self.rows)) if len(self.rows) else ()

    @property
    def order(self) -> int:
        return len(self.rows)

    def keys(self) -> frozenset:
        return frozenset(self.codec.element_keys(self.rows)) if self.order \
            else frozenset()

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
        new generator at least doubles it: |T| <= log2(order) + 1.  Each
        closure continues from the last one (_closure's start).
        """
        if not self.order:
            return False
        codec = self.codec
        mine = codec.key(self.rows)
        unique = np.sort(mine)
        gens = self.rows[:0]
        last = None
        while True:
            try:
                last = _closure(codec, gens, len(unique), last)
            except BudgetExceeded:
                return False
            closed = last[1]
            if np.count_nonzero(_member(unique, closed)) < len(closed):
                return False  # the closure left the set
            inside = _member(mine, closed)
            if inside.all():
                return True
            at = int(np.argmin(inside))
            gen = codec.decode(self.rows[at:at + 1])[0]
            if not all(m.is_invertible() for m in _sides(gen)):
                return False
            gens = np.concatenate([gens, self.rows[at:at + 1]])


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
    only_a, only_b = a.rows, b.rows
    if a.order and b.order:
        ka = a.codec.key(a.rows)
        kb = a.codec.key(a.codec.adopt(b.codec, b.rows))
        only_a = a.rows[~_member(ka, np.sort(kb))]
        only_b = b.rows[~_member(kb, np.sort(ka))]

    def samples(s, rows):
        return tuple(el.to_jsonable() for el in s.codec.decode(rows[:4])) \
            if len(rows) else ()
    return CompareReport(
        a.system, not len(only_a) and not len(only_b), a.order, b.order,
        len(only_a), len(only_b), samples(a, only_a), samples(b, only_b))


# -- exhaustive enumeration ---------------------------------------------------

def _budgeted(candidates: int, budget: int) -> None:
    if candidates > budget:
        raise BudgetExceeded(f"{candidates} candidates exceed budget {budget}")


def _use_fast(structure, kernel, engine: str, name) -> bool:
    """A kernel serves the structure's dimension (kernel is not None); it
    reads the int64 image, which exists over F_p only, and serves the
    primes its integer bound admits (fastscan.supports)."""
    use_fast = (kernel is not None and structure._int64 is not None
                and engine in ("auto", "fast"))
    if use_fast:
        from . import fastscan
        use_fast = fastscan.supports(structure.ring.p)
    if engine == "fast" and not use_fast:
        raise BadInput(f"fast engine unavailable for {name}")
    return use_fast


def _invertible_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Which matrices of a (B, d, d) stack of residues are invertible mod p.

    Fraction-free Gaussian elimination on the whole stack: at column k a
    row with a nonzero entry moves up, and each lower row becomes
    pivot * row - entry * pivot row, which keeps the rank.  A matrix is
    invertible exactly when every column finds a pivot.
    """
    a = mats % p
    ok = np.ones(len(a), dtype=bool)
    at = np.arange(len(a))
    for k in range(a.shape[1]):
        nonzero = a[:, k:, k] != 0
        ok &= nonzero.any(axis=1)
        piv = k + nonzero.argmax(axis=1)
        a[at, k], a[at, piv] = a[at, piv], a[at, k].copy()
        below, top = a[:, k + 1:], a[:, k]
        a[:, k + 1:] = (below * top[:, k, None, None] % p
                        - below[:, :, k, None] * top[:, None] % p) % p
    return ok


def are_automorphisms(structure, sides: Sequence[np.ndarray]) -> np.ndarray:
    """Which maps of int64 residue stacks are automorphisms of a structure
    over F_p with an int64 image: sides holds one (B, d, d) stack per side
    of the maps (plus, then minus for pairs), and the result is (B,) bool.

    One batched transport check per structure tensor (jordan._carries, an
    implementation independent of the scan kernels) decides all maps at
    once.  Invertibility: for traced pairs plus^T G minus == G, which also
    pins minus to the trace-dual inverse; else a batched elimination mod p
    on every side.
    """
    ring, image = structure.ring, structure._int64
    if isinstance(structure, JordanPair):
        plus, minus = sides
        if structure.trace is not None:
            g = image["trace"]
            ok = ((plus.transpose(0, 2, 1) @ g % ring.p) @ minus % ring.p
                  == g).all(axis=(1, 2))
        else:
            ok = (_invertible_mod_p(plus, ring.p)
                  & _invertible_mod_p(minus, ring.p))
        for part, a, b in (("t_plus", plus, minus), ("t_minus", minus, plus)):
            ok &= _carries(ring, image[part], image[part], a, (a, b, a))
        return ok
    tensor = image["tensor" if isinstance(structure, JordanTriple)
                   else "product"]
    (phi,) = sides
    return (_invertible_mod_p(phi, ring.p)
            & _carries(ring, tensor, tensor, phi, (phi,) * (tensor.ndim - 1)))


def _cross_check(kernel, structure, codec: _Rows, name,
                 jobs: int) -> np.ndarray:
    """The kernel's maps as rows of codec, after are_automorphisms has
    accepted every one; the kernel returns an int64 stack, (B, d, d) or
    (B, 2, d, d) for traced pairs, so each map reshapes to its row.

    The rows are decided in the blocks of the scans' chunk loop
    (fastscan.workers) on jobs threads.  Each map of a block builds
    jordan._carries intermediates the size of a structure tensor, up to
    four at once, so a block holds at most fastscan.block_cap(largest
    tensor size) rows, about 2 MB a block.  The keep-vectors join in block
    order, so the first rejected row in the kernel's order, which is the
    same for any jobs, is named.  A result without the identity is
    incomplete, as every automorphism group contains it, and is refused
    too."""
    from . import fastscan
    found = kernel(fastscan)
    rows = np.ascontiguousarray(found, dtype=np.int64).reshape(
        len(found), codec.width)
    cap = fastscan.block_cap(max(t.size for t in structure._int64.values()))
    identity = codec.encode([codec.identity])[0]

    def decide(start: int, stop: int) -> tuple:
        block = rows[start:stop]
        return (are_automorphisms(structure, codec.split(block)),
                (block == identity).all(axis=1).any())

    with fastscan.workers(jobs) as spread:
        oks, has_identity = zip(*spread(decide, len(rows), cap))
    bad = np.flatnonzero(~np.concatenate(oks))
    if bad.size:
        el = codec.decode(rows[bad[0]:bad[0] + 1])[0]
        raise EngineMismatch(f"fast scan of {name} returned "
                             f"{el.to_jsonable()}, which the "
                             "transport predicate rejects")
    if not any(has_identity):
        raise EngineMismatch(f"fast scan of {name} missed the identity, "
                             "which every automorphism group contains")
    return rows


def _unit_fixing(alg: JordanAlgebra, pivot: int):
    """The maps with phi(u) = u: the free columns range, and phi(u) = u
    solves the pivot column."""
    ring = alg.ring
    free = tuple(u for j, u in enumerate(alg.unit) if j != pivot)
    scale = ring.inv(alg.unit[pivot])
    for f in enumerate_matrices(ring, alg.dim, alg.dim - 1):
        col = [ring.mul(scale, ring.sub(u, fu))
               for u, fu in zip(alg.unit, f.apply(free))]
        yield Matrix(ring, alg.dim, alg.dim,
                     tuple(row[:pivot] + (c,) + row[pivot:]
                           for row, c in zip(f.entries, col)))


def _space(s, jobs: int) -> tuple:
    """(candidates, pure candidates, keep test, kernel) of a structure's
    exhaustive scan.  The kernel maps the fastscan module to its int64
    stack; it is None where no kernel serves the dimension."""
    ring = s.ring
    d = s.dplus if isinstance(s, JordanPair) else s.dim
    if isinstance(s, JordanPair) and s.trace is None:
        # untraced: both sides range independently
        return (gl_order(ring, d) * gl_order(ring, s.dminus),
                (PairMap(fp, fm) for fp in enumerate_GL(d, ring)
                 for fm in enumerate_GL(s.dminus, ring)),
                partial(pair_map_respects, s), None)
    if isinstance(s, JordanPair):
        return (gl_order(ring, d),
                (PairMap(phi, dual_inverse(s, phi))
                 for phi in enumerate_GL(d, ring)),
                partial(pair_map_respects, s),
                (lambda fs: fs.scan_pair_with_trace(
                    ring.p, d, s._int64["t_plus"], s._int64["t_minus"],
                    s._int64["trace"], jobs=jobs)) if 2 <= d <= 4 else None)
    if isinstance(s, JordanTriple):
        return (gl_order(ring, d), enumerate_GL(d, ring),
                partial(triple_map_respects, s),
                (lambda fs: fs.scan_triple(ring.p, d, s._int64["tensor"],
                                           jobs=jobs)) if 2 <= d <= 4 else None)
    units = [i for i, x in enumerate(s.unit or ()) if ring.is_unit(x)]
    if not units:
        return (gl_order(ring, d), enumerate_GL(d, ring),
                partial(algebra_map_respects, s), None)
    return (ring.size ** (d * (d - 1)), _unit_fixing(s, units[0]),
            lambda phi: phi.is_invertible() and algebra_map_respects(s, phi),
            (lambda fs: fs.scan_algebra_unit_fixing(
                ring.p, d, s._int64["product"], s._int64["unit"],
                jobs=jobs)) if d <= 4 else None)


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

    engine: auto (a fast kernel when one serves), fast (demand one:
    BadInput where none serves), or pure (reference scan).  Every structure
    takes one path: budget its candidate space (_space), ask _use_fast
    once, then cross-check the kernel's stack or filter the pure
    candidates.  Results are independent of engine and of jobs, the
    worker threads of the scan and its cross-check; BadInput for jobs < 1.
    """
    if engine not in ("auto", "fast", "pure"):
        raise BadInput(f"unknown engine {engine!r}")
    check_jobs(jobs)
    name = getattr(system, "name", None) or "anonymous"
    structure = unwrap(system)
    budget = DEFAULT_BUDGET if budget is None else budget
    kind = _kind(structure)
    if not structure.ring.is_finite:
        raise NonEnumerableRing(f"cannot enumerate over {structure.ring.name}")
    if 0 in structure._parts()[0][2]:  # the first tensor spans every carrier
        raise BadDims(f"{name} has a carrier of dimension 0")
    candidates, pure, keep, kernel = _space(structure, jobs)
    _budgeted(candidates, budget)
    codec = _codec(structure)
    if _use_fast(structure, kernel, engine, name):
        rows = _cross_check(kernel, structure, codec, name, jobs)
        engine = "fast"
    else:
        rows, engine = codec.encode([el for el in pure if keep(el)]), "pure"
    return AutomorphismSet.from_rows(
        name, structure.ring.name, kind, "exhaustive", engine, candidates,
        codec, rows)


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
    rows, _ = _closure(codec, codec.encode(generators), budget)
    return AutomorphismSet.from_rows(
        name, structure.ring.name, kind, "generated", "closure", len(rows),
        codec, rows)


def family_image(system, elements: Iterable) -> AutomorphismSet:
    """Package a named-family image as a generated-mode set.  elements are
    the maps, or over F_p an int64 array of their residues whose maps
    reshape to the system's rows (_Rows): a (B, d, d) stack of triple or
    algebra maps, or rows of pair maps."""
    name = getattr(system, "name", None) or "anonymous"
    structure = unwrap(system)
    codec = _codec(structure)
    if isinstance(elements, np.ndarray):
        rows = elements.reshape(len(elements), codec.width)
    else:
        rows = codec.encode(list(elements))
    rows = codec.sorted_unique(rows)
    return AutomorphismSet(name, structure.ring.name, _kind(structure),
                           "generated", "family", len(rows), codec, rows)
