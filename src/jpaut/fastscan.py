"""Vectorized exhaustive scans over prime fields.

Each kernel decides every candidate map, in exact mod-p integer arithmetic
with division-free conditions derived from the defining identities, and
returns the solution set as an int64 stack in search order: the order in
which _search's levels generate the maps, the same for any worker count.
No kernel sorts; oracle._Rows.sorted_unique puts every automorphism set
into its canonical order, and matrix._enumerate_similitudes sorts its own
stream.

Every kernel searches column by column (_search), in the style of backtrack
search with refinement.  The unknowns are the columns of phi (plus those of
phi_minus for traced pairs, interleaved plus_0, minus_0, ...), and every
condition is decided once, at the level of the last unknown it reads.  A
kernel hands _search one list of conditions, each in the forms it has: a
row where it is affine in that column, a test where not (rank d of
triples and algebras, _rank; lambda != 0; the similitude entries that
read the column twice), both for a tensor slot whose inputs read the
column at most once (_slots).  _search alone chooses between them: the
kernel's own equations (phi_plus^T G phi_minus == G, A u == u, the other
similitude entries) stay equations, and a slot is one where they leave at
least two free dimensions of its column.  Each level solves its equations
for all surviving prefixes by one batched elimination mod p (_cosets),
generates only the p**(d - rank) vectors of each solution coset and
filters them.  A slot (c, b, a) is decided only where it differs from
(a, b, c).  Together they are the complete identity, and
oracle._cross_check remains the one independent check of every result.

Each level runs the chunk loop (_scan) twice, over the prefixes to solve
and over the candidates to filter.  Both passes, and oracle._cross_check,
split their range by one rule (_blocks): consecutive blocks of
min(cap, max(MIN_BLOCK, ceil(total / jobs))) items, run on the jobs
worker threads and joined in block order; a range of one block runs on
the calling thread.  The search's cap is CHUNK: at one worker a range is
CHUNK-sized blocks (one block below CHUNK); at two, a range below CHUNK
still runs on both threads once it holds more than MIN_BLOCK items.  The
cross-check's cap is block_cap of its largest tensor's size, as each map
builds up to four intermediates of that size: 809 rows at d = 3 and 256
at d = 4, about 2 MB a block, like one search chunk's outer products.  The
result and the per-level counts logged at DEBUG are the same for any
worker count.  On 2 vCPUs, enumerating VhI(1,3,F5) at two workers takes
13-16 s at 740-830 MB peak RSS, against 26-27 s at 4.2-4.3 GB when only
CHUNK split the search and the cross-check ran as one call on one thread.

Tensors arrive in Jordan layout, T[a][b]..[x] with the output coordinate
last, as the structures' int64 images hold them; each kernel moves the
output axis first for its own contractions.

With inputs reduced mod p, the largest intermediate is a slot's image, the
columns of T on its last input summed against it, below d**3 p**4 <=
64 p**4 at d <= 4 (_slots); a slot's coefficients stay below d**2 p**3 + p
and its right sides below (d + 1) p**2; the other equations and the coset
vectors stay below d p**2, and the elimination below (d + 1) p**2.
_work_dtype sizes arithmetic by 64 p**4: int32 up to p = 73, int64 up to
p = 19483, and supports(p) refuses larger primes.  Both dtypes give
identical exact results mod p.  Each column of T is a product of float64
matrices (_MATMUL) on BLAS: every sum is an integer below d**2 p**3 <
2**53, so it is exact.  _matmul hands BLAS row blocks small enough to run
on the calling thread.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import BadInput, DegenerateForm, NotInvertible, check_jobs

# A search candidate carries up to 2d columns, and its slot checks build a
# d*d outer product each; 16,384 candidates keep a chunk's working set to a
# few MB.
CHUNK = 1 << 14
# The least block handed to a worker thread: ThI(2,F3), Mplus(2,F3) and
# TIV(3,F5) run slower when their small levels are split further.
MIN_BLOCK = 1 << 10

# The dtype of the slot contractions (the columns of _slots).  numpy
# multiplies integer matrices without BLAS, several times slower than
# float64, and every sum there is an integer below d*d * p**3 < 2**53 for
# each prime supports(p) admits, which float64 holds exactly; each product
# is cast back to the work dtype.
_MATMUL = np.float64
# The most m*k*n of one BLAS product (_matmul).  OpenBLAS, which numpy's
# wheels bundle, runs a float64 product on one thread up to 2**18 and
# spreads a larger one over its threads; for these thin products that
# hand-off costs more than it saves and varies with the machine's load
# (16384x9 @ 9x9 takes 0.12 ms in blocks, 5-8 ms on two threads of a
# busy 2-CPU machine).
_SERIAL_PRODUCT = 1 << 18

_log = logging.getLogger(__name__)


def supports(p: int) -> bool:
    """Whether 64 p**4, the bound of every intermediate, fits int64."""
    return 64 * p ** 4 < 2 ** 63


def _work_dtype(p: int) -> type:
    """int32 when 64 p**4 fits, else int64; BadInput past supports(p)."""
    if not supports(p):
        raise BadInput(f"F_{p} is past the int64 bound of the fast scans")
    return np.int32 if 64 * p ** 4 < 2 ** 31 - 1 else np.int64


def _xfirst(t, p: int, dtype: type) -> np.ndarray:
    """Residues of a Jordan-layout tensor with the output axis moved first."""
    moved = np.moveaxis(np.asarray(t, dtype=np.int64) % p, -1, 0)
    return np.ascontiguousarray(moved, dtype=dtype)


@lru_cache(maxsize=8)
def _low_digit_block(p: int, k: int) -> np.ndarray:
    """(p**k, k) int16 table of the k low base-p digits of 0 .. p**k - 1."""
    size = p ** k
    out = np.empty((size, k), dtype=np.int16)
    for c in range(k):
        period = p ** (k - 1 - c)
        pattern = np.repeat(np.arange(p, dtype=np.int16), period)
        out[:, c] = np.tile(pattern, size // (period * p))
    return out


def _blocks(total: int, jobs: int,
            cap: int | None = None) -> list[tuple[int, int]]:
    """The partition of [0, total) that every chunk loop runs: consecutive
    blocks of min(cap, max(MIN_BLOCK, ceil(total / jobs))) items, where
    cap is CHUNK unless given.  An empty range is one empty block."""
    size = min(CHUNK if cap is None else cap,
               max(MIN_BLOCK, -(-total // jobs)))
    return [(s, min(s + size, total)) for s in range(0, max(total, 1), size)]


def block_cap(size: int) -> int:
    """The most maps of one block where each map builds intermediates of
    size entries, up to four at once: CHUNK * 4 // size, at least 1."""
    return max(1, CHUNK * 4 // size)


@contextmanager
def workers(jobs: int):
    """A context that yields spread(kernel, total, cap=None), which runs
    kernel(start, stop) on each block of [0, total) (_blocks, at most cap
    items) and returns the results as a list in block order.  The blocks
    run on one pool of jobs threads, open while the context lasts, or
    inline at jobs 1 and for a range of one block, where a thread
    hand-off would only add its cost; BadInput for jobs < 1."""
    check_jobs(jobs)
    with (ThreadPoolExecutor(max_workers=jobs) if jobs > 1
          else nullcontext()) as pool:
        def spread(kernel, total, cap=None):
            blocks = _blocks(total, jobs, cap)
            run = map if pool is None or len(blocks) == 1 else pool.map
            return list(run(lambda b: kernel(*b), blocks))
        yield spread


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (m, k) batch a and a (k, n) matrix b, in row blocks
    of at most _SERIAL_PRODUCT / (k n) rows."""
    rows = max(1, _SERIAL_PRODUCT // max(1, a.shape[1] * b.shape[1]))
    if len(a) <= rows:
        return a @ b
    out = np.empty((len(a), b.shape[1]), dtype=np.result_type(a, b))
    for start in range(0, len(a), rows):
        np.matmul(a[start:start + rows], b, out=out[start:start + rows])
    return out


def _scan(total: int, decode: Callable, stages: Sequence[Callable],
          spread: Callable) -> list[np.ndarray]:
    """The per-candidate arrays of the candidates in [0, total) that pass
    every stage, each concatenated over the blocks in block order.

    decode(start, stop) returns the per-candidate arrays of a block of at
    most CHUNK candidates (possibly already filtered), and each
    stage(*arrays) a keep-vector over them, applied in list order.
    spread (see workers) runs the blocks, perhaps at the same time, and
    returns them in order.  An empty range is one empty block, so the
    arrays keep their shapes.
    """
    def kernel(start: int, stop: int) -> list[np.ndarray]:
        arrays = decode(start, stop)
        for stage in stages:
            if len(arrays[0]) == 0:
                break
            keep = stage(*arrays)
            if not keep.all():
                arrays = [x[keep] for x in arrays]
        return arrays

    return [np.concatenate(parts) for parts in zip(*spread(kernel, total))]


@lru_cache(maxsize=8)
def _inverses(p: int) -> np.ndarray:
    """The inverse mod p of each residue, with 0 for 0."""
    return np.array([0] + [pow(x, -1, p) for x in range(1, p)],
                    dtype=np.int64)


def _cosets(aug: np.ndarray, p: int) -> tuple[np.ndarray, ...]:
    """The solution cosets of a stack of linear systems M x == b mod p.

    aug is (B, R, d + 1), each system as rows [M | b] of residues.  One
    Gauss-Jordan elimination runs on the whole stack: at column k every
    system with a nonzero entry at or below its rank moves that row up to
    its rank, scales it to a leading 1 and clears column k from its other
    rows.  Returns (ok, base, basis, free): whether each system is
    consistent and, for those, one solution base (B, d) and a (B, d, d)
    basis whose last free = d - rank rows span the kernel (the others are
    zero).  The solutions are base + y @ basis for y in the first p**free
    rows of _low_digit_block(p, d), each once.

    The stack is held column by column, (d + 1, B, R).  A step reduces
    only its pivot column and the lead rows mod p, since reducing is the
    costly operation; the columns after k gain less than p**2 in absolute
    value a step, so every entry stays below (d + 1) p**2.
    """
    b, d = aug.shape[0], aug.shape[2] - 1
    a = (np.moveaxis(aug, 2, 0).copy() if aug.shape[1]
         else np.zeros((d + 1, b, 1), aug.dtype))
    at, rows = np.arange(b), np.arange(a.shape[2])
    inverses = _inverses(p).astype(aug.dtype)
    rank = np.zeros(b, dtype=np.intp)
    pivot = np.zeros((b, d), dtype=bool)
    for k in range(d):
        # a system without a pivot here gets a zero lead row, which leaves
        # it as it is
        col = a[k] % p
        nonzero = (col != 0) & (rows >= rank[:, None])
        has = nonzero.any(axis=1)
        dst = np.minimum(rank, len(rows) - 1)
        src = np.where(has, nonzero.argmax(axis=1), dst)
        lead = a[:, at, src] % p
        lead = lead * (inverses[lead[k]] * has) % p
        a[:, at, src], col[at, src] = a[:, at, dst], col[at, dst]
        # rows at or below the rank are zero left of column k, the lead row
        # too, so clearing column k changes only it and the columns after
        a[k + 1:] -= col * lead[k + 1:, :, None]
        a[k] = col * ~has[:, None]
        a[:, at, dst] = np.where(has, lead, a[:, at, dst])
        rank += has
        pivot[:, k] = has
    ok = ~((a[d] % p != 0) & (rows >= rank[:, None])).any(axis=1)
    # row j < rank holds the leading 1 of the j-th pivot column; solved[:, c]
    # is that row for a pivot column c and zero for a free one, so column f
    # of I - solved is the kernel vector of a free f and zero for a pivot f
    before = np.cumsum(pivot, axis=1)
    solved = np.take_along_axis(
        np.moveaxis(a, 0, 2), np.where(pivot, before - 1, 0)[:, :, None],
        axis=1) % p * pivot[:, :, None]
    kernel = (np.eye(d, dtype=a.dtype) - solved[:, :, :d]) % p
    # the pivot columns first, then the free ones in ascending order
    place = np.where(pivot, before - 1, rank[:, None] + np.arange(d) - before)
    basis = np.empty_like(kernel)
    np.put_along_axis(basis, place[:, :, None], kernel.transpose(0, 2, 1),
                      axis=1)
    return ok, solved[:, :, d], basis, d - rank


def _rank(mats: np.ndarray, p: int) -> np.ndarray:
    """The rank mod p of each matrix of a (B, r, n) stack: n less the free
    columns of M x == 0 (_cosets)."""
    zero = np.zeros(mats.shape[:2] + (1,), dtype=mats.dtype)
    return mats.shape[2] - _cosets(np.concatenate((mats, zero), axis=2), p)[3]


def _solve(prefixes: np.ndarray, rows: Sequence[Callable], p: int,
           start: int, stop: int) -> tuple[np.ndarray, ...]:
    """The prefixes [start, stop) whose equations in the next column are
    consistent, with the solution coset of that column (_cosets).  Each
    equation gives a block of rows, and the blocks fill one system."""
    chunk = prefixes[start:stop]
    blocks = [row(chunk) for row in rows]
    aug = np.empty((len(chunk), sum(coef.shape[-2] for coef, _ in blocks),
                    chunk.shape[2] + 1), chunk.dtype)
    at = 0
    for coef, rhs in blocks:
        r = coef.shape[-2]
        aug[:, at:at + r, :-1], aug[:, at:at + r, -1] = coef, rhs
        at += r
    ok, base, basis, free = _cosets(aug, p)
    return chunk[ok], base[ok], basis[ok], free[ok]


def _extend(prefixes: np.ndarray, base: np.ndarray, basis: np.ndarray,
            starts: np.ndarray, table: np.ndarray, p: int, start: int,
            stop: int) -> tuple[np.ndarray]:
    """Candidates [start, stop) of a level: each prefix followed by the
    vectors of its coset, prefix after prefix, those of prefix i from
    index starts[i] on."""
    idx = np.arange(start, stop)
    owner = np.searchsorted(starts, idx, side="right") - 1
    y = table[idx - starts[owner], None]
    x = (base[owner] + (y @ basis[owner])[:, 0]) % p
    return (np.concatenate((prefixes[owner], x[:, None]), axis=1),)


def _search(p: int, d: int, unknowns: int, conditions: Sequence, jobs: int,
            dtype: type) -> np.ndarray:
    """The values of the unknown columns that meet every condition, as a
    (B, unknowns, d) stack.

    A condition is a triple (unknowns read, row, test), row or test None
    where it lacks that form.  Given the (B, k, d) values of the unknowns
    before k, the last one it reads, row(prefix) returns the coefficients
    (B, r, d) and right sides (B, r) of r equations coef @ x == rhs mod p
    in the value x of unknown k (either may broadcast over B); test(cols)
    returns a keep-vector over a (B, k + 1, d) stack.  The conditions with
    a row only, the kernel's own equations, leave d less their rows (read
    off an empty prefix) free dimensions of col[k].  Where that is at least
    two a condition with both forms is an equation, else a filter, as
    filtering at most p candidates a prefix costs less than eliminating r
    more rows.  The others keep their one form.

    Level k solves its equations for every surviving prefix, extends each
    consistent prefix by the vectors of its solution coset (all p**d
    vectors where the level has none), then keeps the candidates that
    pass each of its filters, in list order.  Both steps run through _scan
    on one thread pool (workers); BadInput for jobs < 1.
    """
    pinned = [0] * unknowns
    for reads, row, test in conditions:
        if test is None:
            k = max(reads)
            pinned[k] += row(np.zeros((0, k, d), dtype))[0].shape[-2]
    levels = [([], []) for _ in range(unknowns)]
    for reads, row, test in conditions:
        k = max(reads)
        if test is None or row is not None and d - pinned[k] >= 2:
            levels[k][0].append(row)
        else:
            levels[k][1].append(test)
    table = _low_digit_block(p, d).astype(dtype)
    cols = np.zeros((1, 0, d), dtype=dtype)
    with workers(jobs) as spread:
        for level, (rows, tests) in enumerate(levels):
            prefixes, base, basis, free = _scan(
                len(cols), partial(_solve, cols, rows, p), [], spread)
            sizes = p ** free.astype(np.int64)
            total, starts = int(sizes.sum()), np.cumsum(sizes) - sizes
            extend = partial(_extend, prefixes, base, basis, starts, table, p)
            (cols,) = _scan(total, extend, tests, spread)
            _log.debug("search level %d kept %d of %d", level, len(cols),
                       total)
    return cols


def _slabs(t: np.ndarray) -> list[list[np.ndarray]]:
    """Slab [s][e] of the output-first tensor t: t with input s at e, as
    an (other inputs, x) _MATMUL matrix."""
    return [[np.ascontiguousarray(np.moveaxis(t.take(e, s + 1), 0, -1).reshape(
        -1, len(t)), dtype=_MATMUL) for e in range(len(t))]
        for s in range(t.ndim - 1)]


def _slots(t: np.ndarray, out: Sequence[int], ins: Sequence[Sequence[int]],
           p: int) -> list:
    """One condition (unknowns read, row, test) per slot (a, b, ..) of the
    output-first tensor t, phi(T(e_a, e_b, ..)) == T(phi e_a, phi e_b, ..)
    read on the unknowns:

        Sum_x t[x, a, b, ..] col[out[x]] == T(col[ins[0][a]],
                                              col[ins[1][b]], ..)

    out maps an output coordinate, ins[s] a coordinate of input slot s, to
    its unknown, every one of dimension d.  Where t is symmetric in its
    first and last inputs and they read the same unknowns, only the slots
    with a <= c are kept, as (c, .., a) is the same condition.

    One helper does every contraction: column e of T's matrix on input s,
    at batches of reduced vectors on the other inputs, is their outer
    product times slab (s, e) (_slabs).  test, the condition as a filter,
    sums the columns on the last input against it.  row, the condition as
    d equations in col[k], k the last unknown read, is None where the
    inputs read col[k] twice or more; its coefficients are the columns on
    the input that reads col[k] (zero where none does) less the slot's
    coefficient on col[k] times the identity, its right sides the output
    terms on the other unknowns less T at the inputs where none reads it.
    """
    mirrored = ins[0] == ins[-1] and np.array_equal(t, np.swapaxes(t, 1, -1))
    d, last = t.shape[0], t.ndim - 2
    eye = np.eye(d, dtype=t.dtype)
    slabs = _slabs(t)

    def columns(s, others):
        """Column e of T's matrix on input s, for each e in turn."""
        outer = others[0]
        for v in others[1:]:
            outer = (outer[:, :, None] * v[:, None]).reshape(len(v), -1)
        outer = outer.astype(_MATMUL)
        return (_matmul(outer, slab) for slab in slabs[s])

    def image(args):
        """T(args) mod p."""
        acc = np.zeros((len(args[-1]), d), t.dtype)
        for e, col in enumerate(columns(last, args[:-1])):
            acc += col.astype(t.dtype) * args[-1][:, e, None]
        return acc % p

    conditions = []
    for slot in np.ndindex(t.shape[1:]):
        if mirrored and slot[0] > slot[-1]:
            continue
        coef = t[(slice(None),) + slot]
        terms = [(int(coef[x]), out[x]) for x in np.flatnonzero(coef)]
        args = [side[i] for side, i in zip(ins, slot)]
        reads = {k for _, k in terms} | set(args)
        k = max(reads)

        def test(cols, terms=terms, args=args):
            lhs = sum(c * cols[:, j] for c, j in terms) % p
            return (lhs == image([cols[:, j] for j in args])).all(axis=1)

        def row(prefix, terms=terms, args=args, k=k):
            lead = sum(c for c, j in terms if j == k)
            rhs = sum(c * prefix[:, j] for c, j in terms if j != k)
            if k not in args:
                rhs = rhs - image([prefix[:, j] for j in args])
                return -lead * eye % p, rhs % p
            m = np.empty((len(prefix), d, d), t.dtype)
            others = [prefix[:, j] for j in args if j != k]
            for e, col in enumerate(columns(args.index(k), others)):
                m[:, :, e] = col
            return (m - lead * eye) % p, rhs % p
        conditions.append((reads, row if args.count(k) <= 1 else None, test))
    return conditions


def _columns(cols: np.ndarray) -> np.ndarray:
    """The int64 matrices whose columns are the unknowns on the
    next-to-last axis of cols, copied once into C order."""
    return np.ascontiguousarray(np.swapaxes(cols, -1, -2), dtype=np.int64)


def _gram(gram: Sequence, p: int, error: type) -> np.ndarray:
    """The Gram matrix mod p; error when it is not square or singular."""
    g = np.asarray(gram, dtype=np.int64) % p
    if g.shape[0] != g.shape[1]:
        raise error("the Gram matrix is not square")
    if _rank(g[None], p)[0] < len(g):
        raise error("the Gram matrix is singular")
    return g


def scan_pair_with_trace(p: int, d: int, t_plus: Sequence, t_minus: Sequence,
                         gram: Sequence, jobs: int = 1) -> np.ndarray:
    """All (phi_plus, phi_minus) pair automorphisms with phi_minus the
    trace-dual inverse (phi_plus^T G)^{-1} G, as an int64 (B, 2, d, d)
    stack in search order; NotInvertible when G is not square or singular.

    t_plus / t_minus are Jordan-layout [a][b][c][x] integer tensors; gram is
    the trace Gram matrix.  The unknowns are the columns of both sides,
    fixed in the order plus_0, minus_0, plus_1, ...  The equations are the
    entries plus_r^T G minus_c == G[r, c], each solved for the later of its
    two columns; they pin phi_minus to the dual inverse, so both sides are
    invertible.  The slots of both tensors (_slots) are equations where
    those entries leave two or more free dimensions, else filters
    (_search).
    """
    dtype = _work_dtype(p)
    tp = _xfirst(t_plus, p, dtype)
    tm = _xfirst(t_minus, p, dtype)
    g = _gram(gram, p, NotInvertible).astype(dtype)
    plus, minus = range(0, 2 * d, 2), range(1, 2 * d, 2)
    # entry (r, c) is solved for plus_r where c < r, else for minus_c: plus_k
    # reads rows c < k, G minus_c . plus_k == G[k, c], and minus_k rows
    # r <= k, plus_r^T G . minus_k == G[r, k]
    conditions = [({*plus[:k + 1], *minus[:k]},
                   lambda prefix, k=k: (prefix[:, 1:2 * k:2] @ g.T % p,
                                        g[k, :k]), None)
                  for k in range(1, d)]
    conditions += [({*plus[:k + 1], minus[k]},
                    lambda prefix, k=k: (prefix[:, 0:2 * k + 1:2] @ g % p,
                                         g[:k + 1, k]), None)
                   for k in range(d)]
    for t, side, other in ((tp, plus, minus), (tm, minus, plus)):
        conditions += _slots(t, side, (side, other, side), p)
    found = _search(p, d, 2 * d, conditions, jobs, dtype)
    # unknown 2k + s is column k of side s: (B, k, s, i) -> (B, s, i, k)
    return _columns(found.reshape(len(found), d, 2, d).transpose(0, 2, 1, 3))


def scan_triple(p: int, d: int, tensor: Sequence, jobs: int = 1) -> np.ndarray:
    """All invertible phi with phi{x,y,z} == {phi x, phi y, phi z}, as an
    int64 (B, d, d) stack in search order; tensor is in Jordan layout
    [a][b][c][x].  The unknowns are the columns of phi in ascending order.
    The conditions are the slots of the tensor (_slots), and rank d on all
    columns as a filter."""
    dtype = _work_dtype(p)
    unknowns = range(d)
    conditions = _slots(_xfirst(tensor, p, dtype), unknowns,
                        (unknowns,) * 3, p)
    conditions.append((unknowns, None, lambda cols: _rank(cols, p) == d))
    return _columns(_search(p, d, d, conditions, jobs, dtype))


def scan_algebra_unit_fixing(p: int, d: int, prod: Sequence, unit: Sequence,
                             jobs: int = 1) -> np.ndarray:
    """All invertible unit-fixing phi with phi(x*y) == phi(x)*phi(y), as an
    int64 (B, d, d) stack in search order.

    Unit preservation is forced by multiplicativity plus surjectivity, so the
    candidate space is the affine subspace {A : A u = u}: columns other than
    the pivot column (the first with u != 0) are free, the pivot column is
    determined.  prod is the Jordan-layout [a][b][x] product tensor, unit
    the coordinate vector of 1.  The unknowns are the columns of phi in
    ascending order.  The equations are the rows of A u == u, solved for
    the last column in the support of u.  The slots of the product (_slots)
    are filters at that column and equations or filters at the others
    (_search), and rank d on all columns is a filter.
    """
    dtype = _work_dtype(p)
    u = np.asarray(unit, dtype=np.int64) % p
    support = [int(j) for j in np.flatnonzero(u)]
    unknowns = range(d)

    def fixes_unit(prefix):
        rest = sum(int(u[j]) * prefix[:, j] for j in support[:-1])
        return np.eye(d, dtype=dtype) * u[support[-1]], (u - rest) % p

    conditions = _slots(_xfirst(prod, p, dtype), unknowns,
                        (unknowns, unknowns), p)
    conditions += [(support, fixes_unit, None),
                   (unknowns, None, lambda cols: _rank(cols, p) == d)]
    return _columns(_search(p, d, d, conditions, jobs, dtype))


def scan_similitudes(p: int, n: int, gram: Sequence, isometry_only: bool,
                     jobs: int = 1) -> np.ndarray:
    """All similitudes (or isometries) a of the nondegenerate form G,
    a^T G a == lambda G with lambda a unit (or 1), as an int64 (B, n, n)
    stack in search order; DegenerateForm for a singular G.

    The unknowns are the columns of a in ascending order.  The multiplier
    lambda is read at the pivot (0, c) of G, the first nonzero entry, which
    lies in row 0 as G has no zero row: col_0^T G col_c == lambda G[0, c].
    The conditions are lambda != 0 (lambda == 1 for isometries), and
    col_i^T G col_j G[0, c] == col_0^T G col_c G[i, j] for every other
    entry (i, j), division-free; where G[i, j] == 0 that reads columns i
    and j only.  Each condition, a sum of terms s col_i^T G col_j equal to
    a constant, has a row in its last column k unless one of its terms is
    col_k^T G col_k, and a test only then; lambda != 0 is a test.  The
    conditions force det a != 0, as det(a)**2 det G == lambda**n det G, so
    no rank filter runs.
    """
    dtype = _work_dtype(p)
    g = _gram(gram, p, DegenerateForm).astype(dtype)
    c = int(np.flatnonzero(g[0])[0])
    pivot = int(g[0, c])

    def form(cols, i: int, j: int) -> np.ndarray:
        return (cols[:, i] @ g % p * cols[:, j]).sum(axis=1) % p

    def condition(terms: list, rhs: int) -> tuple:
        """sum s col_i^T G col_j == rhs over terms (s, i, j), as a test if
        a term reads its last column twice, else as a row."""
        reads = {x for _, i, j in terms for x in (i, j)}
        k = max(reads)
        if any(i == j == k for _, i, j in terms):
            return reads, None, lambda cols: sum(
                s * form(cols, i, j) for s, i, j in terms) % p == rhs

        def row(prefix):
            coef, const = 0, 0
            for s, i, j in terms:
                if k in (i, j):
                    vec = prefix[:, j] @ g.T if i == k else prefix[:, i] @ g
                    coef = coef + s * (vec % p)
                else:
                    const = const + s * form(prefix, i, j)
            return coef[:, None] % p, np.reshape((rhs - const) % p, (-1, 1))
        return reads, row, None

    conditions = [condition([(pivot, i, j)]
                            + ([(-int(g[i, j]), 0, c)] if g[i, j] else []), 0)
                  for i, j in np.ndindex(n, n) if (i, j) != (0, c)]
    conditions.append(condition([(1, 0, c)], pivot) if isometry_only
                      else ({0, c}, None, lambda cols: form(cols, 0, c) != 0))
    return _columns(_search(p, n, n, conditions, jobs, dtype))
