"""Vectorized exhaustive scans over prime fields.

Each kernel decides every candidate map, in exact mod-p integer arithmetic
with division-free conditions derived from the defining identities, and
returns the solution set as an int64 stack in index order.

Every kernel searches column by column (_search): the unknowns are the
columns of phi (plus those of phi_minus for traced pairs, interleaved
plus_0, minus_0, ...), each with p**d values, and every condition is
checked once, as soon as the columns it reads are fixed: the tensor slots,
the trace-Gram entries, A u = u, and for similitudes the multiplier and the
entries of a^T G a.  These conditions are the complete identity; after the
last column triples and algebras add det != 0, which plus^T G minus == G
and lambda != 0 already force for traced pairs and similitudes.  The
survivors are sorted into index order, and oracle._cross_check remains the
one independent check of every result.  When the search would generate more
candidates than the flat scan decodes, the kernel returns the flat scan's
result instead.

The flat scans (_flat_*) decode candidates as d x d matrices indexed by
base-p digits in row-major entry order, so index order equals the
lexicographic order of the pure-Python enumeration streams.  They keep the
invertible ones (the traced pair computes phi_minus, the trace-dual
inverse, from their determinant and adjugate), run a few one-slot filters
chosen greedily on a fixed probe chunk (none when the whole space is one
chunk), then the complete check, and concatenate each chunk's survivors in
index order.  They are kept as the search's named oracle and its fallback.

The flat scans and every search level run through one skeleton (_scan), in
chunks of at most CHUNK candidates (SEARCH_CHUNK for search levels); worker
threads only parallelize chunks, never reorder them, and every choice
(slots, fallback) depends only on (p, d, tensor), never on the worker count.

Tensors arrive in Jordan layout, T[a][b]..[x] with the output coordinate
last, as the structures' int64 images hold them; each kernel moves the
output axis first for its own contractions.

With inputs reduced mod p, the largest intermediate is the factored slot
contraction, below 64*p**4 (_slot_rhs); determinants stay below 24*p**4,
the unreduced adjugate below 6*p**3 and its Gram product below 24*p**4 (see
the per-stage bounds in the helpers).  _work_dtype sizes arithmetic by
max(64*p**4, 6*p**5), a margin over these: int32 up to p = 47, int64 up to
p = 4337, and larger primes are refused.  Both dtypes give identical exact
results mod p.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import BadInput, DegenerateForm, NotInvertible

CHUNK = 1 << 16
# A search candidate carries up to 2d columns, and its slot checks build a
# d*d outer product each; quarter chunks keep a level's working set near
# the flat scan's at the cost of a few more calls per condition.
SEARCH_CHUNK = CHUNK // 4
MAX_SLOTS = 4

_log = logging.getLogger(__name__)


def _work_dtype(p: int) -> type:
    """int32 when every intermediate bound fits, else int64; BadInput when
    even int64 does not hold them."""
    bound = max(64 * p ** 4, 6 * p ** 5)
    if bound >= 2 ** 63:
        raise BadInput(f"F_{p} is past the int64 bound of the fast scans")
    return np.int32 if bound < 2 ** 31 - 1 else np.int64


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


def _digits_range(start: int, stop: int, p: int, cells: int,
                  dtype: type = np.int64) -> np.ndarray:
    """Digits of the consecutive index range [start, stop), division-free.

    Low digits repeat with period p**k, so they are two row slices of a
    cached table; the high digits are constant on each side of the single
    wrap boundary and decoded from Python ints.
    """
    b = stop - start
    k = cells
    while k > 1 and p ** (k - 1) >= b:
        k -= 1
    block = _low_digit_block(p, k)
    size = p ** k
    out = np.empty((b, cells), dtype=dtype)
    offset = start % size
    split = min(size - offset, b)
    out[:split, cells - k:] = block[offset:offset + split]
    if split < b:
        out[split:, cells - k:] = block[:b - split]
    hi_digits = cells - k
    if hi_digits:
        for side in range(2):
            if side == 1 and split >= b:
                break
            lo, upper = (0, split) if side == 0 else (split, b)
            rest = start // size + side
            for c in range(hi_digits - 1, -1, -1):
                rest, digit = divmod(rest, p)
                out[lo:upper, c] = digit
    return out


def _digit_matrices_range(start: int, stop: int, p: int, d: int,
                          dtype: type = np.int64) -> np.ndarray:
    return _digits_range(start, stop, p, d * d, dtype).reshape(
        stop - start, d, d)


def _row_minors(a: np.ndarray, r0: int, r1: int) -> dict:
    """The 2x2 minors of rows (r0, r1) of a (B, n, n) batch, keyed by column
    pair in lexicographic order; |m| < 2p**2."""
    n = a.shape[2]
    return {(x, y): a[:, r0, x] * a[:, r1, y] - a[:, r0, y] * a[:, r1, x]
            for x in range(n) for y in range(x + 1, n)}


def _det(a: np.ndarray, p: int) -> np.ndarray:
    """Batched determinant mod p for (B, n, n), 1 <= n <= 4, expanded
    along the 2x2 minors of the last two rows; before the reduction
    |det| <= 24p**4."""
    n = a.shape[1]
    if n == 1:
        return a[:, 0, 0] % p
    bot = _row_minors(a, n - 2, n - 1)
    if n == 2:
        return bot[(0, 1)] % p
    if n == 3:
        return (a[:, 0, 0] * bot[(1, 2)] - a[:, 0, 1] * bot[(0, 2)]
                + a[:, 0, 2] * bot[(0, 1)]) % p
    top = _row_minors(a, 0, 1)
    return (top[(0, 1)] * bot[(2, 3)] - top[(0, 2)] * bot[(1, 3)]
            + top[(0, 3)] * bot[(1, 2)] + top[(1, 2)] * bot[(0, 3)]
            - top[(1, 3)] * bot[(0, 2)] + top[(2, 3)] * bot[(0, 1)]) % p


def _invertible(a: np.ndarray, p: int) -> tuple[np.ndarray]:
    """The chunk's candidates with det != 0."""
    return (a[_det(a, p) != 0],)


@lru_cache(maxsize=None)
def _adj_terms(n: int) -> tuple:
    """Cofactor expansion plans: adj[i][j] = sum of signed entry*minor terms.

    For n = 4 each cofactor is a 3-term Laplace expansion against the pool of
    2x2 row minors (pool 0: rows 01, pool 1: rows 23).  Entries of the plan
    are (sign, row, col, pool, pair): sign * A[row, col] * minor[pool][pair].
    """
    plans = []
    for i in range(n):
        row_plans = []
        for j in range(n):
            cols = [t for t in range(n) if t != i]
            terms = []
            if j < 2:
                r = 1 - j
                pool = 1  # complementary minor lives in rows 2, 3
            else:
                r = 5 - j
                pool = 0  # complementary minor lives in rows 0, 1
            for pos, t in enumerate(cols):
                others = tuple(c for c in cols if c != t)
                s = 1 if pos % 2 == 0 else -1
                terms.append((s, r, t, pool, others))
            base = 1 if (i + j) % 2 == 0 else -1
            row_plans.append((base, tuple(terms)))
        plans.append(tuple(row_plans))
    return tuple(plans)


def _adj(a: np.ndarray) -> np.ndarray:
    """Batched adjugate of (B, n, n), 1 <= n <= 4: a @ adj == det(a) * I.

    Returned UNREDUCED: for residues mod p, exact integers with
    |entry| < 6p**3, congruent mod p to the true adjugate.  Callers reduce
    after the next contraction; deferring the reduction avoids a full-array
    division.  Assembled in flat C order so every write is contiguous.
    """
    b, n = a.shape[0], a.shape[1]
    flat = np.empty((n * n, b), dtype=a.dtype)
    if n == 1:
        flat[0] = 1
    elif n == 2:
        flat[0] = a[:, 1, 1]
        flat[1] = -a[:, 0, 1]
        flat[2] = -a[:, 1, 0]
        flat[3] = a[:, 0, 0]
    elif n == 3:
        for i in range(3):
            for j in range(3):
                r = [t for t in range(3) if t != j]
                c = [t for t in range(3) if t != i]
                m = a[:, r[0], c[0]] * a[:, r[1], c[1]] \
                    - a[:, r[0], c[1]] * a[:, r[1], c[0]]
                flat[3 * i + j] = m if (i + j) % 2 == 0 else -m
    else:
        pools = (_row_minors(a, 0, 1), _row_minors(a, 2, 3))
        for i, row_plans in enumerate(_adj_terms(4)):
            for j, (base, terms) in enumerate(row_plans):
                s0, r0, t0, pool0, o0 = terms[0]
                acc = a[:, r0, t0] * pools[pool0][o0]
                if s0 < 0:
                    acc = -acc
                for (s, r, t, pool, others) in terms[1:]:
                    term = a[:, r, t] * pools[pool][others]
                    if s > 0:
                        acc += term
                    else:
                        acc -= term
                flat[4 * i + j] = acc if base > 0 else -acc
    return np.ascontiguousarray(flat.T).reshape(b, n, n)


def _generalized_perm(m: np.ndarray, p: int):
    """(cols, scales) if m has exactly one nonzero per row and column."""
    n = m.shape[0]
    red = m % p
    cols = np.full(n, -1, dtype=np.int64)
    scales = np.zeros(n, dtype=np.int64)
    seen = set()
    for i in range(n):
        nz = np.nonzero(red[i])[0]
        if nz.size != 1 or int(nz[0]) in seen:
            return None
        cols[i] = int(nz[0])
        seen.add(int(nz[0]))
        scales[i] = int(red[i, nz[0]])
    return cols, scales


def _make_gram_apply(g: np.ndarray, ginv: np.ndarray, p: int,
                     dtype: type) -> Callable[[np.ndarray], np.ndarray]:
    """Return btil(adj) = (ginv @ adj.T @ g) % p, specialized for the Gram.

    When both g and ginv are generalized permutations (every catalog trace
    is), the two matrix products collapse to a single gather with a scalar
    coefficient per cell: btil[:, i, l] = ginv[i, q_i] g[r_l, l] adj[:, r_l, q_i],
    with the coefficient reduced, so bounded by p * 6p**3 = 6p**4.  The dense
    fallback reduces between the two products, keeping every intermediate
    under 24p**4.
    """
    d = g.shape[0]
    perm_g = _generalized_perm(g, p)
    perm_ginv = _generalized_perm(ginv, p)
    if perm_g is not None and perm_ginv is not None:
        q, u = perm_ginv  # ginv[i, q[i]] = u[i]
        gcols = perm_g[0]  # g[r, gcols[r]] = scales[r]
        r = np.empty(d, dtype=np.int64)
        for row in range(d):
            r[gcols[row]] = row  # g[r[l], l] nonzero
        s = perm_g[1][r]
        coeff = ((u[:, None] * s[None, :]) % p).astype(dtype)
        rr = np.tile(r, (d, 1)).astype(np.int64)
        qq = np.tile(q[:, None], (1, d)).astype(np.int64)

        def apply_perm(adj: np.ndarray) -> np.ndarray:
            return (coeff * adj[:, rr, qq]) % p

        return apply_perm
    g_t = g.astype(dtype)
    ginv_t = ginv.astype(dtype)

    def apply_dense(adj: np.ndarray) -> np.ndarray:
        mid = (adj.transpose(0, 2, 1) @ g_t) % p
        return (ginv_t @ mid) % p

    return apply_dense


@contextmanager
def _pool(jobs: int):
    """A thread pool of jobs workers, or None (inline) for jobs <= 1."""
    if jobs <= 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        yield pool


def _tensor_by_c(tensor: np.ndarray, dtype: type) -> tuple[np.ndarray, ...]:
    """Per-c slabs (d*d, d_out) of T[x,a,b,c] for the factored slot filter."""
    d_out = tensor.shape[0]
    d = tensor.shape[3]
    return tuple(np.ascontiguousarray(
        tensor[:, :, :, c].reshape(d_out, d * d).T.astype(dtype))
        for c in range(d))


def _slot_rhs(t_byc: tuple[np.ndarray, ...], u: np.ndarray, v: np.ndarray,
              w: np.ndarray, p: int) -> np.ndarray:
    """Factored slot contraction: outer(u, v) once, one matmul per c.

    Inputs are reduced mod p, so |acc| <= d * (d*d * p**3) * p <= 64p**4.
    """
    b, d = u.shape
    uv = (u[:, :, None] * v[:, None, :]).reshape(b, d * d)
    acc = (uv @ t_byc[0]) * w[:, 0, None]
    for c in range(1, d):
        acc += (uv @ t_byc[c]) * w[:, c, None]
    return acc % p


def _bilinear_rhs(prf: np.ndarray, u: np.ndarray, v: np.ndarray,
                  p: int) -> np.ndarray:
    """P(u, v) for batches of reduced vectors, prf being the product as a
    (d*d, d_out) matrix; |acc| <= d*d * p**3."""
    return (u[:, :, None] * v[:, None, :]).reshape(len(u), -1) @ prf % p


def _carried(tensor: np.ndarray, out: np.ndarray, maps: Sequence[np.ndarray],
             p: int) -> np.ndarray:
    """Keep-vector of the complete condition out T == T(maps), the last
    stage of the flat scans (a search decides it slot by slot instead).

    On every basis tuple, out[B] T[:, a, b, ..] must equal
    Sum T[:, a', b', ..] maps[0][B, a', a] maps[1][B, b', b] ...  The right
    side is contracted one slot at a time and reduced between slots, so
    sums stay below d * p**2 in every dtype.
    """
    ins, outs = "abc"[:len(maps)], "ijk"[:len(maps)]
    lhs = np.einsum(f"Bxy,y{outs}->Bx{outs}", out, tensor, optimize=True)
    rhs = tensor
    for s, m in enumerate(maps):
        src = ("x" if s == 0 else "Bx" + outs[:s]) + ins[s:]
        dst = "Bx" + outs[:s + 1] + ins[s + 1:]
        rhs = np.einsum(f"{src},B{ins[s]}{outs[s]}->{dst}", rhs, m,
                        optimize=True) % p
    return (lhs % p == rhs).all(axis=tuple(range(1, lhs.ndim)))


def _probe_start(total: int) -> int:
    """Fixed probe chunk start: the middle chunk, aligned to CHUNK."""
    nchunks = (total + CHUNK - 1) // CHUNK
    return (nchunks // 2) * CHUNK if nchunks > 1 else 0


def _greedy_slots(d: int, count: int,
                  eval_slot: Callable[[tuple[int, int, int], np.ndarray],
                                      np.ndarray]) -> list[tuple[int, int, int]]:
    """Pick filter slots by survivor rate on the probe population.

    eval_slot(slot, mask) returns a boolean pass-vector over the masked
    candidates.  Greedy: rank all slots once, then extend the chain by the
    slot with the fewest cumulative survivors, re-scoring the short list on
    the current survivor set.  Deterministic; ties break lexicographically.
    """
    slots = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]
    first = eval_slot(slots[0], None)
    n = first.shape[0]
    rates = [(first.mean(), slots[0])]
    for s in slots[1:]:
        rates.append((eval_slot(s, None).mean(), s))
    rates.sort(key=lambda t: (t[0], t[1]))
    if n == 0:
        return [s for _, s in rates[:count]]
    surv = np.ones(n, dtype=bool)
    chosen: list[tuple[int, int, int]] = []
    shortlist = [s for _, s in rates[:16]]
    while len(chosen) < count and surv.any():
        best = None
        for s in shortlist:
            if s in chosen:
                continue
            ok = eval_slot(s, surv)
            key = (ok.mean() if ok.size else 1.0, s)
            if best is None or key < best[0]:
                best = (key, s, ok)
        if best is None:
            break
        _, s, ok = best
        chosen.append(s)
        alive = np.nonzero(surv)[0]
        surv[alive[~ok]] = False
        if surv.sum() <= 8:
            break
    return chosen


def _probe_slots(total: int, d: int, decode: Callable,
                 slot_pass: Callable) -> list[tuple[int, int, int]]:
    """Filter slots chosen greedily on the fixed probe chunk, for
    slot_pass(slot, *arrays); none when the whole space is one chunk, which
    the complete check decides for less than the probe's slot evaluations
    cost."""
    if total <= CHUNK:
        return []
    ps = _probe_start(total)
    probe = decode(ps, min(ps + CHUNK, total))

    def eval_slot(slot, mask):
        arrays = probe if mask is None else [x[mask] for x in probe]
        return slot_pass(slot, *arrays)

    return _greedy_slots(d, MAX_SLOTS, eval_slot)


def _scan(total: int, decode: Callable, stages: Sequence[Callable],
          pool: ThreadPoolExecutor | None, chunk: int) -> list[np.ndarray]:
    """The per-candidate arrays of the candidates in [0, total) that pass
    every stage, each concatenated over the chunks in index order.

    decode(start, stop) returns the per-candidate arrays of a chunk of at
    most chunk candidates (possibly already filtered), and each
    stage(*arrays) a keep-vector over them, applied in list order.  The
    pool (None: inline) only runs chunks at the same time, never reorders
    them.  An empty range is one empty chunk, so the arrays keep their
    shapes.
    """
    def kernel(bounds: tuple[int, int]) -> list[np.ndarray]:
        arrays = decode(*bounds)
        for stage in stages:
            if len(arrays[0]) == 0:
                break
            keep = stage(*arrays)
            arrays = [x[keep] for x in arrays]
        return arrays

    ranges = [(s, min(s + chunk, total))
              for s in range(0, max(total, 1), chunk)]
    chunks = (map if pool is None else pool.map)(kernel, ranges)
    return [np.concatenate(parts) for parts in zip(*chunks)]


def _search(p: int, d: int, unknowns: int, conditions: Sequence,
            flat_total: int, jobs: int, dtype: type) -> np.ndarray | None:
    """The values of the unknown columns that pass every condition, as a
    (B, unknowns, d) stack, or None when the search would generate more
    candidates than the flat scan decodes (flat_total).

    Level k extends each surviving prefix (the values of unknowns 0..k-1)
    by all p**d vectors in index order, then keeps the candidates that pass
    each condition whose last unknown is k, in list order.  A condition is
    a pair (unknowns read, test), where test(cols) returns a keep-vector
    over a (B, k + 1, d) stack.  Each level is one _scan, in chunks of
    SEARCH_CHUNK candidates on one thread pool, so survivors and fallback
    are the same for any jobs.
    """
    vectors = _low_digit_block(p, d).astype(dtype)
    q = len(vectors)
    tests = [[] for _ in range(unknowns)]
    for reads, test in conditions:
        tests[max(reads)].append(test)
    cols = np.zeros((1, 0, d), dtype=dtype)
    spent = 0
    with _pool(jobs) as pool:
        for level, level_tests in enumerate(tests):
            total = len(cols) * q
            spent += total
            if spent > flat_total:
                _log.debug("search level %d would bring the candidates to "
                           "%d of the flat %d: flat scan", level, spent,
                           flat_total)
                return None

            def extend(start: int, stop: int, prefixes=cols) -> tuple:
                idx = np.arange(start, stop)
                return (np.concatenate((prefixes[idx // q],
                                        vectors[idx % q, None]), axis=1),)

            (cols,) = _scan(total, extend, level_tests, pool, SEARCH_CHUNK)
            _log.debug("search level %d kept %d of %d", level, len(cols),
                       total)
    return cols


def _slot_conditions(t: np.ndarray, image: Callable, out: Sequence[int],
                     ins: Sequence[Sequence[int]], p: int) -> list:
    """One search condition per slot (a, b, ..) of the output-first tensor t,
    phi(T(e_a, e_b, ..)) == T(phi e_a, phi e_b, ..) read on the unknowns:

        Sum_x t[x, a, b, ..] col[out[x]] == image(col[ins[0][a]],
                                                  col[ins[1][b]], ..)

    out maps an output coordinate, ins[s] a coordinate of input slot s, to
    its unknown; image evaluates T on batches of reduced vectors."""
    conditions = []
    for slot in np.ndindex(t.shape[1:]):
        coef = t[(slice(None),) + slot]
        terms = [(int(coef[x]), out[x]) for x in np.flatnonzero(coef)]
        args = [side[i] for side, i in zip(ins, slot)]

        def test(cols, terms=terms, args=args):
            lhs = sum(c * cols[:, k] for c, k in terms) % p
            return (lhs == image(*(cols[:, k] for k in args))).all(axis=1)
        conditions.append(({k for _, k in terms} | set(args), test))
    return conditions


def _in_index_order(stack: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """stack reordered so that the row-major rows of keys ascend."""
    rows = keys.reshape(len(keys), -1)
    return stack[np.lexsort(rows.T[::-1])]


def _columns(cols: np.ndarray) -> np.ndarray:
    """The (B, d, d) matrices whose columns are the given unknowns."""
    return cols.transpose(0, 2, 1)


def _trace_gram(gram: Sequence, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The trace Gram matrix mod p and its inverse; NotInvertible when it is
    not square (the carriers differ) or singular."""
    g = np.asarray(gram, dtype=np.int64) % p
    if g.shape[0] != g.shape[1]:
        raise NotInvertible("the trace Gram matrix is not square")
    det = int(_det(g[None], p)[0])
    if det == 0:
        raise NotInvertible("the trace Gram matrix is singular")
    return g, _adj(g[None])[0] * pow(det, -1, p) % p


def _flat_pair_with_trace(p: int, d: int, t_plus: Sequence,
                          t_minus: Sequence, gram: Sequence,
                          jobs: int = 1) -> np.ndarray:
    """scan_pair_with_trace by decoding all p**(d*d) matrices phi_plus: its
    oracle and its fallback.

    Each invertible phi_plus carries its trace-dual inverse
    phi_minus = (phi_plus^T G)^{-1} G = det^{-1} G^{-1} adj(phi_plus)^T G,
    so the filters and checks read both sides as they are.
    """
    dtype = _work_dtype(p)
    tp = _xfirst(t_plus, p, dtype)
    tm = _xfirst(t_minus, p, dtype)
    g, ginv = _trace_gram(gram, p)
    gram_apply = _make_gram_apply(g, ginv, p, dtype)
    tp_byc = _tensor_by_c(tp, dtype)
    inverses = np.array([0] + [pow(x, -1, p) for x in range(1, p)],
                        dtype=dtype)
    total = p ** (d * d)

    def decode(start: int, stop: int):
        a = _digit_matrices_range(start, stop, p, d, dtype)
        det = _det(a, p)
        a, det = a[det != 0], det[det != 0]
        return a, inverses[det][:, None, None] * gram_apply(_adj(a)) % p

    def slot_pass(slot, a, minus):
        i, j, k = slot
        lhs = (a @ tp[:, i, j, k]) % p
        rhs = _slot_rhs(tp_byc, a[:, :, i], minus[:, :, j], a[:, :, k], p)
        return (lhs == rhs).all(axis=1)

    def check_plus(a, minus):
        return _carried(tp, a, (a, minus, a), p)

    def check_minus(a, minus):
        return _carried(tm, minus, (minus, a, minus), p)

    slots = _probe_slots(total, d, decode, slot_pass)
    stages = [partial(slot_pass, s) for s in slots] + [check_plus,
                                                       check_minus]
    with _pool(jobs) as pool:
        plus, minus = _scan(total, decode, stages, pool, CHUNK)
    return np.stack((plus, minus), axis=1).astype(np.int64)


def _flat_triple(p: int, d: int, tensor: Sequence,
                 jobs: int = 1) -> np.ndarray:
    """scan_triple by decoding all p**(d*d) matrices: its oracle and its
    fallback."""
    dtype = _work_dtype(p)
    t = _xfirst(tensor, p, dtype)
    t_byc = _tensor_by_c(t, dtype)
    total = p ** (d * d)

    def decode(start: int, stop: int):
        return _invertible(_digit_matrices_range(start, stop, p, d, dtype), p)

    def slot_pass(slot, a):
        i, j, k = slot
        lhs = (a @ t[:, i, j, k]) % p
        rhs = _slot_rhs(t_byc, a[:, :, i], a[:, :, j], a[:, :, k], p)
        return (lhs == rhs).all(axis=1)

    def check(a):
        return _carried(t, a, (a, a, a), p)

    slots = _probe_slots(total, d, decode, slot_pass)
    stages = [partial(slot_pass, s) for s in slots] + [check]
    with _pool(jobs) as pool:
        (found,) = _scan(total, decode, stages, pool, CHUNK)
    return found.astype(np.int64)


def _flat_algebra_unit_fixing(p: int, d: int, prod: Sequence,
                              unit: Sequence, jobs: int = 1) -> np.ndarray:
    """scan_algebra_unit_fixing by decoding all p**(d*(d-1)) free-column
    choices: its oracle and its fallback.  The pivot column is solved from
    A u = u."""
    dtype = _work_dtype(p)
    pr = _xfirst(prod, p, dtype)
    u = np.asarray(unit, dtype=np.int64) % p
    prf = np.ascontiguousarray(pr.reshape(d, d * d).T)
    t_col = int(np.nonzero(u)[0][0])
    u_t_inv = pow(int(u[t_col]), -1, p)
    free_cols = [j for j in range(d) if j != t_col]
    cells = d * (d - 1)

    def assemble(digits: np.ndarray) -> np.ndarray:
        b = digits.shape[0]
        free = digits.reshape(b, d, d - 1)  # row-major over (row, free col slot)
        a = np.zeros((b, d, d), dtype=dtype)
        for slot, j in enumerate(free_cols):
            a[:, :, j] = free[:, :, slot]
        acc = np.tile(u, (b, 1)).astype(dtype)
        for j in free_cols:
            acc = (acc - int(u[j]) * a[:, :, j]) % p
        a[:, :, t_col] = (u_t_inv * acc) % p
        return a

    def decode(start: int, stop: int):
        return _invertible(assemble(_digits_range(start, stop, p, cells,
                                                  dtype)), p)

    def slot_pass(slot, a):
        i, j = slot
        lhs = (a @ pr[:, i, j]) % p
        rhs = _bilinear_rhs(prf, a[:, :, i], a[:, :, j], p)
        return (lhs == rhs).all(axis=1)

    def check(a):
        return _carried(pr, a, (a, a), p)

    slots = [(0, 0), (0, min(1, d - 1)), (min(1, d - 1), 0)]
    stages = [partial(slot_pass, s) for s in slots] + [check]
    with _pool(jobs) as pool:
        (found,) = _scan(p ** cells, decode, stages, pool, CHUNK)
    return found.astype(np.int64)


def scan_pair_with_trace(p: int, d: int, t_plus: Sequence, t_minus: Sequence,
                         gram: Sequence, jobs: int = 1) -> np.ndarray:
    """All (phi_plus, phi_minus) pair automorphisms with phi_minus the
    trace-dual inverse (phi_plus^T G)^{-1} G, as an int64 (B, 2, d, d)
    stack ascending in phi_plus; NotInvertible when G is not square or
    singular.

    t_plus / t_minus are Jordan-layout [a][b][c][x] integer tensors; gram is
    the trace Gram matrix.  The unknowns are the columns of both sides,
    fixed in the order plus_0, minus_0, plus_1, ...; the conditions are the
    entries of phi_plus^T G phi_minus == G, which pin phi_minus to the dual
    inverse (so both sides are invertible), and the slots of both tensors.
    """
    dtype = _work_dtype(p)
    tp = _xfirst(t_plus, p, dtype)
    tm = _xfirst(t_minus, p, dtype)
    g, _ = _trace_gram(gram, p)
    g_t = g.astype(dtype)
    plus, minus = range(0, 2 * d, 2), range(1, 2 * d, 2)

    def gram_entry(r: int, c: int) -> Callable:
        def test(cols):
            row = cols[:, plus[r]] @ g_t % p
            return (row * cols[:, minus[c]]).sum(axis=1) % p == g[r, c]
        return test

    conditions = [({plus[r], minus[c]}, gram_entry(r, c))
                  for r in range(d) for c in range(d)]
    for t, side, other in ((tp, plus, minus), (tm, minus, plus)):
        t_byc = _tensor_by_c(t, dtype)
        conditions += _slot_conditions(
            t, lambda u, v, w, t_byc=t_byc: _slot_rhs(t_byc, u, v, w, p),
            side, (side, other, side), p)
    found = _search(p, d, 2 * d, conditions, p ** (d * d), jobs, dtype)
    if found is None:
        return _flat_pair_with_trace(p, d, t_plus, t_minus, gram, jobs=jobs)
    a, b = _columns(found[:, plus]), _columns(found[:, minus])
    return _in_index_order(np.stack((a, b), axis=1), a).astype(np.int64)


def scan_triple(p: int, d: int, tensor: Sequence, jobs: int = 1) -> np.ndarray:
    """All invertible phi with phi{x,y,z} == {phi x, phi y, phi z}, as an
    int64 (B, d, d) stack in index order; tensor is in Jordan layout
    [a][b][c][x].  The unknowns are the columns of phi in ascending order,
    the conditions the slots of the tensor and, on all columns, det != 0."""
    dtype = _work_dtype(p)
    t = _xfirst(tensor, p, dtype)
    t_byc = _tensor_by_c(t, dtype)
    unknowns = range(d)
    conditions = _slot_conditions(
        t, lambda u, v, w: _slot_rhs(t_byc, u, v, w, p), unknowns,
        (unknowns,) * 3, p)
    conditions.append((unknowns, lambda cols: _det(_columns(cols), p) != 0))
    found = _search(p, d, d, conditions, p ** (d * d), jobs, dtype)
    if found is None:
        return _flat_triple(p, d, tensor, jobs=jobs)
    a = _columns(found)
    return _in_index_order(a, a).astype(np.int64)


def scan_algebra_unit_fixing(p: int, d: int, prod: Sequence, unit: Sequence,
                             jobs: int = 1) -> np.ndarray:
    """All invertible unit-fixing phi with phi(x*y) == phi(x)*phi(y), as an
    int64 (B, d, d) stack in index order of the free columns.

    Unit preservation is forced by multiplicativity plus surjectivity, so the
    candidate space is the affine subspace {A : A u = u}: columns other than
    the pivot column (the first with u != 0) are free, the pivot column is
    determined.  prod is the Jordan-layout [a][b][x] product tensor, unit
    the coordinate vector of 1.  The unknowns are the columns of phi in
    ascending order, the conditions A u = u, the slots of the product and,
    on all columns, det != 0.
    """
    dtype = _work_dtype(p)
    pr = _xfirst(prod, p, dtype)
    prf = np.ascontiguousarray(pr.reshape(d, d * d).T)
    u = np.asarray(unit, dtype=np.int64) % p
    support = [int(j) for j in np.flatnonzero(u)]
    unknowns = range(d)

    def fixes_unit(cols):
        image = sum(int(u[j]) * cols[:, j] for j in support) % p
        return (image == u).all(axis=1)

    conditions = [(support, fixes_unit)]
    conditions += _slot_conditions(
        pr, lambda x, y: _bilinear_rhs(prf, x, y, p), unknowns,
        (unknowns, unknowns), p)
    conditions.append((unknowns, lambda cols: _det(_columns(cols), p) != 0))
    found = _search(p, d, d, conditions, p ** (d * (d - 1)), jobs, dtype)
    if found is None:
        return _flat_algebra_unit_fixing(p, d, prod, unit, jobs=jobs)
    a = _columns(found)
    return _in_index_order(a, np.delete(a, support[0], axis=2)).astype(
        np.int64)


def _form_gram(gram: Sequence, p: int,
               dtype: type) -> tuple[np.ndarray, tuple[int, int], int]:
    """The Gram matrix mod p, its pivot (the first nonzero entry, row-major)
    and the pivot's inverse; DegenerateForm when the Gram is singular."""
    g = np.asarray(gram, dtype=np.int64) % p
    if _det(g[None], p)[0] == 0:
        raise DegenerateForm("the Gram matrix is singular")
    pivot = tuple(int(x) for x in np.argwhere(g)[0])
    return g.astype(dtype), pivot, pow(int(g[pivot]), -1, p)


def _flat_similitudes(p: int, n: int, gram: Sequence, isometry_only: bool,
                      jobs: int = 1) -> np.ndarray:
    """scan_similitudes by decoding all p**(n*n) matrices: its oracle and
    its fallback."""
    dtype = _work_dtype(p)
    g, pivot, piv_inv = _form_gram(gram, p, dtype)

    def decode(start: int, stop: int):
        return (_digit_matrices_range(start, stop, p, n, dtype),)

    def check(a):
        m_full = np.einsum('Bax,ab,Bby->Bxy', a, g, a, optimize=True) % p
        mult = (m_full[:, pivot[0], pivot[1]] * piv_inv) % p
        ok = (m_full == mult[:, None, None] * g % p).all(axis=(1, 2))
        ok &= mult != 0
        if isometry_only:
            ok &= mult == 1
        return ok

    with _pool(jobs) as pool:
        (found,) = _scan(p ** (n * n), decode, [check], pool, CHUNK)
    return found.astype(np.int64)


def scan_similitudes(p: int, n: int, gram: Sequence, isometry_only: bool,
                     jobs: int = 1) -> np.ndarray:
    """All similitudes (or isometries) a of the nondegenerate form G,
    a^T G a == lambda G with lambda a unit (or 1), as an int64 (B, n, n)
    stack in index order; DegenerateForm for a singular G.

    The unknowns are the columns of a in ascending order.  The multiplier
    lambda is read at the pivot (r, c) of G: col_r^T G col_c == lambda G[r, c].
    The conditions are lambda != 0 (lambda == 1 for isometries), and
    col_i^T G col_j G[r, c] == col_r^T G col_c G[i, j] for every other
    entry (i, j), division-free; where G[i, j] == 0 that reads columns i
    and j only.  They force det a != 0, as det(a)**2 det G == lambda**n det G.
    """
    dtype = _work_dtype(p)
    g, (r, c), piv_inv = _form_gram(gram, p, dtype)

    def form(cols, i: int, j: int) -> np.ndarray:
        return (cols[:, i] @ g % p * cols[:, j]).sum(axis=1) % p

    def multiplier(cols):
        mult = form(cols, r, c) * piv_inv % p
        return mult == 1 if isometry_only else mult != 0

    def entry(i: int, j: int) -> Callable:
        if not g[i, j]:
            return lambda cols: form(cols, i, j) == 0

        def test(cols):
            return (form(cols, i, j) * int(g[r, c]) % p
                    == form(cols, r, c) * int(g[i, j]) % p)
        return test

    conditions = [({r, c}, multiplier)]
    conditions += [({i, j} | ({r, c} if g[i, j] else set()), entry(i, j))
                   for i in range(n) for j in range(n) if (i, j) != (r, c)]
    found = _search(p, n, n, conditions, p ** (n * n), jobs, dtype)
    if found is None:
        return _flat_similitudes(p, n, gram, isometry_only, jobs=jobs)
    a = _columns(found)
    return _in_index_order(a, a).astype(np.int64)
