"""The flat scans: the test oracle of the fastscan search kernels.

Each flat scan decodes every candidate as a d x d matrix indexed by base-p
digits in row-major entry order, so index order equals the lexicographic
order of the pure-Python enumeration streams.  It keeps the invertible ones
(the traced pair computes phi_minus, the trace-dual inverse, from their
determinant and adjugate), runs a few one-slot filters chosen greedily on a
fixed probe chunk (none when the whole space is one chunk), then the
complete check (_carried), and concatenates each chunk's survivors in index
order through fastscan's chunk loop.  It shares the slot contraction and
the chunk loop with the search, but decodes its candidates from digits,
decides invertibility by determinant (_det, not the search's elimination)
and each map by the complete identity rather than column by column, so the
two agree only when the search's conditions are right.

Integer bounds, inputs reduced mod p: determinants stay below 24p**4, the
unreduced adjugate below 6p**3, the Gram gather below 6p**4 and the dense
Gram product below 24p**4, all inside fastscan._work_dtype's 64p**4.
"""
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from jpaut.errors import DegenerateForm, NotInvertible
from jpaut.fastscan import (CHUNK, _bilinear_rhs, _gram, _low_digit_block,
                            _scan, _slot_rhs, _tensor_by_c,
                            _work_dtype, _xfirst, workers)

MAX_SLOTS = 4


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


def _carried(tensor: np.ndarray, out: np.ndarray, maps: Sequence[np.ndarray],
             p: int) -> np.ndarray:
    """Keep-vector of the complete condition out T == T(maps), the last
    stage of the flat scans.

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


def _flat_pair_with_trace(p: int, d: int, t_plus: Sequence,
                          t_minus: Sequence, gram: Sequence,
                          jobs: int = 1) -> np.ndarray:
    """scan_pair_with_trace by decoding all p**(d*d) matrices phi_plus.

    Each invertible phi_plus carries its trace-dual inverse
    phi_minus = (phi_plus^T G)^{-1} G = det^{-1} G^{-1} adj(phi_plus)^T G,
    so the filters and checks read both sides as they are.
    """
    dtype = _work_dtype(p)
    tp = _xfirst(t_plus, p, dtype)
    tm = _xfirst(t_minus, p, dtype)
    g = _gram(gram, p, NotInvertible)
    ginv = _adj(g[None])[0] * pow(int(_det(g[None], p)[0]), -1, p) % p
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
    with workers(jobs) as spread:
        plus, minus = _scan(total, decode, stages, spread)
    return np.stack((plus, minus), axis=1).astype(np.int64)


def _flat_triple(p: int, d: int, tensor: Sequence,
                 jobs: int = 1) -> np.ndarray:
    """scan_triple by decoding all p**(d*d) matrices."""
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
    with workers(jobs) as spread:
        (found,) = _scan(total, decode, stages, spread)
    return found.astype(np.int64)


def _flat_algebra_unit_fixing(p: int, d: int, prod: Sequence,
                              unit: Sequence, jobs: int = 1) -> np.ndarray:
    """scan_algebra_unit_fixing by decoding all p**(d*(d-1)) free-column
    choices.  The pivot column is solved from A u = u."""
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
    with workers(jobs) as spread:
        (found,) = _scan(p ** cells, decode, stages, spread)
    return found.astype(np.int64)


def _flat_similitudes(p: int, n: int, gram: Sequence, isometry_only: bool,
                      jobs: int = 1) -> np.ndarray:
    """scan_similitudes by decoding all p**(n*n) matrices."""
    dtype = _work_dtype(p)
    g = _gram(gram, p, DegenerateForm)
    pivot = tuple(np.argwhere(g)[0])
    piv_inv = pow(int(g[pivot]), -1, p)
    g = g.astype(dtype)

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

    with workers(jobs) as spread:
        (found,) = _scan(p ** (n * n), decode, [check], spread)
    return found.astype(np.int64)
