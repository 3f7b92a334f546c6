"""Vectorized scan kernels checked against direct references."""
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jpaut import (BilinearForm, PrimeField, Matrix, JordanAlgebra,
                   JordanPair, JordanTriple, PairMap, dual_inverse,
                   enumerate_automorphisms, gl_order, standard_form,
                   enumerate_GO, enumerate_O, enumerate_matrices,
                   is_triple_automorphism, similitude_multiplier)
from jpaut import fastscan
from jpaut.errors import BadInput, NotInvertible
from jpaut.fastscan import (_bilinear_rhs, _low_digit_block, _matmul, _rank,
                            _slots, _tensor_by_c, _slot_rhs, _work_dtype,
                            _xfirst, scan_algebra_unit_fixing,
                            scan_pair_with_trace, scan_triple,
                            scan_similitudes)
from jpaut import (extended_form, make_t_iv, make_vhi, make_type_iv_pair,
                   make_type_iv_triple, parse_system)

import _flat_oracle
from _flat_oracle import _adj, _det, _digits_range, _make_gram_apply
from _helpers import nested, random_structure
from test_acceptance import DETERMINISM_BATTERY, _axiom_sweep_systems

F3 = PrimeField(3)
F5 = PrimeField(5)


def _digits_reference(start, stop, p, cells):
    out = np.empty((stop - start, cells), dtype=np.int64)
    for r, idx in enumerate(range(start, stop)):
        rest = idx
        for c in range(cells - 1, -1, -1):
            rest, out[r, c] = divmod(rest, p)
    return out


@given(st.sampled_from([3, 5, 7, 73]), st.sampled_from([1, 2, 4, 9, 16]),
       st.integers(0, 10 ** 9), st.integers(1, 1024))
def test_digits_range_matches_divmod(p, cells, lo, span):
    total = min(p ** cells, 1 << 60)
    start = lo % total
    stop = min(start + span, total)
    got = _digits_range(start, stop, p, cells)
    assert got.dtype == np.int64
    assert np.array_equal(got, _digits_reference(start, stop, p, cells))


def test_digits_range_spans_block_boundary():
    # the low-digit table has period p**k; cross it on purpose
    p, cells = 3, 9
    period = p ** 8
    got = _digits_range(period - 5, period + 5, p, cells)
    assert np.array_equal(got, _digits_reference(period - 5, period + 5,
                                                 p, cells))


def test_low_digit_block_table():
    tab = _low_digit_block(5, 3)
    assert tab.shape == (125, 3) and tab.dtype == np.int16
    assert np.array_equal(tab.astype(np.int64),
                          _digits_reference(0, 125, 5, 3))


def _det_reference(a, p):
    n = a.shape[1]
    out = np.zeros(a.shape[0], dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = np.ones(a.shape[0], dtype=np.int64) * sign
        for i in range(n):
            term = term * a[:, i, perm[i]]
        out += term
    return out % p


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_det_matches_leibniz(p, n):
    rng = np.random.default_rng(12 * p + n)
    a = rng.integers(0, p, size=(40, n, n)).astype(_work_dtype(p))
    assert np.array_equal(np.asarray(_det(a, p)) % p, _det_reference(a, p))


@pytest.mark.parametrize("p", [3, 5, 73, 79])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank_decides_invertibility_as_the_determinant(p, n):
    # 73 is the largest int32 prime of _work_dtype, 79 the first int64 one
    rng = np.random.default_rng(31 * p + n)
    dt = _work_dtype(p)
    a = rng.integers(0, p, size=(60, n, n))
    # singular on purpose: the last row of the first 20, and the last
    # column of the next 20, a random combination of the others (zero at
    # n = 1)
    c = rng.integers(0, p, size=(40, n - 1))
    a[:20, -1] = np.einsum('bi,bij->bj', c[:20], a[:20, :-1]) % p
    a[20:40, :, -1] = np.einsum('bij,bj->bi', a[20:40, :, :-1], c[20:]) % p
    a = a.astype(dt)
    expect = _det_reference(a, p) != 0
    assert not expect[:40].any() and expect[40:].any()
    got = _rank(a, p)
    assert np.array_equal(got == n, expect)
    assert (got >= 0).all() and (got <= n).all()


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_det_adj_identity(p, n):
    # a @ _adj(a) == _det(a) * I mod p
    rng = np.random.default_rng(7 * p + n)
    a = rng.integers(0, p, size=(32, n, n)).astype(_work_dtype(p))
    adj = _adj(a)
    prod = np.einsum('bij,bjk->bik', a.astype(np.int64),
                     adj.astype(np.int64)) % p
    expect = np.einsum('b,ik->bik', np.asarray(_det(a, p), dtype=np.int64),
                       np.eye(n, dtype=np.int64))
    assert np.array_equal(prod, expect)
    # adjugate entries stay inside the documented integer bound
    assert np.abs(np.asarray(adj, dtype=np.int64)).max() < 6 * p ** 3


@pytest.mark.parametrize("p,d", [(3, 2), (3, 4), (5, 3), (19483, 4)])
def test_slot_rhs_matches_einsum(p, d):
    # the kernels pass float64 slabs; at 19483, the largest prime of the
    # fast scans, the all-(p - 1) first row takes their products to the bound
    rng = np.random.default_rng(p * d)
    dt = _work_dtype(p)
    t = rng.integers(0, p, size=(d, d, d, d)).astype(dt)
    u = rng.integers(0, p, size=(25, d)).astype(dt)
    v = rng.integers(0, p, size=(25, d)).astype(dt)
    w = rng.integers(0, p, size=(25, d)).astype(dt)
    t[0] = u[0] = v[0] = w[0] = p - 1
    ref = np.einsum('xabc,Ba,Bb,Bc->Bx', t.astype(np.int64),
                    u.astype(np.int64), v.astype(np.int64),
                    w.astype(np.int64)) % p
    for slabs in (dt, np.float64):
        got = _slot_rhs(_tensor_by_c(t, slabs), u, v, w, p)
        assert np.array_equal(np.asarray(got, dtype=np.int64) % p, ref), slabs


@pytest.mark.parametrize("m,k,n", [(0, 9, 9), (1, 4, 3), (3236, 9, 9),
                                   (3237, 9, 9), (16384, 9, 9),
                                   (5184, 16, 16)])
def test_matmul_in_row_blocks_equals_one_product(monkeypatch, m, k, n):
    # past _SERIAL_PRODUCT / (k n) rows the product runs in row blocks,
    # none of which reaches the bound; the result is that of one product
    rng = np.random.default_rng(m + k + n)
    a = rng.integers(0, 3, size=(m, k)).astype(np.float64)
    b = rng.integers(0, 3, size=(k, n)).astype(np.float64)
    sizes = []
    matmul = np.matmul

    def spy(x, y, *args, **kw):
        sizes.append(x.shape[0] * x.shape[1] * y.shape[1])
        return matmul(x, y, *args, **kw)
    monkeypatch.setattr(fastscan.np, "matmul", spy)
    got = _matmul(a, b)
    assert got.dtype == np.float64 and got.shape == (m, n)
    assert np.array_equal(got, a @ b)
    rows = fastscan._SERIAL_PRODUCT // (k * n)
    assert max(sizes, default=0) <= fastscan._SERIAL_PRODUCT
    assert len(sizes) == (0 if m <= rows else -(-m // rows))


def _random_slots(kind, p, d, rng):
    """(unknowns, slots) of random Jordan-layout tensors read as the kernel
    of their kind reads them: a triple, both tensors of a traced pair
    (unknowns plus_0, minus_0, ...), or an algebra's product."""
    dt = _work_dtype(p)
    arity = 2 if kind == "algebra" else 3
    tensors = [_xfirst(rng.integers(0, p, size=(d,) * (arity + 1)), p, dt)
               for _ in range(2 if kind == "pair" else 1)]
    if kind == "algebra":
        prf = np.ascontiguousarray(tensors[0].reshape(d, d * d).T)
        return d, _slots(tensors[0], lambda x, y: _bilinear_rhs(prf, x, y, p),
                         range(d), (range(d),) * 2, p)
    if kind == "triple":
        t_byc = _tensor_by_c(tensors[0], dt)
        return d, _slots(tensors[0],
                         lambda u, v, w: _slot_rhs(t_byc, u, v, w, p),
                         range(d), (range(d),) * 3, p)
    plus, minus = range(0, 2 * d, 2), range(1, 2 * d, 2)
    slots = []
    for t, side, other in zip(tensors, (plus, minus), (minus, plus)):
        t_byc = _tensor_by_c(t, dt)
        slots += _slots(t, lambda u, v, w, t_byc=t_byc: _slot_rhs(
            t_byc, u, v, w, p), side, (side, other, side), p)
    return 2 * d, slots


@pytest.mark.parametrize("kind", ["triple", "pair", "algebra"])
@pytest.mark.parametrize("d", [2, 3])
def test_slot_equations_solve_exactly_what_the_slot_filter_keeps(kind, d):
    # for seeded prefixes and every x in F_p^d: x solves the rows of a slot
    # affine in its last column exactly when the slot's filter keeps it
    p = 3
    rng = np.random.default_rng(10 * d + len(kind))
    unknowns, slots = _random_slots(kind, p, d, rng)
    vectors = _low_digit_block(p, d).astype(_work_dtype(p))
    hits = total = 0
    assert any(row is None for _, row, _ in slots)
    for reads, row, test in slots:
        if row is None:
            continue
        k = max(reads)
        assert k < unknowns
        prefix = rng.integers(0, p, size=(8, k, d)).astype(vectors.dtype)
        coef, rhs = row(prefix)
        coef = np.broadcast_to(coef, (8, d, d)).astype(np.int64)
        rhs = np.broadcast_to(rhs, (8, d)).astype(np.int64)
        for b in range(8):
            solves = ((vectors.astype(np.int64) @ coef[b].T - rhs[b]) % p
                      == 0).all(axis=1)
            cols = np.concatenate(
                (np.broadcast_to(prefix[b], (len(vectors), k, d)),
                 vectors[:, None]), axis=1)
            assert np.array_equal(solves, test(cols)), (reads, b)
            hits += solves.sum()
            total += solves.size
    # the conditions are neither all true nor all false
    assert 0 < hits < total


@pytest.mark.parametrize("gram", [
    [[1, 0], [0, 1]],
    [[2, 0], [0, 1]],
    [[0, 1], [1, 0]],        # generalized permutation, off-diagonal
    [[1, 1], [1, 2]],        # dense symmetric invertible: generic path
])
def test_gram_apply_matches_direct_product(gram):
    p = 3
    dt = _work_dtype(p)
    g = np.array(gram, dtype=np.int64) % p
    # invert mod p by adjugate over the 2x2
    det = int(round(np.linalg.det(g))) % p
    inv_det = pow(det, -1, p)
    ginv = (inv_det * np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])) % p
    apply_fn = _make_gram_apply(g.astype(dt), ginv.astype(dt), p, dt)
    rng = np.random.default_rng(5)
    adj = rng.integers(0, p, size=(20, 2, 2)).astype(dt)
    got = np.asarray(apply_fn(adj), dtype=np.int64) % p
    ref = np.einsum('ij,bkj,kl->bil', ginv, adj.astype(np.int64), g) % p
    assert np.array_equal(got, ref)


def _sorted(stack):
    """A kernel's stack in index order: its row-major rows ascending."""
    return stack[np.lexsort(stack.reshape(len(stack), -1).T[::-1])]


def _ascending(stack):
    """Whether the row-major rows of a stack strictly ascend."""
    rows = stack.reshape(len(stack), -1).tolist()
    return all(x < y for x, y in zip(rows, rows[1:]))


def _pure_rows(structure):
    """The pure engine's maps of a structure, as nested entry lists in
    element_key order."""
    pure = enumerate_automorphisms(structure, engine="pure").elements
    return [[f.plus.entries, f.minus.entries] if isinstance(f, PairMap)
            else f.entries for f in pure]


def test_scan_pair_with_trace_recovers_known_group():
    vhi = make_vhi(1, 2, F3).structure
    found = scan_pair_with_trace(3, 2, vhi.t_plus, vhi.t_minus,
                                 vhi.trace.entries)
    assert found.dtype == np.int64 and found.shape == (48, 2, 2, 2)
    pairs = _sorted(found).tolist()
    assert pairs == np.array(_pure_rows(vhi)).tolist()
    for plus, minus in pairs:  # the minus side is the trace-dual inverse
        phi = Matrix.build(F3, plus)
        assert Matrix.build(F3, minus) == dual_inverse(vhi, phi)


def test_scan_triple_recovers_known_group():
    that = make_type_iv_triple(standard_form(F3, 2)).structure
    mats = scan_triple(3, 2, that.tensor)
    assert mats.dtype == np.int64 and mats.shape == (8, 2, 2)


def _pure_similitudes(form, isometry):
    """The similitudes (isometries) of a form by the pure filter over every
    matrix, in index order."""
    one = form.ring.one_p
    out = []
    for a in enumerate_matrices(form.ring, form.dim, form.dim):
        m = similitude_multiplier(a, form)
        if m is not None and (not isometry or m.payload == one):
            out.append(a)
    return out


def test_scan_similitudes_matches_group_enumeration():
    form = standard_form(F3, 2)
    gram = form.gram.entries
    sim = scan_similitudes(3, 2, gram, isometry_only=False)
    iso = scan_similitudes(3, 2, gram, isometry_only=True)
    assert sim.dtype == iso.dtype == np.int64
    assert sim.shape == (16, 2, 2) and iso.shape == (8, 2, 2)
    sim, iso = _sorted(sim).tolist(), _sorted(iso).tolist()
    assert all(a in sim for a in iso)
    # compare with the pure filter, element for element
    for found, isometry in ((sim, False), (iso, True)):
        assert found == [[list(r) for r in a.entries]
                         for a in _pure_similitudes(form, isometry)]


@pytest.mark.parametrize("enumerate_group,isometry", [
    (enumerate_GO, False), (enumerate_O, True)])
def test_similitude_decode_at_n_3_matches_the_pure_filter(enumerate_group,
                                                          isometry):
    form = standard_form(F3, 3)
    expect = []
    for a in enumerate_matrices(F3, 3, 3):
        m = similitude_multiplier(a, form)
        if m is not None and (not isometry or m.payload == F3.one_p):
            expect.append(a)
    # in odd dimension every multiplier is a square, so here GO = O
    assert len(expect) == 48
    assert list(enumerate_group(form)) == expect


def test_scan_triple_concatenates_chunks_in_index_order():
    # TIV(3,F5): the flat oracle decodes 5**9 candidates in 120 chunks,
    # with 16 survivors
    system = make_t_iv(standard_form(F5, 2))
    tensor = system.structure._int64["tensor"]
    one = _flat_oracle._flat_triple(5, 3, tensor, jobs=1)
    two = _flat_oracle._flat_triple(5, 3, tensor, jobs=2)
    assert np.array_equal(one, two)
    assert one.dtype == np.int64 and one.shape == (16, 3, 3)
    rows = one.reshape(16, 9).tolist()
    assert all(x < y for x, y in zip(rows, rows[1:]))
    for m in one.tolist():
        assert is_triple_automorphism(system, Matrix.build(F5, m))


def test_jobs_do_not_change_scan_output():
    vhi = make_vhi(1, 2, F3).structure
    one = scan_pair_with_trace(3, 2, vhi.t_plus, vhi.t_minus,
                               vhi.trace.entries, jobs=1)
    four = scan_pair_with_trace(3, 2, vhi.t_plus, vhi.t_minus,
                                vhi.trace.entries, jobs=4)
    assert np.array_equal(one, four)


# Sparse tensors over F3 at d = 2, drawn at random and written out in C order
# of the Jordan layout [a][b][c][x] (or [a][b][x]).  A dense random tensor
# has only the scalars as automorphisms, whichever way it is read, so it
# cannot tell the layouts apart; these have larger groups that differ.
_LAYOUT_CASES = {
    "triple": [[0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]],
    "pair": [[0] * 16, [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]],
    "algebra": [[0, 0, 0, 0, 0, 0, 1, 0]],
}


def _layout_tensors(kind):
    return [np.array(flat).reshape((2,) * (3 if kind == "algebra" else 4))
            for flat in _LAYOUT_CASES[kind]]


def _layout_structure(kind, tensors):
    payloads = [nested(t.tolist()) for t in tensors]
    if kind == "triple":
        return JordanTriple(F3, 2, payloads[0])
    if kind == "pair":
        return JordanPair(F3, 2, 2, *payloads, Matrix.identity(F3, 2))
    return JordanAlgebra(F3, 2, payloads[0], (1, 0))


@pytest.mark.parametrize("kind", sorted(_LAYOUT_CASES))
def test_kernels_read_the_jordan_layout(kind):
    # VhI(1,2) and ThatIV(2) read the same in both layouts, these tensors
    # do not; each kernel must match the pure engine element for element
    ts = _layout_tensors(kind)
    structure = _layout_structure(kind, ts)
    if kind == "triple":
        def scan(tensors):
            return sorted(scan_triple(3, 2, tensors[0]).tolist())
    elif kind == "pair":
        def scan(tensors):
            return sorted(scan_pair_with_trace(3, 2, *tensors,
                                               [[1, 0], [0, 1]]).tolist())
    else:
        def scan(tensors):
            return sorted(scan_algebra_unit_fixing(3, 2, tensors[0],
                                                   (1, 0)).tolist())
    expect = np.array(_pure_rows(structure)).tolist()
    assert len(expect) > 2
    assert scan(ts) == expect
    # read as if the output axis came first, the same data has another group
    assert scan([np.moveaxis(t, 0, -1) for t in ts]) != expect


def test_work_dtype_refuses_primes_past_the_int64_bound():
    # 64 p**4 first passes 2**31 - 1 at the prime 79, and first reaches
    # 2**63 at the prime 19489; 73 and 19483 are the primes below
    assert _work_dtype(73) is np.int32
    assert _work_dtype(79) is np.int64
    assert _work_dtype(19483) is np.int64
    with pytest.raises(BadInput):
        _work_dtype(19489)


@pytest.mark.parametrize("make", [make_type_iv_triple, make_type_iv_pair])
def test_fast_engine_refuses_primes_past_the_bound_before_scanning(
        make, monkeypatch):
    def started(*args, **kwargs):
        raise AssertionError("a scan started")
    for stage in ("_scan", "_search"):
        monkeypatch.setattr(fastscan, stage, started)
    ring = PrimeField(19489)
    with pytest.raises(BadInput):
        enumerate_automorphisms(make(standard_form(ring, 2)),
                                budget=gl_order(ring, 2), engine="fast")


@pytest.mark.parametrize("gram", [[[0, 0], [0, 0]], [[1, 1], [1, 1]]])
@pytest.mark.parametrize("engine", ["fast", "pure"])
def test_singular_trace_gram_raises_not_invertible(gram, engine):
    vhi = make_vhi(1, 2, F3).structure
    pair = JordanPair(F3, 2, 2, vhi.t_plus, vhi.t_minus,
                      Matrix.build(F3, gram))
    with pytest.raises(NotInvertible):
        enumerate_automorphisms(pair, engine=engine)


@pytest.mark.parametrize("dplus,dminus", [(2, 3), (3, 2)])
@pytest.mark.parametrize("engine", ["fast", "pure"])
def test_unequal_traced_carriers_raise_not_invertible(dplus, dminus, engine):
    # a trace Gram of shape (dplus, dminus) has no inverse when they differ
    t_plus = np.zeros((dplus, dminus, dplus, dplus), dtype=np.int64)
    t_minus = np.zeros((dminus, dplus, dminus, dminus), dtype=np.int64)
    pair = JordanPair(F3, dplus, dminus, nested(t_plus.tolist()),
                      nested(t_minus.tolist()),
                      Matrix.build(F3, np.eye(dplus, dminus,
                                              dtype=np.int64).tolist()))
    with pytest.raises(NotInvertible):
        enumerate_automorphisms(pair, engine=engine)


def test_search_levels_span_chunks_in_search_order(monkeypatch):
    # at 4,096 a chunk, level 4 of VhI(2,2,F3) (plus_2) solves for 4,896
    # prefixes in two chunks and filters the 10,368 candidates of their
    # cosets in three; the blocks join in order, so neither the chunk size
    # nor the jobs change the stack
    vhi = make_vhi(2, 2, F3).structure
    image = vhi._int64
    args = (3, 4, image["t_plus"], image["t_minus"], image["trace"])
    whole = scan_pair_with_trace(*args, jobs=1)
    monkeypatch.setattr(fastscan, "CHUNK", 1 << 12)
    real = fastscan._scan
    calls = []

    def spy(total, decode, stages, spread):
        calls.append(total)
        return real(total, decode, stages, spread)
    monkeypatch.setattr(fastscan, "_scan", spy)
    one = scan_pair_with_trace(*args, jobs=1)
    assert 4896 in calls and 10368 in calls
    two = scan_pair_with_trace(*args, jobs=2)
    assert np.array_equal(one, two) and np.array_equal(one, whole)
    assert one.dtype == np.int64 and one.shape == (2304, 2, 4, 4)
    assert _ascending(_sorted(one))  # no map twice


def test_search_logs_the_same_levels_for_any_jobs(caplog):
    # one DEBUG record per level: (level, kept, generated)
    image = make_vhi(2, 2, F3).structure._int64
    args = (3, 4, image["t_plus"], image["t_minus"], image["trace"])
    levels = {}
    for jobs in (1, 2, 3):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="jpaut.fastscan"):
            scan_pair_with_trace(*args, jobs=jobs)
        levels[jobs] = [r.args for r in caplog.records
                        if r.name == "jpaut.fastscan"]
    assert levels[1] == levels[2] == levels[3]
    assert [level for level, _, _ in levels[1]] == list(range(8))
    assert [kept for _, kept, _ in levels[1]] == [
        81, 288, 1440, 4896, 3456, 2304, 2304, 2304]
    # the slot equations cut the cosets of levels 1-4, where the trace
    # entries leave two or more free dimensions (75,393 as filters); the
    # last level solves minus_3 outright: one candidate per prefix
    assert [generated for _, _, generated in levels[1]] == [
        81, 864, 2592, 6048, 10368, 6912, 6912, 2304]


def test_blocks_split_each_range_over_the_jobs():
    # min(CHUNK, max(MIN_BLOCK, ceil(total / jobs))) items a block
    assert fastscan._blocks(0, 2) == [(0, 0)]
    assert fastscan._blocks(6912, 1) == [(0, 6912)]
    assert fastscan._blocks(6912, 2) == [(0, 3456), (3456, 6912)]
    assert fastscan._blocks(1500, 2) == [(0, 1024), (1024, 1500)]
    assert fastscan._blocks(900, 3) == [(0, 900)]
    assert fastscan._blocks(40000, 1) == [(0, 16384), (16384, 32768),
                                          (32768, 40000)]
    assert fastscan._blocks(40000, 2) == fastscan._blocks(40000, 1)
    assert fastscan._blocks(40000, 3) == [(0, 13334), (13334, 26668),
                                          (26668, 40000)]
    for total in (1, 1023, 1025, 16384, 16385, 100000):
        for jobs in (1, 2, 3, 4):
            parts = fastscan._blocks(total, jobs)
            assert parts[0][0] == 0 and parts[-1][1] == total
            assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
            assert max(stop - start for start, stop in parts) <= \
                fastscan.CHUNK


def test_search_splits_a_level_below_chunk_over_the_jobs(monkeypatch):
    # level 5 of VhI(2,2,F3) (minus_2) filters 6,912 candidates: one block
    # at one worker, two blocks of 3,456 at two
    real = fastscan._blocks
    calls = {}

    def spy(total, jobs, cap=None):
        out = real(total, jobs, cap)
        calls.setdefault(jobs, {})[total] = out
        return out
    monkeypatch.setattr(fastscan, "_blocks", spy)
    image = make_vhi(2, 2, F3).structure._int64
    args = (3, 4, image["t_plus"], image["t_minus"], image["trace"])
    one = scan_pair_with_trace(*args, jobs=1)
    two = scan_pair_with_trace(*args, jobs=2)
    assert np.array_equal(one, two)
    assert calls[1][6912] == [(0, 6912)]
    assert calls[2][6912] == [(0, 3456), (3456, 6912)]
    assert set(calls[1]) == set(calls[2])


@pytest.mark.parametrize("jobs", [0, -1])
def test_kernels_refuse_jobs_below_one(jobs):
    for text in ("ThI(2,F3)", "VhI(1,2,F3)", "Mplus(2,F3)"):
        kernel, args = _kernel_call(parse_system(text).structure)
        with pytest.raises(BadInput):
            getattr(fastscan, f"scan_{kernel}")(*args, jobs=jobs)
    with pytest.raises(BadInput):
        scan_similitudes(3, 2, [[1, 0], [0, 1]], False, jobs=jobs)


def _kernel_call(structure):
    """(kernel suffix, arguments) of the fast kernel that enumerates
    structure, read from its int64 image as the oracle reads it."""
    image, p = structure._int64, structure.ring.p
    if isinstance(structure, JordanPair):
        return "pair_with_trace", (p, structure.dplus, image["t_plus"],
                                   image["t_minus"], image["trace"])
    if isinstance(structure, JordanTriple):
        return "triple", (p, structure.dim, image["tensor"])
    return "algebra_unit_fixing", (p, structure.dim, image["product"],
                                   image["unit"])


def _flat_count(structure):
    p, d = structure.ring.p, _kernel_call(structure)[1][1]
    return p ** (d * (d - 1) if isinstance(structure, JordanAlgebra)
                 else d * d)


def _grid_structures():
    """Every structure the search kernels serve on the gate grid: the
    criterion-1 systems over F3 and F5 with carrier dimension 2-4 and at
    most 3**16 flat candidates, the criterion-12 battery, and the tensors
    of the layout and random-tensor engine tests."""
    out = {}
    for text in _axiom_sweep_systems() + DETERMINISM_BATTERY:
        structure = parse_system(text).structure
        if (structure.ring.name in ("F3", "F5")
                and 2 <= _kernel_call(structure)[1][1] <= 4
                and _flat_count(structure) <= 3 ** 16):
            out[text] = structure
    for kind in _LAYOUT_CASES:
        ts = _layout_tensors(kind)
        out[f"layout {kind}"] = _layout_structure(kind, ts)
        out[f"layout {kind} moved"] = _layout_structure(
            kind, [np.moveaxis(t, 0, -1) for t in ts])
    for kind in ("triple", "pair", "algebra"):
        for grid in ((3, 2), (5, 2), (7, 2), (3, 3)):
            for fill, seeds in (("random", (0, 1, 2)), ("zero", (0,)),
                                ("identity", (0,))):
                for seed in seeds:
                    out[f"random {kind} {grid} {fill} {seed}"] = \
                        random_structure(kind, *grid, fill, seed)
    return out


def test_search_equals_the_flat_oracle_on_every_grid_point():
    structures = _grid_structures()
    assert len(structures) == 102
    assert {"ThI(2,F3)", "TtI(2,2,F3)", "VhI(2,2,F3)", "Mplus(2,F3)",
            "TIV(3,F5)", "VIV(3,F5)", "ThatIV(4,F3)"} <= set(structures)
    assert not any(name.startswith(("ThI(2,F5)", "TtI(2,2,F5)"))
                   for name in structures)
    # VhI(1,n,F_p) and VtI(1,n,F_p) pass the same arguments, so the oracle
    # runs once per distinct kernel input
    oracle = {}
    for name, structure in structures.items():
        kernel, args = _kernel_call(structure)
        key = (kernel,) + tuple(np.asarray(a, dtype=np.int64).tobytes()
                                for a in args)
        if key not in oracle:
            oracle[key] = getattr(_flat_oracle, f"_flat_{kernel}")(*args,
                                                                   jobs=2)
        expect = oracle[key]
        assert expect.dtype == np.int64, name
        found = {}
        for jobs in (1, 2):
            found[jobs] = getattr(fastscan, f"scan_{kernel}")(*args,
                                                             jobs=jobs)
            assert found[jobs].dtype == np.int64, (name, jobs)
            assert found[jobs].shape == expect.shape, (name, jobs)
            assert np.array_equal(_sorted(found[jobs]), _sorted(expect)), \
                (name, jobs)
        assert np.array_equal(found[1], found[2]), name
    assert len(oracle) == 98


def test_zero_traced_pair_is_searched():
    # zero tensors: every slot holds, so only the trace entries decide, and
    # the group is all of GL_3
    pair = random_structure("pair", 3, 3, "zero", 0)
    _, args = _kernel_call(pair)
    one = scan_pair_with_trace(*args, jobs=1)
    two = scan_pair_with_trace(*args, jobs=2)
    assert np.array_equal(one, two)
    assert one.shape == (gl_order(F3, 3), 2, 3, 3)
    plus, minus = one[:, 0], one[:, 1]
    assert (_det(plus, 3) != 0).all()
    assert np.array_equal(_sorted(one),
                          _flat_oracle._flat_pair_with_trace(*args, jobs=1))
    # with G = I the minus side is the inverse transpose
    eye = np.broadcast_to(np.eye(3, dtype=np.int64), plus.shape)
    assert np.array_equal(plus.transpose(0, 2, 1) @ minus % 3, eye)


# hyperbolic plane (plus a norm-one line at n = 3): the pivot, the first
# nonzero Gram entry, sits off the diagonal
_HYPERBOLIC = {2: np.array([[0, 1], [1, 0]]),
               3: np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])}


def _similitude_grams(p, n):
    """The standard and extended forms of the claims, a hyperbolic form and
    three seeded random nondegenerate symmetric Grams over F_p."""
    ring = PrimeField(p)
    forms = {"standard": standard_form(ring, n).gram,
             "extended": extended_form(standard_form(ring, n - 1)).gram}
    out = {name: np.array(g.entries, dtype=np.int64)
           for name, g in forms.items()}
    out["hyperbolic"] = _HYPERBOLIC[n]
    rng = np.random.default_rng(100 * p + n)
    while len(out) < 6:
        g = rng.integers(0, p, size=(n, n))
        g = np.triu(g) + np.triu(g, 1).T
        if _det(g[None], p)[0]:
            out[f"random {len(out) - 3}"] = g
    return out


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_similitude_search_equals_the_flat_oracle(p, n):
    for name, gram in _similitude_grams(p, n).items():
        for isometry in (False, True):
            found = scan_similitudes(p, n, gram, isometry)
            expect = _flat_oracle._flat_similitudes(p, n, gram, isometry)
            assert found.dtype == expect.dtype == np.int64, name
            assert found.shape == expect.shape, name
            assert np.array_equal(_sorted(found), expect), (name, isometry)


@pytest.mark.parametrize("text", ["VhI(2,2,F3)", "ThI(2,F3)", "Mplus(2,F3)"])
def test_the_set_decides_the_order_of_a_kernel_stack(text):
    # the kernels return search order, which here is not ascending; the
    # automorphism set sorts it once, into element_key order
    structure = parse_system(text).structure
    kernel, args = _kernel_call(structure)
    found = getattr(fastscan, f"scan_{kernel}")(*args)
    assert not _ascending(found)
    rows = enumerate_automorphisms(structure, engine="fast").rows
    assert _ascending(rows)
    assert np.array_equal(rows, _sorted(found).reshape(len(found), -1))


def test_similitude_streams_sort_the_kernel_stack():
    # on the hyperbolic plane over F3 the similitude search does not
    # return ascending rows; enumerate_GO and enumerate_O sort them into
    # the order of the pure filter
    gram = _HYPERBOLIC[2]
    assert not _ascending(scan_similitudes(3, 2, gram, False))
    form = BilinearForm(Matrix.build(F3, gram.tolist()))
    for enumerate_group, isometry in ((enumerate_GO, False),
                                      (enumerate_O, True)):
        expect = _pure_similitudes(form, isometry)
        assert len(expect) == (4 if isometry else 8)
        assert list(enumerate_group(form)) == expect


@pytest.fixture
def no_flat_oracle(monkeypatch):
    """The flat oracle and its complete check raise when called."""
    def refused(*args, **kwargs):
        raise AssertionError("a flat scan or its complete check ran")
    for name in ("_flat_triple", "_flat_pair_with_trace",
                 "_flat_algebra_unit_fixing", "_flat_similitudes",
                 "_carried"):
        monkeypatch.setattr(_flat_oracle, name, refused)
    assert not [name for name in vars(fastscan)
                if name.startswith("_flat_") or name == "_carried"]


def test_search_enumerates_without_the_flat_scan(no_flat_oracle):
    # a search decides each identity once, by its conditions; the systems
    # below d = 3 and the d = 3 pairs whose group is all of GL_3 fell back
    # to a flat scan before the trace entries were solved
    orders = {"ThI(2,F3)": 96, "VhI(2,2,F3)": 2304, "TtI(2,2,F3)": 128,
              "Mplus(2,F3)": 48, "TIV(3,F5)": 16, "VhI(1,3,F3)": 11232,
              "VtI(1,3,F3)": 11232, "VIV(2,F3)": 16, "VhI(1,2,F5)": 480,
              "TIV(2,F3)": 8, "Jbilin(2,F3)": 2}
    for text, order in orders.items():
        found = enumerate_automorphisms(parse_system(text), engine="fast")
        assert (found.engine, found.order) == ("fast", order), text
    zero = enumerate_automorphisms(random_structure("pair", 3, 3, "zero", 0),
                                   engine="fast")
    assert (zero.engine, zero.order) == ("fast", gl_order(F3, 3))
    # GO_3(F5) and O_3(F5) of the identity form (the lambda-iso claim's
    # extended form at n = 3) and of a hyperbolic form, whose pivot is off
    # the diagonal
    for gram in (np.eye(3, dtype=np.int64), _HYPERBOLIC[3]):
        assert len(scan_similitudes(5, 3, gram, False)) == 480
        assert len(scan_similitudes(5, 3, gram, True)) == 240


def test_unit_fixing_search_at_d_1_returns_the_identity(no_flat_oracle):
    # A u = u leaves no free column at d = 1; the one map is the identity
    found = scan_algebra_unit_fixing(5, 1, [[[1]]], [1])
    assert found.dtype == np.int64 and found.tolist() == [[[1]]]
    system = parse_system("Jbilin(1,F5)")
    result = enumerate_automorphisms(system, engine="fast")
    assert (result.engine, result.order) == ("fast", 1)
