"""Enumeration oracle: exhaustive scans, family images, closures, budgets."""
import functools
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jpaut import (PrimeField, ProductRing, DualNumbers, Rationals, Matrix,
                   PairMap,
                   standard_form, enumerate_GL, enumerate_GO, enumerate_O,
                   pair_from_triple, make_type_iv_pair, make_type_iv_triple,
                   make_t_iv, make_vhi, make_tti, make_mn_plus,
                   make_bilinear_form_algebra, go_to_pair_aut,
                   ortho_to_triple_aut, hat_l, hat_r, transpose_twist,
                   tti_map, tti_membership, all_twisted_maps,
                   factor_triple_aut, enumerate_automorphisms,
                   generate_closure, family_image, compare, gl_order,
                   DEFAULT_BUDGET)
from jpaut import fastscan, is_triple_automorphism, oracle, parse_system
from jpaut.jordan import JordanAlgebra
from jpaut.claims import gl_generators
from jpaut.oracle import (AutomorphismSet, CompareReport, _invertible_mod_p,
                          element_key)
from jpaut.errors import (BadDims, BadInput, BudgetExceeded, EngineMismatch,
                          MixedSystems, NonEnumerableRing, NotFactorable)

from _helpers import (byte_key_closure, byte_key_group_closed,
                      column_sorted_unique, random_structure, some_gl)

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_default_budget_covers_the_desk_grid():
    # the largest desk scan is GL_4(F3); the default budget must admit it
    assert DEFAULT_BUDGET >= gl_order(F3, 4)


@pytest.mark.parametrize("make,ring", [
    (make_type_iv_triple, F5), (make_type_iv_pair, F5),
    (make_type_iv_triple, ProductRing(F3, F3))],
    ids=["triple-F5", "pair-F5", "triple-F3xF3"])
def test_carrier_dimension_zero_is_refused(make, ring):
    # the CLI refuses dimension 0 while parsing (exit 2); the API must too
    with pytest.raises(BadDims):
        enumerate_automorphisms(make(standard_form(ring, 0)))


def test_small_exhaustive_orders_and_engines():
    s = enumerate_automorphisms(make_type_iv_pair(standard_form(F3, 1)))
    assert (s.order, s.engine, s.candidates) == (2, "pure", 2)
    s2 = enumerate_automorphisms(make_type_iv_triple(standard_form(F5, 1)))
    assert s2.order == 2
    s3 = enumerate_automorphisms(make_vhi(1, 2, F3))
    assert (s3.order, s3.engine) == (48, "fast")
    assert s3.verify_group_closed()


def test_fast_and_pure_engines_agree():
    vhi = make_vhi(1, 2, F3)
    fast = enumerate_automorphisms(vhi, engine="fast")
    pure = enumerate_automorphisms(vhi, engine="pure")
    assert fast.elements == pure.elements


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["triple", "pair", "algebra"]),
       grid=st.sampled_from([(3, 2), (5, 2), (7, 2), (3, 3)]),
       fill=st.sampled_from(["random", "zero", "identity"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(kind="triple", grid=(3, 3), fill="zero", seed=0)
@example(kind="triple", grid=(3, 3), fill="identity", seed=0)
@example(kind="pair", grid=(3, 3), fill="zero", seed=0)
@example(kind="pair", grid=(3, 3), fill="identity", seed=0)
@example(kind="algebra", grid=(3, 3), fill="zero", seed=0)
@example(kind="algebra", grid=(3, 3), fill="identity", seed=0)
def test_fast_and_pure_engines_agree_on_random_tensors(kind, grid, fill,
                                                       seed):
    structure = random_structure(kind, *grid, fill, seed)
    fast = enumerate_automorphisms(structure, engine="fast")
    pure = enumerate_automorphisms(structure, engine="pure")
    assert fast.engine == "fast"
    assert fast.elements == pure.elements


def test_cross_check_covers_every_element(monkeypatch):
    # O_3(F3) has order 48; a sample of every (len // 8)-th element skips
    # index 1, where the patched kernel plants a non-automorphism
    real = fastscan.scan_triple
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))

    def planted(*args, **kwargs):
        return np.insert(real(*args, **kwargs), 1, shear, axis=0)
    monkeypatch.setattr(fastscan, "scan_triple", planted)
    system = make_type_iv_triple(standard_form(F3, 3))
    assert not is_triple_automorphism(system, Matrix(F3, 3, 3, shear))
    with pytest.raises(EngineMismatch):
        enumerate_automorphisms(system, engine="fast")


def test_cross_check_pins_the_minus_side(monkeypatch):
    # every pair map transports the zero tensors, so only the trace check
    # rejects a minus side other than the trace-dual inverse
    real = fastscan.scan_pair_with_trace

    def wrong_minus(*args, **kwargs):
        found = real(*args, **kwargs)
        found[1, 1] = found[2, 1]  # plus of element 1, minus of element 2
        return found
    monkeypatch.setattr(fastscan, "scan_pair_with_trace", wrong_minus)
    with pytest.raises(EngineMismatch):
        enumerate_automorphisms(random_structure("pair", 3, 2, "zero", 0),
                                engine="fast")


def test_cross_check_rejects_a_singular_map(monkeypatch):
    # every map carries the zero tensor, so only the invertibility test
    # rejects the planted zero matrix
    real = fastscan.scan_triple

    def planted(*args, **kwargs):
        found = real(*args, **kwargs)
        return np.insert(found, 3, np.zeros_like(found[0]), axis=0)
    monkeypatch.setattr(fastscan, "scan_triple", planted)
    with pytest.raises(EngineMismatch):
        enumerate_automorphisms(random_structure("triple", 3, 2, "zero", 0),
                                engine="fast")


def _no_maps(structure):
    """An empty int64 stack per side of the structure's maps."""
    return [np.zeros((0, d, d), dtype=np.int64)
            for d in oracle._codec(structure).dims]


@pytest.mark.parametrize("text", ["VhI(2,2,F3)", "ThI(2,F3)", "Mplus(2,F3)"])
def test_are_automorphisms_of_no_maps_is_empty(text):
    structure = parse_system(text).structure
    got = oracle.are_automorphisms(structure, _no_maps(structure))
    assert got.dtype == bool and got.shape == (0,)


@pytest.mark.parametrize("text", ["VhI(2,2,F3)", "ThI(2,F3)", "Mplus(2,F3)"])
def test_cross_check_refuses_an_empty_result(text):
    # every automorphism group holds the identity, so no maps is incomplete
    system = parse_system(text)
    structure = system.structure
    empty = np.stack(_no_maps(structure), axis=1)
    with pytest.raises(EngineMismatch, match="identity"):
        oracle._cross_check(lambda fs: empty, structure,
                            oracle._codec(structure), system.name, 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cross_check_refuses_a_result_without_the_identity(monkeypatch,
                                                          jobs):
    # every other map of ThI(2,F3) is an automorphism, so only the
    # completeness guard notices the missing row
    real = fastscan.scan_triple

    def dropped(*args, **kwargs):
        found = real(*args, **kwargs)
        eye = np.eye(found.shape[1], dtype=found.dtype)
        keep = ~(found == eye).all(axis=(1, 2))
        assert keep.sum() == len(found) - 1
        return found[keep]
    monkeypatch.setattr(fastscan, "scan_triple", dropped)
    with pytest.raises(EngineMismatch, match="identity"):
        enumerate_automorphisms(parse_system("ThI(2,F3)"), engine="fast",
                                jobs=jobs)


def _cross_check_blocks(monkeypatch, bad_rows, jobs):
    """Enumerate VhI(1,3,F3), 11,232 maps in 14 blocks of at most 809, with
    the minus side of each bad row doubled (plus^T G minus == 2G, so the
    trace check rejects it); returns the first planted map's JSON and the
    EngineMismatch raised, if any."""
    system = make_vhi(1, 3, F3)
    real_scan = fastscan.scan_pair_with_trace
    planted = []

    def corrupted(*args, **kwargs):
        found = real_scan(*args, **kwargs)
        assert len(found) == 11232
        for i in bad_rows:
            found[i, 1] = found[i, 1] * 2 % 3
        codec = oracle._codec(system.structure)
        planted.extend(codec.decode(found[i].reshape(1, -1))[0].to_jsonable()
                       for i in bad_rows)
        return found
    monkeypatch.setattr(fastscan, "scan_pair_with_trace", corrupted)
    try:
        enumerate_automorphisms(system, engine="fast", jobs=jobs)
    except EngineMismatch as exc:
        return planted, exc
    return planted, None


@pytest.mark.parametrize("jobs", [1, 2])
def test_cross_check_blocks_hold_at_most_the_tensor_cap(monkeypatch, jobs):
    # a traced pair's tensors have d**4 entries, so a block holds at most
    # CHUNK * 4 // 81 = 809 rows at d = 3 and CHUNK * 4 // 256 = 256 at
    # d = 4
    real_scan, real_check = fastscan.scan_pair_with_trace, \
        oracle.are_automorphisms
    found, blocks = [], []

    def kept(*args, **kwargs):
        found.append(real_scan(*args, **kwargs))
        return found[-1]

    def recorded(structure, sides):
        blocks.append(np.concatenate(
            [side.reshape(len(side), -1) for side in sides], axis=1))
        return real_check(structure, sides)
    monkeypatch.setattr(fastscan, "scan_pair_with_trace", kept)
    monkeypatch.setattr(oracle, "are_automorphisms", recorded)
    for text, cap in (("VhI(1,3,F3)", 809), ("VhI(2,2,F3)", 256)):
        found.clear()
        blocks.clear()
        enumerate_automorphisms(parse_system(text), engine="fast", jobs=jobs)
        rows = found[0].reshape(len(found[0]), -1)
        assert max(len(b) for b in blocks) == cap < len(rows)
        # at jobs 2 the blocks may start out of order
        at = {row.tobytes(): i for i, row in enumerate(rows)}
        blocks.sort(key=lambda b: at[b[0].tobytes()])
        assert np.array_equal(np.concatenate(blocks), rows)


def test_cross_check_memory_is_bounded_by_its_blocks():
    # 11,232 maps; decided whole, the transport intermediates alone would
    # take 11,232 * 81 * 8 bytes (7.3 MB) each
    system = make_vhi(1, 3, F3)
    structure = system.structure
    image = structure._int64
    found = fastscan.scan_pair_with_trace(3, 3, image["t_plus"],
                                          image["t_minus"], image["trace"])
    codec = oracle._codec(structure)
    tracemalloc.start()
    try:
        rows = oracle._cross_check(lambda fs: found, structure, codec,
                                   system.name, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 11232
    assert peak <= 4 << 20


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bad_rows", [[10000], [5000, 10000]])
def test_cross_check_names_the_first_rejected_row(monkeypatch, jobs,
                                                  bad_rows):
    # row 10000 lies in the 13th block, row 5000 in the 7th
    planted, error = _cross_check_blocks(monkeypatch, bad_rows, jobs)
    assert error is not None
    assert f"returned {planted[0]}," in str(error)
    assert all(str(other) not in str(error) for other in planted[1:])


@pytest.mark.parametrize("p,d,count", [(3, 2, None), (5, 2, None),
                                       (3, 3, None), (5, 4, 3000),
                                       (7, 3, 3000)])
def test_batched_invertibility_equals_the_determinant(p, d, count):
    ring = PrimeField(p)
    if count is None:  # every matrix
        stack = np.array(list(np.ndindex(*(p,) * (d * d))), dtype=np.int64)
    else:
        stack = np.random.default_rng(d).integers(0, p, (count, d * d))
    stack = stack.reshape(-1, d, d)
    expect = [Matrix(ring, d, d, tuple(map(tuple, m))).is_invertible()
              for m in stack.tolist()]
    assert _invertible_mod_p(stack, p).tolist() == expect


def test_rectangle_pair_equals_right_translation_image():
    for ring, order in ((F3, 48), (F5, 480)):
        vhi = make_vhi(1, 2, ring)
        ex = enumerate_automorphisms(vhi)
        img = family_image(vhi, [hat_r(b, 1) for b in enumerate_GL(2, ring)])
        assert ex.order == order and img.kind == "pair"
        assert compare(ex, img).equal, ring.name


def test_form_pair_equals_similitude_image():
    for ring in (F3, F5):
        form = standard_form(ring, 2)
        viv = make_type_iv_pair(form)
        ex = enumerate_automorphisms(viv)
        im = family_image(
            viv, [go_to_pair_aut(a, form) for a in enumerate_GO(form)])
        assert compare(ex, im).equal, ring.name


def test_form_triple_equals_isometry_image():
    for ring in (F3, F5):
        form = standard_form(ring, 2)
        that = make_type_iv_triple(form)
        ex = enumerate_automorphisms(that)
        im = family_image(
            that, [ortho_to_triple_aut(a, form) for a in enumerate_O(form)])
        assert im.kind == "triple" and compare(ex, im).equal, ring.name


def test_unital_triple_orders_and_factorability():
    # (order, factorable) per carrier dim; the dim-2 carrier splits as a
    # product of two lines, so half its automorphisms move the unit line
    # and do not factor through a scalar times an algebra automorphism
    expected = {1: (2, 2), 2: (8, 4), 3: (16, 16)}
    for n in (1, 2, 3):
        form = standard_form(F5, n - 1)
        tiv = make_t_iv(form)
        alg = make_bilinear_form_algebra(form)
        ex = enumerate_automorphisms(tiv)
        factorable = 0
        for el in ex.elements:
            try:
                factor_triple_aut(alg, el)
            except NotFactorable:
                continue
            factorable += 1
        assert (ex.order, factorable) == expected[n], n


def test_untraced_pair_scans_both_sides():
    pt = pair_from_triple(make_t_iv(standard_form(F5, 0)).structure)
    assert pt.trace is None
    s = enumerate_automorphisms(pt)
    # candidate space is GL_1 x GL_1; graph constraint cuts it to 4
    assert (s.order, s.candidates) == (4, 16)


def _diagonal_algebra_without_unit():
    # F5 x F5 as the algebra e0 e0 = e0, e1 e1 = e1, all other products 0,
    # given without its unit: no unit entry to pin a column
    product = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    product[0][0][0] = product[1][1][1] = 1
    return JordanAlgebra(F5, 2, product, None)


@pytest.mark.parametrize("make,order,candidates", [
    (lambda: pair_from_triple(make_t_iv(standard_form(F5, 1)).structure),
     32, gl_order(F5, 2) ** 2),
    (_diagonal_algebra_without_unit, 2, gl_order(F5, 2))],
    ids=["untraced-pair", "unitless-algebra"])
def test_fast_engine_is_refused_where_no_kernel_serves(make, order,
                                                       candidates):
    structure = make()
    with pytest.raises(BadInput):
        enumerate_automorphisms(structure, engine="fast")
    auto = enumerate_automorphisms(structure)
    assert (auto.engine, auto.order, auto.candidates) == ("pure", order,
                                                          candidates)
    assert auto.verify_group_closed()


def test_import_leaves_the_fast_kernels_unloaded():
    # enumerate_automorphisms imports fastscan only where a kernel runs
    import jpaut
    path = os.path.dirname(os.path.dirname(jpaut.__file__))
    code = "import sys, jpaut; print('jpaut.fastscan' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.split() == ["False"]


@pytest.mark.parametrize("spec,order", [("VIV(2,F3[t])", 144),
                                        ("TIV(2,F3[t])", 8)])
def test_dual_number_scans(spec, order):
    # |GL_2(F3[t])| = |GL_2(F3)| * 3**4 = 3888 candidates
    found = enumerate_automorphisms(parse_system(spec))
    assert (found.engine, found.candidates, found.order) == ("pure", 3888,
                                                             order)


def test_tti_rectangle_equals_multiplier_image():
    tti = make_tti(1, 2, F3)
    ex = enumerate_automorphisms(tti)
    els = [tti_map(a, b)
           for a in enumerate_GO(standard_form(F3, 1))
           for b in enumerate_GO(standard_form(F3, 2))
           if tti_membership(a, b)]
    im = family_image(tti, els)
    assert ex.order == 8 and compare(ex, im).equal


def test_matrix_algebra_equals_twisted_image():
    mn = make_mn_plus(2, F3)
    ex = enumerate_automorphisms(mn)
    assert ex.candidates == 3 ** 12 and ex.order == 48
    im = family_image(mn, [t.as_matrix() for t in all_twisted_maps(F3, 2, 1)])
    assert im.kind == "algebra" and compare(ex, im).equal


def test_closure_of_nothing_is_the_identity():
    viv = make_type_iv_pair(standard_form(F5, 2))
    assert generate_closure(viv, []).order == 1


def test_closure_of_a_closed_family_is_itself():
    form = standard_form(F5, 2)
    viv = make_type_iv_pair(form)
    gens = [go_to_pair_aut(a, form) for a in enumerate_GO(form)]
    cl = generate_closure(viv, gens)
    assert cl.order == len(gens) == 32


@functools.lru_cache(maxsize=None)
def _square_closure():
    vhi22 = make_vhi(2, 2, F3)
    gens = ([hat_l(a, 2) for a in enumerate_GL(2, F3)]
            + [hat_r(b, 2) for b in enumerate_GL(2, F3)]
            + [transpose_twist(F3, 2)])
    return generate_closure(vhi22, gens)


def test_square_rectangle_closure_order():
    # |GL_2(F3)|^2 / 2 central classes, doubled by the transpose twist
    cl = _square_closure()
    assert cl.order == 2304 == 48 * 48 // 2 * 2
    assert cl.verify_group_closed()


def test_group_check_misses_no_dropped_element():
    # an evenly spaced sample of 16 elements passed all of these
    cl = _square_closure()
    for i in (0, 1, 2, 3, 5, 100, 1000, 2303):
        dropped = replace(cl, rows=np.delete(cl.rows, i, axis=0))
        assert dropped.elements == cl.elements[:i] + cl.elements[i + 1:]
        assert not dropped.verify_group_closed(), i


def test_group_check_rejects_an_added_non_member():
    cl = _square_closure()
    i4 = Matrix.identity(F3, 4)
    shear = Matrix(F3, 4, 4, ((1, 1, 0, 0),) + i4.entries[1:])
    for extra in (PairMap(shear, i4), PairMap(shear, shear.inverse())):
        grown = AutomorphismSet.from_elements(
            cl.system, cl.ring_name, cl.kind, cl.mode, cl.engine,
            cl.candidates, cl.elements + (extra,))
        assert grown.order == 2305
        assert not grown.verify_group_closed()


def _object_compare(system, els_a, els_b):
    """The CompareReport of two element lists, decided on the objects:
    sets of element_key, differences sorted, the first four of each."""
    ka = {element_key(el): el for el in els_a}
    kb = {element_key(el): el for el in els_b}
    only_a = sorted(ka.keys() - kb.keys())
    only_b = sorted(kb.keys() - ka.keys())
    return CompareReport(system, not only_a and not only_b, len(ka), len(kb),
                         len(only_a), len(only_b),
                         tuple(ka[k].to_jsonable() for k in only_a[:4]),
                         tuple(kb[k].to_jsonable() for k in only_b[:4]))


def _edited(aset, drop, extra, seed):
    """aset's elements without the indices in drop, plus extra, shuffled,
    as a set built from those objects."""
    els = [el for i, el in enumerate(aset.elements) if i not in drop]
    els += extra
    random.Random(seed).shuffle(els)
    return els, AutomorphismSet.from_elements(
        aset.system, aset.ring_name, aset.kind, "generated", "family",
        len(els), els)


def test_compare_on_rows_equals_the_object_comparison():
    cl = _square_closure()
    i4 = Matrix.identity(F3, 4)
    shear = Matrix(F3, 4, 4, ((1, 1, 0, 0),) + i4.entries[1:])
    extra = [PairMap(shear, i4), PairMap(shear, shear.inverse())]
    els, edited = _edited(cl, {0, 3, 5, 100, 1000, 2303}, extra, 1)
    assert compare(cl, edited) == _object_compare(cl.system, cl.elements, els)
    assert compare(edited, cl) == _object_compare(cl.system, els, cl.elements)
    rep = compare(cl, edited)
    assert (rep.only_a, rep.only_b, len(rep.sample_only_a)) == (6, 2, 4)
    assert compare(cl, cl) == _object_compare(cl.system, cl.elements,
                                              cl.elements)


def test_compare_over_a_product_ring_equals_the_object_comparison():
    # payload indices are numbered as each codec first meets them, so the
    # shuffled set numbers them differently from the scan
    ring = ProductRing(F3, F3)
    system = make_type_iv_triple(standard_form(ring, 2))
    ex = enumerate_automorphisms(system)
    assert ex.order == 64 and ex.engine == "pure"
    assert list(ex.elements) == sorted(ex.elements, key=element_key)
    shear = Matrix(ring, 2, 2, (((1, 1), (1, 0)), ((0, 0), (1, 1))))
    assert not is_triple_automorphism(system, shear)
    els, edited = _edited(ex, {1, 2, 40}, [shear], 2)
    assert edited.codec.index != ex.codec.index
    assert compare(ex, edited) == _object_compare(ex.system, ex.elements, els)
    assert compare(edited, ex) == _object_compare(ex.system, els, ex.elements)
    assert compare(ex, edited).only_b == 1


def test_group_check_rejects_singular_and_identity_free_sets():
    i2, zero = Matrix.identity(F3, 2), Matrix.zeros(F3, 2, 2)
    swap = Matrix.build(F3, [[0, 1], [1, 0]])

    def check(els):
        return AutomorphismSet.from_elements(
            "s", "F3", "triple", "generated", "family", len(els),
            els).verify_group_closed()

    assert check([i2, swap])
    assert not check([i2, zero])  # closed under products, not a group
    assert not check([swap])
    assert not check([])


def test_closure_over_a_product_ring_equals_the_exhaustive_set():
    ring = ProductRing(F3, F3)
    vhi = make_vhi(1, 2, ring)

    def lift(g, left):  # g in one factor, the identity in the other
        return Matrix(ring, 2, 2, tuple(
            tuple((x, int(i == j)) if left else (int(i == j), x)
                  for j, x in enumerate(row))
            for i, row in enumerate(g.entries)))
    gens = [hat_l(a, 2) for a in enumerate_GL(1, ring)]
    gens += [hat_r(lift(g, left), 1) for g in gl_generators(F3, 2)
             for left in (True, False)]
    ex = enumerate_automorphisms(vhi)
    cl = generate_closure(vhi, gens)
    assert ex.order == 48 * 48
    assert compare(ex, cl).equal
    assert ex.verify_group_closed()


def test_triple_closure_equals_the_exhaustive_set():
    form = standard_form(F5, 2)
    that = make_type_iv_triple(form)
    reflection, swap = (Matrix.build(F5, m)
                        for m in ([[1, 0], [0, 4]], [[0, 1], [1, 0]]))
    cl = generate_closure(that, [ortho_to_triple_aut(reflection, form),
                                 ortho_to_triple_aut(swap, form)])
    ex = enumerate_automorphisms(that)
    assert cl.order == 8 and compare(ex, cl).equal
    assert cl.verify_group_closed()


def test_closure_past_the_int64_bound_multiplies_exactly():
    # d * (p - 1)**2 passes 2**63, so int64 products of these entries wrap;
    # the closure must fall back to exact arithmetic
    p = 2 ** 31 - 1
    ring = PrimeField(p)
    form = standard_form(ring, 3)
    v = (4, 5, 19)
    c = 2 * pow(sum(x * x for x in v), -1, p)
    a = Matrix.build(ring, [[(int(i == j) - c * v[i] * v[j]) % p
                             for j in range(3)] for i in range(3)])
    assert max(sum(x * x for x in row) for row in a.entries) >= 2 ** 63
    assert a @ a == Matrix.identity(ring, 3)
    cl = generate_closure(make_type_iv_pair(form), [go_to_pair_aut(a, form)])
    assert cl.order == 2
    assert cl.verify_group_closed()


# -- packed row keys and the closure loop -------------------------------------

BIG_PRIME = 2 ** 32 + 15  # its square passes 2**63: one digit a word


def _random_rows(codec, rng, count):
    """count random index rows of codec and a quarter of them again; off
    F_p every payload of the ring is numbered first, in a shuffled order."""
    if not codec.residues:
        pool = list(codec.ring.payloads())
        random.Random(count).shuffle(pool)
        for x in pool:
            codec.index.setdefault(x, len(codec.index))
    high = codec.ring.p if codec.residues else len(codec.index)
    rows = rng.integers(0, high, size=(count, codec.width))
    return np.concatenate(
        [rows, rows[rng.integers(0, count, size=count // 4)]])


@pytest.mark.parametrize("ring, dim, words", [
    (F3, 3, 1), (F5, 3, 1), (F5, 4, 2), (PrimeField(BIG_PRIME), 2, 8),
    (ProductRing(F3, F3), 3, 1), (DualNumbers(F3), 3, 1)],
    ids=["F3", "F5", "F5-width-32", "big-prime", "F3xF3", "F3[t]"])
def test_packed_keys_follow_element_key_order(ring, dim, words):
    codec = oracle._Rows(PairMap.identity(ring, dim, dim))
    rows = _random_rows(codec, np.random.default_rng(dim), 2000)
    assert codec.words(rows).shape == (len(rows), words)
    got = codec.sorted_unique(rows)
    assert np.array_equal(got, column_sorted_unique(codec, rows))
    keys = [element_key(el) for el in codec.decode(got)]
    assert keys == sorted(set(element_key(el)
                              for el in codec.decode(rows)))
    # keys sort as the index rows do, and are equal exactly where they are
    order = np.lexsort(rows.T[::-1])
    assert np.array_equal(np.argsort(codec.key(rows), kind="stable"), order)
    by_index, keys = rows[order], codec.key(rows[order])
    assert np.array_equal(keys[1:] == keys[:-1],
                          (by_index[1:] == by_index[:-1]).all(axis=1))


@pytest.mark.parametrize("ring", [F3, ProductRing(F3, F3)], ids=str)
def test_times_of_an_empty_stack_is_empty(ring):
    # the F_p path reshaped each side with -1, which an empty stack cannot
    # infer; the object path composed nothing and encoded nothing
    codec = oracle._codec(make_vhi(1, 2, ring).structure)
    assert codec.fast == isinstance(ring, PrimeField)
    a, b = some_gl(ring, 2, 2)
    maps = [codec.identity, hat_r(a, 1), hat_r(b, 1), hat_r(a, 1)]
    rows, gens = codec.encode(maps[:2]), codec.encode(maps[2:])
    for x, g in ((rows[:0], gens), (rows[:0], gens[:1]), (rows, gens[:0])):
        assert codec.times(x, g).shape == (0, 8)
    assert codec.decode(codec.times(rows, gens)) == [
        x.compose(g) for x in maps[:2] for g in maps[2:]]


def _dual_pair(a):
    """(a, a^-T): a pair map whose group is a's."""
    return PairMap(a, a.transpose().inverse())


@pytest.mark.parametrize("ring, dim, seed", [
    (F3, 2, 0), (F3, 3, 1), (F5, 2, 2), (F5, 2, 3),
    (ProductRing(F3, F3), 2, 4), (ProductRing(F3, F3), 2, 5)],
    ids=["F3-2", "F3-3", "F5-2a", "F5-2b", "F3xF3-a", "F3xF3-b"])
def test_closure_equals_the_byte_key_loop_on_random_generators(ring, dim,
                                                                seed):
    codec = oracle._Rows(PairMap.identity(ring, dim, dim))
    count = random.Random(seed).randint(1, 3)
    gens = codec.encode([_dual_pair(a)
                         for a in some_gl(ring, dim, count, seed)])
    want = column_sorted_unique(codec, byte_key_closure(codec, gens, 12000))
    rows, keys = oracle._closure(codec, gens, 12000)
    assert np.array_equal(codec.sorted_unique(rows), want)
    assert len(rows) == len(want)
    assert np.array_equal(keys, np.sort(codec.key(want)))
    with pytest.raises(BudgetExceeded):
        oracle._closure(codec, gens, len(want) - 1)
    with pytest.raises(BudgetExceeded):
        byte_key_closure(codec, gens, len(want) - 1)


def _lift(ring, g, left):
    """g over F3 in one factor of F3 x F3, the identity in the other."""
    return Matrix(ring, g.rows, g.cols, tuple(
        tuple((x, int(i == j)) if left else (int(i == j), x)
              for j, x in enumerate(row))
        for i, row in enumerate(g.entries)))


def _translations(ring, m, n, seed):
    """Random left and right translations of VhI(m, n, ring), at least one
    of each; over F3 x F3 each acts in one factor."""
    rng = random.Random(seed)
    base = F3 if isinstance(ring, ProductRing) else ring
    out = []
    for k in range(rng.randint(2, 4)):
        size = (m, n)[k % 2]
        (g,) = some_gl(base, size, 1, seed=rng.randrange(10 ** 6))
        if base is not ring:
            g = _lift(ring, g, rng.random() < 0.5)
        out.append(hat_l(g, n) if k % 2 == 0 else hat_r(g, m))
    return out


@pytest.mark.parametrize("ring, m, n, seed", [
    (F3, 1, 2, 6), (F3, 1, 3, 5), (F5, 1, 2, 5),
    (ProductRing(F3, F3), 1, 2, 5), (F5, 2, 2, 0), (F5, 2, 2, 9)],
    ids=["F3-1x2", "F3-1x3", "F5-1x2", "F3xF3-1x2", "F5-2x2a", "F5-2x2b"])
def test_closure_and_group_check_agree_with_the_byte_key_loop(ring, m, n,
                                                             seed):
    # at VhI(2,2,F5) a map is a 4 x 4 pair over F5: 32 columns, two words
    system = make_vhi(m, n, ring)
    gens = _translations(ring, m, n, seed)
    cl = generate_closure(system, gens)
    codec = oracle._codec(system.structure)
    assert len(codec.packing) == (2 if (m, n) == (2, 2) else 1)
    want = codec.decode(byte_key_closure(codec, codec.encode(gens),
                                         DEFAULT_BUDGET))
    assert [element_key(el) for el in cl.elements] == sorted(
        element_key(el) for el in want)
    assert cl.order > 2  # so no set of all but one element is a group
    at = random.Random(seed).randrange(1, cl.order)
    dropped = replace(cl, rows=np.delete(cl.rows, at, axis=0))
    i = Matrix.identity(ring, m * n)
    shear = Matrix(ring, m * n, m * n, ((i.entries[0][0], ring.one_p)
                                        + i.entries[0][2:],)
                   + i.entries[1:])
    extra = PairMap(shear, i)  # no automorphism: its sides do not match
    assert extra not in cl.elements
    grown = AutomorphismSet.from_elements(
        cl.system, cl.ring_name, cl.kind, cl.mode, cl.engine,
        cl.candidates, cl.elements + (extra,))
    for aset, closed in ((cl, True), (dropped, False), (grown, False)):
        assert aset.verify_group_closed() == byte_key_group_closed(aset) \
            == closed


def _signed_permutations(ring):
    """The eight 2 x 2 signed permutation matrices."""
    return [Matrix.build(ring, rows) for s in (1, -1) for t in (1, -1)
            for rows in ([[s, 0], [0, t]], [[0, s], [t, 0]])]


def test_closures_and_families_over_q_are_keyed_one_index_a_word():
    # Q has no size, so every payload index is a word of its own
    q = Rationals()
    swap, flip = (Matrix.build(q, r) for r in ([[0, 1], [1, 0]],
                                               [[-1, 0], [0, 1]]))
    vhi12 = make_vhi(1, 2, q)
    cl = generate_closure(vhi12, [hat_r(swap, 1), hat_r(flip, 1)])
    assert cl.order == 8 and cl.verify_group_closed()
    family = [hat_r(b, 1) for b in _signed_permutations(q)]
    assert compare(cl, family_image(vhi12, family + family)).equal
    made = AutomorphismSet.from_elements(
        cl.system, cl.ring_name, cl.kind, cl.mode, cl.engine, cl.candidates,
        reversed(family))
    assert made.elements == cl.elements
    assert [element_key(el) for el in cl.elements] == sorted(
        element_key(el) for el in family)
    vhi22 = make_vhi(2, 2, q)
    gens = [transpose_twist(q, 2), hat_l(swap, 2), hat_r(flip, 2)]
    square = generate_closure(vhi22, gens)
    codec = oracle._codec(vhi22.structure)
    assert len(codec.packing) == codec.width == 32
    want = codec.decode(byte_key_closure(codec, codec.encode(gens),
                                         DEFAULT_BUDGET))
    assert square.order == len(want) == 64 and square.verify_group_closed()
    assert [element_key(el) for el in square.elements] == sorted(
        element_key(el) for el in want)


def test_closure_rejects_non_automorphism_generators():
    viv = make_type_iv_pair(standard_form(F3, 2))
    shear = Matrix.build(F3, [[1, 1], [0, 1]])
    with pytest.raises(BadInput):
        generate_closure(viv, [PairMap(shear, shear)])


def test_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms(make_vhi(2, 2, F3), budget=1000)
    # a budget equal to the candidate count is enough
    s = enumerate_automorphisms(make_type_iv_pair(standard_form(F3, 1)),
                                budget=2)
    assert s.order == 2
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms(make_type_iv_pair(standard_form(F3, 1)),
                                budget=1)


def test_infinite_rings_are_refused():
    with pytest.raises(NonEnumerableRing):
        enumerate_automorphisms(make_vhi(1, 1, Rationals()))


def test_compare_refuses_mixed_systems():
    a = enumerate_automorphisms(make_type_iv_pair(standard_form(F3, 1)))
    b = enumerate_automorphisms(make_vhi(1, 2, F3))
    with pytest.raises(MixedSystems):
        compare(a, b)


def test_jobs_do_not_change_the_result():
    tiv3 = make_t_iv(standard_form(F5, 2))
    r1 = enumerate_automorphisms(tiv3, jobs=1)
    r4 = enumerate_automorphisms(tiv3, jobs=4)
    assert r1.elements == r4.elements
    assert r1.to_jsonable(True) == r4.to_jsonable(True)


def test_to_jsonable_shape():
    s = enumerate_automorphisms(make_type_iv_pair(standard_form(F3, 1)))
    blob = s.to_jsonable(True)
    assert sorted(blob) == ["candidates", "elements", "engine", "kind",
                            "mode", "order", "ring", "system"]
    assert blob["elements"] == [{"plus": [["1"]], "minus": [["1"]]},
                                {"plus": [["2"]], "minus": [["2"]]}]
