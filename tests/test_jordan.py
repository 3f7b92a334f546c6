"""Jordan structures: axiom checks, operators, constructions between kinds."""
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jpaut import (PrimeField, ProductRing, Rationals, Matrix, PairMap,
                   JordanAlgebra, JordanPair, JordanTriple, check_axioms,
                   d_operator, q_operator, is_pair_automorphism,
                   is_triple_automorphism, dual_inverse, triple_from_algebra,
                   pair_from_triple, scalar_extend, standard_form,
                   make_type_iv_pair, make_type_iv_triple, make_t_iv,
                   make_vhi, make_mn_plus, make_bad_pair,
                   make_bilinear_form_algebra, parse_system,
                   enumerate_automorphisms, make_tti)
from jpaut import jordan
from jpaut.errors import (BadInput, BudgetExceeded, DegenerateTrace,
                          ShapeMismatch)
from jpaut.jordan import (AxiomReport, _axiom_report, _carries,
                          _check_pair_tensors, _np_jordan_failures,
                          _np_pair_failures, algebra_map_respects)
from test_acceptance import _axiom_sweep_systems

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F33 = ProductRing(F3, F3)
Q = Rationals()


def test_check_axioms_pair_report():
    rep = check_axioms(make_vhi(1, 2, F3))
    assert rep.ok and rep.kind == "pair"
    # two signs, (dplus * dminus)^2 basis tuples each: 2 * 16 = 32
    assert rep.checked == 32
    assert rep.failures == ()


def test_check_axioms_triple_and_algebra():
    rt = check_axioms(make_type_iv_triple(standard_form(F3, 2)))
    assert rt.ok and rt.kind == "triple" and rt.checked == 2 * 2 ** 4
    ra = check_axioms(make_mn_plus(2, F3))
    assert ra.ok and ra.kind == "algebra"


def test_bad_pair_fails_outer_symmetry():
    rep = check_axioms(make_bad_pair(F3))
    assert not rep.ok
    assert rep.failures[0]["identity"] == "outer-symmetry"
    assert rep.failures[0]["sigma"] == 1
    assert rep.failures[0]["at"] == (0, 1, 1)


def test_check_axioms_refuses_large_carriers():
    # dim 9 per side is past the exhaustive sweep cap; no sampling fallback
    with pytest.raises(BudgetExceeded):
        check_axioms(make_vhi(3, 3, F3))


def test_d_and_q_operators_dim_one_form_pair():
    # rank-1 form <1> with b(x, y) = xy: {x, y, z} = xyz, so D(1, 1) = 1
    pair = make_type_iv_pair(standard_form(F3, 1))
    one = (F3.one,)
    d = d_operator(pair.structure, 1, one, one)
    assert d == Matrix.build(F3, [[1]])
    # Q_x y = (1/2) {x, y, x}, and 1/2 = 2 in F3
    q = q_operator(pair.structure, 1, one, one)
    assert q == (2,)


def test_pair_map_compose_and_inverse():
    pair = make_vhi(1, 2, F3)
    a = Matrix.build(F3, [[2]])
    b = Matrix.build(F3, [[1, 1], [0, 1]])
    from jpaut import hat_generators
    pm = hat_generators(a, b)
    assert is_pair_automorphism(pair, pm)
    ident = pm.compose(pm.inverse())
    assert ident.plus == Matrix.identity(F3, 2)
    assert ident.minus == Matrix.identity(F3, 2)


def test_dual_inverse_preserves_trace_pairing():
    pair = make_type_iv_pair(standard_form(F3, 2))
    g = pair.structure.trace
    from jpaut import go_to_pair_aut, enumerate_GO
    for a in enumerate_GO(standard_form(F3, 2)):
        pm = go_to_pair_aut(a, standard_form(F3, 2))
        assert pm.minus == dual_inverse(pair.structure, pm.plus)
        # phi_plus^T G phi_minus == G
        assert pm.plus.transpose() @ g @ pm.minus == g


def test_dual_inverse_requires_a_trace():
    pt = pair_from_triple(make_t_iv(standard_form(F5, 0)).structure)
    assert pt.trace is None
    with pytest.raises(DegenerateTrace):
        dual_inverse(pt, Matrix.identity(F5, 1))


def test_triple_from_algebra_unit_acts_as_identity():
    import numpy as np
    alg = make_mn_plus(2, F3)
    t = triple_from_algebra(alg.structure)
    assert check_axioms(t).ok
    # {1, 1, z} = (1z)1 + (z1)1 - (z1)1 = z for every z
    tensor = np.array(t.tensor)
    unit = np.array(alg.structure.unit)
    res = np.einsum('xabk,a,b->xk', tensor, unit, unit) % 3
    assert np.array_equal(res, np.eye(4, dtype=res.dtype))


def test_pair_from_triple_doubles_the_carrier():
    t = make_type_iv_triple(standard_form(F5, 2)).structure
    p = pair_from_triple(t)
    assert (p.dplus, p.dminus) == (t.dim, t.dim)
    assert p.t_plus == t.tensor and p.t_minus == t.tensor
    assert p.trace == t.trace  # the registered trace rides along


def test_scalar_extension_to_split_ring():
    # V over R x S splits: automorphisms multiply componentwise
    viv = make_type_iv_pair(standard_form(F3, 1))
    ext = scalar_extend(viv.structure, F33)
    assert check_axioms(ext).ok
    s = enumerate_automorphisms(ext)
    assert s.order == 4  # 2 per component


def test_is_pair_automorphism_rejects_non_similitudes():
    viv = make_type_iv_pair(standard_form(F3, 2))
    shear = Matrix.build(F3, [[1, 1], [0, 1]])
    assert not is_pair_automorphism(viv, PairMap(shear, shear))


def test_is_triple_automorphism_shape_guard():
    that = make_type_iv_triple(standard_form(F3, 2))
    with pytest.raises(ShapeMismatch):
        is_triple_automorphism(that, Matrix.identity(F3, 3))


def test_algebra_predicate_checks_both_orders_of_a_product():
    # e1 e0 = e0 and every other basis product is 0; diag(1, 2) respects
    # every product e_a e_b with a <= b but sends e1 e0 = e0 to e0, while
    # (2 e1) e0 = 2 e0
    for ring in (Q, F5):
        z, o = ring.zero_p, ring.one_p
        alg = JordanAlgebra(ring, 2, (((z, z), (z, z)), ((o, z), (z, z))),
                            None, name="noncommutative")
        phi = Matrix.build(ring, [[1, 0], [0, 2]])
        assert not algebra_map_respects(alg, phi), ring.name


def _nested(arr):
    return tuple(_nested(x) for x in arr) if isinstance(arr, list) else arr


def _random_invertible(rng, ring, d):
    while True:
        m = Matrix.build(ring, rng.integers(0, ring.p, size=(d, d)).tolist())
        if m.is_invertible():
            return m


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 2 ** 31 - 1]),
       arity=st.sampled_from([2, 3]),
       dims=st.lists(st.integers(1, 3), min_size=4, max_size=4),
       relation=st.sampled_from(["carried", "perturbed", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_carries_branches_agree_on_prime_fields(p, arity, dims, relation,
                                                 seed):
    # dst is src carried through independent invertible maps per slot, the
    # same with one entry changed, or unrelated; the numpy and pure
    # branches must agree with each other and with the construction
    import numpy as np
    rng = np.random.default_rng(seed)
    ring = PrimeField(p)
    dims = dims[:arity] + dims[3:]  # input slots, then the output
    src = rng.integers(0, p, size=dims)
    maps = [_random_invertible(rng, ring, d) for d in dims]
    if relation == "random":
        dst = rng.integers(0, p, size=dims)
    else:
        # dst(e_i, e_j, ..) = out(src(in_0^-1 e_i, in_1^-1 e_j, ..)), with
        # Python ints so nothing overflows at the largest prime
        dst = np.einsum("xy,...y->...x", np.array(maps[-1].entries,
                                                   dtype=object),
                        src.astype(object)) % p
        for axis, m in enumerate(maps[:-1]):
            inv = np.array(m.inverse().entries, dtype=object)
            dst = np.moveaxis(np.tensordot(inv.T, dst, axes=(1, axis)), 0,
                              axis) % p
        if relation == "perturbed":
            at = tuple(int(rng.integers(0, n)) for n in dims)
            dst[at] = (dst[at] + 1) % p
    src, dst = _nested(src.tolist()), _nested(dst.tolist())
    got = [_carries(ring, src, dst, maps[-1], maps[:-1], vectorize=v)
           for v in (True, False)]
    assert got[0] == got[1]
    if relation != "random":
        assert got[0] == (relation == "carried")


@pytest.mark.parametrize("p", [3, 19483, 1000003])
@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("fill", ["p-1", "random"])
def test_carries_defers_reduction_exactly(p, arity, fill):
    # residues are reduced mod p only where the entry bound demands it; at
    # p = 1000003 one axis step fits int64 and three do not, so the input
    # side of a three-slot tensor is reduced between its axes.  dst is
    # random and src is solved for through the invertible output map, so
    # the in-maps, all p - 1 or random, need not be invertible.
    import numpy as np
    rng = np.random.default_rng(p + arity)
    ring, d = PrimeField(p), 3
    if fill == "p-1":
        ins = [np.full((d, d), p - 1, dtype=object)] * arity
    else:
        ins = [rng.integers(0, p, size=(d, d)).astype(object)
               for _ in range(arity)]
    out = _random_invertible(rng, ring, d)
    dst = rng.integers(0, p, size=(d,) * (arity + 1)).astype(object)
    rhs = dst
    for axis, m in enumerate(ins):
        rhs = np.moveaxis(np.tensordot(m.T, rhs, axes=(1, axis)), 0,
                          axis) % p
    src = rhs.dot(np.array(out.inverse().entries, dtype=object).T) % p
    perturbed = src.copy()
    perturbed[(0,) * (arity + 1)] = (perturbed[(0,) * (arity + 1)] + 1) % p
    in_maps = [Matrix.build(ring, m.tolist()) for m in ins]
    for tensor, carried in ((src, True), (perturbed, False)):
        got = [_carries(ring, _nested(tensor.tolist()),
                        _nested(dst.tolist()), out, in_maps, vectorize=v)
               for v in (True, False)]
        assert got == [carried, carried]
        stacks = [np.array(m.entries, dtype=np.int64)[None]
                  for m in in_maps + [out]]
        assert _carries(ring, tensor.astype(np.int64), dst.astype(np.int64),
                        stacks[-1], stacks[:-1]).tolist() == [carried]


def test_prime_field_payloads_must_be_residues():
    # 4 and 1 are equal mod 3, yet the checks compare payloads; a triple
    # holding both used to build and fail outer symmetry at (0, 0, 1)
    zv = (0, 0)
    tensor = [[[zv, zv], [zv, zv]], [[zv, zv], [zv, zv]]]
    tensor[0][0][1], tensor[1][0][0] = (1, 0), (4, 0)
    with pytest.raises(BadInput):
        JordanTriple(F3, 2, _nested(tensor))
    tensor[1][0][0] = (1, 0)
    report = check_axioms(JordanTriple(F3, 2, _nested(tensor)))
    assert "outer-symmetry" not in {f["identity"] for f in report.failures}
    zero = ((((0,),),),)
    with pytest.raises(BadInput):
        JordanPair(F3, 1, 1, zero, ((((-1,),),),))
    prod = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    for unit in ((3, 0), (1.0, 0), (Fraction(1), 0), (True, 0)):
        with pytest.raises(BadInput):
            JordanAlgebra(F3, 2, prod, unit)
    with pytest.raises(BadInput):
        JordanAlgebra(F3, 2, (((0, 0), (0, 5)), ((0, 0), (0, 0))), None)


def test_constructors_reject_wrong_shapes():
    # leaf vectors of length 3 in a dimension-2 triple used to build and
    # pass check_axioms; ragged or scalar rows used to fail deep in numpy
    zv = (0, 0)
    long_leaves = ((((0, 0, 0),) * 2,) * 2,) * 2
    ragged = (((zv, zv), (zv, zv)), ((zv, zv), (zv,)))
    scalar_row = (((zv, zv), (zv, zv)), ((zv, zv), 0))
    for tensor in (long_leaves, ragged, scalar_row):
        with pytest.raises(ShapeMismatch):
            JordanTriple(F3, 2, tensor)
    good = (((zv, zv), (zv, zv)), ((zv, zv), (zv, zv)))
    with pytest.raises(ShapeMismatch):
        JordanTriple(F3, 2, good, Matrix.identity(F3, 3))
    with pytest.raises(ShapeMismatch):
        JordanPair(F3, 2, 1, good, good)
    with pytest.raises(ShapeMismatch):
        JordanAlgebra(F3, 2, ((zv, zv), (zv, zv)), (1, 0, 0))
    JordanTriple(F3, 2, good, Matrix.identity(F3, 2))


def _lists(nested):
    return [_lists(x) for x in nested] if isinstance(nested, tuple) else nested


def test_list_built_structures_are_frozen():
    # the tensor used to stay a list: mutating it after check_axioms left
    # the cached int64 image, and so the report, describing the old tensor
    tensor = make_tti(1, 2, F3).structure.tensor
    source = _lists(tensor)
    built = JordanTriple(F3, 2, source)
    assert check_axioms(built).ok
    source[0][1][0][0] = (source[0][1][0][0] + 1) % 3
    assert built.tensor == tensor and _pure(built).ok
    assert check_axioms(built) == _pure(built)
    assert built == JordanTriple(F3, 2, tensor)
    assert hash(built) == hash(JordanTriple(F3, 2, tensor))
    alg = make_mn_plus(2, F3).structure
    unit = list(alg.unit)
    listed = JordanAlgebra(F3, 4, _lists(alg.product), unit, name=alg.name)
    unit[0] = 0
    assert listed == alg and hash(listed) == hash(alg)
    assert check_axioms(listed).ok and _pure(listed).ok


def test_each_structure_checks_its_axioms_once(monkeypatch):
    calls = []
    real = jordan._axiom_report

    def counted(structure, vectorize):
        calls.append(structure)
        return real(structure, vectorize)
    monkeypatch.setattr(jordan, "_axiom_report", counted)
    pair = make_vhi(1, 2, F3)
    for _ in range(3):
        assert check_axioms(pair) is check_axioms(pair.structure)
    assert calls == [pair.structure]


# -- the vectorized checker against the pure sweeps --------------------------


def _pure(structure):
    return _axiom_report(structure, vectorize=False)


def _numpy_failures(structure):
    """What the numpy path reports on its own; None where it declines."""
    if isinstance(structure, JordanAlgebra):
        return _np_jordan_failures(structure)
    return _np_pair_failures(structure)


def test_vectorized_reports_equal_the_pure_sweeps_on_the_axiom_grid():
    systems = [parse_system(t).structure for t in _axiom_sweep_systems()]
    systems.append(make_bad_pair(F3).structure)
    declined = [s.name for s in systems if _numpy_failures(s) is None]
    assert declined == []  # every grid point runs the numpy path
    mismatches = [s.name for s in systems if check_axioms(s) != _pure(s)]
    assert mismatches == []


# catalog systems with every carrier of dimension <= 4, and zero pairs with
# unequal carrier dimensions, as (dplus, dminus)
_PERTURB_BASES = ("VIV(2)", "VIV(4)", "VhI(1,1)", "VhI(1,2)", "VtI(1,2)",
                  "ThatIV(3)", "TIV(1)", "TIV(4)", "TtI(1,3)", "TtI(2,2)",
                  "ThI(2)", "Jbilin(1)", "Jbilin(3)", "Jbilin(4)",
                  "Mplus(1)", "Mplus(2)", (1, 2), (2, 3), (3, 1), (4, 2))


@functools.lru_cache(maxsize=None)
def _base_structure(base, ring):
    if isinstance(base, tuple):
        dp, dm = base
        zero = ring.zero_p

        def zeros(ds, do):
            return tuple(tuple(tuple((zero,) * ds for _ in range(ds))
                               for _ in range(do)) for _ in range(ds))
        return JordanPair(ring, dp, dm, zeros(dp, dm), zeros(dm, dp), None,
                          name=f"Zero({dp},{dm},{ring.name})")
    return parse_system(f"{base[:-1]},{ring.name})").structure


def _thaw(tensor):
    if isinstance(tensor, tuple):
        return [_thaw(x) for x in tensor]
    return tensor


def _freeze(tensor):
    if isinstance(tensor, list):
        return tuple(_freeze(x) for x in tensor)
    return tensor


def _shape(tensor):
    shape = []
    while isinstance(tensor, tuple):
        shape.append(len(tensor))
        tensor = tensor[0]
    return shape


def _edit(tensor, index, value, mirror):
    """Set one structure constant; with mirror also its outer-symmetric or
    commuted partner, so the sweep gets past the symmetry checks."""
    out = _thaw(tensor)
    pos = []
    for size in _shape(tensor):
        pos.append(index % size)
        index //= size
    targets = [pos]
    if mirror:
        swapped = list(pos)
        last = 2 if len(pos) == 4 else 1
        swapped[0], swapped[last] = pos[last], pos[0]
        targets.append(swapped)
    for at in targets:
        node = out
        for i in at[:-1]:
            node = node[i]
        node[at[-1]] = value
    return _freeze(out)


def _perturb(structure, edits, mirror, unit_choice):
    ring = structure.ring
    kind = type(structure)
    if kind is JordanPair:
        tensors = [structure.t_plus, structure.t_minus]
    elif kind is JordanTriple:
        tensors = [structure.tensor]
    else:
        tensors = [structure.product]
    for which, index, num, den in edits:
        value = (Fraction(num, den) if ring == Q
                 else ring.from_int(num).payload)
        which %= len(tensors)
        tensors[which] = _edit(tensors[which], index, value, mirror)
    if kind is JordanPair:
        return JordanPair(ring, structure.dplus, structure.dminus,
                          tensors[0], tensors[1], None, name="perturbed")
    if kind is JordanTriple:
        return JordanTriple(ring, structure.dim, tensors[0], None,
                            name="perturbed")
    d = structure.dim
    unit = {"keep": structure.unit, "none": None,
            "last": tuple(ring.one_p if i == d - 1 else ring.zero_p
                          for i in range(d))}[unit_choice]
    return JordanAlgebra(ring, d, tensors[0], unit, name="perturbed")


_edits = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 10 ** 6),
                            st.integers(-3, 3), st.integers(1, 3)),
                  max_size=14)


@pytest.mark.parametrize("base", _PERTURB_BASES, ids=str)
@settings(max_examples=12, deadline=None)
@given(ring=st.sampled_from([F3, F5, F7, Q]), edits=_edits,
       mirror=st.booleans(), unit_choice=st.sampled_from(["keep", "none",
                                                           "last"]))
def test_vectorized_reports_equal_pure_on_perturbed_tensors(
        base, ring, edits, mirror, unit_choice):
    structure = _perturb(_base_structure(base, ring), edits, mirror,
                         unit_choice)
    assert _numpy_failures(structure) is not None
    assert check_axioms(structure) == _pure(structure)


def _broken_everywhere(structure, mirror, seed=11):
    rng = random.Random(seed)
    edits = [(rng.randrange(2), rng.randrange(10 ** 6), rng.randrange(1, 3),
              1) for _ in range(40)]
    return _perturb(structure, edits, mirror, "none")


@pytest.mark.parametrize("base,mirror,identity", [
    ("VIV(3)", False, "outer-symmetry"),
    ("VIV(3)", True, "D-commutator"),
    ("ThI(2)", True, "D-commutator"),
    ("Mplus(2)", True, "jordan-linearized"),
])
def test_vectorized_reports_stop_at_nine_failures_like_the_pure_sweeps(
        base, mirror, identity):
    for ring in (F5, Q):
        broken = _broken_everywhere(_base_structure(base, ring), mirror)
        report = check_axioms(broken)
        assert report == _pure(broken)
        assert len(report.failures) == 9
        assert {f["identity"] for f in report.failures} == {identity}


# -- one sweep where both signs carry the same data -------------------------


def _signed(structure):
    """(kind, tensors, dims) keyed by sigma, as _axiom_report reads them."""
    if isinstance(structure, JordanPair):
        return ("pair", {1: structure.t_plus, -1: structure.t_minus},
                {1: structure.dplus, -1: structure.dminus})
    d = structure.dim
    return "triple", {1: structure.tensor, -1: structure.tensor}, {1: d, -1: d}


def _two_sign_report(structure):
    """The report of the literal sweep over both signs."""
    kind, tensors, dims = _signed(structure)
    failures = _check_pair_tensors(structure.ring, tensors, dims, (1, -1))
    return AxiomReport(not failures, kind, 2 * (dims[1] * dims[-1]) ** 2,
                       tuple(failures))


def _edited_alike(base, ring, edits, mirror):
    """base with the same edits to both signed tensors: a triple's tensor,
    or a pair's t_plus, copied to t_minus."""
    structure = _base_structure(base, ring)
    if isinstance(structure, JordanPair):
        triple = JordanTriple(ring, structure.dplus, structure.t_plus)
        return pair_from_triple(_perturb(triple, edits, mirror, "none"))
    return _perturb(structure, edits, mirror, "none")


_SIX_EDITS = [(0, 794772, 2, 1), (0, 42450, 2, 1), (0, 536110, 2, 1),
              (0, 424604, 2, 1), (0, 499748, 2, 1), (0, 611720, 1, 1)]


# (base, edits, mirror, identity, failures at sigma = +1): under five the
# relabelled copy is whole, from five to eight the cap cuts it, and at nine
# the two-sign sweep returns before sigma = -1
@pytest.mark.parametrize("base,edits,mirror,identity,plus", [
    ("TIV(2)", _SIX_EDITS, False, "outer-symmetry", 4),
    ("ThatIV(3)", _SIX_EDITS, False, "outer-symmetry", 6),
    ("ThatIV(3)", [(0, 643002, 2, 1), (0, 280110, 1, 1), (0, 195187, 1, 1),
                   (0, 354760, 2, 1), (0, 941933, 1, 1), (0, 350249, 1, 1)],
     False, "outer-symmetry", 9),
    ((2, 2), [(0, 2, 1, 1)], True, "D-commutator", 1),
    ("TIV(2)", [(0, 318031, 1, 1), (0, 756250, 2, 1)], False,
     "D-commutator", 8),
    ("TIV(2)", _SIX_EDITS, True, "D-commutator", 9),
], ids=["outer-4", "outer-6", "outer-9", "commutator-1", "commutator-8",
        "commutator-9"])
def test_one_sign_rule_equals_the_two_sign_sweep_on_edits(
        base, edits, mirror, identity, plus):
    for ring in (F5, Q):
        edited = _edited_alike(base, ring, edits, mirror)
        report = check_axioms(edited)
        assert report == _two_sign_report(edited)
        assert {f["identity"] for f in report.failures} == {identity}
        assert sum(f["sigma"] == 1 for f in report.failures) == plus


def test_one_sign_rule_equals_the_two_sign_sweep_on_the_axiom_grid():
    systems = [parse_system(t).structure for t in _axiom_sweep_systems()]
    equal = [s for s in systems if not isinstance(s, JordanAlgebra)
             for _, tensors, dims in [_signed(s)]
             if dims[1] == dims[-1] <= 4 and tensors[1] == tensors[-1]]
    assert len(equal) == 72
    mismatches = [s.name for s in equal
                  if check_axioms(s) != _two_sign_report(s)]
    assert mismatches == []


def test_one_sign_rule_fires_only_on_equal_data(monkeypatch):
    seen = []
    for name in ("_np_pair_failures", "_check_pair_tensors"):
        def spy(*args, real=getattr(jordan, name), name=name):
            seen.append((name, args[-1]))
            return real(*args)
        monkeypatch.setattr(jordan, name, spy)
    vhi = make_vhi(1, 2, F3).structure
    edited = _perturb(vhi, [(1, 9, 2, 1)], False, "none")
    assert edited.t_plus != edited.t_minus
    for structure, sigmas in ((parse_system("ThI(2,F3)").structure, (1,)),
                              (vhi, (1,)),
                              (make_bad_pair(F3).structure, (1, -1)),
                              (edited, (1, -1))):
        seen.clear()
        for vectorize in (True, False):
            _axiom_report(structure, vectorize)
        assert seen == [("_np_pair_failures", sigmas),
                        ("_check_pair_tensors", sigmas)], structure.name


def test_unequal_carriers_report_like_the_pure_sweep():
    # t_plus is zero, so every D^+ vanishes and sigma = +1 holds; t_minus
    # {f_0, e_0, f_0} = f_0 makes D^-(D^-(f_0, e_0) f_0, e_0) nonzero
    for ring in (F3, F5, Q):
        pair = _perturb(_base_structure((2, 3), ring),
                        [(1, 0, 1, 1), (1, 47, 2, 1)], True, "none")
        assert (pair.dplus, pair.dminus) == (2, 3)
        assert _np_pair_failures(pair) is not None
        report = check_axioms(pair)
        assert report == _pure(pair) and not report.ok
        assert {(f["identity"], f["sigma"]) for f in report.failures} == {
            ("D-commutator", -1)}


# -- int64 bounds -------------------------------------------------------------


def _dense_copy(alg, seed=5):
    """The algebra transported by a dense invertible matrix g: the product
    (g a)(g b) pulled back by g^-1, with the unit pulled back likewise."""
    ring, d = alg.ring, alg.dim
    rng = random.Random(seed)
    while True:
        g = Matrix(ring, d, d, tuple(tuple(rng.randrange(1, ring.p)
                                           for _ in range(d))
                                     for _ in range(d)))
        if g.is_invertible():
            break
    g_inv = g.inverse()
    cols = [tuple(g.entries[r][c] for r in range(d)) for c in range(d)]
    prod = tuple(tuple(g_inv.apply(alg.multiply(cols[a], cols[b]))
                       for b in range(d)) for a in range(d))
    return JordanAlgebra(ring, d, prod, g_inv.apply(alg.unit),
                         name=f"dense {alg.name}")


@pytest.mark.parametrize("p", [10000019, 1000000007])
def test_dense_copies_at_large_primes_pass_on_the_numpy_path(p):
    ring = PrimeField(p)
    for alg in (make_mn_plus(2, ring).structure,
                make_bilinear_form_algebra(standard_form(ring, 2)).structure):
        dense = _dense_copy(alg)
        entries = [c for row in dense.product for vec in row for c in vec]
        # unreduced products of three constants would leave int64
        assert max(entries) ** 3 >= 2 ** 63
        assert _np_jordan_failures(dense) == []
        assert check_axioms(dense) == _pure(dense)
        assert check_axioms(dense).ok


def test_primes_past_the_int64_bound_take_the_pure_sweep():
    ring = PrimeField(2 ** 31 - 1)  # 4 * (p - 1)**2 >= 2**63 at dim 4
    dense = _dense_copy(make_mn_plus(2, ring).structure)
    assert _np_jordan_failures(dense) is None
    assert check_axioms(dense) == _pure(dense)
    assert check_axioms(dense).ok


def _scaled(structure, factor):
    def scale(vec):
        return tuple(factor * c for c in vec)
    if isinstance(structure, JordanTriple):
        tensor = tuple(tuple(tuple(scale(v) for v in row2) for row2 in row)
                       for row in structure.tensor)
        return JordanTriple(Q, structure.dim, tensor, None, name="scaled")
    prod = tuple(tuple(scale(v) for v in row) for row in structure.product)
    return JordanAlgebra(Q, structure.dim, prod, None, name="scaled")


def test_q_numerators_near_2_to_the_40_take_the_pure_sweep():
    big = Fraction(2 ** 40 + 1, 3)
    # the identities are homogeneous, so scaled systems stay Jordan
    triple = _scaled(make_type_iv_triple(standard_form(Q, 2)).structure, big)
    alg = _scaled(make_mn_plus(2, Q).structure, big)
    broken = _perturb(triple, [(0, 5, 1, 1)], True, "none")
    for structure in (triple, alg, broken):
        assert _numpy_failures(structure) is None
        assert check_axioms(structure) == _pure(structure)
    assert check_axioms(triple).ok and check_axioms(alg).ok
    assert not check_axioms(broken).ok
