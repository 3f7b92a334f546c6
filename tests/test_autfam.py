"""Automorphism families: translations, twists, similitude lifts, products."""
import numpy as np
import pytest

from jpaut import (PrimeField, Rationals, ProductRing, DualNumbers,
                   RingElement, Matrix, PairMap, standard_form, enumerate_GL,
                   enumerate_GO, enumerate_O, enumerate_matrices, mu_n,
                   idempotents, is_pair_automorphism, is_triple_automorphism,
                   is_algebra_automorphism, make_vhi, make_vti, make_tti,
                   make_thi, make_mn_plus, make_type_iv_pair,
                   make_type_iv_triple, op_left, op_right, map_on_matrix,
                   go_to_pair_aut, ortho_to_triple_aut, hat_l, hat_r, tilde_l,
                   tilde_r, hat_generators, tilde_generators, transpose_twist,
                   TwistedMap, mu2_plus_map, all_twisted_maps,
                   det_similitude_factor, is_det_similitude, phi_n,
                   phi_tau_action, phi_n_kernel_check, CentralProductElement,
                   factor_triple_aut, tti_map, thi_map, tti_membership)
from jpaut.autfam import (_det_mod_p, det_factor_codes, det_isometry_check,
                          det_similitudes, gl_stack, has_stacks,
                          hat_twist_rows, inverse_stack, phi_n_stack,
                          stack_matrices, twisted_stack)
from jpaut.oracle import _codec
from jpaut.matrix import similitude_multiplier
from jpaut.errors import (NotSimilitude, NotIsometry, NotFactorable,
                          NonFieldRing)

from _helpers import some_gl

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F33 = ProductRing(F3, F3)
F3T = DualNumbers(F3)
Q = Rationals()

ALL_RINGS = (F3, F5, F33, F3T)


def test_translations_are_pair_automorphisms():
    for ring in ALL_RINGS:
        for (m, n) in ((1, 2), (2, 2)):
            vhi, vti = make_vhi(m, n, ring), make_vti(m, n, ring)
            for a in some_gl(ring, m, 2):
                assert is_pair_automorphism(vhi, hat_l(a, n)), (ring.name, m)
                assert is_pair_automorphism(vti, tilde_l(a, n))
            for b in some_gl(ring, n, 2):
                assert is_pair_automorphism(vhi, hat_r(b, m))
                assert is_pair_automorphism(vti, tilde_r(b, m))
            a, b = some_gl(ring, m, 1)[0], some_gl(ring, n, 1)[0]
            assert is_pair_automorphism(vhi, hat_generators(a, b))
            assert is_pair_automorphism(vti, tilde_generators(a, b))


def test_transpose_twist_on_square_pairs():
    for ring in ALL_RINGS:
        assert is_pair_automorphism(make_vhi(2, 2, ring),
                                    transpose_twist(ring, 2))


def test_go_to_pair_aut_similitude_lift():
    form = standard_form(F5, 2)
    viv = make_type_iv_pair(form)
    two_i = Matrix.identity(F5, 2) * F5.from_int(2)
    pm = go_to_pair_aut(two_i, form)
    # multiplier 4, so minus side carries 2 * 4^{-1} = 2 * 4 = 8 = 3
    assert pm.minus == Matrix.identity(F5, 2) * F5.from_int(3)
    assert is_pair_automorphism(viv, pm)


def test_go_to_pair_aut_rejects_non_similitudes():
    form = standard_form(F5, 2)
    shear = Matrix.build(F5, [[1, 1], [0, 1]])
    assert similitude_multiplier(shear, form) is None
    with pytest.raises(NotSimilitude):
        go_to_pair_aut(shear, form)


def test_go_image_exhausts_over_both_fields():
    for ring in (F3, F5):
        form = standard_form(ring, 2)
        viv = make_type_iv_pair(form)
        for a in enumerate_GO(form):
            assert is_pair_automorphism(viv, go_to_pair_aut(a, form))


def test_ortho_to_triple_aut():
    for ring in (F3, F5):
        form = standard_form(ring, 2)
        that = make_type_iv_triple(form)
        for a in enumerate_O(form):
            assert is_triple_automorphism(that, ortho_to_triple_aut(a, form))
    with pytest.raises(NotIsometry):
        ortho_to_triple_aut(Matrix.identity(F5, 2) * F5.from_int(2),
                            standard_form(F5, 2))


def test_twisted_maps_preserve_all_three_structures():
    for ring in ALL_RINGS:
        mn = make_mn_plus(2, ring)
        thi = make_thi(2, ring)
        vhi = make_vhi(2, 2, ring)
        gs = some_gl(ring, 2, 2)
        x = some_gl(ring, 2, 1)[0]
        for e in idempotents(ring):
            for g in gs:
                tp = TwistedMap(ring, 2, e.payload, g, 1)
                tm = TwistedMap(ring, 2, e.payload, g, -1)
                fm = tp.as_matrix()
                assert is_algebra_automorphism(mn, fm), (ring.name, str(e))
                assert is_triple_automorphism(thi, fm)
                assert is_triple_automorphism(thi, tm.as_matrix())
                assert is_pair_automorphism(vhi, PairMap(fm, fm))
                assert tp.apply(x) == map_on_matrix(fm, x, (2, 2))
                assert tm.apply(x) == map_on_matrix(tm.as_matrix(), x, (2, 2))


def test_twisted_map_compose_and_inverse():
    for ring in ALL_RINGS:
        es = idempotents(ring)
        gs = some_gl(ring, 2, 2)
        for sign in (1, -1):
            t1 = TwistedMap(ring, 2, es[0].payload, gs[0], sign)
            t2 = TwistedMap(ring, 2, es[-1].payload, gs[1], sign)
            t12 = t1.compose(t2)
            assert t12.as_matrix() == t1.as_matrix() @ t2.as_matrix()
            tinv = t1.inverse()
            assert t1.as_matrix() @ tinv.as_matrix() == \
                Matrix.identity(ring, 4)
            assert t1.compose(tinv).as_matrix() == Matrix.identity(ring, 4)


def test_minus_family_is_tau_times_plus_family():
    for ring in (F3, F33):
        for e in idempotents(ring):
            g = some_gl(ring, 2, 1)[0]
            tau = RingElement(
                ring, ring.sub(e.payload, ring.sub(ring.one_p, e.payload)))
            tp = TwistedMap(ring, 2, e.payload, g, 1)
            tm = TwistedMap(ring, 2, e.payload, g, -1)
            assert tm.as_matrix() == tp.as_matrix() * tau


def test_det_similitude_factorization_over_f5():
    a, b = some_gl(F5, 2, 2)
    for tau in mu_n(F5, 2):
        f = phi_n(a, b, tau)
        assert is_det_similitude(f, 2)
        arec, iso = det_similitude_factor(f, 2)
        assert det_isometry_check(iso, 2)
        assert op_left(arec, 2) @ iso == f


def test_det_similitude_factorization_over_q():
    # infinite ring: the polynomial identity is decided on a finite grid
    aq = Matrix.build(Q, [[1, 2], [0, 1]])
    bq = Matrix.build(Q, [[3, 0], [1, 1]])
    fq = op_left(aq, 2) @ op_right(bq, 2)
    arecq, isoq = det_similitude_factor(fq, 2)
    assert det_isometry_check(isoq, 2)
    assert arecq.det() == aq.det() * bq.det()
    assert not det_isometry_check(fq, 2)  # det multiplier is 3, not 1


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_det_matches_matrix_det(p, n):
    ring = PrimeField(p)
    rng = np.random.default_rng(10 * p + n)
    a = rng.integers(0, p, size=(30, n, n))
    a[:10, -1] = 0  # singular ones too
    got = _det_mod_p(a.transpose(1, 2, 0), p)
    assert got.tolist() == [Matrix.build(ring, m.tolist()).det().payload
                            for m in a]


@pytest.mark.parametrize("n", [1, 2])
def test_batched_det_check_equals_the_matrix_loop(n):
    # det(aX) == det(a) det(X): true for det(a), false for another unit
    a = some_gl(F5, n, 1)[0]
    ops = {"left": op_left(a, n), "right": op_right(a, n),
           "random": Matrix.build(F5, np.random.default_rng(n).integers(
               0, 5, size=(n * n, n * n)).tolist())}
    for name, f in ops.items():
        for mult in range(5):
            expect = all(
                map_on_matrix(f, x, (n, n)).det().payload
                == mult * x.det().payload % 5
                for x in enumerate_matrices(F5, n, n))
            got = det_similitudes(np.array([f.entries]), mult, n, 5)
            assert got.tolist() == [expect], (name, mult)
            if name != "random" and mult == a.det().payload:
                assert expect


def test_phi_n_kernel():
    assert phi_n_kernel_check(F3, 2)
    assert phi_n_kernel_check(F5, 2)


def test_conjugation_identity_over_split_ring():
    # f_tau L_a R_{b^T} f_tau == L_a' R_{b'^T} with (a', b') given by the
    # tau action, checked on the full module basis of M_2(F3 x F3)
    ring, n = F33, 2
    one_p, zero_p = ring.one_p, ring.zero_p
    basis = []
    for i in range(n):
        for j in range(n):
            rows = [[zero_p] * n for _ in range(n)]
            rows[i][j] = one_p
            basis.append(Matrix(ring, n, n, tuple(tuple(r) for r in rows)))
    comp_basis = [bm * RingElement(ring, e)
                  for e in ring.primitive_idempotents() for bm in basis]
    for tau in mu_n(ring, 2):
        ft = mu2_plus_map(ring, n, tau).as_matrix()
        assert ft @ ft == Matrix.identity(ring, 4)  # involution
        for am in comp_basis:
            for bm in comp_basis:
                lhs = ft @ (op_left(am, n) @ op_right(bm.transpose(), n)) @ ft
                ap, bp = phi_tau_action(tau, am, bm)
                assert lhs == op_left(ap, n) @ op_right(bp.transpose(), n)


def test_central_product_classes():
    gl2 = list(enumerate_GL(2, F3))
    classes = {CentralProductElement(x, y).canonical_key()
               for x in gl2 for y in gl2}
    # (a, b) ~ (ra, r^{-1} b): 48 * 48 pairs / 2 scalars
    assert len(classes) == 48 * 48 // 2
    x = CentralProductElement(gl2[5], gl2[7])
    y = CentralProductElement(gl2[11], gl2[3])
    z = CentralProductElement(gl2[20], gl2[33])
    assert x.multiply(y).multiply(z).canonical_key() == \
        x.multiply(y.multiply(z)).canonical_key()
    ident = CentralProductElement(Matrix.identity(F3, 2),
                                  Matrix.identity(F3, 2))
    assert x.multiply(x.inverse()).canonical_key() == ident.canonical_key()


def test_central_class_scaling_invariance():
    gl2 = list(enumerate_GL(2, F3))
    x = CentralProductElement(gl2[5], gl2[7])
    r = F3.from_int(2)
    assert CentralProductElement(gl2[5] * r, gl2[7] * r.inverse()
                                 ).canonical_key() == x.canonical_key()
    # componentwise unit over the product ring
    a33, b33 = some_gl(F33, 2, 2)
    pr = RingElement(F33, (1, 2))
    assert CentralProductElement(a33, b33).canonical_key() == \
        CentralProductElement(a33 * pr, b33 * pr.inverse()).canonical_key()


def test_central_product_flagged_semidirect_law():
    gl2 = list(enumerate_GL(2, F3))
    taus = mu_n(F3, 2)
    fx = CentralProductElement(gl2[5], gl2[7], taus[1])
    fy = CentralProductElement(gl2[11], gl2[3], taus[0])
    fz = CentralProductElement(gl2[2], gl2[9], taus[1])
    assert fx.multiply(fy).multiply(fz).canonical_key() == \
        fx.multiply(fy.multiply(fz)).canonical_key()
    ident = CentralProductElement(Matrix.identity(F3, 2),
                                  Matrix.identity(F3, 2), taus[0])
    assert fx.multiply(fx.inverse()).canonical_key() == ident.canonical_key()


def test_central_classes_need_a_field():
    # scalar normalization divides by a chosen unit entry
    g = some_gl(F3T, 2, 1)[0]
    with pytest.raises(NonFieldRing):
        CentralProductElement(g, g)


def test_factor_triple_aut():
    mn3 = make_mn_plus(2, F3)
    g = some_gl(F3, 2, 1)[0]
    cg = TwistedMap(F3, 2, 1, g, 1).as_matrix()
    phi = cg * F3.from_int(2)
    r_out, psi = factor_triple_aut(mn3, phi)
    assert r_out == F3.from_int(2) and psi == cg
    r_out2, psi2 = factor_triple_aut(mn3, cg)
    assert r_out2 == F3.one and psi2 == cg
    with pytest.raises(NotFactorable):
        factor_triple_aut(mn3, Matrix.diagonal(
            F3, [F3.one, F3.one, F3.one, F3.from_int(2)]))


def test_tti_multiplier_family():
    assert tti_membership(Matrix.identity(F3, 2) * F3.from_int(2),
                          Matrix.identity(F3, 2))
    tti = make_tti(1, 2, F3)
    seen = set()
    for a in enumerate_GO(standard_form(F3, 1)):
        for b in enumerate_GO(standard_form(F3, 2)):
            op = tti_map(a, b)
            if tti_membership(a, b):
                assert is_triple_automorphism(tti, op)
                seen.add(op.entries)
            else:
                assert not is_triple_automorphism(tti, op)
    assert len(seen) == 8


def test_thi_scaled_twists():
    thi = make_thi(2, F3)
    plus_maps = all_twisted_maps(F3, 2, 1)
    assert len(plus_maps) == 48
    for r in mu_n(F3, 2):
        for t in plus_maps[:6]:
            assert is_triple_automorphism(thi, thi_map(r, t))


# -- the int64 stacks over F_p against the object builders ------------------

def _stack(ms):
    return np.array([m.entries for m in ms], dtype=np.int64)


@pytest.mark.parametrize("ring, n", [(F3, 1), (F3, 2), (F5, 2), (F3, 3)],
                         ids=["F3-1", "F3-2", "F5-2", "F3-3"])
def test_gl_stack_is_enumerate_gl_in_order(ring, n):
    gl = list(enumerate_GL(n, ring))
    stack = gl_stack(ring.p, n)
    assert np.array_equal(stack, _stack(gl))
    picks = stack[::97] if n == 3 else stack
    assert np.array_equal(inverse_stack(picks, ring.p), _stack(
        m.inverse() for m in stack_matrices(ring, picks)))


@pytest.mark.parametrize("ring, n", [(F3, 1), (F3, 2), (F5, 2), (F3, 3)],
                         ids=["F3-1", "F3-2", "F5-2", "F3-3"])
def test_twisted_stack_equals_all_twisted_maps(ring, n):
    want = _stack(t.as_matrix() for t in all_twisted_maps(ring, n, 1))
    assert np.array_equal(twisted_stack(ring.p, n), want)


def test_phi_n_stack_equals_phi_n_on_every_parameter():
    gl = list(enumerate_GL(2, F3))
    a, b = (np.repeat(_stack(gl), 48, axis=0), np.tile(_stack(gl), (48, 1, 1)))
    for tau in mu_n(F3, 2):
        want = _stack(phi_n(x, y, tau) for x in gl for y in gl)
        assert np.array_equal(phi_n_stack(a, b, tau.payload, 3), want)
    taus = np.resize([1, 2, 2], len(a))
    want = _stack(phi_n(x, y, F3.from_int(int(t)))
                  for (x, y), t in zip(((x, y) for x in gl for y in gl), taus))
    assert np.array_equal(phi_n_stack(a, b, taus, 3), want)


def test_hat_twist_rows_equal_the_object_family():
    system = make_vhi(2, 2, F3)
    tw = transpose_twist(F3, 2)
    els = []
    for a in enumerate_GL(2, F3):
        for b in enumerate_GL(2, F3):
            base = hat_generators(a, b)
            els += [base, base.compose(tw)]
    rows = hat_twist_rows(3, 2)
    assert np.array_equal(rows, _codec(system.structure).encode(els))


def _full_grid(fs, mult, n, p):
    """det(f(X)) == mult det(X) on every X in M_n(F_p), one column of the
    grid a matrix: the reference the light points are tested against."""
    x = np.indices((p,) * (n * n)).reshape(n * n, -1)
    det_x = _det_mod_p(x.reshape(n, n, -1), p)
    y = (fs @ x % p).reshape(len(fs), n, n, -1).transpose(1, 2, 0, 3)
    mult = np.broadcast_to(mult, (len(fs),))[:, None]
    return (_det_mod_p(y, p) == mult * det_x % p).all(axis=1)


def _near_misses(fs, p, seed):
    """Each map of fs with one entry moved by a random nonzero residue,
    and each composed with its last unit-basis cell scaled by 2."""
    rng = np.random.default_rng(seed)
    moved = fs.copy()
    at = np.arange(len(fs))
    r, c = (rng.integers(0, fs.shape[1], size=len(fs)) for _ in range(2))
    moved[at, r, c] = (moved[at, r, c] + rng.integers(1, p, size=len(fs))) % p
    scaled = fs.copy()
    scaled[:, :, -1] = scaled[:, :, -1] * 2 % p
    return np.concatenate([moved, scaled])


@pytest.mark.parametrize("ring, n", [(F3, 1), (F3, 2), (F5, 2), (F7, 2),
                                     (F3, 3)],
                         ids=["F3-1", "F3-2", "F5-2", "F7-2", "F3-3"])
def test_light_point_det_check_equals_the_full_grid(ring, n):
    p = ring.p
    fam = twisted_stack(p, n)
    fam = fam[::max(1, len(fam) // 64)]  # 48 at F3, n = 2: all of them
    rng = np.random.default_rng(p + n)
    fs = np.concatenate([fam, _near_misses(fam, p, n),
                         rng.integers(0, p, size=(40, n * n, n * n))])
    for mult in range(p):
        want = _full_grid(fs, mult, n, p)
        assert np.array_equal(det_similitudes(fs, mult, n, p), want), mult
    # the family's multipliers are det f(1); then every member passes
    one = np.eye(n, dtype=np.int64).ravel()
    mult = _det_mod_p((fam @ one % p).reshape(-1, n, n).transpose(1, 2, 0), p)
    assert det_similitudes(fam, mult, n, p).all()
    assert np.array_equal(_full_grid(fam, mult, n, p),
                          det_similitudes(fam, mult, n, p))


def test_det_check_agrees_with_the_object_loop():
    # the object loop of _det_equal_for_all, on the rings without stacks,
    # decides every X one Matrix at a time
    fam = twisted_stack(3, 2)
    fs = np.concatenate([fam, _near_misses(fam, 3, 0)])
    for f, m in zip(fs, stack_matrices(F3, fs)):
        a = map_on_matrix(m, Matrix.identity(F3, 2), (2, 2))
        for mult in {1, a.det().payload}:
            expect = all(map_on_matrix(m, x, (2, 2)).det().payload
                         == mult * x.det().payload % 3
                         for x in enumerate_matrices(F3, 2, 2))
            assert det_similitudes(f[None], mult, 2, 3).tolist() == [expect]


@pytest.mark.parametrize("ring", [F3, F5], ids=["F3", "F5"])
def test_det_factor_codes_equal_the_object_factorization(ring):
    p = ring.p
    fam = twisted_stack(p, 2)
    singular = fam[:4].copy()
    singular[:, :, 0] = 0  # f(1) = f(e11) + f(e22) loses a column
    singular[:, :, 3] = 0
    fs = np.concatenate([fam, _near_misses(fam, p, 1), singular])
    codes = det_factor_codes(ring, 2, fs)
    assert codes.tolist() == det_factor_codes(
        ring, 2, stack_matrices(ring, fs)).tolist()
    assert set(codes.tolist()) == {0, 1, 2}
    assert not codes[:len(fam)].any()


def test_stacks_serve_prime_fields_only():
    assert has_stacks(F3, 3) and has_stacks(F5, 2)
    assert not any(has_stacks(ring, 2) for ring in (F33, F3T, Q))
