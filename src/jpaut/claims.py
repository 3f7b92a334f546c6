"""Runnable claim catalog.

Each claim names one structural statement about the catalog systems and
checks it at desk scale by exact enumeration.  Runners return JSON-able
reports; the CLI maps pass/fail onto exit codes.  All checks are
deterministic: seeded sampling, canonical orderings, no timestamps.
"""

import random

import numpy as np

from .errors import (BadDims, BadInput, NoSquareRootOfMinusOne,
                     NotFactorable, NotSimilitude, UnknownClaim, check_jobs)
from .ring import PrimeField, Ring, RingElement, parse_ring, mu_n, \
    find_sqrt_minus_one
from .matrix import Matrix, BilinearForm, standard_form, enumerate_GL, \
    enumerate_GO, enumerate_O
from .jordan import is_pair_automorphism
from .catalog import NamedSystem, extended_form, lambda_isomorphism, \
    make_bilinear_form_algebra, make_mn_plus, make_t_iv, make_thi, \
    make_tti, make_type_iv_pair, make_type_iv_triple, make_vhi, make_vti, \
    vti_to_vhi
from .autfam import all_twisted_maps, det_similitude_factor, \
    factor_triple_aut, go_to_pair_aut, hat_generators, hat_l, hat_r, \
    is_det_similitude, op_left, op_transpose, ortho_to_triple_aut, phi_n, \
    phi_n_kernel_check, thi_map, tilde_l, tilde_r, transpose_twist, \
    tti_map, tti_membership
from .gradelie import check_graded_lie, make_graded_gl, pair_from_grading
from .oracle import DEFAULT_BUDGET, AutomorphismSet, are_automorphisms, \
    compare, element_key, enumerate_automorphisms, family_image, \
    generate_closure


# -- shared enumeration cache -------------------------------------------------

# The key is the whole system, structure tensor included, because names
# do not identify forms: every form on a carrier of dimension n builds a
# system named TIV(n+1, F).  Enumeration results are independent of the
# worker count, so the key deliberately omits jobs: a later call with
# different jobs reuses the stored set.
_EX_CACHE = {}


def exhaustive_set(system: NamedSystem, budget=None, jobs: int = 1
                   ) -> AutomorphismSet:
    """Exhaustive automorphisms of a named system, cached per process."""
    key = (system, DEFAULT_BUDGET if budget is None else int(budget))
    got = _EX_CACHE.get(key)
    if got is None:
        got = enumerate_automorphisms(system, budget=budget, jobs=jobs)
        _EX_CACHE[key] = got
    return got


def clear_cache() -> None:
    _EX_CACHE.clear()


# -- small generating sets and standard families ------------------------------

def _primitive_unit(ring: PrimeField) -> RingElement:
    """A generator of the unit group of a prime field."""
    p = ring.p
    for g in range(2, p):
        x, hits = 1, set()
        for _ in range(p - 1):
            x = x * g % p
            hits.add(x)
        if len(hits) == p - 1:
            return ring.from_int(g)
    raise BadInput(f"no primitive unit in {ring.name}")  # unreachable


def _transvections(ring: Ring, d: int):
    eye = Matrix.identity(ring, d)
    out = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            rows = [list(r) for r in eye.entries]
            rows[i][j] = ring.one_p
            out.append(Matrix(ring, d, d, tuple(tuple(r) for r in rows)))
    return out


def gl_generators(ring: Ring, d: int):
    """Small generating set of GL_d over a prime field.

    Row reduction writes any invertible matrix as a product of elementary
    transvections and one diagonal unit, so these generate.
    """
    if not isinstance(ring, PrimeField):
        raise BadInput(f"generator sets are built over prime fields, "
                       f"not {ring.name}")
    if d == 0:
        return []
    g = _primitive_unit(ring)  # p is odd, so g != 1
    return _transvections(ring, d) + [
        Matrix.diagonal(ring, [g.payload] + [ring.one_p] * (d - 1))]


def _unit_block(ring: Ring, a: Matrix) -> Matrix:
    """Block map 1 (+) a on the form algebra basis (1, v_1, ..)."""
    d = a.rows + 1
    rows = [[ring.zero_p] * d for _ in range(d)]
    rows[0][0] = ring.one_p
    for i in range(a.rows):
        for j in range(a.rows):
            rows[i + 1][j + 1] = a.entries[i][j]
    return Matrix(ring, d, d, tuple(tuple(r) for r in rows))


def _tiv_product_family(ring: Ring, d: int):
    """Scalars squaring to one times unit-fixing isometry automorphisms."""
    form = standard_form(ring, d - 1)
    out = []
    for a in enumerate_O(form):
        block = _unit_block(ring, a)
        for r in mu_n(ring, 2):
            out.append(block * r)
    return out


def _tti_family(ring: Ring, m: int, n: int):
    """Two-sided multiplications by similitude pairs with inverse
    multipliers; in the square case also their transpose twists."""
    els = []
    for a in enumerate_GO(standard_form(ring, m)):
        for b in enumerate_GO(standard_form(ring, n)):
            if tti_membership(a, b):
                els.append(tti_map(a, b))
    if m == n:
        tr = op_transpose(ring, m, n)
        els.extend([e @ tr for e in list(els)])
    return els


def _thi_family(ring: Ring, n: int):
    return [thi_map(r, t) for r in mu_n(ring, 2)
            for t in all_twisted_maps(ring, n, 1)]


def standard_generated(system: NamedSystem, budget=None):
    """Generated-mode automorphism set with a provenance string.

    Families are built directly where the group is a named image;
    the matrix-pair cases run a closure from small GL generating sets.
    """
    tag, ring = system.tag, system.ring
    if tag == "VIV":
        form = BilinearForm(system.structure.trace)
        els = [go_to_pair_aut(a, form) for a in enumerate_GO(form)]
        return family_image(system, els), (
            "image of the orthogonal similitude group: a with multiplier "
            "mu acts as (x, y) -> (a x, mu^{-1} a y)")
    if tag == "ThatIV":
        form = BilinearForm(system.structure.trace)
        els = [ortho_to_triple_aut(a, form) for a in enumerate_O(form)]
        return family_image(system, els), (
            "image of the isometry group of the bilinear form")
    if tag == "TIV":
        els = _tiv_product_family(ring, system.params[0])
        return family_image(system, els), (
            "products r * psi with r squaring to one and psi a "
            "unit-fixing isometry automorphism of the form algebra")
    if tag == "Jbilin":
        d = system.params[0]
        els = [_unit_block(ring, a)
               for a in enumerate_O(standard_form(ring, d - 1))]
        return family_image(system, els), (
            "unit-fixing maps 1 (+) a with a an isometry of the form")
    if tag in ("VhI", "VtI"):
        m, n = system.params
        left, right = (hat_l, hat_r) if tag == "VhI" else (tilde_l, tilde_r)
        gens = [left(a, n) for a in gl_generators(ring, m)]
        gens += [right(b, m) for b in gl_generators(ring, n)]
        prov = "closure of left/right translations by GL generating sets"
        if m == n:
            gens.append(transpose_twist(ring, n))
            prov += " and the transpose twist"
        return generate_closure(system, gens, budget=budget), prov
    if tag == "TtI":
        m, n = system.params
        els = _tti_family(ring, m, n)
        prov = ("two-sided multiplications x -> a x b by similitude pairs "
                "with inverse multipliers")
        if m == n:
            prov += " and their transpose twists"
        return family_image(system, els), prov
    if tag == "ThI":
        els = _thi_family(ring, system.params[0])
        return family_image(system, els), (
            "scalars squaring to one times idempotent-twisted conjugations")
    if tag == "Mplus":
        els = [t.as_matrix()
               for t in all_twisted_maps(ring, system.params[0], 1)]
        return family_image(system, els), (
            "idempotent-twisted conjugations "
            "x -> e1 g x g^{-1} + e2 g x^T g^{-1}")
    raise BadInput(f"no standard generator family for {system.name}")


# -- claim runners ------------------------------------------------------------
# Each runner takes the resolved parameter dict and returns
# (outcome, passed, details).

def _set_comparison(ex, fam):
    """(details, ok): ok when the sets are equal and ex is group closed."""
    rep = compare(ex, fam)
    details = {
        "exhaustive_order": ex.order,
        "family_order": fam.order,
        "comparison": rep.to_jsonable(),
        "exhaustive_group_closed": ex.verify_group_closed(),
    }
    return details, rep.equal and details["exhaustive_group_closed"]


def _family_comparison(p, system):
    """(family, details, ok): the exhaustive set against the system's
    standard family from standard_generated."""
    ex = exhaustive_set(system, p["budget"], p["jobs"])
    fam = standard_generated(system, budget=p["budget"])[0]
    return (fam, *_set_comparison(ex, fam))


def _verdict(ok, details):
    return ("verified" if ok else "failed"), ok, details


def _family_runner(build):
    """The runner of a claim that the exhaustive set of the system
    build(params) is its standard family (standard_generated)."""
    def run(p):
        _, details, ok = _family_comparison(p, build(p))
        return _verdict(ok, details)
    return run


def _tiv_factored(p):
    """(ex, alg_ex, factors, unfactorable): the exhaustive sets of TIV(n)
    and of its form algebra, with every triple automorphism factored."""
    form = standard_form(p["ring"], p["n"] - 1)
    alg_sys = make_bilinear_form_algebra(form)
    ex = exhaustive_set(make_t_iv(form), p["budget"], p["jobs"])
    alg_ex = exhaustive_set(alg_sys, p["budget"], p["jobs"])
    factors, unfactorable = {}, []
    for phi in ex.elements:
        try:
            factors[element_key(phi)] = factor_triple_aut(alg_sys.structure,
                                                          phi)
        except NotFactorable:
            unfactorable.append(phi)
    return ex, alg_ex, factors, unfactorable


def _run_aut_tji(p):
    ex, alg_ex, factors, unfactorable = _tiv_factored(p)
    scalars = mu_n(p["ring"], 2)
    products = {element_key(psi * r)
                for r in scalars for psi in alg_ex.elements}
    model = len(scalars) * alg_ex.order
    keys = ex.keys()
    details = {
        "exhaustive_order": ex.order,
        "algebra_aut_order": alg_ex.order,
        "square_one_scalars": len(scalars),
        "product_model_order": model,
        "distinct_products": len(products),
        "products_are_triple_automorphisms": products <= keys,
        "factorable": len(factors),
        "unfactorable": len(unfactorable),
        "unfactorable_samples": [m.to_jsonable() for m in unfactorable[:2]],
    }
    ok = (not unfactorable and len(products) == model == ex.order
          and products <= keys)
    return _verdict(ok, details)


def _scale_entry_operator(ring: Ring, n: int, cell: int, u) -> Matrix:
    """Identity on M_n coordinates except one unit-basis cell scaled by u."""
    d = n * n
    rows = [[ring.zero_p] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = u if i == cell else ring.one_p
    return Matrix(ring, d, d, tuple(tuple(r) for r in rows))


def _run_detsim(p):
    ring, n = p["ring"], p["n"]
    family_checked = 0
    for t in all_twisted_maps(ring, n, 1):
        f = t.as_matrix()
        # the factor's residual check is is_det_similitude's predicate: with
        # a = f(1) a unit, det(a^-1 f(X)) == det X iff det f(X) == det a det X
        try:
            a, phi = det_similitude_factor(f, n)
        except NotSimilitude:
            return "failed", False, {"counterexample": f.to_jsonable()}
        if op_left(a, n) @ phi != f:
            return "failed", False, {"roundtrip_failure": f.to_jsonable()}
        family_checked += 1
    # seeded similitude products a X b composed with a sign twist
    rng = random.Random(20240811)
    gl = list(enumerate_GL(n, ring))
    taus = mu_n(ring, 2)
    trials = 120
    for _ in range(trials):
        f = phi_n(rng.choice(gl), rng.choice(gl), rng.choice(taus))
        a, phi = det_similitude_factor(f, n)
        if op_left(a, n) @ phi != f:
            return "failed", False, {"roundtrip_failure": f.to_jsonable()}
    # negative control: scaling one off-diagonal cell by a unit != 1
    # breaks multiplier consistency between 1 and the hyperbolic element
    negative = "skipped"
    bad_unit = next((u.payload for u in ring.elements()
                     if u.is_unit and u != ring.one), None)
    if bad_unit is not None and n >= 2:
        g = _scale_entry_operator(ring, n, 1, bad_unit)
        rejected = not is_det_similitude(g, n)
        try:
            det_similitude_factor(g, n)
            raised = False
        except NotSimilitude:
            raised = True
        if not (rejected and raised):
            return "failed", False, {"negative_control_accepted": True}
        negative = "rejected"
    details = {"family_checked": family_checked,
               "random_roundtrips": trials,
               "negative_control": negative}
    return "verified", True, details


def _run_phin_kernel(p):
    ok = phi_n_kernel_check(p["ring"], p["n"])
    return _verdict(ok, {"kernel_matches": ok})


def _run_vhi_square(p):
    ring, n = p["ring"], p["n"]
    system = make_vhi(n, n, ring)
    ex = exhaustive_set(system, p["budget"], p["jobs"])
    gen, provenance = standard_generated(system, budget=p["budget"])
    rep1 = compare(ex, gen)
    tw = transpose_twist(ring, n)
    fam_els = []
    for a in enumerate_GL(n, ring):
        for b in enumerate_GL(n, ring):
            base = hat_generators(a, b)
            fam_els.append(base)
            fam_els.append(base.compose(tw))
    fam = family_image(system, fam_els)
    rep2 = compare(ex, fam)
    details = {
        "exhaustive_order": ex.order,
        "closure_order": gen.order,
        "closure_provenance": provenance,
        "translation_twist_family_order": fam.order,
        "closure_equal": rep1.equal,
        "family_equal": rep2.equal,
        "exhaustive_group_closed": ex.verify_group_closed(),
    }
    ok = rep1.equal and rep2.equal and details["exhaustive_group_closed"]
    return _verdict(ok, details)


def _run_vhi_rect(p):
    ring, m, n = p["ring"], p["m"], p["n"]
    system = make_vhi(m, n, ring)
    fam, details, ok = _family_comparison(p, system)
    if m == 1:
        # one-row case: right translations alone already fill the group
        right = generate_closure(
            system, [hat_r(b, m) for b in gl_generators(ring, n)],
            budget=p["budget"])
        details["right_translation_image_order"] = right.order
        ok = ok and compare(fam, right).equal
    return _verdict(ok, details)


def _run_thi_product(p):
    ring, n = p["ring"], p["n"]
    fam, details, ok = _family_comparison(p, make_thi(n, ring))
    details["product_model_order"] = \
        len(mu_n(ring, 2)) * len(all_twisted_maps(ring, n, 1))
    details["product_map_injective"] = \
        fam.order == details["product_model_order"]
    return _verdict(ok and details["product_map_injective"], details)


def _run_schemes(p):
    ex, alg_ex, factors, unfactorable = _tiv_factored(p)
    if unfactorable:
        details = {
            "exhaustive_order": ex.order,
            "unfactorable": len(unfactorable),
            "unfactorable_samples": [m.to_jsonable()
                                     for m in unfactorable[:2]],
        }
        return "failed", False, details
    scalars = mu_n(p["ring"], 2)
    model = len(scalars) * alg_ex.order
    bijective = len(factors) == ex.order == model
    pairs = law_holds = 0
    for f in ex.elements:
        rf, pf = factors[element_key(f)]
        for g in ex.elements:
            rg, pg = factors[element_key(g)]
            prod = factors.get(element_key(f @ g))
            pairs += 1
            # composite must stay in the group and factor componentwise
            if prod is not None and prod[0] == rf * rg \
                    and prod[1] == pf @ pg:
                law_holds += 1
    details = {
        "exhaustive_order": ex.order,
        "algebra_aut_order": alg_ex.order,
        "square_one_scalars": len(scalars),
        "factorization_bijective": bijective,
        "pairs_checked": pairs,
        "product_law_holds": law_holds == pairs,
    }
    ok = bijective and law_holds == pairs
    return _verdict(ok, details)


def _run_block_grading(p):
    ring, m, n = p["ring"], p["m"], p["n"]
    g = make_graded_gl(m, n, ring)
    lie = check_graded_lie(g)
    pair = pair_from_grading(g)
    vhi = make_vhi(m, n, ring).structure
    tensors_match = (pair.dplus == vhi.dplus and pair.dminus == vhi.dminus
                     and pair.t_plus == vhi.t_plus
                     and pair.t_minus == vhi.t_minus)
    details = {
        "bracket_checks": lie["checked"],
        "lie_identities_hold": lie["ok"],
        "lie_failures": lie["failures"][:4],
        "recovered_pair_matches": tensors_match,
    }
    ok = lie["ok"] and tensors_match
    return _verdict(ok, details)


def _conjugates_are_automorphisms(iso, ext: BilinearForm) -> tuple:
    """(|GO(ext)|, whether iso.map^-1 f iso.map is an automorphism of
    iso.source for each similitude pair map f = (a, m_a^-1 a) of ext).

    Over F_p the conjugates are int64 stacks built by batched matmul mod p
    and decided at once by oracle.are_automorphisms, the decision of the
    fast-scan cross-check.
    """
    sims, source, inv = list(enumerate_GO(ext)), iso.source, iso.map.inverse()
    if source._int64 is None:
        return len(sims), all(is_pair_automorphism(
            source, inv.compose(go_to_pair_aut(a, ext)).compose(iso.map))
            for a in sims)
    p = source.ring.p

    def residues(ms) -> np.ndarray:
        return np.array([m.entries for m in ms], dtype=np.int64)
    a = residues(sims)
    g, ip, im, fp, fm = residues((ext.gram, inv.plus, inv.minus,
                                  iso.map.plus, iso.map.minus))
    r, c = np.argwhere(g)[0]
    mult = (a.transpose(0, 2, 1) @ g % p @ a % p)[:, r, c]
    scale = np.array([int(g[r, c]) * pow(int(m), -1, p) % p for m in mult])
    plus = ip @ a % p @ fp % p
    minus = im @ (scale[:, None, None] * a % p) % p @ fm % p
    return len(sims), bool(are_automorphisms(source, (plus, minus)).all())


def _run_lambda_iso(p):
    ring = p["ring"]
    form = standard_form(ring, p["n"] - 1)
    i = find_sqrt_minus_one(ring)
    if i is None:
        try:
            lambda_isomorphism(form, ring.one)
            raised = False
        except NoSquareRootOfMinusOne:
            raised = True
        none_square = all(x * x != ring.from_int(-1)
                          for x in ring.elements())
        details = {
            "sqrt_minus_one": None,
            "verified_no_square_root": none_square,
            "constructor_raises": "NoSquareRootOfMinusOne" if raised
            else "nothing",
        }
        ok = raised and none_square
        return ("refused" if ok else "failed"), ok, details
    iso = lambda_isomorphism(form, i)
    verified = iso.verify()
    size, conj_ok = _conjugates_are_automorphisms(iso, extended_form(form))
    details = {
        "sqrt_minus_one": ring.payload_str(i.payload),
        "pair_isomorphism_verified": verified,
        "conjugated_family_size": size,
        "conjugates_are_source_automorphisms": conj_ok,
    }
    ok = verified and conj_ok
    return _verdict(ok, details)


def _run_vti_vhi(p):
    ring, m, n = p["ring"], p["m"], p["n"]
    iso = vti_to_vhi(m, n, ring)
    vti_sys = make_vti(m, n, ring)
    vhi_sys = make_vhi(m, n, ring)
    ex_vti = exhaustive_set(vti_sys, p["budget"], p["jobs"])
    ex_vhi = exhaustive_set(vhi_sys, p["budget"], p["jobs"])
    inv = iso.map.inverse()
    conj = [iso.map.compose(f).compose(inv) for f in ex_vti.elements]
    fam = family_image(vhi_sys, conj)
    rep = compare(ex_vhi, fam)
    details = {
        "tilde_order": ex_vti.order,
        "hat_order": ex_vhi.order,
        "pair_isomorphism_verified": iso.verify(),
        "conjugation_bijection": rep.equal and fam.order == ex_vti.order,
        "comparison": rep.to_jsonable(),
    }
    ok = (details["pair_isomorphism_verified"]
          and details["conjugation_bijection"])
    return _verdict(ok, details)


def _run_thi_neq_tti(p):
    ring, n = p["ring"], p["n"]
    thi = exhaustive_set(make_thi(n, ring), p["budget"], p["jobs"])
    tti = exhaustive_set(make_tti(n, n, ring), p["budget"], p["jobs"])
    details = {
        "hat_triple_order": thi.order,
        "tilde_triple_order": tti.order,
        "orders_differ": thi.order != tti.order,
    }
    ok = details["orders_differ"]
    return _verdict(ok, details)


# -- catalog ------------------------------------------------------------------

class Claim:
    """One catalog entry: id, one-line statement, the least value of each
    dimension it takes (dims), whether it needs m != n, desk defaults."""

    def __init__(self, cid, summary, dims, defaults, runner,
                 distinct=False):
        self.id = cid
        self.summary = summary
        self.dims = dims
        self.defaults = defaults
        self.runner = runner
        self.distinct = distinct


CATALOG = {c.id: c for c in [
    Claim("autV-IV",
          "pair automorphisms of the bilinear-form pair are exactly the "
          "orthogonal similitude images",
          {"n": 1}, {"ring": "F5", "n": 2}, _family_runner(
              lambda p: make_type_iv_pair(standard_form(p["ring"], p["n"])))),
    Claim("autT-IV",
          "triple automorphisms of the normalized bilinear-form triple are "
          "exactly the isometry images",
          {"n": 1}, {"ring": "F5", "n": 2}, _family_runner(
              lambda p: make_type_iv_triple(standard_form(p["ring"],
                                                          p["n"])))),
    Claim("aut-TJI",
          "triple automorphisms of the form-algebra triple are scalars "
          "squaring to one times algebra automorphisms",
          {"n": 1}, {"ring": "F5", "n": 3}, _run_aut_tji),
    Claim("mnplus-structure",
          "automorphisms of the full matrix Jordan algebra are the "
          "idempotent-twisted conjugations",
          {"n": 1}, {"ring": "F3", "n": 2},
          _family_runner(lambda p: make_mn_plus(p["n"], p["ring"]))),
    Claim("detSim",
          "a linear similitude of the determinant splits as left "
          "multiplication by its value at 1 after an isometry",
          {"n": 1}, {"ring": "F3", "n": 2}, _run_detsim),
    Claim("phi-n-kernel",
          "the kernel of the determinant-similitude parametrization is the "
          "inverse-scalar torus",
          {"n": 2}, {"ring": "F3", "n": 2}, _run_phin_kernel),
    Claim("vhi-square",
          "square matrix-pair automorphisms are the central product of two "
          "linear groups extended by the transpose twist",
          {"n": 1}, {"ring": "F3", "n": 2}, _run_vhi_square),
    Claim("vhi-rect",
          "rectangular matrix-pair automorphisms are the central product "
          "of two linear groups",
          {"m": 1, "n": 1}, {"ring": "F3", "m": 1, "n": 2}, _run_vhi_rect,
          distinct=True),
    Claim("tti-multiplier",
          "rectangular tilde-triple automorphisms are two-sided similitude "
          "multiplications with inverse multipliers",
          {"m": 1, "n": 1}, {"ring": "F3", "m": 1, "n": 2},
          _family_runner(lambda p: make_tti(p["m"], p["n"], p["ring"])),
          distinct=True),
    Claim("thi-product",
          "square hat-triple automorphisms are sign scalars times "
          "idempotent-twisted conjugations",
          {"n": 2}, {"ring": "F3", "n": 2}, _run_thi_product),
    Claim("schemesJandJTS",
          "scalar-times-automorphism factorization is a group isomorphism "
          "onto the triple automorphism group",
          {"n": 1}, {"ring": "F5", "n": 3}, _run_schemes),
    Claim("block-grading",
          "the block grading of the general linear Lie algebra recovers "
          "the rectangular matrix pair",
          {"m": 1, "n": 1}, {"ring": "F3", "m": 1, "n": 2},
          _run_block_grading),
    Claim("lambda-iso",
          "adjoining a square root of minus one identifies the form-algebra "
          "pair with the bilinear-form pair one dimension up",
          {"n": 1}, {"ring": "F5", "n": 2}, _run_lambda_iso),
    Claim("vti-vhi-iso",
          "transposing the minus side identifies the tilde pair with the "
          "hat pair and conjugates one automorphism group onto the other",
          {"m": 1, "n": 1}, {"ring": "F3", "m": 1, "n": 2}, _run_vti_vhi),
    Claim("thi-neq-tti",
          "square hat and tilde triples have different automorphism group "
          "orders",
          {"n": 2}, {"ring": "F3", "n": 2}, _run_thi_neq_tti),
]}


def claim_ids():
    return list(CATALOG)


def list_claims():
    return [{"id": c.id, "summary": c.summary, "defaults": dict(c.defaults)}
            for c in CATALOG.values()]


def run_claim(claim_id: str, ring=None, n=None, m=None,
              budget=None, jobs: int = 1) -> dict:
    """Run one catalog claim and return its JSON-able report.

    Unset parameters fall back to the claim's desk-scale defaults.  A
    dimension below its least value, or m == n where the claim needs
    m != n, raises BadDims before the runner starts, and jobs < 1
    BadInput.  The report never depends on jobs; see exhaustive_set.
    """
    claim = CATALOG.get(claim_id)
    if claim is None:
        raise UnknownClaim(
            f"{claim_id!r}; known ids: {', '.join(CATALOG)}")
    check_jobs(jobs)
    given = {"n": n, "m": m}
    for name, value in given.items():
        if value is not None and name not in claim.dims:
            raise BadInput(f"claim {claim_id} takes no parameter {name}")
    ring = claim.defaults["ring"] if ring is None else ring
    if not isinstance(ring, Ring):
        ring = parse_ring(str(ring))
    params = {"ring": ring, "budget": budget, "jobs": jobs}
    for name, least in claim.dims.items():
        params[name] = int(claim.defaults[name] if given[name] is None
                           else given[name])
        if params[name] < least:
            raise BadDims(f"claim {claim_id} needs {name} >= {least}, "
                          f"got {params[name]}")
    if claim.distinct and params["m"] == params["n"]:
        raise BadDims(f"claim {claim_id} needs m != n")
    outcome, passed, details = claim.runner(params)
    shown = {"ring": ring.name, **{name: params[name] for name in claim.dims},
             "budget": DEFAULT_BUDGET if budget is None else int(budget)}
    return {
        "claim": claim.id,
        "summary": claim.summary,
        "parameters": shown,
        "outcome": outcome,
        "pass": passed,
        "details": details,
    }
