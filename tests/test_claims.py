"""Claim catalog: every entry runs green at its defaults, reports are stable."""
import json

import numpy as np
import pytest

from jpaut import (Matrix, PrimeField, make_t_iv, parse_system, run_claim,
                   claim_ids, list_claims, standard_form)
from jpaut.claims import clear_cache, exhaustive_set, standard_generated
from jpaut.errors import (BadInput, BudgetExceeded, NotFactorable,
                          NotSimilitude, UnknownClaim)
from jpaut.oracle import compare
from jpaut.matrix import BilinearForm
from jpaut.ring import RingElement

ALL_IDS = ["autV-IV", "autT-IV", "aut-TJI", "mnplus-structure", "detSim",
           "phi-n-kernel", "vhi-square", "vhi-rect", "tti-multiplier",
           "thi-product", "schemesJandJTS", "block-grading", "lambda-iso",
           "vti-vhi-iso", "thi-neq-tti"]


def test_catalog_ids_are_stable():
    assert claim_ids() == ALL_IDS


def test_listing_shape():
    rows = list_claims()
    assert len(rows) == len(ALL_IDS)
    for row in rows:
        assert {"id", "summary", "defaults"} <= set(row)
    assert [r["id"] for r in rows] == ALL_IDS


@pytest.mark.parametrize("claim_id", ALL_IDS)
def test_claim_passes_at_defaults(claim_id):
    rep = run_claim(claim_id)
    assert rep["pass"] is True, rep
    assert rep["outcome"] == "verified"
    assert set(rep) == {"claim", "summary", "parameters", "outcome", "pass",
                        "details"}


@pytest.mark.parametrize("claim_id", ALL_IDS)
def test_no_jobs_key_anywhere(claim_id):
    rep = run_claim(claim_id)
    assert "jobs" not in json.dumps(rep)


def test_report_echoes_parameters():
    rep = run_claim("vhi-rect", ring="F5", m=1, n=2)
    assert rep["parameters"]["ring"] == "F5"
    assert rep["parameters"]["m"] == 1 and rep["parameters"]["n"] == 2
    assert rep["pass"] and rep["details"]["exhaustive_order"] == 480


def test_product_model_claim_fails_on_the_split_carrier():
    # carrier dim 2: the quadratic algebra is a product of two lines and
    # gains an extra coset of automorphisms that move the unit line
    rep = run_claim("aut-TJI", n=2)
    assert rep["pass"] is False and rep["outcome"] == "failed"
    det = rep["details"]
    assert det["exhaustive_order"] == 8
    assert det["product_model_order"] == 4
    assert det["factorable"] == 4 and det["unfactorable"] == 4
    assert det["products_are_triple_automorphisms"] is True
    # the witnesses swap the two split idempotents: antidiagonal matrices
    assert [["0", "1"], ["1", "0"]] in det["unfactorable_samples"]


def test_product_model_claim_passes_off_the_split_dim():
    for n in (1, 3):
        rep = run_claim("aut-TJI", n=n)
        assert rep["pass"], n
        assert rep["details"]["unfactorable"] == 0


def test_lambda_claim_refuses_without_sqrt_minus_one():
    rep = run_claim("lambda-iso", ring="F3")
    assert rep["pass"] is True and rep["outcome"] == "refused"
    det = rep["details"]
    assert det["sqrt_minus_one"] is None
    assert det["verified_no_square_root"] is True
    assert det["constructor_raises"] == "NoSquareRootOfMinusOne"


def test_lambda_claim_verifies_with_sqrt_minus_one():
    rep = run_claim("lambda-iso", ring="F5", n=3)
    assert rep["pass"] and rep["outcome"] == "verified"
    assert rep["details"]["sqrt_minus_one"] == "2"
    assert rep["details"]["pair_isomorphism_verified"] is True


def test_unknown_claim_lists_the_catalog():
    with pytest.raises(UnknownClaim) as exc:
        run_claim("no-such-claim")
    assert "autV-IV" in str(exc.value)


def test_undeclared_dimension_is_rejected():
    with pytest.raises(BadInput):
        run_claim("detSim", m=2)   # detSim is square only


def test_budget_override_propagates():
    with pytest.raises(BudgetExceeded):
        run_claim("vhi-square", budget=10)


def test_exhaustive_cache_tells_forms_with_one_name_apart():
    # the split form x*x and the non-split form 2*x*x over F5 both build
    # a system named TIV(2,F5); their groups have orders 8 and 4
    f5 = PrimeField(5)
    split = make_t_iv(standard_form(f5, 1))
    field = make_t_iv(BilinearForm(Matrix(f5, 1, 1, ((2,),))))
    assert split.name == field.name == "TIV(2,F5)"
    first = exhaustive_set(split)
    assert first.order == 8
    assert exhaustive_set(field).order == 4
    # an equal system built anew still hits the cache
    assert exhaustive_set(make_t_iv(standard_form(f5, 1))) is first


@pytest.mark.parametrize("spec,order", [("TIV(3,F5)", 16),
                                        ("Jbilin(3,F5)", 8),
                                        ("TtI(2,2,F3)", 128),
                                        ("ThI(2,F3)", 96)])
def test_standard_family_equals_the_exhaustive_set(spec, order):
    system = parse_system(spec)
    ex = exhaustive_set(system, jobs=2)
    fam = standard_generated(system)[0]
    assert (ex.order, fam.order) == (order, order)
    assert compare(ex, fam).equal


def test_lambda_claim_over_the_dual_numbers():
    rep = run_claim("lambda-iso", ring="F5[t]", n=1)
    assert rep["pass"] and rep["outcome"] == "verified"
    assert rep["details"]["conjugated_family_size"] == 20
    assert rep["details"]["conjugates_are_source_automorphisms"] is True


def test_det_similitude_claim_over_the_split_ring():
    rep = run_claim("detSim", ring="F3xF3", n=1)
    assert rep["pass"] and rep["outcome"] == "verified"


@pytest.mark.parametrize("claim_id", ["detSim", "phi-n-kernel"])
def test_family_claims_take_the_budget(claim_id):
    # 3**16 matrices in M_4(F3) exceed the default budget of 30,000,000
    with pytest.raises(BudgetExceeded):
        run_claim(claim_id, n=4)
    with pytest.raises(BudgetExceeded):
        run_claim(claim_id, budget=80)  # 81 matrices in M_2(F3)
    assert run_claim(claim_id, budget=81)["pass"]


def _perturb_first(build):
    """build with column 1 of its first map scaled by 2 mod 3."""
    def perturbed(*args):
        out = build(*args)
        out[0, :, 1] = out[0, :, 1] * 2 % 3
        return out
    return perturbed


def test_detsim_fails_on_a_perturbed_family_member(monkeypatch):
    from jpaut import claims
    clean = claims.twisted_stack(3, 2)[0]
    monkeypatch.setattr(claims, "twisted_stack",
                        _perturb_first(claims.twisted_stack))
    rep = run_claim("detSim")
    assert rep["pass"] is False and rep["outcome"] == "failed"
    bad = rep["details"]["counterexample"]
    assert bad != [[str(x) for x in row] for row in clean.tolist()]
    assert bad[0][1] == str(clean[0, 1] * 2 % 3)


def test_phi_n_kernel_fails_on_a_perturbed_family_member(monkeypatch):
    from jpaut import autfam

    def to_identity(build):
        def perturbed(a, b, tau, p):
            out = build(a, b, tau, p)
            out[0] = np.eye(out.shape[-1], dtype=out.dtype)
            return out
        return perturbed
    monkeypatch.setattr(autfam, "phi_n_stack",
                        to_identity(autfam.phi_n_stack))
    rep = run_claim("phi-n-kernel")
    assert rep["pass"] is False and rep["outcome"] == "failed"
    assert rep["details"] == {"kernel_matches": False}


@pytest.mark.parametrize("claim_id", ["detSim", "phi-n-kernel",
                                      "mnplus-structure", "thi-product",
                                      "vhi-square"])
def test_stacked_families_report_as_the_object_path(claim_id, monkeypatch):
    # the object builders, forced over F3, are the stacks' oracle
    from jpaut import autfam, claims
    stacked = run_claim(claim_id)
    clear_cache()
    for module in (autfam, claims):
        monkeypatch.setattr(module, "has_stacks", lambda ring, n: False)
    assert json.dumps(run_claim(claim_id)) == json.dumps(stacked)


def test_detsim_counterexample_off_f_p_is_a_listed_map(monkeypatch):
    # over F3xF3 the family is a list of Matrix; a zero member has f(1) = 0
    from jpaut import claims
    real = claims._twisted

    def zero_first(ring, n):
        family = real(ring, n)
        assert isinstance(family, list)
        family[0] = family[0] * RingElement(ring, ring.zero_p)
        return family
    monkeypatch.setattr(claims, "_twisted", zero_first)
    rep = run_claim("detSim", ring="F3xF3", n=1)
    assert rep["pass"] is False and rep["outcome"] == "failed"
    assert rep["details"] == {"counterexample": [["(0,0)"]]}


def test_detsim_raises_on_a_product_that_does_not_factor(monkeypatch):
    # a zero first product has f(1) = 0, so it is no similitude at all
    from jpaut import claims
    real = claims.phi_n_stack

    def zero_first(*args):
        out = real(*args)
        out[0] = 0
        return out
    monkeypatch.setattr(claims, "phi_n_stack", zero_first)
    with pytest.raises(NotSimilitude, match=r"f\(1\) is not invertible"):
        run_claim("detSim")


@pytest.mark.parametrize("call", [1, 2])
def test_detsim_reports_a_failed_round_trip(monkeypatch, call):
    # det_factor_codes marks the first map of its call-th batch, the family
    # at 1 and the drawn products at 2, as splitting without L_a phi == f
    from jpaut import claims
    from jpaut.autfam import stack_matrices
    real, batches = claims.det_factor_codes, []

    def marked(ring, n, fs):
        codes = real(ring, n, fs)
        batches.append(fs)
        if len(batches) == call:
            codes[0] = 3
        return codes
    monkeypatch.setattr(claims, "det_factor_codes", marked)
    rep = run_claim("detSim")
    assert rep["pass"] is False and rep["outcome"] == "failed"
    first = stack_matrices(PrimeField(3), batches[-1][:1])[0]
    assert rep["details"] == {"roundtrip_failure": first.to_jsonable()}
    assert len(batches) == call


def test_detsim_fails_when_the_negative_control_is_accepted(monkeypatch):
    from jpaut import claims
    monkeypatch.setattr(claims, "is_det_similitude", lambda f, n: True)
    rep = run_claim("detSim")
    assert rep["pass"] is False and rep["outcome"] == "failed"
    assert rep["details"] == {"negative_control_accepted": True}


def test_schemes_claim_reports_unfactorable_maps(monkeypatch):
    from jpaut import claims

    def refuse(algebra, phi):
        raise NotFactorable("refused")
    monkeypatch.setattr(claims, "factor_triple_aut", refuse)
    rep = run_claim("schemesJandJTS")
    assert rep["pass"] is False and rep["outcome"] == "failed"
    ex = exhaustive_set(make_t_iv(standard_form(PrimeField(5), 2)))
    assert rep["details"] == {
        "exhaustive_order": 16, "unfactorable": 16,
        "unfactorable_samples": [m.to_jsonable() for m in ex.elements[:2]]}
