"""Claim catalog: every entry runs green at its defaults, reports are stable."""
import json

import pytest

from jpaut import (Matrix, PrimeField, make_t_iv, parse_system, run_claim,
                   claim_ids, list_claims, standard_form)
from jpaut.claims import exhaustive_set, standard_generated
from jpaut.errors import BadInput, BudgetExceeded, UnknownClaim
from jpaut.oracle import compare
from jpaut.matrix import BilinearForm

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
                                        ("TtI(2,2,F3)", 128)])
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
