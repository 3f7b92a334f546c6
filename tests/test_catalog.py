"""System catalog: constructors, the text grammar, named isomorphisms."""
import os
import subprocess
import sys
import textwrap

import pytest

from jpaut import (PrimeField, Rationals, Matrix, check_axioms, standard_form,
                   extended_form, make_type_iv_pair, make_type_iv_triple,
                   make_t_iv, make_bilinear_form_algebra, make_vhi, make_vti,
                   make_tti, make_thi, make_mn_plus, make_bad_pair,
                   parse_system, lambda_isomorphism, vti_to_vhi,
                   find_sqrt_minus_one)
from jpaut.errors import (ParseError, BadDims, NoSquareRootOfMinusOne)
from jpaut.ring import parse_ring

from _helpers import basis_vector_triple, matrix_product_parts

F3 = PrimeField(3)
F5 = PrimeField(5)
Q = Rationals()


def test_constructor_dimensions():
    assert make_type_iv_pair(standard_form(F3, 2)).structure.dplus == 2
    assert make_type_iv_triple(standard_form(F3, 3)).structure.dim == 3
    assert make_t_iv(standard_form(F5, 1)).structure.dim == 2  # 1 + form rank
    assert make_bilinear_form_algebra(standard_form(F5, 1)).structure.dim == 2
    vhi = make_vhi(1, 2, F3).structure
    assert (vhi.dplus, vhi.dminus) == (2, 2)
    assert make_tti(1, 2, F3).structure.dim == 2
    assert make_thi(2, F3).structure.dim == 4
    assert make_mn_plus(2, F3).structure.dim == 4


_CONSTANT_GRID = [(tag, dims) for tag in ("VhI", "VtI", "TtI")
                  for dims in ((1, 1), (1, 2), (2, 2))]
_CONSTANT_GRID += [(tag, (n,)) for tag in ("ThI", "Mplus") for n in (1, 2, 3)]
_CONSTANT_GRID += [("TIV", (n,)) for n in (2, 3, 4)]


@pytest.mark.parametrize("ring_name", ["F3", "F5", "Q", "F3xF3", "F3[t]"])
def test_constants_equal_the_matrix_product_oracle(ring_name):
    # the type I constants come from integer counts of matrix-unit
    # products, and the TIV triple from the algebra's product table; each
    # must equal, payload for payload, its construction over the ring
    ring = parse_ring(ring_name)
    for tag, dims in _CONSTANT_GRID:
        spec = f"{tag}({','.join(map(str, dims))},{ring_name})"
        s = parse_system(spec).structure
        if tag == "TIV":
            alg = make_bilinear_form_algebra(standard_form(ring, dims[0] - 1))
            want = {"tensor": basis_vector_triple(alg.structure)}
        else:
            want = matrix_product_parts(tag, ring, dims)
        for name, parts in want.items():
            assert repr(getattr(s, name)) == repr(parts), (spec, name)


def test_every_maker_satisfies_axioms():
    systems = [
        make_type_iv_pair(standard_form(F3, 2)),
        make_type_iv_triple(standard_form(F5, 2)),
        make_t_iv(standard_form(F5, 1)),
        make_bilinear_form_algebra(standard_form(F3, 2)),
        make_vhi(1, 2, F3), make_vti(1, 2, F5),
        make_tti(1, 2, F3), make_thi(2, F5), make_mn_plus(2, F3),
    ]
    for s in systems:
        assert check_axioms(s.structure).ok, s.name


def test_bad_pair_is_deliberately_broken():
    assert not check_axioms(make_bad_pair(F3)).ok


def test_parse_system_forms():
    s = parse_system("VIV(n=2, ring=F5)")
    assert s.name == "VIV(2,F5)"
    assert parse_system("VhI(1,2,F3)").name == "VhI(1,2,F3)"
    assert parse_system("VhI(m=1, n=2, ring=F3)").name == "VhI(1,2,F3)"
    assert parse_system("TIV(2, F5)").name == "TIV(2,F5)"
    assert parse_system("Mplus(2, F3)").name == "Mplus(2,F3)"
    assert parse_system("BadPair(F3)").name == "BadPair(F3)"


def test_parse_system_round_trips_names():
    for text in ("VIV(2,F5)", "ThatIV(2,F3)", "TIV(3,F5)", "Jbilin(2,F3)",
                 "VhI(1,2,F3)", "VtI(2,2,F5)", "TtI(1,2,F3)", "ThI(2,F3)",
                 "Mplus(2,F3)", "BadPair(F3)"):
        assert parse_system(text).name == text
        assert parse_system(parse_system(text).name).name == text


def test_parse_system_rejections():
    with pytest.raises(ParseError):
        parse_system("Nope(2,F3)")
    with pytest.raises(ParseError):
        parse_system("VIV(2)")  # ring required
    with pytest.raises(ParseError):
        parse_system("VIV(x, F3)")  # non-integer dimension
    with pytest.raises(ParseError):
        parse_system("VhI(1, n=2, ring=F3)")  # mixed positional/keyword dims
    with pytest.raises(ParseError):
        parse_system("VIV(2, F3, extra=1)")
    with pytest.raises(BadDims):
        parse_system("VIV(0, F3)")
    with pytest.raises(ParseError):
        parse_system("VhI(2, F3)")  # needs both m and n


def test_extended_form_prepends_a_one():
    f = extended_form(standard_form(F3, 2))
    assert f.gram == Matrix.identity(F3, 3)


def test_vti_to_vhi_isomorphism_verifies():
    for ring in (F3, F5):
        for (m, n) in ((1, 1), (1, 2), (2, 2)):
            iso = vti_to_vhi(m, n, ring)
            assert iso.verify(), (ring.name, m, n)


def test_lambda_isomorphism_over_f5():
    i = find_sqrt_minus_one(F5)
    assert i.payload == 2
    for rank in (1, 2):
        iso = lambda_isomorphism(standard_form(F5, rank), i)
        assert iso.verify(), rank


def test_lambda_isomorphism_needs_a_square_root_of_minus_one():
    # there is no i in F3; passing any other element must be refused
    with pytest.raises(NoSquareRootOfMinusOne):
        lambda_isomorphism(standard_form(F3, 1), F3.one)
    with pytest.raises(NoSquareRootOfMinusOne):
        lambda_isomorphism(standard_form(Q, 1), Q.one)


_GUARDS_UNDER_O = textwrap.dedent("""
    import os
    import sys
    from jpaut import PrimeField, catalog, cli, standard_form
    from jpaut.errors import AxiomFailure
    from jpaut.jordan import AxiomReport

    print("optimize", sys.flags.optimize)
    F3, F5 = PrimeField(3), PrimeField(5)
    catalog.is_pair_isomorphism = lambda *args: False
    for name, make in (("vti_to_vhi", lambda: catalog.vti_to_vhi(1, 2, F3)),
                       ("lambda", lambda: catalog.lambda_isomorphism(
                           standard_form(F5, 1), 2))):
        try:
            make()
        except AxiomFailure:
            print(name, "raised")
    from jpaut import fastscan, oracle
    from jpaut.errors import DegenerateForm, EngineMismatch
    oracle._carries = lambda *args: False
    for kind, spec in (("pair", "VhI(1,2,F3)"), ("triple", "ThatIV(2,F3)"),
                       ("algebra", "Jbilin(2,F3)")):
        try:
            oracle.enumerate_automorphisms(catalog.parse_system(spec),
                                           engine="fast")
        except EngineMismatch:
            print(kind, "cross-check raised")
    try:
        fastscan.scan_similitudes(3, 2, [[0, 0], [0, 0]], False)
    except DegenerateForm:
        print("zero form raised")
    import _flat_oracle
    for scan in (fastscan.scan_similitudes, _flat_oracle._flat_similitudes):
        try:
            scan(3, 2, [[1, 0], [0, 0]], False)
        except DegenerateForm:
            print(scan.__name__, "singular form raised")
    print("enumerate exit", cli.main(["enumerate", "ThatIV(2,F3)",
                                      "--out", os.devnull]))
    catalog.check_axioms = lambda s: AxiomReport(
        False, "triple", 0, ({"identity": "forced", "at": (0,)},))
    try:
        catalog.make_thi(1, F3)
    except AxiomFailure:
        print("make_thi raised")
    print("verify exit", cli.main(["verify", "ThI(1,F3)", "--out", os.devnull]))
""")


def test_catalog_guards_survive_python_O():
    # asserts vanish under -O; the catalog's axiom and isomorphism checks,
    # the fast-scan cross-checks and the singular-Gram refusal of the
    # similitude scan and its flat oracle must raise there all the same, and
    # the CLI must exit 1 on them
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, tests, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-O", "-c", _GUARDS_UNDER_O],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "optimize 1", "vti_to_vhi raised", "lambda raised",
        "pair cross-check raised", "triple cross-check raised",
        "algebra cross-check raised", "zero form raised",
        "scan_similitudes singular form raised",
        "_flat_similitudes singular form raised", "enumerate exit 1",
        "make_thi raised", "verify exit 1"]
