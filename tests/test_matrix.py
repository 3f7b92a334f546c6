"""Matrix layer: arithmetic, determinants, forms, orthogonal groups."""
import pytest
from hypothesis import given, strategies as st

from jpaut import (PrimeField, Rationals, Matrix, BilinearForm, standard_form,
                   enumerate_matrices, enumerate_GL, enumerate_GO, enumerate_O,
                   gl_order, ProductRing, fastscan)
from jpaut.matrix import similitude_multiplier, solve_scalar_multiple
from jpaut.errors import (BadInput, ShapeMismatch, NotInvertible,
                          DegenerateForm)

F3 = PrimeField(3)
F5 = PrimeField(5)
Q = Rationals()

mat_entries = st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                       min_size=3, max_size=3)


def test_identity_and_diagonal():
    i2 = Matrix.identity(F3, 2)
    assert i2.entries == ((1, 0), (0, 1))
    d = Matrix.diagonal(F5, [F5.from_int(2), F5.from_int(3)])
    assert d.entries == ((2, 0), (0, 3))
    assert d.det() == F5.from_int(6 % 5)


def test_transpose_involution():
    m = Matrix.build(F3, [[1, 2], [0, 1]])
    assert m.transpose().transpose() == m
    assert m.transpose().entries == ((1, 0), (2, 1))


def test_matmul_shape_guard():
    a = Matrix.build(F3, [[1, 0], [0, 1]])
    b = Matrix.build(F3, [[1], [2]])
    assert (a @ b).entries == ((1,), (2,))
    with pytest.raises(ShapeMismatch):
        b @ a @ b


@given(mat_entries, mat_entries, mat_entries)
def test_matmul_laws_f5(ea, eb, ec):
    a, b, c = (Matrix.build(F5, e) for e in (ea, eb, ec))
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c


@given(mat_entries, mat_entries)
def test_det_multiplicative_f5(ea, eb):
    a, b = Matrix.build(F5, ea), Matrix.build(F5, eb)
    assert (a @ b).det() == a.det() * b.det()


def test_det_known_values():
    assert Matrix.build(Q, [[1, 2], [3, 4]]).det() == Q.from_int(-2)
    assert Matrix.build(F5, [[1, 2], [3, 4]]).det() == F5.from_int(3)
    assert Matrix.build(F3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == F3.one


def test_inverse_on_all_of_gl2_f3():
    i2 = Matrix.identity(F3, 2)
    count = 0
    for a in enumerate_GL(2, F3):
        count += 1
        assert a.is_invertible()
        assert a @ a.inverse() == i2
    # |GL_2(F_3)| = (9 - 1)(9 - 3) = 48
    assert count == 48 == gl_order(F3, 2)


def test_singular_matrix_has_no_inverse():
    s = Matrix.build(F3, [[1, 2], [2, 1]])  # rows sum to 0 mod 3
    assert not s.is_invertible()
    with pytest.raises(NotInvertible):
        s.inverse()


def test_gl_order_values():
    assert gl_order(F5, 2) == 480
    assert gl_order(F3, 4) == (81 - 1) * (81 - 3) * (81 - 9) * (81 - 27)
    assert gl_order(ProductRing(F3, F3), 2) == 48 * 48
    assert gl_order(F3, 1) == 2


def test_enumerate_matrices_count():
    assert len(list(enumerate_matrices(F3, 2, 2))) == 81
    assert len(list(enumerate_matrices(F3, 1, 2))) == 9


def test_standard_form_is_identity_gram():
    f = standard_form(F3, 3)
    assert f.gram == Matrix.identity(F3, 3)
    assert f.ring == F3


def test_bilinear_form_validation():
    with pytest.raises(ShapeMismatch):
        BilinearForm(Matrix.build(F3, [[1, 0]]))
    with pytest.raises(DegenerateForm):
        BilinearForm(Matrix.build(F3, [[1, 1], [0, 1]]))  # not symmetric
    with pytest.raises(DegenerateForm):
        BilinearForm(Matrix.build(F3, [[1, 0], [0, 0]]))  # singular


def test_similitude_multiplier():
    form = standard_form(F5, 2)
    assert similitude_multiplier(Matrix.identity(F5, 2), form) == F5.one
    two_i = Matrix.identity(F5, 2) * F5.from_int(2)
    assert similitude_multiplier(two_i, form) == F5.from_int(4)
    shear = Matrix.build(F5, [[1, 1], [0, 1]])
    assert similitude_multiplier(shear, form) is None


def test_orthogonal_group_orders():
    # dim 2 over F3: the form x^2 + y^2 is anisotropic, O has order 8
    assert len(list(enumerate_O(standard_form(F3, 2)))) == 8
    assert len(list(enumerate_GO(standard_form(F3, 2)))) == 16
    # dim 2 over F5: split (i exists), O has order 8, four multipliers
    assert len(list(enumerate_O(standard_form(F5, 2)))) == 8
    assert len(list(enumerate_GO(standard_form(F5, 2)))) == 32
    assert len(list(enumerate_O(standard_form(F3, 1)))) == 2
    assert len(list(enumerate_GO(standard_form(F3, 1)))) == 2


def test_similitudes_past_the_fast_bound_take_the_pure_filter(monkeypatch):
    # a prime the fast scans refuse gets the pure filter, which gives the
    # fast path's stream in the same order
    form = BilinearForm(Matrix.build(F5, [[0, 1], [1, 0]]))
    fast = [list(enumerate_GO(form)), list(enumerate_O(form))]
    assert [len(s) for s in fast] == [32, 8]

    def refused(*args, **kwargs):
        raise AssertionError("scan_similitudes ran past supports(p)")
    monkeypatch.setattr(fastscan, "supports", lambda p: p != 5)
    monkeypatch.setattr(fastscan, "scan_similitudes", refused)
    assert [list(enumerate_GO(form)), list(enumerate_O(form))] == fast


def test_isometries_are_the_multiplier_one_similitudes():
    form = standard_form(F3, 2)
    gos = list(enumerate_GO(form))
    os_ = {a.entries for a in enumerate_O(form)}
    for a in gos:
        mult = similitude_multiplier(a, form)
        assert mult is not None
        assert (a.entries in os_) == (mult == F3.one)


def test_solve_scalar_multiple():
    m = Matrix.build(F3, [[1, 1], [0, 1]])  # not a scalar matrix
    assert solve_scalar_multiple(F3, m * F3.from_int(2), m) == 2
    assert solve_scalar_multiple(F3, Matrix.build(F3, [[0, 0], [0, 0]]), m) == 0
    assert solve_scalar_multiple(F3, Matrix.identity(F3, 2), m) is None


def test_to_jsonable_payload_strings():
    m = Matrix.build(F3, [[1, 2], [0, 1]])
    assert m.to_jsonable() == [["1", "2"], ["0", "1"]]


def test_determinants_above_four_need_a_field():
    # Leibniz runs up to n = 4 on every ring; above that elimination
    # needs a field
    rng = ProductRing(F3, F3)
    with pytest.raises(BadInput):
        Matrix.identity(rng, 5).det()
    with pytest.raises(BadInput):
        Matrix.identity(rng, 5).inverse()
    assert Matrix.identity(rng, 4).det() == rng.one
    a = Matrix.build(F5, [[(i * j + i + 2 * (i == j)) % 5 for j in range(5)]
                          for i in range(5)])
    assert a.is_invertible()
    assert a @ a.inverse() == Matrix.identity(F5, 5)
    assert a.adjugate() == a.inverse().scale(a.det().payload)
    assert not (a - a).is_invertible()
    with pytest.raises(NotInvertible):
        (a - a).inverse()
