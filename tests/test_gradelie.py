"""Block grading on gl: degree bookkeeping, bracket laws, pair recovery."""
from dataclasses import replace

import pytest

from jpaut import (PrimeField, make_graded_gl, check_graded_lie,
                   pair_from_grading, make_vhi)
from jpaut.gradelie import _double_brackets

from _helpers import apply_bracket

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_degree_layout():
    g = make_graded_gl(1, 2, F3)
    assert g.size == 3 and g.dim == 9
    # unit E_ij has degree block(j) - block(i); block 0 is the first m rows
    assert g.degrees == (0, 1, 1, -1, 0, 0, -1, 0, 0)
    assert len(g.wing_indices(1)) == 2
    assert len(g.wing_indices(-1)) == 2
    assert len(g.wing_indices(0)) == 5


def test_bracket_spot_value():
    g = make_graded_gl(2, 2, F3)
    # [E_00, E_01] = E_01 in the unit basis (index 4i + j)
    e00 = tuple(1 if k == 0 else 0 for k in range(16))
    e01 = tuple(1 if k == 1 else 0 for k in range(16))
    assert apply_bracket(g, e00, e01) == e01
    assert apply_bracket(g, e01, e00) == tuple(-1 % 3 if k == 1 else 0
                                              for k in range(16))


def test_graded_lie_report():
    rep = check_graded_lie(make_graded_gl(1, 2, F3))
    assert rep["ok"] and rep["failures"] == []
    # antisymmetry on dim^2 pairs plus Jacobi on dim^3 triples
    assert rep["checked"] == 9 ** 2 + 9 ** 3


def test_pair_from_grading_matches_rectangle_pair():
    for ring in (F3, F5):
        for (m, n) in ((1, 1), (1, 2)):
            rec = pair_from_grading(make_graded_gl(m, n, ring))
            direct = make_vhi(m, n, ring).structure
            assert rec.t_plus == direct.t_plus, (ring.name, m, n)
            assert rec.t_minus == direct.t_minus


def _apply_bracket_report(g):
    """check_graded_lie with every double bracket taken by apply_bracket
    on basis vectors: the oracle for its table lookups."""
    ring, dim = g.ring, g.dim
    basis = [tuple(ring.one_p if i == u else ring.zero_p for i in range(dim))
             for u in range(dim)]
    checked, failures = 0, []
    for u in range(dim):
        for v in range(dim):
            checked += 1
            buv = g.bracket[u][v]
            if buv != tuple(ring.neg(p) for p in g.bracket[v][u]):
                failures.append({"identity": "antisymmetry", "at": (u, v)})
            want = g.degrees[u] + g.degrees[v]
            for c, p in enumerate(buv):
                if p != ring.zero_p and g.degrees[c] != want:
                    failures.append({"identity": "degree-additivity",
                                     "at": (u, v), "component": c})
                    break
    for u in range(dim):
        for v in range(dim):
            for w in range(dim):
                checked += 1
                terms = [apply_bracket(g, g.bracket[a][b], basis[c])
                         for a, b, c in ((u, v, w), (v, w, u), (w, u, v))]
                if any(ring.add(ring.add(x, y), z) != ring.zero_p
                       for x, y, z in zip(*terms)):
                    failures.append({"identity": "jacobi", "at": (u, v, w)})
                if len(failures) > 8:
                    return {"ok": False, "checked": checked,
                            "failures": failures}
    return {"ok": not failures, "checked": checked, "failures": failures}


def _corrupted(g, u, v, c, value, mirror):
    """g with component c of [E_u, E_v] set to value, and of [E_v, E_u] to
    -value where mirror holds."""
    rows = [[list(vec) for vec in row] for row in g.bracket]
    rows[u][v][c] = value
    if mirror:
        rows[v][u][c] = g.ring.neg(value)
    return replace(g, bracket=tuple(tuple(tuple(vec) for vec in row)
                                    for row in rows))


@pytest.mark.parametrize("u, v, c, value, mirror", [
    (0, 1, 1, 2, True), (1, 3, 4, 1, False), (4, 8, 8, 1, True),
    (2, 6, 0, 2, True), (1, 3, 1, 1, True)])
def test_double_brackets_equal_apply_bracket_on_corrupted_brackets(
        u, v, c, value, mirror):
    g = _corrupted(make_graded_gl(1, 2, F3), u, v, c, value, mirror)
    assert check_graded_lie(g) == _apply_bracket_report(g)
    assert not check_graded_lie(g)["ok"]
    double = _double_brackets(g)
    basis = [tuple(int(i == w) for i in range(g.dim)) for w in range(g.dim)]
    for x in range(g.dim):
        for y in range(g.dim):
            for w in range(g.dim):
                assert double((x, y, w)) == apply_bracket(
                    g, g.bracket[x][y], basis[w])


def test_jacobi_failures_keep_their_order_and_cap():
    g = _corrupted(make_graded_gl(2, 2, F3), 1, 4, 1, 2, True)
    rep = check_graded_lie(g)
    assert rep == _apply_bracket_report(g)
    assert len(rep["failures"]) == 9
    assert {f["identity"] for f in rep["failures"]} == {"jacobi"}
