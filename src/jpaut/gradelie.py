"""Block-graded matrix Lie algebra and the pair carried by its wings.

M_{m+n} under [x, y] = xy - yx, graded by block position: the upper-right
m x n block sits in degree 1, the lower-left in degree -1, both diagonal
blocks in degree 0.  The double bracket {x, y, z} = [[x, y], z] on the
degree +-1 wings reproduces the rectangular matrix pair on the nose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import BadDims, GradingViolation
from .jordan import JordanPair, zero_vector
from .ring import Ring


@dataclass(frozen=True)
class GradedGL:
    """Bracket tensor on M_N in the unit basis, with a degree per unit."""
    ring: Ring
    m: int
    n: int
    bracket: tuple  # bracket[u][v] = payload vector of [E_u, E_v]
    degrees: Tuple[int, ...]

    @property
    def size(self) -> int:
        return self.m + self.n

    @property
    def dim(self) -> int:
        return self.size ** 2

    def wing_indices(self, degree: int) -> tuple:
        return tuple(u for u, d in enumerate(self.degrees) if d == degree)


def make_graded_gl(m: int, n: int, ring: Ring) -> GradedGL:
    if m < 1 or n < 1:
        raise BadDims(f"need m, n >= 1, got ({m}, {n})")
    size = m + n
    dim = size * size
    one, zero = ring.one_p, ring.zero_p

    def unit_index(i, j):
        return i * size + j

    degrees = []
    for i in range(size):
        for j in range(size):
            degrees.append((1 if j >= m else 0) - (1 if i >= m else 0))

    rows = []
    for i in range(size):
        for j in range(size):
            row = []
            for k in range(size):
                for l in range(size):
                    # [E_ij, E_kl] = d_jk E_il - d_li E_kj
                    vec = [zero] * dim
                    if j == k:
                        vec[unit_index(i, l)] = ring.add(vec[unit_index(i, l)], one)
                    if l == i:
                        vec[unit_index(k, j)] = ring.sub(vec[unit_index(k, j)], one)
                    row.append(tuple(vec))
            rows.append(tuple(row))
    return GradedGL(ring, m, n, tuple(rows), tuple(degrees))


def _double_brackets(g: GradedGL):
    """double(*uvw), the sum of [[e_u, e_v], e_w] over the index triples
    uvw, read from the nonzero entries of bracket[u][v] and bracket[c][w]."""
    ring, zero = g.ring, g.ring.zero_p
    nonzero = [[[(c, x) for c, x in enumerate(vec) if x != zero]
                for vec in row] for row in g.bracket]

    def double(*uvw):
        acc = [zero] * g.dim
        for u, v, w in uvw:
            for c, x in nonzero[u][v]:
                for k, y in nonzero[c][w]:
                    acc[k] = ring.add(acc[k], ring.mul(x, y))
        return tuple(acc)
    return double


def check_graded_lie(g: GradedGL) -> dict:
    """Exhaustive antisymmetry, Jacobi, and degree additivity on the basis."""
    ring, dim = g.ring, g.dim
    zero = zero_vector(ring, dim)
    checked = 0
    failures = []

    def neg_vec(v):
        return tuple(ring.neg(p) for p in v)

    for u in range(dim):
        for v in range(dim):
            checked += 1
            buv = g.bracket[u][v]
            if buv != neg_vec(g.bracket[v][u]):
                failures.append({"identity": "antisymmetry", "at": (u, v)})
            want = g.degrees[u] + g.degrees[v]
            for c, p in enumerate(buv):
                if p != ring.zero_p and g.degrees[c] != want:
                    failures.append({"identity": "degree-additivity",
                                     "at": (u, v), "component": c})
                    break
    double = _double_brackets(g)
    for u in range(dim):
        for v in range(dim):
            for w in range(dim):
                checked += 1
                if double((u, v, w), (v, w, u), (w, u, v)) != zero:
                    failures.append({"identity": "jacobi", "at": (u, v, w)})
                if len(failures) > 8:
                    return {"ok": False, "checked": checked,
                            "failures": failures}
    return {"ok": not failures, "checked": checked, "failures": failures}


def pair_from_grading(g: GradedGL) -> JordanPair:
    """The pair ({x,y,z} = [[x,y],z]) on (degree +1, degree -1) wings."""
    ring = g.ring
    plus = g.wing_indices(1)
    minus = g.wing_indices(-1)
    double = _double_brackets(g)

    def project(vec, wing, at):
        for c, p in enumerate(vec):
            if p != ring.zero_p and c not in wing:
                raise GradingViolation(
                    f"triple product left its wing at {at}, component {c}")
        return tuple(vec[c] for c in wing)

    def wing_tensor(first, second):
        return tuple(tuple(tuple(
            project(double((u, v, w)), first, (a, b, c))
            for c, w in enumerate(first)) for b, v in enumerate(second))
            for a, u in enumerate(first))

    t_plus = wing_tensor(plus, minus)
    t_minus = wing_tensor(minus, plus)
    return JordanPair(ring, len(plus), len(minus), t_plus, t_minus, None,
                      name=f"gradepair({g.m},{g.n},{ring.name})")
