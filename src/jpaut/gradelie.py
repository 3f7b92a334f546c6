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
from .jordan import JordanPair, add_vec, bilinear_eval, zero_vector
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

    def apply_bracket(self, x, y):
        return bilinear_eval(self.ring, self.bracket, tuple(x), tuple(y),
                             self.dim)

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
    basis = [tuple(ring.one_p if i == u else ring.zero_p for i in range(dim))
             for u in range(dim)]
    for u in range(dim):
        for v in range(dim):
            for w in range(dim):
                checked += 1
                acc = g.apply_bracket(g.bracket[u][v], basis[w])
                acc = add_vec(ring, acc,
                              g.apply_bracket(g.bracket[v][w], basis[u]))
                acc = add_vec(ring, acc,
                              g.apply_bracket(g.bracket[w][u], basis[v]))
                if acc != zero:
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
    dim = g.dim

    def project(vec, wing, at):
        for c, p in enumerate(vec):
            if p != ring.zero_p and c not in wing:
                raise GradingViolation(
                    f"triple product left its wing at {at}, component {c}")
        return tuple(vec[c] for c in wing)

    def wing_tensor(first, second):
        ds, do = len(first), len(second)
        rows = []
        for a in range(ds):
            row = []
            for b in range(do):
                inner = g.bracket[first[a]][second[b]]
                entry = []
                for c in range(ds):
                    basis_c = tuple(ring.one_p if i == first[c] else ring.zero_p
                                    for i in range(dim))
                    val = g.apply_bracket(inner, basis_c)
                    entry.append(project(val, first, (a, b, c)))
                row.append(tuple(entry))
            rows.append(tuple(row))
        return tuple(rows)

    t_plus = wing_tensor(plus, minus)
    t_minus = wing_tensor(minus, plus)
    return JordanPair(ring, len(plus), len(minus), t_plus, t_minus, None,
                      name=f"gradepair({g.m},{g.n},{ring.name})")
