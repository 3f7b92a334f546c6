"""Shared test utilities: deterministic invertible-matrix samples and
random structures over prime fields."""
import random

import numpy as np

from jpaut import (JordanAlgebra, JordanPair, JordanTriple, Matrix,
                   PrimeField)
from jpaut.jordan import add_vec, basis_vector, bilinear_eval, sub_vec


def some_gl(ring, n, count, seed=7):
    """Deterministic sample of invertible n x n matrices over ring."""
    rng = random.Random(seed)
    out, tries = [], 0
    size = ring.size if ring.is_finite else None
    while len(out) < count and tries < 5000:
        tries += 1
        ent = [[ring.from_int(rng.randrange(0, size or 7)).payload
                for _ in range(n)] for _ in range(n)]
        m = Matrix(ring, n, n, tuple(tuple(r) for r in ent))
        if m.is_invertible():
            out.append(m)
    assert len(out) == count, (ring.name, n)
    return out


def apply_bracket(g, x, y):
    """[x, y] in the graded algebra g, one bilinear evaluation of its
    bracket table: the oracle for gradelie's table lookups."""
    return bilinear_eval(g.ring, g.bracket, tuple(x), tuple(y), g.dim)


def matrix_units(ring, rows, cols):
    """The matrix units E_ij of M_{rows,cols} in row-major order."""
    out = []
    for i in range(rows):
        for j in range(cols):
            ent = [[ring.zero_p] * cols for _ in range(rows)]
            ent[i][j] = ring.one_p
            out.append(Matrix(ring, rows, cols, tuple(tuple(r) for r in ent)))
    return out


# -- the matrix-product construction of the type I constants ---------------
#
# The catalog contracts one-hot unit arrays into integer counts; the oracle
# below evaluates every product of matrix units with Matrix arithmetic over
# the ring itself.


def _entries(m):
    return tuple(p for row in m.entries for p in row)


def hat_product(x, y, z):
    return x @ y @ z + z @ y @ x


def tilde_product(x, y, z):
    yt = y.transpose()
    return x @ yt @ z + z @ yt @ x


def triple_tensor(bx, by, bz, product):
    """T[a][b][c] = the coordinates of product(bx[a], by[b], bz[c])."""
    return tuple(tuple(tuple(_entries(product(x, y, z)) for z in bz)
                       for y in by) for x in bx)


def matrix_product_parts(tag, ring, dims):
    """The parts of the catalog system tag(*dims, ring), by field name,
    from Matrix products of matrix units."""
    if tag == "Mplus":
        (n,) = dims
        units = matrix_units(ring, n, n)
        half = ring.half_p
        product = tuple(tuple(tuple(ring.mul(half, p)
                                    for p in _entries(x @ y + y @ x))
                              for y in units) for x in units)
        return {"product": product,
                "unit": _entries(Matrix.identity(ring, n))}
    if tag == "ThI":
        units = matrix_units(ring, *dims, *dims)
        return {"tensor": triple_tensor(units, units, units, hat_product)}
    m, n = dims
    if tag == "VhI":
        plus, minus = matrix_units(ring, m, n), matrix_units(ring, n, m)
        return {"t_plus": triple_tensor(plus, minus, plus, hat_product),
                "t_minus": triple_tensor(minus, plus, minus, hat_product)}
    units = matrix_units(ring, m, n)
    t = triple_tensor(units, units, units, tilde_product)
    return {"tensor": t} if tag == "TtI" else {"t_plus": t, "t_minus": t}


def basis_vector_triple(alg):
    """The tensor of {x,y,z} = (xy)z + (zy)x - (zx)y, every product taken
    by alg.multiply on basis vectors."""
    ring, d, mul = alg.ring, alg.dim, alg.multiply
    e = [basis_vector(ring, d, i) for i in range(d)]
    return tuple(tuple(tuple(
        sub_vec(ring, add_vec(ring, mul(mul(x, y), z), mul(mul(z, y), x)),
                mul(mul(z, x), y))
        for z in e) for y in e) for x in e)


def nested(arr):
    """Nested lists as nested tuples, the structures' payload layout."""
    return tuple(nested(x) for x in arr) if isinstance(arr, list) else arr


def random_structure(kind, p, d, fill, seed):
    """A triple, traced pair or unital algebra over F_p, not necessarily
    Jordan.  fill "zero" is the zero product; "identity" is the product of
    the standard form, {x, y, z} = (x.y) z and x y = (x.y) e_0, whose traced
    pair has all of GL_d as automorphisms."""
    rng = np.random.default_rng(seed)
    ring = PrimeField(p)
    arity = 2 if kind == "algebra" else 3
    shape = (d,) * (arity + 1)
    if fill == "random":
        tensors = [rng.integers(0, p, size=shape) for _ in range(2)]
    else:
        t = np.zeros(shape, dtype=np.int64)
        if fill == "identity":
            for a in range(d):
                if arity == 3:
                    t[a, a, np.arange(d), np.arange(d)] = 1
                else:
                    t[a, a, 0] = 1
        tensors = [t, t]
    t_plus, t_minus = (nested(t.tolist()) for t in tensors)
    if kind == "triple":
        return JordanTriple(ring, d, t_plus)
    if kind == "pair":
        gram = Matrix.identity(ring, d)
        while fill == "random":
            gram = Matrix.build(ring, rng.integers(0, p, size=(d, d)).tolist())
            if gram.is_invertible():
                break
        return JordanPair(ring, d, d, t_plus, t_minus, gram)
    unit = np.zeros(d, dtype=np.int64)
    unit[0] = 1
    while fill == "random":
        unit = rng.integers(0, p, size=d)
        if unit.any():
            break
    return JordanAlgebra(ring, d, t_plus, tuple(int(x) for x in unit))
