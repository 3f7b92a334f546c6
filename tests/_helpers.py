"""Shared test utilities: deterministic invertible-matrix samples and
random structures over prime fields."""
import random

import numpy as np

from jpaut import (JordanAlgebra, JordanPair, JordanTriple, Matrix,
                   PrimeField)


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


def unit_basis(ring, n):
    """The n*n matrix units E_ij in row-major order."""
    out = []
    for i in range(n):
        for j in range(n):
            rows = [[ring.zero_p] * n for _ in range(n)]
            rows[i][j] = ring.one_p
            out.append(Matrix(ring, n, n, tuple(tuple(r) for r in rows)))
    return out


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
