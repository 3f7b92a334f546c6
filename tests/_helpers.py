"""Shared test utilities: deterministic invertible-matrix samples and
random structures over prime fields."""
import random

import numpy as np

from jpaut import (BudgetExceeded, JordanAlgebra, JordanPair, JordanTriple,
                   Matrix, PrimeField)
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


# -- the byte-string row keys that the packed int64 keys replaced ------------
#
# The oracle once keyed each row by an opaque void view of its bytes and
# sorted by its columns.  These are that implementation, kept as the named
# reference the packed keys (oracle._Rows.words and key) are tested against.


def byte_keys(rows):
    """Rows as one opaque void key each, for sorting and searchsorted."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))
                     ).ravel()


def column_sorted_unique(codec, rows):
    """rows without repeats, in element_key order, by one lexsort of all
    the columns, payload ranks first off F_p."""
    ranked = rows
    if not codec.residues:
        pool = list(codec.index)
        rank = np.empty(len(pool), dtype=np.int64)
        rank[sorted(range(len(pool)), key=pool.__getitem__)] = \
            np.arange(len(pool))
        ranked = rank[rows]
    order = np.lexsort(ranked.T[::-1])
    ranked = ranked[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return rows[order[fresh]]


def byte_key_closure(codec, gen_rows, budget):
    """Rows of the identity's closure under right multiplication by the
    generator rows, one generator at a time, ascending by byte key; raises
    BudgetExceeded past budget elements."""
    frontier = codec.encode([codec.identity])
    seen = byte_keys(frontier)
    while len(frontier) and len(gen_rows):
        keys = np.sort(byte_keys(np.concatenate(
            [codec.times(frontier, r[None]) for r in gen_rows])))
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
        pos = np.searchsorted(seen, keys)
        fresh = seen[np.minimum(pos, len(seen) - 1)] != keys
        if len(seen) + np.count_nonzero(fresh) > budget:
            raise BudgetExceeded(f"closure exceeded budget {budget}")
        seen = np.insert(seen, pos[fresh], keys[fresh])
        frontier = keys[fresh].view(np.int64).reshape(-1, codec.width)
    return seen.view(np.int64).reshape(-1, codec.width)


def byte_key_group_closed(aset):
    """AutomorphismSet.verify_group_closed on byte keys: grow a generating
    subset greedily until its closure covers the set or leaves it."""
    if not aset.order:
        return False
    codec = aset.codec
    mine = byte_keys(aset.rows)
    unique = np.sort(mine)

    def member(keys, sorted_keys):
        pos = np.minimum(np.searchsorted(sorted_keys, keys),
                         len(sorted_keys) - 1)
        return sorted_keys[pos] == keys

    gens = aset.rows[:0]
    while True:
        try:
            closed = byte_keys(byte_key_closure(codec, gens, len(unique)))
        except BudgetExceeded:
            return False
        if np.count_nonzero(member(unique, closed)) < len(closed):
            return False
        inside = member(mine, closed)
        if inside.all():
            return True
        at = int(np.argmin(inside))
        gen = codec.decode(aset.rows[at:at + 1])[0]
        sides = (gen.plus, gen.minus) if hasattr(gen, "plus") else (gen,)
        if not all(m.is_invertible() for m in sides):
            return False
        gens = np.concatenate([gens, aset.rows[at:at + 1]])
