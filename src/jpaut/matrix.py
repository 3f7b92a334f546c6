"""Exact matrices over the ring tower, symmetric bilinear forms, and
deterministic enumeration of GL, GO and O at desk scale.

Matrices store canonical payloads; all arithmetic goes through the ring's
payload methods, so results stay canonical and hashable.  Enumeration streams
scan entries in row-major lexicographic order of the ring's canonical element
order, which fixes the candidate indexing used everywhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadInput,
    DegenerateForm,
    IncompatibleRings,
    NonEnumerableRing,
    NotInvertible,
    ShapeMismatch,
)
from .ring import Payload, PrimeField, Ring, RingElement, component_inverse

Vec = tuple  # payload vectors


@lru_cache(maxsize=None)
def perms_with_signs(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The permutations of range(n) with their signs, the Leibniz terms."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def as_payload_vec(ring: Ring, vec: Sequence) -> Vec:
    """Coerce a sequence of RingElement/int/payload to a payload tuple."""
    out = []
    for v in vec:
        if isinstance(v, RingElement):
            if v.ring != ring:
                raise IncompatibleRings(f"{v.ring.name} vs {ring.name}")
            out.append(v.payload)
        elif isinstance(v, int):
            out.append(ring.int_payload(v))
        else:
            out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix with payload entries."""

    ring: Ring
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples, payloads

    # -- constructors -------------------------------------------------------
    @classmethod
    def build(cls, ring: Ring, rows: Iterable[Iterable]) -> "Matrix":
        """Build from rows of RingElement, int or raw payload entries."""
        data = tuple(as_payload_vec(ring, row) for row in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise ShapeMismatch("ragged rows")
        return cls(ring, len(data), ncols, data)

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        one, zero = ring.one_p, ring.zero_p
        return cls(ring, n, n,
                   tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)))

    @classmethod
    def zeros(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        zero = ring.zero_p
        return cls(ring, rows, cols, tuple(tuple(zero for _ in range(cols))
                                           for _ in range(rows)))

    @classmethod
    def diagonal(cls, ring: Ring, diag: Sequence) -> "Matrix":
        d = as_payload_vec(ring, diag)
        zero = ring.zero_p
        n = len(d)
        return cls(ring, n, n, tuple(tuple(d[i] if i == j else zero
                                           for j in range(n)) for i in range(n)))

    # -- access ---------------------------------------------------------------
    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        add = self.ring.add
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(tuple(add(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        sub = self.ring.sub
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(tuple(sub(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(tuple(neg(a) for a in row) for row in self.entries))

    def _same_shape(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise ShapeMismatch(f"expected Matrix, got {type(other).__name__}")
        if self.ring != other.ring:
            raise IncompatibleRings(f"{self.ring.name} vs {other.ring.name}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        if isinstance(other, RingElement):
            return self.scale(other.payload)
        if isinstance(other, int):
            return self.scale(self.ring.int_payload(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, RingElement):
            return self.scale(other.payload)
        if isinstance(other, int):
            return self.scale(self.ring.int_payload(other))
        return NotImplemented

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self._matmul(other)

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.ring != other.ring:
            raise IncompatibleRings(f"{self.ring.name} vs {other.ring.name}")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        bt = tuple(zip(*other.entries)) if other.entries else ()
        if isinstance(ring, PrimeField):
            p = ring.p
            data = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % p for col in bt)
                for row in self.entries)
        else:
            data = tuple(tuple(ring.dot(row, col) for col in bt)
                         for row in self.entries)
        if self.cols == 0:
            zero = ring.zero_p
            data = tuple(tuple(zero for _ in range(other.cols))
                         for _ in range(self.rows))
        return Matrix(ring, self.rows, other.cols, data)

    def scale(self, c: Payload) -> "Matrix":
        mul = self.ring.mul
        return Matrix(self.ring, self.rows, self.cols,
                      tuple(tuple(mul(c, a) for a in row) for row in self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.cols, self.rows, tuple(zip(*self.entries))
                      if self.entries and self.cols else
                      tuple(() for _ in range(self.cols)) if self.cols else ())

    def apply(self, vec: Vec) -> Vec:
        """Matrix times column vector of payloads."""
        if len(vec) != self.cols:
            raise ShapeMismatch(f"vector of length {len(vec)} vs {self.cols} cols")
        ring = self.ring
        if isinstance(ring, PrimeField):
            p = ring.p
            return tuple(sum(a * b for a, b in zip(row, vec)) % p
                         for row in self.entries)
        return tuple(ring.dot(row, vec) for row in self.entries)

    # -- determinant, adjugate, inverse ---------------------------------------
    def det(self) -> RingElement:
        if not self.is_square:
            raise ShapeMismatch("determinant of a non-square matrix")
        return RingElement(self.ring, self._det_payload())

    def _det_payload(self) -> Payload:
        """Leibniz (at most 24 terms) up to n = 4 on any ring; above that
        Gaussian elimination, which needs a field."""
        if self.rows <= 4:
            return _leibniz_det(self.ring, self.entries, self.rows)
        return _gauss(self.ring, self.entries, self.rows)[0]

    def adjugate(self) -> "Matrix":
        """The classical adjugate: self @ adjugate() == det() * identity."""
        if not self.is_square:
            raise ShapeMismatch("adjugate of a non-square matrix")
        n, ring = self.rows, self.ring
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = tuple(tuple(self.entries[r][c] for c in range(n) if c != i)
                              for r in range(n) if r != j)
                m = Matrix(ring, n - 1, n - 1, minor)._det_payload()
                row.append(ring.neg(m) if (i + j) % 2 else m)
            rows.append(tuple(row))
        return Matrix(ring, n, n, tuple(rows))

    def is_invertible(self) -> bool:
        return self.is_square and self.ring.is_unit(self._det_payload())

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ShapeMismatch("inverse of a non-square matrix")
        ring = self.ring
        if self.rows > 4:
            d, inv = _gauss(ring, self.entries, self.rows)
        else:
            d = self._det_payload()
        if not ring.is_unit(d):
            raise NotInvertible(f"determinant {ring.payload_str(d)} is not a unit")
        return inv if self.rows > 4 else self.adjugate().scale(ring.inv(d))

    # -- serialization ----------------------------------------------------------
    def to_jsonable(self) -> list[list[str]]:
        ps = self.ring.payload_str
        return [[ps(a) for a in row] for row in self.entries]

    def __str__(self):
        return "[" + "; ".join(" ".join(self.ring.payload_str(a) for a in row)
                               for row in self.entries) + "]"


def _leibniz_det(ring: Ring, entries, n: int) -> Payload:
    """Sum over the n! permutations; callers keep n <= 4."""
    if n == 0:
        return ring.one_p
    if n == 1:
        return entries[0][0]
    if n == 2:
        return ring.sub(ring.mul(entries[0][0], entries[1][1]),
                        ring.mul(entries[0][1], entries[1][0]))
    acc = ring.zero_p
    for perm, sign in perms_with_signs(n):
        term = entries[0][perm[0]]
        for i in range(1, n):
            term = ring.mul(term, entries[i][perm[i]])
        acc = ring.add(acc, term) if sign > 0 else ring.sub(acc, term)
    return acc


def _gauss(ring: Ring, entries, n: int):
    """(det, inverse) by Gauss-Jordan elimination over a field; the
    inverse is None when det is zero."""
    if not ring.is_field:
        raise BadInput(f"determinant of size {n} over {ring.name} unsupported")
    a = [list(row) + [ring.one_p if i == j else ring.zero_p for j in range(n)]
         for i, row in enumerate(entries)]
    det = ring.one_p
    for col in range(n):
        pivot = next((r for r in range(col, n) if ring.is_unit(a[r][col])), None)
        if pivot is None:
            return ring.zero_p, None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = ring.neg(det)
        det = ring.mul(det, a[col][col])
        inv_p = ring.inv(a[col][col])
        a[col] = [ring.mul(inv_p, x) for x in a[col]]
        for r in range(n):
            if r == col or a[r][col] == ring.zero_p:
                continue
            f = a[r][col]
            a[r] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(a[r], a[col])]
    return det, Matrix(ring, n, n, tuple(tuple(row[n:]) for row in a))


# ---------------------------------------------------------------------------
# symmetric bilinear forms


@dataclass(frozen=True)
class BilinearForm:
    """Nondegenerate symmetric bilinear form given by its Gram matrix."""

    gram: Matrix

    def __post_init__(self):
        g = self.gram
        if not g.is_square:
            raise ShapeMismatch("Gram matrix must be square")
        if g.entries != g.transpose().entries:
            raise DegenerateForm("Gram matrix must be symmetric")
        if not g.ring.is_unit(g._det_payload()):
            raise DegenerateForm("Gram matrix must be invertible")

    @property
    def ring(self) -> Ring:
        return self.gram.ring

    @property
    def dim(self) -> int:
        return self.gram.rows


def standard_form(ring: Ring, n: int) -> BilinearForm:
    """Sum-of-squares form: Gram matrix is the n x n identity."""
    if n < 0:
        raise BadInput(f"need n >= 0, got {n}")
    return BilinearForm(Matrix.identity(ring, n))


def solve_scalar_multiple(ring: Ring, target: Matrix, base: Matrix) -> Payload | None:
    """The scalar m with target == m * base, if one exists (None otherwise).

    Works over products of fields and dual numbers by solving per primitive
    idempotent component.  For 0 x 0 matrices the answer is 1.
    """
    if (target.rows, target.cols) != (base.rows, base.cols):
        raise ShapeMismatch("shape mismatch in scalar solve")
    if base.rows * base.cols == 0:
        return ring.one_p
    m = ring.zero_p
    for e in ring.primitive_idempotents():
        found = None
        for row_t, row_b in zip(target.entries, base.entries):
            for t, b in zip(row_t, row_b):
                c = component_inverse(ring, e, b)
                if c is not None:
                    found = ring.mul(c, ring.mul(e, t))
                    break
            if found is not None:
                break
        if found is None:
            # base vanishes on this component; target must too
            if any(ring.mul(e, t) != ring.mul(e, ring.zero_p)
                   for row in target.entries for t in row):
                return None
            found = ring.zero_p
        m = ring.add(m, found)
    if base.scale(m).entries != target.entries:
        return None
    return m


def similitude_multiplier(a: Matrix, form: BilinearForm) -> RingElement | None:
    """The unit m with a^T G a == m G, or None when a is no similitude."""
    if a.ring != form.ring:
        raise IncompatibleRings(f"{a.ring.name} vs {form.ring.name}")
    if not a.is_square or a.rows != form.dim:
        raise ShapeMismatch(f"{a.rows}x{a.cols} map on a form of rank {form.dim}")
    lhs = a.transpose() @ form.gram @ a
    m = solve_scalar_multiple(a.ring, lhs, form.gram)
    if m is None or not a.ring.is_unit(m):
        return None
    return RingElement(a.ring, m)


# ---------------------------------------------------------------------------
# deterministic enumeration streams


def enumerate_matrices(ring: Ring, rows: int, cols: int) -> Iterator[Matrix]:
    """All rows x cols matrices, row-major lexicographic in canonical order."""
    if not ring.is_finite:
        raise NonEnumerableRing(f"cannot enumerate matrices over {ring.name}")
    cells = rows * cols
    for flat in itertools.product(ring.payloads(), repeat=cells):
        data = tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))
        yield Matrix(ring, rows, cols, data)


def enumerate_GL(n: int, ring: Ring) -> Iterator[Matrix]:
    """Invertible n x n matrices in enumeration order."""
    for m in enumerate_matrices(ring, n, n):
        if ring.is_unit(m._det_payload()):
            yield m


def enumerate_GO(form: BilinearForm) -> Iterator[Matrix]:
    """Similitudes of the form, in enumeration order."""
    yield from _enumerate_similitudes(form, isometry_only=False)


def enumerate_O(form: BilinearForm) -> Iterator[Matrix]:
    """Isometries of the form (multiplier 1), in enumeration order."""
    yield from _enumerate_similitudes(form, isometry_only=True)


def _enumerate_similitudes(form: BilinearForm,
                           isometry_only: bool) -> Iterator[Matrix]:
    r = form.ring
    n = form.dim
    if n == 0:
        yield Matrix(r, 0, 0, ())
        return
    from . import fastscan
    if isinstance(r, PrimeField) and 2 <= n <= 4 and fastscan.supports(r.p):
        found = fastscan.scan_similitudes(r.p, n, form.gram.entries,
                                          isometry_only)
        # the kernel returns search order; the stream is in index order
        order = np.lexsort(found.reshape(len(found), -1).T[::-1])
        for m in found[order].tolist():
            yield Matrix(r, n, n, tuple(map(tuple, m)))
        return
    one = r.one_p
    for a in enumerate_matrices(r, n, n):
        m = similitude_multiplier(a, form)
        if m is None:
            continue
        if isometry_only and m.payload != one:
            continue
        yield a
