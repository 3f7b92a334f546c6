"""Jordan pairs, triple systems and algebras as structure-constant data.

Structures live over a fixed ordered basis; products are dense tensors of
ring payloads.  Multilinearity makes every identity checkable on basis
tuples, so axiom checks and automorphism predicates are finite tensor
contractions with no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .errors import (AxiomFailure, BadInput, BudgetExceeded,
                     DegenerateTrace, IncompatibleRings, NotInvertible,
                     ShapeMismatch)
from .matrix import Matrix, as_payload_vec
from .ring import PrimeField, Rationals, Ring, embedding

# nested payload tuples: Tensor[a][b][c] is the coordinate vector of the
# product of basis elements (a, b, c); Product[a][b] likewise for algebras.
Tensor = tuple
Vector = tuple

MAX_AXIOM_DIM = 6  # per-carrier cap for exhaustive identity sweeps
_INT64_LIMIT = 2 ** 63


def _coerce_vec(ring: Ring, vec: Sequence, dim: int) -> Vector:
    if len(vec) != dim:
        raise ShapeMismatch(f"vector length {len(vec)}, expected {dim}")
    return as_payload_vec(ring, vec)


def zero_vector(ring: Ring, dim: int) -> Vector:
    return tuple(ring.zero_p for _ in range(dim))


def basis_vector(ring: Ring, dim: int, i: int) -> Vector:
    return tuple(ring.one_p if j == i else ring.zero_p for j in range(dim))


def add_vec(ring: Ring, x: Vector, y: Vector) -> Vector:
    return tuple(ring.add(a, b) for a, b in zip(x, y))


def sub_vec(ring: Ring, x: Vector, y: Vector) -> Vector:
    return tuple(ring.sub(a, b) for a, b in zip(x, y))


def scale_vec(ring: Ring, c, x: Vector) -> Vector:
    return tuple(ring.mul(c, a) for a in x)


def trilinear_eval(ring: Ring, tensor: Tensor, x: Vector, y: Vector,
                   z: Vector, dim_out: int) -> Vector:
    """Evaluate the trilinear product with coordinates (x, y, z)."""
    acc = list(zero_vector(ring, dim_out))
    zero = ring.zero_p
    for a, xa in enumerate(x):
        if xa == zero:
            continue
        ta = tensor[a]
        for b, yb in enumerate(y):
            if yb == zero:
                continue
            tab = ta[b]
            xy = ring.mul(xa, yb)
            for c, zc in enumerate(z):
                if zc == zero:
                    continue
                coeff = ring.mul(xy, zc)
                vec = tab[c]
                for i in range(dim_out):
                    if vec[i] != zero:
                        acc[i] = ring.add(acc[i], ring.mul(coeff, vec[i]))
    return tuple(acc)


def bilinear_eval(ring: Ring, prod: Tensor, x: Vector, y: Vector,
                  dim_out: int) -> Vector:
    acc = list(zero_vector(ring, dim_out))
    zero = ring.zero_p
    for a, xa in enumerate(x):
        if xa == zero:
            continue
        pa = prod[a]
        for b, yb in enumerate(y):
            if yb == zero:
                continue
            coeff = ring.mul(xa, yb)
            vec = pa[b]
            for i in range(dim_out):
                if vec[i] != zero:
                    acc[i] = ring.add(acc[i], ring.mul(coeff, vec[i]))
    return tuple(acc)


# -- structures -----------------------------------------------------------


def _flatten(tensor, shape: tuple) -> list:
    """The payloads of a nested tensor of the given shape, in C order.

    Raises ShapeMismatch where a level is not a sequence of the declared
    length, so ragged data never reaches a contraction.
    """
    flat = [tensor]
    for depth, n in enumerate(shape):
        if not all(isinstance(row, (tuple, list)) and len(row) == n
                   for row in flat):
            raise ShapeMismatch(f"level {depth} is not of length {n} "
                                f"everywhere; expected shape {shape}")
        flat = [x for row in flat for x in row]
    return flat


def _nest(flat: list, shape: tuple) -> tuple:
    """The payloads of a C-order flat list as nested tuples of the shape."""
    for depth in range(len(shape) - 1, 0, -1):
        n, rows = shape[depth], int(np.prod(shape[:depth]))
        flat = [tuple(flat[i * n:i * n + n]) for i in range(rows)]
    return tuple(flat)


class _Structure:
    """Shape and payload checks, the int64 image over F_p, and the axiom
    report.

    `_parts` lists (name, nested payloads, declared shape) for every tensor,
    the unit and the trace Gram.  Over F_p the payloads must be ints in
    range(p): the identity checks and predicates compare payloads, so 4
    and 1 over F3 would count as different constants.  Tensors and unit
    given as lists are stored as tuples, so the structure is hashable and
    the cached image and report cannot go stale.
    """

    def __post_init__(self):
        p = self.ring.p if isinstance(self.ring, PrimeField) else None
        for name, nested, shape in self._parts():
            flat = _flatten(nested, shape)
            for x in flat:
                if p is not None and (type(x) is not int or not 0 <= x < p):
                    raise BadInput(f"payload {x!r} is not an int in "
                                   f"range({p}) for {self.ring.name}")
            if name != "trace":
                object.__setattr__(self, name, _nest(flat, shape))

    @cached_property
    def _axioms(self) -> "AxiomReport":
        """The check_axioms report, computed on first use."""
        return _axiom_report(self, vectorize=True)

    @cached_property
    def _int64(self) -> Optional[dict]:
        """Read-only int64 arrays of the parts by name, in Jordan layout
        (the output coordinate last); None off F_p or past int64."""
        if not isinstance(self.ring, PrimeField) or self.ring.p > _INT64_LIMIT:
            return None
        image = {}
        for name, nested, shape in self._parts():
            arr = np.array(nested, dtype=np.int64).reshape(shape)
            arr.flags.writeable = False
            image[name] = arr
        return image


def _gram_part(trace: Optional[Matrix], rows: int, cols: int) -> list:
    return [] if trace is None else [("trace", trace.entries, (rows, cols))]


@dataclass(frozen=True)
class JordanPair(_Structure):
    ring: Ring
    dplus: int
    dminus: int
    t_plus: Tensor   # [a+][b-][c+] -> vector in V+
    t_minus: Tensor  # [a-][b+][c-] -> vector in V-
    trace: Optional[Matrix] = None  # Gram of t: V+ x V- -> R, or None
    name: str = "pair"

    def _parts(self) -> list:
        dp, dm = self.dplus, self.dminus
        return [("t_plus", self.t_plus, (dp, dm, dp, dp)),
                ("t_minus", self.t_minus, (dm, dp, dm, dm)),
                *_gram_part(self.trace, dp, dm)]

    def tensor(self, sigma: int) -> Tensor:
        return self.t_plus if sigma > 0 else self.t_minus

    def dim(self, sigma: int) -> int:
        return self.dplus if sigma > 0 else self.dminus

    def bracket(self, sigma: int, x: Vector, y: Vector, z: Vector) -> Vector:
        d = self.dim(sigma)
        if len(x) != d or len(z) != d or len(y) != self.dim(-sigma):
            raise ShapeMismatch("bracket operands do not match carrier dims")
        return trilinear_eval(self.ring, self.tensor(sigma), x, y, z, d)


@dataclass(frozen=True)
class JordanTriple(_Structure):
    ring: Ring
    dim: int
    tensor: Tensor
    trace: Optional[Matrix] = None
    name: str = "triple"

    def _parts(self) -> list:
        d = self.dim
        return [("tensor", self.tensor, (d, d, d, d)),
                *_gram_part(self.trace, d, d)]

    def bracket(self, x: Vector, y: Vector, z: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim or len(z) != self.dim:
            raise ShapeMismatch("bracket operands do not match dim")
        return trilinear_eval(self.ring, self.tensor, x, y, z, self.dim)


@dataclass(frozen=True)
class JordanAlgebra(_Structure):
    ring: Ring
    dim: int
    product: Tensor  # [a][b] -> vector
    unit: Optional[Vector] = None
    name: str = "algebra"

    def _parts(self) -> list:
        d = self.dim
        unit = [] if self.unit is None else [("unit", self.unit, (d,))]
        return [("product", self.product, (d, d, d)), *unit]

    def multiply(self, x: Vector, y: Vector) -> Vector:
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeMismatch("product operands do not match dim")
        return bilinear_eval(self.ring, self.product, x, y, self.dim)


@dataclass(frozen=True)
class PairMap:
    """A pair of invertible matrices acting on the two carriers."""
    plus: Matrix
    minus: Matrix

    def __post_init__(self):
        if self.plus.ring != self.minus.ring:
            raise IncompatibleRings("carrier maps over different rings")
        if self.plus.rows != self.plus.cols or self.minus.rows != self.minus.cols:
            raise ShapeMismatch("carrier maps must be square")

    @classmethod
    def identity(cls, ring: Ring, dplus: int, dminus: int) -> "PairMap":
        return cls(Matrix.identity(ring, dplus), Matrix.identity(ring, dminus))

    def compose(self, other: "PairMap") -> "PairMap":
        return PairMap(self.plus @ other.plus, self.minus @ other.minus)

    def inverse(self) -> "PairMap":
        return PairMap(self.plus.inverse(), self.minus.inverse())

    def to_jsonable(self) -> dict:
        return {"plus": self.plus.to_jsonable(), "minus": self.minus.to_jsonable()}


# -- axiom checking -------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    kind: str
    checked: int
    failures: tuple = ()

    def first_failure(self) -> Optional[dict]:
        return self.failures[0] if self.failures else None


def _d_matrix(ring: Ring, tensor: Tensor, x: Vector, y: Vector,
              dim: int) -> Matrix:
    cols = []
    for c in range(dim):
        z = basis_vector(ring, dim, c)
        cols.append(trilinear_eval(ring, tensor, x, y, z, dim))
    # columns are images of basis vectors
    return Matrix(ring, dim, dim,
                  tuple(tuple(cols[c][r] for c in range(dim))
                        for r in range(dim)))


def d_operator(pair: JordanPair, sigma: int, x: Vector, y: Vector) -> Matrix:
    """Matrix of z -> {x,y,z}^sigma on the sigma carrier."""
    pair = unwrap(pair)
    x = _coerce_vec(pair.ring, x, pair.dim(sigma))
    y = _coerce_vec(pair.ring, y, pair.dim(-sigma))
    return _d_matrix(pair.ring, pair.tensor(sigma), x, y, pair.dim(sigma))


def q_operator(pair: JordanPair, sigma: int, x: Vector, y: Vector) -> Vector:
    """Q_x(y) = (1/2){x,y,x}^sigma."""
    pair = unwrap(pair)
    x = _coerce_vec(pair.ring, x, pair.dim(sigma))
    y = _coerce_vec(pair.ring, y, pair.dim(-sigma))
    half = pair.ring.half_p
    out = trilinear_eval(pair.ring, pair.tensor(sigma), x, y, x, pair.dim(sigma))
    return scale_vec(pair.ring, half, out)


def _check_pair_tensors(ring: Ring, tensors: dict, dims: dict,
                        sigmas: tuple) -> list:
    """Shared identity sweep over `sigmas`; tensors/dims keyed by sigma in
    {1,-1}.  Stops at the ninth failure.  Over data equal at both signs the
    sigma = -1 sweep repeats the sigma = +1 one step for step, so there
    _axiom_report sweeps (1,) alone and relabels the list.
    """
    failures = []
    # outer symmetry on basis triples
    for sigma in sigmas:
        t = tensors[sigma]
        ds, do = dims[sigma], dims[-sigma]
        for a in range(ds):
            for b in range(do):
                for c in range(ds):
                    if t[a][b][c] != t[c][b][a]:
                        failures.append({"identity": "outer-symmetry",
                                         "sigma": sigma, "at": (a, b, c)})
                        if len(failures) > 8:
                            return failures
    if failures:
        return failures
    # D-commutator identity on basis 4-tuples:
    # [D(x,y), D(u,v)] = D(D(x,y)u, v) - D(u, D(y,x)v)
    for sigma in sigmas:
        ds, do = dims[sigma], dims[-sigma]
        ts, to = tensors[sigma], tensors[-sigma]
        d_cache_s = {}
        for a in range(ds):
            x = basis_vector(ring, ds, a)
            for b in range(do):
                y = basis_vector(ring, do, b)
                d_cache_s[(a, b)] = _d_matrix(ring, ts, x, y, ds)
        d_cache_o = {}
        for b in range(do):
            y = basis_vector(ring, do, b)
            for a in range(ds):
                x = basis_vector(ring, ds, a)
                d_cache_o[(b, a)] = _d_matrix(ring, to, y, x, do)
        for a in range(ds):
            x = basis_vector(ring, ds, a)
            for b in range(do):
                y = basis_vector(ring, do, b)
                dxy = d_cache_s[(a, b)]
                dyx = d_cache_o[(b, a)]
                for u_i in range(ds):
                    u = basis_vector(ring, ds, u_i)
                    du = dxy.apply(u)
                    for v_i in range(do):
                        v = basis_vector(ring, do, v_i)
                        duv = d_cache_s[(u_i, v_i)]
                        lhs = dxy @ duv - duv @ dxy
                        rhs = (_d_matrix(ring, ts, du, v, ds)
                               - _d_matrix(ring, ts, u, dyx.apply(v), ds))
                        if lhs != rhs:
                            failures.append({"identity": "D-commutator",
                                             "sigma": sigma,
                                             "at": (a, b, u_i, v_i)})
                            if len(failures) > 8:
                                return failures
    return failures


def unwrap(structure):
    """Accept either a bare structure or a cataloged wrapper around one."""
    inner = getattr(structure, "structure", None)
    return inner if inner is not None else structure


def _jordan_structure(structure) -> _Structure:
    """unwrap, refusing anything that is not a pair, triple or algebra."""
    structure = unwrap(structure)
    if not isinstance(structure, _Structure):
        raise ShapeMismatch(
            f"not a Jordan structure: {type(structure).__name__}")
    return structure


def check_axioms(structure) -> AxiomReport:
    """Exhaustive identity check on basis tuples.

    Valid by multilinearity.  Refuses carriers larger than MAX_AXIOM_DIM
    rather than sampling.  Over F_p and Q the identities are whole-basis
    int64 contractions; other rings, and data past the int64 bounds, take
    the pure sweeps, which give the same report.  Each structure computes
    its report once.  A triple T is the pair (T, T); data equal at both
    signs is swept at sigma = +1 alone (see _axiom_report).
    """
    return _jordan_structure(structure)._axioms


def _axiom_report(structure, vectorize: bool) -> AxiomReport:
    """check_axioms; with vectorize=False, the pure sweeps alone.

    With dims and tensors equal at both signs, the sigma = -1 sweep would
    find the sigma = +1 failures again in the same order, so only sigma = +1
    is swept: the two-sign list is that list F, then F relabelled sigma =
    -1, cut at nine, also where the sweep stops early.  `checked` counts
    both signs.
    """
    if isinstance(structure, JordanAlgebra):
        return _check_algebra(structure, vectorize)
    if isinstance(structure, JordanPair):
        kind = "pair"
        tensors = {1: structure.t_plus, -1: structure.t_minus}
        dims = {1: structure.dplus, -1: structure.dminus}
    else:
        kind = "triple"
        tensors = {1: structure.tensor, -1: structure.tensor}
        dims = {1: structure.dim, -1: structure.dim}
    if max(dims.values()) > MAX_AXIOM_DIM:
        raise BudgetExceeded(
            f"carrier dim above {MAX_AXIOM_DIM}; refusing sampled checks")
    equal = dims[1] == dims[-1] and tensors[1] == tensors[-1]
    sigmas = (1,) if equal else (1, -1)
    failures = _np_pair_failures(structure, sigmas) if vectorize else None
    if failures is None:
        failures = _check_pair_tensors(structure.ring, tensors, dims, sigmas)
    if equal:
        failures = (failures + [dict(f, sigma=-1)
                                for f in failures])[:_MAX_FAILURES]
    checked = 2 * (dims[1] * dims[-1]) ** 2
    return AxiomReport(not failures, kind, checked, tuple(failures))


def _check_algebra(alg: JordanAlgebra, vectorize: bool) -> AxiomReport:
    ring, d = alg.ring, alg.dim
    if d > MAX_AXIOM_DIM:
        raise BudgetExceeded(
            f"carrier dim above {MAX_AXIOM_DIM}; refusing sampled checks")
    failures = []
    prod = alg.product
    for a in range(d):
        for b in range(a + 1, d):
            if prod[a][b] != prod[b][a]:
                failures.append({"identity": "commutativity", "at": (a, b)})
    if alg.unit is not None and not failures:
        for a in range(d):
            e = basis_vector(ring, d, a)
            if alg.multiply(alg.unit, e) != e:
                failures.append({"identity": "unit", "at": (a,)})
    if failures:
        return AxiomReport(False, "algebra", d * d, tuple(failures))
    if vectorize:
        jordan = _np_jordan_failures(alg)
        if jordan is not None:
            return AxiomReport(not jordan, "algebra", d ** 4, tuple(jordan))
    # linearized Jordan identity (degree 4, sufficient given 1/2 in the ring):
    # ((xz)y)w + ((xw)y)z + ((zw)y)x = (xz)(yw) + (xw)(yz) + (zw)(yx)
    basis = [basis_vector(ring, d, i) for i in range(d)]
    pr = {}
    for a in range(d):
        for b in range(a, d):
            pr[(a, b)] = pr[(b, a)] = prod[a][b]
    mul = alg.multiply
    for xi in range(d):
        for zi in range(xi, d):
            xz = pr[(xi, zi)]
            for wi in range(zi, d):
                xw = pr[(xi, wi)]
                zw = pr[(zi, wi)]
                for yi in range(d):
                    y = basis[yi]
                    lhs = add_vec(ring,
                                  add_vec(ring,
                                          mul(mul(xz, y), basis[wi]),
                                          mul(mul(xw, y), basis[zi])),
                                  mul(mul(zw, y), basis[xi]))
                    rhs = add_vec(ring,
                                  add_vec(ring,
                                          mul(xz, mul(y, basis[wi])),
                                          mul(xw, mul(y, basis[zi]))),
                                  mul(zw, mul(y, basis[xi])))
                    if lhs != rhs:
                        failures.append({"identity": "jordan-linearized",
                                         "at": (xi, zi, wi, yi)})
                        if len(failures) > 8:
                            return AxiomReport(False, "algebra", d ** 4,
                                               tuple(failures))
    return AxiomReport(not failures, "algebra", d ** 4, tuple(failures))


# -- vectorized identity sweeps ------------------------------------------
#
# The same identities as the pure sweeps above, each one numpy contraction
# over the whole basis in int64.  Over F_p every two-factor contraction is
# reduced mod p at once; over Q the constants are scaled to integers by one
# common denominator, which is exact because the identities checked here
# are homogeneous (the unit law is not, and stays on the pure path).  Each
# returns None where that int64 image does not exist or could overflow; the
# caller then runs the pure sweep.

_MAX_FAILURES = 9  # the pure sweeps stop at their ninth failure


def _int_tensors(structure, names: tuple):
    """(arrays, p, m): exact int64 images of the named tensors, or None.

    Over F_p the structure's cached image, p the modulus and m = p - 1.
    Over Q the payloads times the LCM of all their denominators, taken
    jointly over the tensors, p None and m the largest magnitude.
    """
    ring = structure.ring
    if isinstance(ring, PrimeField):
        image = structure._int64
        if image is None:
            return None
        return [image[n] for n in names], ring.p, ring.p - 1
    if not isinstance(ring, Rationals):
        return None
    arrays = [np.array(getattr(structure, n), dtype=object) for n in names]
    entries = [x for arr in arrays for x in arr.flat]
    if not all(type(x) in (int, Fraction) for x in entries):
        return None
    scale = lcm(*(x.denominator for x in entries))
    flats = [[x.numerator * (scale // x.denominator) for x in arr.flat]
             for arr in arrays]
    m = max((abs(x) for flat in flats for x in flat), default=0)
    if m >= _INT64_LIMIT:
        return None
    return ([np.array(flat, dtype=np.int64).reshape(arr.shape)
             for flat, arr in zip(flats, arrays)], None, m)


def _fits_int64(p, d: int, m: int, terms: int, degree: int) -> bool:
    """No partial sum of a residual leaves int64.

    Over F_p the largest value is one unreduced contraction, a sum of d
    products of two entries up to m.  Over Q (p None) nothing is reduced:
    the residual sums `terms` contractions of `degree` constants each.
    """
    if p is not None:
        return d * m * m < _INT64_LIMIT
    return terms * d ** (degree - 1) * m ** degree < _INT64_LIMIT


def _residual(shape: tuple, p, *terms):
    """Sum of signed two-factor einsum terms, accumulated in place.

    Each term is (sign, spec, x, y).  Over F_p each contraction is reduced
    before it is added, and the result is reduced too.
    """
    acc = np.zeros(shape, dtype=np.int64)
    tmp = np.empty(shape, dtype=np.int64)
    for sign, spec, x, y in terms:
        np.einsum(spec, x, y, out=tmp)
        if p is not None:
            tmp %= p
        if sign > 0:
            acc += tmp
        else:
            acc -= tmp
    if p is not None:
        acc %= p
    return acc


def _hits(bad) -> list:
    """Basis tuples where bad holds, in C order, at most _MAX_FAILURES."""
    return [tuple(int(i) for i in at)
            for at in np.argwhere(bad)[:_MAX_FAILURES]]


def _np_pair_failures(structure, sigmas: tuple = (1, -1)):
    """_check_pair_tensors over the given signs as contractions, or None.

    D(a,b)D(u,v) is one int64 product over the whole basis, at most d**6
    entries (373 KB at MAX_AXIOM_DIM); the commutator reads it twice, as
    it is and with (a,b) and (u,v) swapped.  The two D(D(..)..) terms are
    contracted one a at a time, in buffers of d**5.
    """
    names = (("t_plus", "t_minus") if isinstance(structure, JordanPair)
             else ("tensor", "tensor"))
    image = _int_tensors(structure, names)
    if image is None:
        return None
    (t_plus, t_minus), p, m = image
    dims = {1: t_plus.shape[0], -1: t_minus.shape[0]}
    if not _fits_int64(p, max(dims.values()), m, terms=4, degree=2):
        return None
    t = {1: t_plus, -1: t_minus}
    failures = []
    for sigma in sigmas:
        ts = t[sigma]
        bad = (ts != ts.transpose(2, 1, 0, 3)).any(axis=3)
        failures += [{"identity": "outer-symmetry", "sigma": sigma, "at": at}
                     for at in _hits(bad)]
    if failures:
        return failures[:_MAX_FAILURES]
    for sigma in sigmas:
        ts, to = t[sigma], t[-sigma]
        ds, do = dims[sigma], dims[-sigma]
        # D(a,b)D(u,v), entry [r, c], at [a, b, r, u, v, c]
        rows = ds * do * ds
        dd = (ts.transpose(0, 1, 3, 2).reshape(rows, ds)
              @ ts.reshape(rows, ds).T)
        if p is not None:
            dd %= p
        dd = dd.reshape(ds, do, ds, ds, do, ds)
        bad = np.empty((ds, do, ds, do), dtype=bool)
        for a in range(ds):  # one a at a time keeps the buffers at d**5
            # [D(a,b), D(u,v)] - D(D(a,b)u, v) + D(u, D(b,a)v), entry [r, c]
            # at [b, u, v, r, c]
            diff = _residual((do, ds, do, ds, ds), p,
                             (-1, "buk,kvcr->buvrc", ts[a], ts),
                             (1, "bvk,ukcr->buvrc", to[:, a], ts))
            diff += dd[a].transpose(0, 2, 3, 1, 4)
            diff -= dd[:, :, :, a].transpose(3, 0, 1, 2, 4)
            if p is not None:
                diff %= p
            bad[a] = diff.reshape(do, ds, do, -1).any(axis=3)
        failures += [{"identity": "D-commutator", "sigma": sigma, "at": at}
                     for at in _hits(bad)]
        if len(failures) >= _MAX_FAILURES:
            break
    return failures[:_MAX_FAILURES]


def _np_jordan_failures(alg: JordanAlgebra):
    """The linearized Jordan identity of _check_algebra, or None.

    Assumes the product is commutative, as the caller has checked.
    """
    d = alg.dim
    image = _int_tensors(alg, ("product",))
    if image is None:
        return None
    (prod,), p, m = image
    if not _fits_int64(p, d, m, terms=6, degree=3):
        return None
    # ij_y[i, j, y] = (e_i e_j) e_y, then
    # e[i, j, y, k] = ((e_i e_j) e_y) e_k - (e_i e_j)(e_y e_k)
    ij_y = _residual((d,) * 4, p, (1, "ijk,kym->ijym", prod, prod))
    e = _residual((d,) * 5, p,
                  (1, "ijym,mkr->ijykr", ij_y, prod),
                  (-1, "ijbr,ykb->ijykr", ij_y, prod))
    # lhs - rhs at [x, z, w, y]: e[x,z,y,w] + e[x,w,y,z] + e[z,w,y,x]
    e = e.transpose(0, 1, 3, 2, 4)
    diff = e + e.transpose(0, 2, 1, 3, 4)
    diff += e.transpose(2, 0, 1, 3, 4)
    if p is not None:
        diff %= p
    x, z, w = np.indices((d, d, d))
    bad = diff.any(axis=4) & ((x <= z) & (z <= w))[..., None]
    return [{"identity": "jordan-linearized", "at": at} for at in _hits(bad)]


# -- derived constructions ------------------------------------------------


def triple_from_algebra(alg: JordanAlgebra,
                        name: Optional[str] = None) -> JordanTriple:
    """Triple product {x,y,z} = (xy)z + (zy)x - (zx)y on the same carrier."""
    alg = unwrap(alg)
    report = check_axioms(alg)
    if not report.ok:
        raise AxiomFailure(f"not a Jordan algebra: {report.first_failure()}")
    ring, d, prod = alg.ring, alg.dim, alg.product
    basis = [basis_vector(ring, d, i) for i in range(d)]
    # ab_c[a][b][c] = (e_a e_b) e_c; the product is commutative
    ab_c = [[[bilinear_eval(ring, prod, prod[a][b], basis[c], d)
              for c in range(d)] for b in range(d)] for a in range(d)]
    tensor = tuple(tuple(tuple(sub_vec(ring, add_vec(ring, ab_c[a][b][c],
                                                     ab_c[c][b][a]),
                                       ab_c[c][a][b])
                               for c in range(d)) for b in range(d))
                   for a in range(d))
    return JordanTriple(ring, d, tensor, None,
                        name=name or f"triple({alg.name})")


def pair_from_triple(t: JordanTriple) -> JordanPair:
    """Double the carrier: both signed products are copies of the triple's."""
    t = unwrap(t)
    return JordanPair(t.ring, t.dim, t.dim, t.tensor, t.tensor, t.trace,
                      name=f"pair({t.name})")


def scalar_extend(structure, target: Ring):
    """Same structure constants, pushed through the base-to-target embedding."""
    structure = _jordan_structure(structure)
    emb = embedding(structure.ring, target)
    parts = {name: _nest([emb(x) for x in _flatten(nested, shape)], shape)
             for name, nested, shape in structure._parts()}
    if "trace" in parts:
        parts["trace"] = Matrix(target, structure.trace.rows,
                                structure.trace.cols, parts["trace"])
    return replace(structure, ring=target,
                   name=f"{structure.name}@{target.name}", **parts)


# -- automorphism predicates ----------------------------------------------


def _carries(ring: Ring, src, dst, out_map, in_maps: Sequence,
             vectorize: bool = True):
    """out_map carries tensor src to tensor dst.

    The tensors have one input slot per map in in_maps (three for pairs
    and triples, two for algebras) and a coordinate vector at each leaf;
    each is nested payload tuples or, over F_p, its int64 image.  The test
    is, on every basis tuple, out_map(src[a][b]...) ==
    dst(in_maps[0] e_a, in_maps[1] e_b, ...): both sides are the tensors
    with a matrix applied along each axis.  Over F_p that is one int64
    matmul per axis; other rings, primes past the int64 bound, and
    vectorize=False take the same steps in pure Python.

    Over F_p the residues are not reduced after each axis.  Each side keeps
    a bound on its entries, p - 1 at the start and d (p - 1) times larger
    after an axis of length d; a side is reduced mod p only before an axis
    whose sums that bound says could reach 2**63.  The test is then
    (lhs - rhs) % p == 0, one reduction for both sides.  At the sizes of
    the fast scans (d <= 4, p <= 19483) no side is reduced before it; at
    p = 1000003 the input side of a three-slot tensor is reduced at least
    once between its axes.

    Over F_p the maps may instead all be int64 stacks (B, d, d) of
    residues; the result is then a (B,) bool array whose entry b tests the
    b-th map of every stack.
    """
    k = len(in_maps)
    maps = list(in_maps) + [out_map]
    batched = isinstance(out_map, np.ndarray)
    dims = [m.shape[-1] if batched else m.rows for m in maps]
    if (vectorize and isinstance(ring, PrimeField)
            and _fits_int64(ring.p, max(dims), ring.p - 1, 1, 2)):
        p = ring.p
        if not batched:
            maps = [np.array(m.entries, dtype=np.int64)[None] for m in maps]

        def chain(t, steps):
            t, top = np.asarray(t, dtype=np.int64).reshape(1, -1), p - 1
            for axis, rows in steps:
                if top * (p - 1) * dims[axis] >= _INT64_LIMIT:
                    t, top = t % p, p - 1
                # explicit shapes, as -1 cannot be inferred for an empty stack
                pre = int(np.prod(dims[:axis]))
                post = int(np.prod(dims[axis + 1:]))
                t = (rows[:, None] @ t.reshape(t.shape[0], pre, dims[axis],
                                               post)
                     ).reshape(len(rows), pre * dims[axis] * post)
                top *= (p - 1) * dims[axis]
            return t

        same = (chain(src, [(k, maps[k])])
                - chain(dst, [(axis, m.transpose(0, 2, 1))
                              for axis, m in enumerate(maps[:k])])) % p == 0
        return same.all(axis=1) if batched else bool(same.all())

    def load(t):
        return _flatten(t.tolist() if isinstance(t, np.ndarray) else t, dims)
    lhs = _along(ring, load(src), dims, k, out_map.entries)
    rhs = load(dst)
    for axis, m in enumerate(in_maps):
        rhs = _along(ring, rhs, dims, axis, m.transpose().entries)
    return lhs == rhs


def _along(ring: Ring, flat: list, dims: list, axis: int, rows) -> list:
    """The square matrix `rows` applied along one axis of a flat tensor."""
    inner = 1
    for n in dims[axis + 1:]:
        inner *= n
    block = dims[axis] * inner
    zero = ring.zero_p
    out = []
    for start in range(0, len(flat), block):
        for row in rows:
            terms = [(c, start + a * inner) for a, c in enumerate(row)
                     if c != zero]
            for j in range(inner):
                acc = zero
                for c, at in terms:
                    v = flat[at + j]
                    if v != zero:
                        acc = ring.add(acc, ring.mul(c, v))
                out.append(acc)
    return out


def _operand(structure, name: str):
    """A tensor as _carries reads it: its int64 image where there is one."""
    image = structure._int64
    return getattr(structure, name) if image is None else image[name]


def pair_map_respects(pair: JordanPair, f: PairMap) -> bool:
    """Tensor transport equality for both signs (no invertibility demand)."""
    return pair_iso_respects(pair, pair, f)


def is_pair_automorphism(pair: JordanPair, f: PairMap) -> bool:
    return is_pair_isomorphism(pair, pair, f)


def triple_map_respects(t: JordanTriple, phi: Matrix) -> bool:
    t = unwrap(t)
    if phi.rows != t.dim or phi.cols != t.dim:
        raise ShapeMismatch("map dim does not match triple dim")
    tensor = _operand(t, "tensor")
    return _carries(t.ring, tensor, tensor, phi, (phi, phi, phi))


def is_triple_automorphism(t: JordanTriple, phi: Matrix) -> bool:
    return phi.is_invertible() and triple_map_respects(t, phi)


def algebra_map_respects(alg: JordanAlgebra, phi: Matrix) -> bool:
    alg = unwrap(alg)
    if phi.rows != alg.dim or phi.cols != alg.dim:
        raise ShapeMismatch("map dim does not match algebra dim")
    product = _operand(alg, "product")
    return _carries(alg.ring, product, product, phi, (phi, phi))


def is_algebra_automorphism(alg: JordanAlgebra, phi: Matrix) -> bool:
    return phi.is_invertible() and algebra_map_respects(alg, phi)


def pair_iso_respects(src: JordanPair, dst: JordanPair, f: PairMap) -> bool:
    """f carries src's products to dst's products (both signs).

    For basis triples: f^s({x,y,z}_src) == {f^s x, f^-s y, f^s z}_dst.
    """
    src, dst = unwrap(src), unwrap(dst)
    if f.plus.rows != src.dplus or f.minus.rows != src.dminus:
        raise ShapeMismatch("map dims do not match source pair")
    if f.plus.rows != dst.dplus or f.minus.rows != dst.dminus:
        raise ShapeMismatch("map dims do not match target pair")
    return all(_carries(src.ring, _operand(src, name), _operand(dst, name),
                        ms, (ms, mo, ms))
               for name, ms, mo in (("t_plus", f.plus, f.minus),
                                    ("t_minus", f.minus, f.plus)))


def is_pair_isomorphism(src: JordanPair, dst: JordanPair, f: PairMap) -> bool:
    return (f.plus.is_invertible() and f.minus.is_invertible()
            and pair_iso_respects(src, dst, f))


def dual_inverse(pair: JordanPair, phi_plus: Matrix) -> Matrix:
    """The unique phi_minus with t(phi_plus x, phi_minus y) = t(x, y).

    With Gram G, the condition reads phi_plus^T G phi_minus = G.
    """
    pair = unwrap(pair)
    if pair.trace is None:
        raise DegenerateTrace(f"{pair.name} has no registered trace")
    g = pair.trace
    m = phi_plus.transpose() @ g
    if not m.is_invertible():
        raise NotInvertible("phi_plus is not invertible against the trace")
    return m.inverse() @ g

