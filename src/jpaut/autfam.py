"""Explicit automorphism families of the matrix and bilinear-form systems.

Linear maps on a matrix space M_{m,n} are (mn x mn) matrices over the ring
in the row-major matrix-unit basis.  Families: similitude-induced pair maps
on the form pairs, left/right multiplication generators on the type I pairs,
idempotent-twisted (anti)automorphism maps, determinant similitudes with
their left-multiplication factorization, the (a, b, tau) parametrization of
those similitudes, classes modulo the central torus, and the scalar-times-
algebra-automorphism factorization on triples coming from algebras.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (BadInput, NonFieldRing, NotFactorable, NotIdempotent,
                     NotInvertible, NotIsometry, NotSimilitude, ShapeMismatch)
from .jordan import JordanAlgebra, PairMap, is_algebra_automorphism, unwrap
from .matrix import (BilinearForm, Matrix, enumerate_GL, enumerate_matrices,
                     perms_with_signs, similitude_multiplier,
                     solve_scalar_multiple, standard_form)
from .ring import (PrimeField, Ring, RingElement, component_inverse,
                   idempotents, mu_n)


# -- linear maps on matrix spaces ------------------------------------------

def op_left(a: Matrix, cols: int) -> Matrix:
    """Matrix of X -> aX on M_{m,cols}, m = a.rows, in unit bases."""
    ring = a.ring
    m, n = a.rows, cols
    zero = ring.zero_p
    rows = []
    for i in range(m):
        for j in range(n):
            row = [zero] * (m * n)
            for k in range(m):
                row[k * n + j] = a.entries[i][k]
            rows.append(tuple(row))
    return Matrix(ring, m * n, m * n, tuple(rows))


def op_right(b: Matrix, rows: int) -> Matrix:
    """Matrix of X -> Xb on M_{rows,n}, n = b.rows, in unit bases."""
    ring = b.ring
    m, n = rows, b.rows
    zero = ring.zero_p
    out = []
    for i in range(m):
        for j in range(n):
            row = [zero] * (m * n)
            for l in range(n):
                row[i * n + l] = b.entries[l][j]
            out.append(tuple(row))
    return Matrix(ring, m * n, m * n, tuple(out))


def op_transpose(ring: Ring, m: int, n: int) -> Matrix:
    """Matrix of X -> X^T from M_{m,n} to M_{n,m} in unit bases."""
    zero, one = ring.zero_p, ring.one_p
    rows = []
    for k in range(n):
        for l in range(m):
            row = [zero] * (m * n)
            row[l * n + k] = one
            rows.append(tuple(row))
    return Matrix(ring, n * m, m * n, tuple(rows))


def map_on_matrix(f: Matrix, x: Matrix, out_shape: tuple) -> Matrix:
    """Apply an operator in unit-basis coordinates to a matrix."""
    flat = tuple(p for row in x.entries for p in row)
    img = f.apply(flat)
    r, c = out_shape
    return Matrix(f.ring, r, c,
                  tuple(tuple(img[i * c + j] for j in range(c))
                        for i in range(r)))


# -- type IV families -------------------------------------------------------

def go_to_pair_aut(a: Matrix, form: BilinearForm) -> PairMap:
    """Similitude a with multiplier m_a gives (a, m_a^{-1} a)."""
    mult = similitude_multiplier(a, form)
    if mult is None:
        raise NotSimilitude(f"matrix is not a similitude of {form.gram.entries}")
    return PairMap(a, a * mult.inverse())


def ortho_to_triple_aut(a: Matrix, form: BilinearForm) -> Matrix:
    mult = similitude_multiplier(a, form)
    if mult is None or mult != a.ring.one:
        raise NotIsometry(f"multiplier is {mult}, need 1")
    return a


# -- type I generators ------------------------------------------------------

def hat_l(a: Matrix, n: int) -> PairMap:
    """(X -> aX, Y -> Y a^{-1}) on (M_{m,n}, M_{n,m})."""
    if not a.is_invertible():
        raise NotInvertible("generator parameter must be invertible")
    return PairMap(op_left(a, n), op_right(a.inverse(), n))


def hat_r(b: Matrix, m: int) -> PairMap:
    """(X -> Xb, Y -> b^{-1} Y) on (M_{m,n}, M_{n,m})."""
    if not b.is_invertible():
        raise NotInvertible("generator parameter must be invertible")
    return PairMap(op_right(b, m), op_left(b.inverse(), m))


def tilde_l(a: Matrix, n: int) -> PairMap:
    """(X -> aX, Y -> a^{-T} Y) on (M_{m,n}, M_{m,n})."""
    if not a.is_invertible():
        raise NotInvertible("generator parameter must be invertible")
    return PairMap(op_left(a, n), op_left(a.transpose().inverse(), n))


def tilde_r(b: Matrix, m: int) -> PairMap:
    """(X -> Xb, Y -> Y b^{-T}) on (M_{m,n}, M_{m,n})."""
    if not b.is_invertible():
        raise NotInvertible("generator parameter must be invertible")
    return PairMap(op_right(b, m), op_right(b.transpose().inverse(), m))


def hat_generators(a: Matrix, b: Matrix) -> PairMap:
    """Composition hat_L_a hat_R_b on (M_{m,n}, M_{n,m})."""
    return hat_l(a, b.rows).compose(hat_r(b, a.rows))


def tilde_generators(a: Matrix, b: Matrix) -> PairMap:
    return tilde_l(a, b.rows).compose(tilde_r(b, a.rows))


def transpose_twist(ring: Ring, n: int) -> PairMap:
    """(X -> X^T, Y -> Y^T): the nontrivial square-case twist on a field."""
    t = op_transpose(ring, n, n)
    return PairMap(t, t)


# -- idempotent-twisted maps ------------------------------------------------

def _unit_scale(m: Matrix, e) -> RingElement:
    """The unit e x^{-1} + (1 - e), x the first entry of m that is a unit
    in the component e R."""
    ring = m.ring
    for row in m.entries:
        for x in row:
            inv = component_inverse(ring, e, x)
            if inv is not None:
                return RingElement(ring, ring.add(ring.mul(e, inv),
                                                  ring.sub(ring.one_p, e)))
    raise NotInvertible("no unit entry in an idempotent component")


def canonical_conjugator(g: Matrix) -> Matrix:
    """Scale g per primitive idempotent component so its first unit entry
    in that component is 1.  Conjugation is unchanged by unit scalars."""
    for e in g.ring.primitive_idempotents():
        g = g * _unit_scale(g, e)
    return g


@dataclass(frozen=True)
class TwistedMap:
    """X -> e1 g X g^{-1} + sign * e2 g X^T g^{-1} on M_n, e2 = 1 - e1."""
    ring: Ring
    n: int
    e1: object  # payload
    g: Matrix
    sign: int  # +1 or -1

    def __post_init__(self):
        ring = self.ring
        e1 = self.e1
        if isinstance(e1, RingElement):
            e1 = e1.payload
        if isinstance(e1, int):
            e1 = ring.from_int(e1).payload
        if ring.mul(e1, e1) != e1:
            raise NotIdempotent(f"{ring.payload_str(e1)} in {ring.name}")
        if self.sign not in (1, -1):
            raise BadInput("sign must be +1 or -1")
        if self.g.rows != self.n or self.g.cols != self.n:
            raise ShapeMismatch("conjugator shape does not match n")
        if not self.g.is_invertible():
            raise NotInvertible("conjugator must be invertible")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "g", canonical_conjugator(self.g))

    @property
    def e2(self):
        return self.ring.sub(self.ring.one_p, self.e1)

    def apply(self, x: Matrix) -> Matrix:
        if x.rows != self.n or x.cols != self.n:
            raise ShapeMismatch("argument shape does not match n")
        ring = self.ring
        ginv = self.g.inverse()
        a = self.g @ x @ ginv
        b = self.g @ x.transpose() @ ginv
        e1, e2 = RingElement(ring, self.e1), RingElement(ring, self.e2)
        second = b * e2
        if self.sign < 0:
            second = -second
        return a * e1 + second

    def as_matrix(self) -> Matrix:
        """Coordinates on M_n in the unit basis."""
        ring = self.ring
        ginv = self.g.inverse()
        conj = op_left(self.g, self.n) @ op_right(ginv, self.n)
        tr = op_transpose(ring, self.n, self.n)
        e1, e2 = RingElement(ring, self.e1), RingElement(ring, self.e2)
        second = (conj @ tr) * e2
        if self.sign < 0:
            second = -second
        return conj * e1 + second

    def compose(self, other: "TwistedMap") -> "TwistedMap":
        """Composition self after other; closed within each sign family."""
        if self.ring != other.ring or self.n != other.n:
            raise ShapeMismatch("twisted maps over different spaces")
        if self.sign != other.sign:
            raise BadInput("twisted maps compose within one sign family")
        ring = self.ring
        e1 = ring.add(ring.mul(self.e1, other.e1),
                      ring.mul(self.e2, other.e2))
        # conjugator: e1' g' g'' + e2' g' g''^{-T}
        gg = self.g @ other.g
        gg2 = self.g @ other.g.transpose().inverse()
        e1s = RingElement(ring, self.e1)
        e2s = RingElement(ring, self.e2)
        g = gg * e1s + gg2 * e2s
        return TwistedMap(ring, self.n, e1, g, self.sign)

    def inverse(self) -> "TwistedMap":
        ring = self.ring
        e1s = RingElement(ring, self.e1)
        e2s = RingElement(ring, self.e2)
        g = self.g.inverse() * e1s + self.g.transpose() * e2s
        return TwistedMap(ring, self.n, self.e1, g, self.sign)

    def canonical_key(self):
        return (self.ring.payload_str(self.e1), self.sign, self.g.entries)


def mu2_plus_map(ring: Ring, n: int, tau: RingElement) -> TwistedMap:
    """f_tau: the plus-twisted map with e1 = (1 + tau)/2 and trivial g."""
    if tau * tau != ring.one:
        raise BadInput(f"{tau} is not a square root of 1")
    e1 = ring.mul(ring.half_p, ring.add(ring.one_p, tau.payload))
    return TwistedMap(ring, n, e1, Matrix.identity(ring, n), 1)


def all_twisted_maps(ring: Ring, n: int, sign: int):
    """Every twisted map: idempotents cross conjugators mod unit scalars."""
    seen = {}
    for e in idempotents(ring):
        for g in enumerate_matrices(ring, n, n):
            if not g.is_invertible():
                continue
            t = TwistedMap(ring, n, e.payload, g, sign)
            seen.setdefault(t.canonical_key(), t)
    return list(seen.values())


# -- determinant similitudes -------------------------------------------------

def _det_equal_for_all(f: Matrix, n: int, multiplier) -> bool:
    """det(f(X)) == multiplier * det(X) for all X (exhaustive or grid)."""
    ring = f.ring
    if has_stacks(ring, n):
        return bool(det_similitudes(np.array([f.entries], dtype=np.int64),
                                    multiplier, n, ring.p)[0])
    if ring.is_finite:
        xs = enumerate_matrices(ring, n, n)
    else:
        # polynomial identity of per-variable degree <= n: a grid with
        # n+1 values per entry decides it
        vals = range(n + 1)
        def gen():
            for combo in itertools.product(vals, repeat=n * n):
                yield Matrix.build(ring, [combo[i * n:(i + 1) * n]
                                          for i in range(n)])
        xs = gen()
    for x in xs:
        y = map_on_matrix(f, x, (n, n))
        if y.det().payload != ring.mul(multiplier, x.det().payload):
            return False
    return True


def _det_mod_p(m: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a batch of n x n residue matrices held entry
    first, (n, n, ...): the Leibniz sum, below n! p**n before its one
    reduction."""
    out = 0
    for perm, sign in perms_with_signs(len(m)):
        term = sign
        for i, j in enumerate(perm):
            term = term * m[i, j]
        out = out + term
    return out % p


def det_isometry_check(f: Matrix, n: int) -> bool:
    """Does f preserve the determinant of every matrix?"""
    if f.rows != n * n or f.cols != n * n:
        raise ShapeMismatch("operator does not act on M_n")
    return _det_equal_for_all(f, n, f.ring.one_p)


# Why det_similitude_factor refuses a map, by the code det_factor_codes
# gives it; 0 is a map that splits.
FACTOR_FAILURES = {1: "f(1) is not invertible",
                   2: "residual map fails determinant preservation"}


def _factor(f: Matrix, n: int) -> tuple:
    """(code, a, phi) of det_similitude_factor: a = f(1) and phi =
    L_{a^-1} f, the code 0 or that of its first failure."""
    a = map_on_matrix(f, Matrix.identity(f.ring, n), (n, n))
    if not a.is_invertible():
        return 1, a, None
    phi = op_left(a.inverse(), n) @ f
    return (0 if det_isometry_check(phi, n) else 2), a, phi


def det_similitude_factor(f: Matrix, n: int) -> tuple:
    """Split f = L_a compose isometry, a = f(1); multiplier is det(a)."""
    code, a, phi = _factor(f, n)
    if code:
        raise NotSimilitude(FACTOR_FAILURES[code])
    return a, phi


def is_det_similitude(f: Matrix, n: int) -> bool:
    ring = f.ring
    a = map_on_matrix(f, Matrix.identity(ring, n), (n, n))
    if not a.is_invertible():
        return False
    return _det_equal_for_all(f, n, a.det().payload)


# -- Phi_n parametrization ----------------------------------------------------

def phi_n(a: Matrix, b: Matrix, tau: RingElement) -> Matrix:
    """The similitude L_a R_{b^T} f_tau of the determinant, as an operator."""
    if a.rows != b.rows or a.ring != b.ring:
        raise BadInput("parameters must be square of equal size over one ring")
    n = a.rows
    if not (a.is_invertible() and b.is_invertible()):
        raise NotInvertible("parameters must be invertible")
    f_tau = mu2_plus_map(a.ring, n, tau)
    return (op_left(a, n) @ op_right(b.transpose(), n)) @ f_tau.as_matrix()


def phi_tau_action(tau: RingElement, a: Matrix, b: Matrix) -> tuple:
    """Semidirect action (a, b) -> (e1 a + e2 b, e1 b + e2 a)."""
    ring = tau.ring
    e1 = RingElement(ring, ring.mul(ring.half_p, ring.add(ring.one_p, tau.payload)))
    e2 = ring.one - e1
    return (a * e1 + b * e2, b * e1 + a * e2)


def phi_n_kernel_check(ring: Ring, n: int) -> bool:
    """ker Phi_n == {(r 1, r^{-1} 1, 1)}: checked by full enumeration.

    The necessary condition phi(1) = a b^T = 1 pins b = (a^{-1})^T, so each
    a in GL_n meets one b; those pairs get the complete identity test.
    Over F_p the maps are int64 stacks (phi_n_stack), decided a block of
    a at a time.
    """
    taus = mu_n(ring, 2)
    units = [u for u in ring.elements() if u.is_unit]
    expected = set()
    for r in units:
        ai = (Matrix.identity(ring, n) * r).entries
        bi = (Matrix.identity(ring, n) * r.inverse()).entries
        expected.add((ai, bi, ring.payload_str(ring.one_p)))
    kernel = set()
    if has_stacks(ring, n):
        p, one = ring.p, np.eye(n * n, dtype=np.int64)
        gl = gl_stack(p, n)
        for at in _blocks(len(gl), n ** 4):
            a = gl[at]
            b = inverse_stack(a, p).transpose(0, 2, 1)
            for tau in taus:
                hit = (phi_n_stack(a, b, tau.payload, p) == one).all(
                    axis=(1, 2))
                kernel.update((_entries(x), _entries(y),
                               ring.payload_str(tau.payload))
                              for x, y in zip(a[hit], b[hit]))
        return kernel == expected
    one_op = Matrix.identity(ring, n * n)
    for a in enumerate_GL(n, ring):
        b = a.inverse().transpose()
        for tau in taus:
            if phi_n(a, b, tau) == one_op:
                kernel.add((a.entries, b.entries,
                            ring.payload_str(tau.payload)))
    return kernel == expected


# -- int64 stacks over F_p ----------------------------------------------------
# Over F_p the families above are int64 residue stacks: (B, d, d) arrays of
# maps in unit-basis coordinates, built by batched arithmetic mod p in the
# order of the object builders, which serve the other rings and are the
# tests' oracle.

def has_stacks(ring: Ring, n: int) -> bool:
    """Whether the stacks serve M_n over ring: over F_p, while every sum
    they form stays below 2**63, at most n*n (p-1)**2 (a product of two
    unit-basis operators) and n! (p-1)**n (a Leibniz determinant)."""
    if not isinstance(ring, PrimeField):
        return False
    q = ring.p - 1
    return max(n * n * q * q, math.factorial(n) * q ** n) < 2 ** 63


def _blocks(total: int, size: int):
    """Slices of [0, total) of at most fastscan.block_cap(size) maps, the
    bound of oracle._cross_check's blocks: size int64 entries a map."""
    from . import fastscan  # on first use, as oracle imports it
    step = fastscan.block_cap(size)
    return [slice(at, at + step) for at in range(0, total, step)]


def _entries(m: np.ndarray) -> tuple:
    """The Matrix.entries of a residue matrix."""
    return tuple(map(tuple, m.tolist()))


def stack_matrices(ring: Ring, stack: np.ndarray) -> list:
    """The Matrix objects of a stack of residue matrices."""
    return [Matrix(ring, m.shape[0], m.shape[1], _entries(m)) for m in stack]


def gl_stack(p: int, n: int) -> np.ndarray:
    """GL_n(F_p) as a (|GL_n|, n, n) stack, in enumerate_GL order: every
    residue matrix in row-major lexicographic order, kept where its
    determinant (one batched Leibniz sum) is nonzero."""
    x = np.indices((p,) * (n * n)).reshape(n * n, -1)
    keep = _det_mod_p(x.reshape(n, n, -1), p) != 0
    return np.ascontiguousarray(x[:, keep].T).reshape(-1, n, n)


def inverse_stack(a: np.ndarray, p: int) -> np.ndarray:
    """The inverses mod p of a (B, n, n) stack of invertible residue
    matrices: each adjugate, one batched minor per entry, over its
    determinant."""
    n = a.shape[-1]
    m = a.transpose(1, 2, 0)
    det = _det_mod_p(m, p)
    values, at = np.unique(det, return_inverse=True)
    inv_det = np.array([pow(int(v), -1, p) for v in values],
                       dtype=np.int64)[at.reshape(det.shape)]
    adj = np.ones_like(a)  # the adjugate of a 1 x 1 matrix
    for i, j in itertools.product(range(n) if n > 1 else (), repeat=2):
        # the signed minor without row j and column i
        minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
        adj[:, i, j] = (-1) ** (i + j) * _det_mod_p(minor, p)
    return adj % p * inv_det[:, None, None] % p


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b) of each pair of matrices of two broadcasting stacks of
    square matrices: the unit-basis operator X -> a X b^T (op_left(a)
    composed with op_right(b^T)), unreduced."""
    n, m = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


def _transpose_columns(n: int) -> np.ndarray:
    """The column permutation of f -> f @ op_transpose(ring, n, n)."""
    return np.arange(n * n).reshape(n, n).T.ravel()


def twisted_stack(p: int, n: int) -> np.ndarray:
    """all_twisted_maps(F_p, n, 1) as a (B, n*n, n*n) stack of as_matrix,
    in its order.  The idempotents of F_p are 0 and 1, and each conjugator
    class holds one g whose first nonzero entry is 1, its least member in
    enumeration order; so the maps are X -> g X^T g^{-1} (e1 = 0), then
    X -> g X g^{-1} (e1 = 1), each over those g in enumerate_GL order.
    The conjugation is kron(g, g^{-T}), and the transpose a fixed
    permutation of its columns."""
    g = gl_stack(p, n)
    flat = g.reshape(len(g), n * n)
    g = g[flat[np.arange(len(g)), (flat != 0).argmax(axis=1)] == 1]
    conj = _kron(g, inverse_stack(g, p).transpose(0, 2, 1)) % p
    return np.concatenate([conj[..., _transpose_columns(n)], conj])


def phi_n_stack(a: np.ndarray, b: np.ndarray, tau, p: int) -> np.ndarray:
    """phi_n(a, b, tau) of each row of the (B, n, n) stacks a, b and tau
    (one residue of mu_2, or B of them): kron(a, b) = L_a R_{b^T}, then
    f_tau, the identity at tau = 1 and the transpose at tau = -1."""
    f = _kron(a, b) % p
    flip = np.broadcast_to(np.asarray(tau) == p - 1, (len(f),))
    f[flip] = f[flip][..., _transpose_columns(a.shape[-1])]
    return f


def hat_twist_rows(p: int, n: int) -> np.ndarray:
    """The oracle rows of VhI(n, n, F_p) of hat_generators(a, b) and of its
    composite with transpose_twist, for a then b over GL_n in enumerate_GL
    order: (2 |GL_n|**2, 2 n**4).  The plus side is L_a R_b =
    kron(a, b^T), the minus side R_{a^-1} L_{b^-1} = kron(b^-1, a^-T), and
    the twist permutes the columns of both."""
    gl = gl_stack(p, n)
    inv = inverse_stack(gl, p)
    plus = _kron(gl[:, None], gl.transpose(0, 2, 1)[None]) % p
    minus = _kron(inv[None], inv.transpose(0, 2, 1)[:, None]) % p
    base = np.concatenate([plus.reshape(*plus.shape[:2], -1),
                           minus.reshape(*minus.shape[:2], -1)], axis=-1)
    cols = _transpose_columns(n)
    twisted = np.concatenate(
        [side[..., cols].reshape(*side.shape[:2], -1)
         for side in (plus, minus)], axis=-1)
    return np.stack([base, twisted], axis=2).reshape(-1, 2 * n ** 4)


@lru_cache(maxsize=8)
def _light_points(p: int, n: int) -> tuple:
    """(x, det x): every X in M_n(F_p) with at most n nonzero entries, one
    column of x each in row-major order, (n*n, P), and their
    determinants."""
    cols = []
    for k in range(n + 1):
        for cells in itertools.combinations(range(n * n), k):
            for values in itertools.product(range(1, p), repeat=k):
                col = [0] * (n * n)
                for c, v in zip(cells, values):
                    col[c] = v
                cols.append(col)
    x = np.array(cols, dtype=np.int64).T.reshape(n * n, -1)
    det_x = _det_mod_p(x.reshape(n, n, -1), p)
    x.setflags(write=False)  # shared by every caller
    det_x.setflags(write=False)
    return x, det_x


def det_similitudes(fs: np.ndarray, mult, n: int, p: int) -> np.ndarray:
    """Which maps f of a (B, n*n, n*n) residue stack have det(f(X)) ==
    mult * det(X) for all X in M_n(F_p); mult is a residue or B of them.

    Both sides are polynomials of total degree n in the entries of X.
    Reduced by x**p = x, which keeps their values and does not raise the
    degree, each monomial left has at most n variables, and a nonzero
    reduced polynomial is nonzero at some point of F_p**k on the k
    variables of any of its monomials, the others 0.  So the identity holds
    on all p**(n*n) matrices exactly when it holds on those with at most n
    nonzero entries (_light_points): 33 of 81 at F3, n = 2, and 835 of
    19,683 at F3, n = 3.  The maps go in blocks (_blocks) of at most about
    2 MB of images.
    """
    x, det_x = _light_points(p, n)
    mult = np.broadcast_to(np.asarray(mult, dtype=np.int64), (len(fs),))
    out = []
    for at in _blocks(len(fs), x.size):
        y = (fs[at] @ x % p).reshape(-1, n, n, x.shape[1])
        det_y = _det_mod_p(y.transpose(1, 2, 0, 3), p)
        out.append((det_y == mult[at, None] * det_x % p).all(axis=1))
    return np.concatenate(out) if out else np.zeros(0, dtype=bool)


def det_factor_codes(ring: Ring, n: int, fs) -> np.ndarray:
    """det_similitude_factor and its round trip on each map of fs, a
    residue stack over F_p (has_stacks) or a list of Matrix: 0 where f
    splits as L_a phi with L_a phi == f, 3 where it splits but L_a phi !=
    f, else the code of the factor's failure (FACTOR_FAILURES).  A stack is
    factored a block (_blocks) at a time."""
    if not isinstance(fs, np.ndarray):
        codes = []
        for f in fs:
            code, a, phi = _factor(f, n)
            codes.append(code or (3 if op_left(a, n) @ phi != f else 0))
        return np.array(codes, dtype=np.int64)
    p, eye = ring.p, np.eye(n, dtype=np.int64)
    codes = np.zeros(len(fs), dtype=np.int64)
    for at in _blocks(len(fs), n ** 4):
        f = fs[at]
        a = (f @ eye.ravel() % p).reshape(-1, n, n)
        ok = _det_mod_p(a.transpose(1, 2, 0), p) != 0
        a, f = a[ok], f[ok]
        phi = _kron(inverse_stack(a, p), eye) @ f % p
        back = (_kron(a, eye) @ phi % p == f % p).all(axis=(1, 2))
        codes[at] = 1
        codes[at][ok] = np.where(det_similitudes(phi, 1, n, p),
                                 np.where(back, 0, 3), 2)
    return codes


# -- central product classes --------------------------------------------------

def _scale_to_class_rep(a: Matrix, b: Matrix) -> tuple:
    """Replace (a, b) by (ra, r^{-1}b) making a's first unit entry 1
    per primitive idempotent component."""
    ring = a.ring
    if not (ring.is_field or ring.splits_into_fields):
        raise NonFieldRing(f"no class canonicalization over {ring.name}")
    for e in ring.primitive_idempotents():
        r = _unit_scale(a, e)
        a, b = a * r, b * r.inverse()
    return a, b


@dataclass(frozen=True)
class CentralProductElement:
    """A class (a, b) modulo {(r 1, r^{-1} 1)}, canonicalized; optional
    square-case twist flag tau in mu_2."""
    a: Matrix
    b: Matrix
    tau: Optional[RingElement] = None

    def __post_init__(self):
        a, b = _scale_to_class_rep(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if self.tau is not None and self.tau * self.tau != self.a.ring.one:
            raise BadInput("twist flag must square to 1")

    def canonical_key(self):
        tau_key = None if self.tau is None else self.a.ring.payload_str(self.tau.payload)
        return (self.a.entries, self.b.entries, tau_key)

    def multiply(self, other: "CentralProductElement") -> "CentralProductElement":
        if (self.tau is None) != (other.tau is None):
            raise BadInput("cannot mix flagged and unflagged classes")
        if self.tau is None:
            return CentralProductElement(self.a @ other.a, self.b @ other.b)
        oa, ob = phi_tau_action(self.tau, other.a, other.b)
        return CentralProductElement(self.a @ oa, self.b @ ob,
                                     self.tau * other.tau)

    def inverse(self) -> "CentralProductElement":
        if self.tau is None:
            return CentralProductElement(self.a.inverse(), self.b.inverse())
        ia, ib = self.a.inverse(), self.b.inverse()
        ra, rb = phi_tau_action(self.tau, ia, ib)
        return CentralProductElement(ra, rb, self.tau)


# -- scalar-times-automorphism factorization ---------------------------------

def factor_triple_aut(alg: JordanAlgebra, phi: Matrix) -> tuple:
    """Factor a triple automorphism of the algebra's triple as r * psi.

    r is pinned by the action on the unit (phi(1) = r 1), must square to 1,
    and psi = r^{-1} phi must be an algebra automorphism.  Failure raises
    with a reproducer, since it would contradict the factorization theorem.
    """
    alg = unwrap(alg)
    ring = alg.ring
    if alg.unit is None:
        raise BadInput("factorization needs a unital algebra")
    img = phi.apply(alg.unit)
    as_row = lambda v: Matrix(ring, 1, len(v), (tuple(v),))
    r_payload = solve_scalar_multiple(ring, as_row(img), as_row(alg.unit))
    if r_payload is None:
        raise NotFactorable(
            f"phi(1) is not a scalar multiple of 1: phi={phi.entries}")
    r = RingElement(ring, r_payload)
    if r * r != ring.one:
        raise NotFactorable(
            f"unit scalar {r} does not square to 1: phi={phi.entries}")
    psi = phi * r.inverse()
    if not is_algebra_automorphism(alg, psi):
        raise NotFactorable(
            f"descaled map is not an algebra automorphism: phi={phi.entries}")
    return r, psi


# -- multiplier-condition membership ------------------------------------------

def tti_map(a: Matrix, b: Matrix) -> Matrix:
    """X -> aXb on M_{m,n} in unit-basis coordinates."""
    return op_left(a, b.rows) @ op_right(b, a.rows)


def thi_map(r: RingElement, t: TwistedMap) -> Matrix:
    """r times a twisted map, in unit-basis coordinates."""
    if r * r != r.ring.one:
        raise BadInput("scalar must square to 1")
    return t.as_matrix() * r


def tti_membership(a: Matrix, b: Matrix) -> bool:
    """a in GO_m, b in GO_n (standard forms) with m_a * m_b = 1."""
    if a.rows != a.cols or b.rows != b.cols:
        raise ShapeMismatch("membership parameters must be square")
    ring = a.ring
    ma = similitude_multiplier(a, standard_form(ring, a.rows))
    if ma is None:
        return False
    mb = similitude_multiplier(b, standard_form(ring, b.rows))
    if mb is None:
        return False
    return ma * mb == ring.one
