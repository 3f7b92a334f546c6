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
from dataclasses import dataclass
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
    if isinstance(ring, PrimeField) and n <= 3:
        return _np_det_check(f, n, multiplier)
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
    first, (n, n, B): the Leibniz sum, below n! p**n before its one
    reduction."""
    out = 0
    for perm, sign in perms_with_signs(len(m)):
        term = sign
        for i, j in enumerate(perm):
            term = term * m[i, j]
        out = out + term
    return out % p


def _np_det_check(f: Matrix, n: int, multiplier) -> bool:
    """_det_equal_for_all over F_p on all p**(n*n) matrices at once, each
    column of x one matrix's row-major entries."""
    p = f.ring.p
    x = np.indices((p,) * (n * n)).reshape(n * n, -1)
    y = np.einsum("rc,cb->rb", np.array(f.entries, dtype=np.int64), x) % p
    det_x, det_y = (_det_mod_p(m.reshape(n, n, -1), p) for m in (x, y))
    return bool((det_y == multiplier * det_x % p).all())


def det_isometry_check(f: Matrix, n: int) -> bool:
    """Does f preserve the determinant of every matrix?"""
    if f.rows != n * n or f.cols != n * n:
        raise ShapeMismatch("operator does not act on M_n")
    return _det_equal_for_all(f, n, f.ring.one_p)


def det_similitude_factor(f: Matrix, n: int) -> tuple:
    """Split f = L_a compose isometry, a = f(1); multiplier is det(a)."""
    ring = f.ring
    one = Matrix.identity(ring, n)
    a = map_on_matrix(f, one, (n, n))
    if not a.is_invertible():
        raise NotSimilitude("f(1) is not invertible")
    phi = op_left(a.inverse(), n) @ f
    if not det_isometry_check(phi, n):
        raise NotSimilitude("residual map fails determinant preservation")
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
    """
    one_op = Matrix.identity(ring, n * n)
    taus = mu_n(ring, 2)
    units = [u for u in ring.elements() if u.is_unit]
    expected = set()
    for r in units:
        ai = (Matrix.identity(ring, n) * r).entries
        bi = (Matrix.identity(ring, n) * r.inverse()).entries
        expected.add((ai, bi, ring.payload_str(ring.one_p)))
    kernel = set()
    for a in enumerate_GL(n, ring):
        b = a.inverse().transpose()
        for tau in taus:
            if phi_n(a, b, tau) == one_op:
                kernel.add((a.entries, b.entries,
                            ring.payload_str(tau.payload)))
    return kernel == expected


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
