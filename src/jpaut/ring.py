"""Exact commutative rings: odd prime fields, the rationals, finite products,
and dual numbers R[t]/(t^2).

Every ring is a frozen descriptor exposing exact arithmetic on canonical
payloads (int for F_p, Fraction for Q, pairs for products and dual numbers).
RingElement is a thin immutable wrapper used at API boundaries; hot loops work
on payloads through the ring's methods directly.  Characteristic 2 is rejected
at construction, so 1/2 exists everywhere in the tower.

Descriptor grammar (the `[t]` suffix binds tighter than `x`, products are
left-associative, parentheses group):

    ring := prod
    prod := term ("x" term)*
    term := atom ("[t]")*
    atom := "Q" | "F"<odd prime> | "(" prod ")"
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterator

from .errors import (
    BadInput,
    IncompatibleRings,
    NonEnumerableRing,
    NotInvertible,
    ParseError,
)

Payload = Any


class Ring:
    """Base descriptor.  Subclasses implement payload arithmetic."""

    # -- payload arithmetic ------------------------------------------------
    def add(self, x: Payload, y: Payload) -> Payload:
        raise NotImplementedError

    def neg(self, x: Payload) -> Payload:
        raise NotImplementedError

    def mul(self, x: Payload, y: Payload) -> Payload:
        raise NotImplementedError

    def int_payload(self, k: int) -> Payload:
        raise NotImplementedError

    def is_unit(self, x: Payload) -> bool:
        raise NotImplementedError

    def inv(self, x: Payload) -> Payload:
        raise NotImplementedError

    def payload_str(self, x: Payload) -> str:
        raise NotImplementedError

    def payloads(self) -> Iterator[Payload]:
        """All payloads in canonical order.  Finite rings only."""
        raise NonEnumerableRing(f"{self.name} is not finite")

    # -- derived payload helpers -------------------------------------------
    def sub(self, x: Payload, y: Payload) -> Payload:
        return self.add(x, self.neg(y))

    @property
    def zero_p(self) -> Payload:
        return self.int_payload(0)

    @property
    def one_p(self) -> Payload:
        return self.int_payload(1)

    @property
    def half_p(self) -> Payload:
        return self.inv(self.int_payload(2))

    def dot(self, xs, ys) -> Payload:
        acc = self.zero_p
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc

    # -- descriptor data -----------------------------------------------------
    name: str

    @property
    def is_finite(self) -> bool:
        raise NotImplementedError

    @property
    def size(self) -> int | None:
        return None

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    @property
    def is_field(self) -> bool:
        return False

    @property
    def splits_into_fields(self) -> bool:
        """True when the ring is a finite product of fields."""
        return self.is_field

    @property
    def is_rational_tower(self) -> bool:
        """True when every atom of the descriptor is Q."""
        return False

    def primitive_idempotents(self) -> list[Payload]:
        """The complete orthogonal set of primitive idempotents."""
        raise NotImplementedError

    # -- element-level API ---------------------------------------------------
    @property
    def one(self) -> "RingElement":
        return RingElement(self, self.one_p)

    def from_int(self, k: int) -> "RingElement":
        return RingElement(self, self.int_payload(k))

    def elements(self) -> Iterator["RingElement"]:
        for p in self.payloads():
            yield RingElement(self, p)

    def __str__(self) -> str:
        return self.name


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField(Ring):
    """F_p for an odd prime p.  Payloads are residues in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_odd_prime(self.p):
            raise BadInput(f"need an odd prime, got {self.p}")

    def add(self, x, y):
        return (x + y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def int_payload(self, k):
        return k % self.p

    def is_unit(self, x):
        return x % self.p != 0

    def inv(self, x):
        if x % self.p == 0:
            raise NotInvertible(f"0 has no inverse in {self.name}")
        return pow(x, -1, self.p)

    def payload_str(self, x):
        return str(x)

    def payloads(self):
        return iter(range(self.p))

    @property
    def name(self):
        return f"F{self.p}"

    @property
    def is_finite(self):
        return True

    @property
    def size(self):
        return self.p

    @property
    def characteristic(self):
        return self.p

    @property
    def is_field(self):
        return True

    def primitive_idempotents(self):
        return [1]


@dataclass(frozen=True)
class Rationals(Ring):
    """The field Q with Fraction payloads."""

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def int_payload(self, k):
        return Fraction(k)

    def is_unit(self, x):
        return x != 0

    def inv(self, x):
        if x == 0:
            raise NotInvertible("0 has no inverse in Q")
        return 1 / Fraction(x)

    def payload_str(self, x):
        return str(x)

    @property
    def name(self):
        return "Q"

    @property
    def is_finite(self):
        return False

    @property
    def characteristic(self):
        return 0

    @property
    def is_field(self):
        return True

    @property
    def is_rational_tower(self):
        return True

    def primitive_idempotents(self):
        return [Fraction(1)]


@dataclass(frozen=True)
class ProductRing(Ring):
    """R1 x R2 with componentwise arithmetic on payload pairs."""

    left: Ring
    right: Ring

    def add(self, x, y):
        return (self.left.add(x[0], y[0]), self.right.add(x[1], y[1]))

    def neg(self, x):
        return (self.left.neg(x[0]), self.right.neg(x[1]))

    def mul(self, x, y):
        return (self.left.mul(x[0], y[0]), self.right.mul(x[1], y[1]))

    def int_payload(self, k):
        return (self.left.int_payload(k), self.right.int_payload(k))

    def is_unit(self, x):
        return self.left.is_unit(x[0]) and self.right.is_unit(x[1])

    def inv(self, x):
        if not self.is_unit(x):
            raise NotInvertible(f"{self.payload_str(x)} is not a unit in {self.name}")
        return (self.left.inv(x[0]), self.right.inv(x[1]))

    def payload_str(self, x):
        return f"({self.left.payload_str(x[0])},{self.right.payload_str(x[1])})"

    def payloads(self):
        return itertools.product(self.left.payloads(), self.right.payloads())

    @property
    def name(self):
        return f"{self.left.name}x{self.right.name}"

    @property
    def is_finite(self):
        return self.left.is_finite and self.right.is_finite

    @property
    def size(self):
        if not self.is_finite:
            return None
        return self.left.size * self.right.size

    @property
    def characteristic(self):
        return math.lcm(self.left.characteristic, self.right.characteristic)

    @property
    def splits_into_fields(self):
        return self.left.splits_into_fields and self.right.splits_into_fields

    @property
    def is_rational_tower(self):
        return self.left.is_rational_tower and self.right.is_rational_tower

    def primitive_idempotents(self):
        lz, rz = self.left.zero_p, self.right.zero_p
        out = [(e, rz) for e in self.left.primitive_idempotents()]
        out += [(lz, f) for f in self.right.primitive_idempotents()]
        return out


@dataclass(frozen=True)
class DualNumbers(Ring):
    """R[t]/(t^2): payloads (a, b) represent a + b*t."""

    base: Ring

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def mul(self, x, y):
        a, b = x
        c, d = y
        r = self.base
        return (r.mul(a, c), r.add(r.mul(a, d), r.mul(b, c)))

    def int_payload(self, k):
        return (self.base.int_payload(k), self.base.zero_p)

    def is_unit(self, x):
        return self.base.is_unit(x[0])

    def inv(self, x):
        a, b = x
        r = self.base
        ia = r.inv(a)  # raises NotInvertible when a is not a unit
        return (ia, r.neg(r.mul(ia, r.mul(b, ia))))

    def payload_str(self, x):
        return f"{self.base.payload_str(x[0])}+{self.base.payload_str(x[1])}*t"

    def payloads(self):
        return itertools.product(self.base.payloads(), self.base.payloads())

    @property
    def name(self):
        inner = self.base.name
        if isinstance(self.base, ProductRing):
            inner = f"({inner})"
        return f"{inner}[t]"

    @property
    def is_finite(self):
        return self.base.is_finite

    @property
    def size(self):
        if not self.is_finite:
            return None
        return self.base.size ** 2

    @property
    def characteristic(self):
        return self.base.characteristic

    @property
    def is_rational_tower(self):
        return self.base.is_rational_tower

    def primitive_idempotents(self):
        # idempotents of R[t]/(t^2) are exactly lifts e + 0*t: the t-part of
        # e^2 = e forces b*(2a-1) = 0 with 2a-1 a unit.
        bz = self.base.zero_p
        return [(e, bz) for e in self.base.primitive_idempotents()]


@dataclass(frozen=True)
class RingElement:
    """Immutable element wrapper; equality and hashing are structural."""

    ring: Ring
    payload: Payload

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise IncompatibleRings(f"{self.ring.name} vs {other.ring.name}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.add(self.payload, o.payload))

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.payload))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(self.payload, o.payload))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(o.payload, self.payload))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.payload, self.ring.inv(o.payload)))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (self ** (-k)).inverse()
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "RingElement":
        return RingElement(self.ring, self.ring.inv(self.payload))

    @property
    def is_unit(self) -> bool:
        return self.ring.is_unit(self.payload)

    def __str__(self):
        return self.ring.payload_str(self.payload)

    def __repr__(self):
        return f"<{self} in {self.ring.name}>"


# ---------------------------------------------------------------------------
# descriptor parsing


def parse_ring(text: str) -> Ring:
    """Parse a ring descriptor such as "F3", "Q", "F3xF3", "F5[t]"."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty ring descriptor")
    ring, pos = _parse_prod(s, 0)
    if pos != len(s):
        raise ParseError(f"trailing input {s[pos:]!r} in ring descriptor {text!r}")
    return ring


def _parse_prod(s: str, pos: int) -> tuple[Ring, int]:
    ring, pos = _parse_term(s, pos)
    while pos < len(s) and s[pos] == "x":
        rhs, pos = _parse_term(s, pos + 1)
        ring = ProductRing(ring, rhs)
    return ring, pos


def _parse_term(s: str, pos: int) -> tuple[Ring, int]:
    ring, pos = _parse_atom(s, pos)
    while s.startswith("[t]", pos):
        ring = DualNumbers(ring)
        pos += 3
    return ring, pos


def _parse_atom(s: str, pos: int) -> tuple[Ring, int]:
    if pos >= len(s):
        raise ParseError(f"unexpected end of ring descriptor {s!r}")
    if s[pos] == "Q":
        return Rationals(), pos + 1
    if s[pos] == "(":
        ring, pos = _parse_prod(s, pos + 1)
        if pos >= len(s) or s[pos] != ")":
            raise ParseError(f"missing ')' in ring descriptor {s!r}")
        return ring, pos + 1
    if s[pos] == "F":
        end = pos + 1
        while end < len(s) and s[end].isdigit():
            end += 1
        if end == pos + 1:
            raise ParseError(f"expected digits after 'F' at {pos} in {s!r}")
        p = int(s[pos + 1:end])
        try:
            return PrimeField(p), end
        except BadInput as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"unexpected character {s[pos]!r} at {pos} in {s!r}")


# ---------------------------------------------------------------------------
# ring-level utilities


def idempotents(ring: Ring) -> list[RingElement]:
    """All idempotents, in canonical payload order.  Finite rings only."""
    if not ring.is_finite:
        raise NonEnumerableRing(f"cannot enumerate idempotents of {ring.name}")
    out = []
    for x in ring.payloads():
        if ring.mul(x, x) == x:
            out.append(RingElement(ring, x))
    return out


def mu_n(ring: Ring, n: int) -> list[RingElement]:
    """All n-th roots of unity, in canonical payload order."""
    if n < 1:
        raise BadInput(f"need n >= 1, got {n}")
    if not ring.is_finite:
        raise NonEnumerableRing(f"cannot enumerate mu_{n} of {ring.name}")
    one = ring.one_p
    out = []
    for x in ring.payloads():
        acc = one
        for _ in range(n):
            acc = ring.mul(acc, x)
        if acc == one:
            out.append(RingElement(ring, x))
    return out


def component_inverse(ring: Ring, e: Payload, x: Payload) -> Payload | None:
    """Inverse of x within the component ring e*R, or None.

    Uses the identity: x*e is a unit of e*R  iff  x*e + (1-e) is a unit of R.
    """
    u = ring.add(ring.mul(e, x), ring.sub(ring.one_p, e))
    if not ring.is_unit(u):
        return None
    return ring.mul(e, ring.inv(u))


def find_sqrt_minus_one(ring: Ring) -> RingElement | None:
    """Some i with i*i = -1, or None.  Works by scan on finite rings."""
    if not ring.is_finite:
        return None  # no square root of -1 exists anywhere in the Q tower
    minus_one = ring.neg(ring.one_p)
    for x in ring.payloads():
        if ring.mul(x, x) == minus_one:
            return RingElement(ring, x)
    return None


@lru_cache(maxsize=None)
def embedding(src: Ring, dst: Ring) -> Callable[[Payload], Payload]:
    """The canonical payload embedding src -> dst, when one exists.

    F_p embeds wherever the characteristic is exactly p; Q embeds into rings
    built from Q alone.  Anything else raises IncompatibleRings.
    """
    if src == dst:
        return lambda x: x
    if isinstance(src, PrimeField):
        if dst.characteristic != src.p:
            raise IncompatibleRings(
                f"no embedding {src.name} -> {dst.name}: characteristic mismatch")
        return lambda x: dst.int_payload(x)
    if isinstance(src, Rationals):
        if not dst.is_rational_tower:
            raise IncompatibleRings(
                f"no embedding Q -> {dst.name}: not a Q tower")

        def embed_q(x: Fraction, _dst=dst):
            num = _dst.int_payload(x.numerator)
            den = _dst.int_payload(x.denominator)
            return _dst.mul(num, _dst.inv(den))

        return embed_q
    raise IncompatibleRings(f"no embedding {src.name} -> {dst.name}")
