"""Named constructors for the bilinear-form and matrix families.

Each constructor fixes an ordered basis (the form's basis, or matrix units
E_ij in row-major order), evaluates the defining product on basis tuples,
and registers the generic trace where one is defined.  The explicit
isomorphisms between presentations live here too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .autfam import op_transpose
from .errors import (AxiomFailure, BadDims, BadInput,
                     NoSquareRootOfMinusOne, ParseError)
from .jordan import (JordanAlgebra, JordanPair, JordanTriple, PairMap, _nest,
                     basis_vector, check_axioms, is_pair_isomorphism,
                     pair_from_triple, triple_from_algebra, MAX_AXIOM_DIM)
from .matrix import BilinearForm, Matrix, standard_form
from .ring import Ring, RingElement, parse_ring


@dataclass(frozen=True)
class NamedSystem:
    tag: str
    ring: Ring
    params: tuple  # dims, in display order
    structure: object  # JordanPair | JordanTriple | JordanAlgebra

    @property
    def name(self) -> str:
        dims = ",".join(str(p) for p in self.params)
        sep = "," if dims else ""
        return f"{self.tag}({dims}{sep}{self.ring.name})"


def _named(tag: str, ring: Ring, params: tuple, structure) -> NamedSystem:
    """The named system of a constructed structure, whose axioms must hold
    wherever the carriers are small enough to check."""
    dims = ([structure.dplus, structure.dminus]
            if isinstance(structure, JordanPair) else [structure.dim])
    if max(dims) <= MAX_AXIOM_DIM:
        report = check_axioms(structure)
        if not report.ok:
            raise AxiomFailure("catalog construction broke axioms: "
                               f"{report.first_failure()}")
    return NamedSystem(tag, ring, params, structure)


def _form_tensor(form: BilinearForm):
    """T[a][b][c] = G[a,b] e_c + G[c,b] e_a - G[a,c] e_b."""
    ring = form.gram.ring
    g = form.gram.entries
    n = form.gram.rows
    zero = ring.zero_p
    tensor = []
    for a in range(n):
        row = []
        for b in range(n):
            entry = []
            for c in range(n):
                vec = [zero] * n
                vec[c] = ring.add(vec[c], g[a][b])
                vec[a] = ring.add(vec[a], g[c][b])
                vec[b] = ring.sub(vec[b], g[a][c])
                entry.append(tuple(vec))
            row.append(tuple(entry))
        tensor.append(tuple(row))
    return tuple(tensor)


def make_type_iv_pair(form: BilinearForm) -> NamedSystem:
    ring = form.gram.ring
    n = form.gram.rows
    t = _form_tensor(form)
    pair = JordanPair(ring, n, n, t, t, form.gram, name=f"VIV({n},{ring.name})")
    return _named("VIV", ring, (n,), pair)


def make_type_iv_triple(form: BilinearForm) -> NamedSystem:
    ring = form.gram.ring
    n = form.gram.rows
    t = _form_tensor(form)
    trip = JordanTriple(ring, n, t, form.gram, name=f"ThatIV({n},{ring.name})")
    return _named("ThatIV", ring, (n,), trip)


def make_bilinear_form_algebra(form: BilinearForm) -> NamedSystem:
    """J = R1 + V with 1 the unit and uv = b(u,v)1; dim = 1 + dim V."""
    ring = form.gram.ring
    nv = form.gram.rows
    d = nv + 1
    zero = ring.zero_p
    prod = [[None] * d for _ in range(d)]
    unit = basis_vector(ring, d, 0)
    for a in range(d):
        for b in range(d):
            if a == 0:
                prod[a][b] = basis_vector(ring, d, b)
            elif b == 0:
                prod[a][b] = basis_vector(ring, d, a)
            else:
                vec = [zero] * d
                vec[0] = form.gram.entries[a - 1][b - 1]
                prod[a][b] = tuple(vec)
    alg = JordanAlgebra(ring, d, tuple(tuple(r) for r in prod), unit,
                        name=f"Jbilin({d},{ring.name})")
    return _named("Jbilin", ring, (d,), alg)


def make_t_iv(form: BilinearForm) -> NamedSystem:
    """The triple system of J(V, b); carrier dim = 1 + dim V."""
    alg = make_bilinear_form_algebra(form).structure
    ring, d = alg.ring, alg.dim
    trip = triple_from_algebra(alg, name=f"TIV({d},{ring.name})")
    return _named("TIV", ring, (d,), trip)


def _units(rows: int, cols: int) -> np.ndarray:
    """One-hot matrix units E_ij of M_{rows,cols}, row-major: (rows*cols,
    rows, cols)."""
    return np.eye(rows * cols, dtype=np.int64).reshape(-1, rows, cols)


def _triple_counts(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_a y_b x_c + x_c y_b x_a for stacks of units, flattened row-major
    at [a, b, c].

    Products of units are units or zero (E_ij E_kl E_st = d_jk d_ls E_it),
    so every entry is a count in {0, 1, 2}.
    """
    xyx = np.einsum("abik,ckl->abcil", np.einsum("aij,bjk->abik", x, y), x)
    counts = xyx + xyx.transpose(2, 1, 0, 3, 4)
    return counts.reshape(counts.shape[:3] + (-1,))


def _constants(ring: Ring, counts: np.ndarray, scale=None):
    """Nested payload tuples with count k read as the payload of k, times
    scale where one is given."""
    values = [ring.int_payload(k) for k in range(int(counts.max()) + 1)]
    if scale is not None:
        values = [ring.mul(scale, v) for v in values]
    return _nest([values[k] for k in counts.ravel().tolist()], counts.shape)


def _check_dims(m: int, n: int) -> None:
    if not (1 <= m <= n):
        raise BadDims(f"need 1 <= m <= n, got ({m}, {n})")


def make_vti(m: int, n: int, ring: Ring) -> NamedSystem:
    _check_dims(m, n)
    units = _units(m, n)
    t = _constants(ring, _triple_counts(units, units.transpose(0, 2, 1)))
    gram = Matrix.identity(ring, m * n)  # tr(E_ij E_kl^T) = delta_ik delta_jl
    pair = JordanPair(ring, m * n, m * n, t, t, gram,
                      name=f"VtI({m},{n},{ring.name})")
    return _named("VtI", ring, (m, n), pair)


def make_vhi(m: int, n: int, ring: Ring) -> NamedSystem:
    _check_dims(m, n)
    plus, minus = _units(m, n), _units(n, m)
    t_plus = _constants(ring, _triple_counts(plus, minus))
    t_minus = _constants(ring, _triple_counts(minus, plus))
    gram = op_transpose(ring, n, m)  # tr(E_ij E_kl) = d_jk d_li
    pair = JordanPair(ring, m * n, n * m, t_plus, t_minus, gram,
                      name=f"VhI({m},{n},{ring.name})")
    return _named("VhI", ring, (m, n), pair)


def make_tti(m: int, n: int, ring: Ring) -> NamedSystem:
    _check_dims(m, n)
    units = _units(m, n)
    t = _constants(ring, _triple_counts(units, units.transpose(0, 2, 1)))
    gram = Matrix.identity(ring, m * n)
    trip = JordanTriple(ring, m * n, t, gram, name=f"TtI({m},{n},{ring.name})")
    return _named("TtI", ring, (m, n), trip)


def make_thi(n: int, ring: Ring) -> NamedSystem:
    _check_dims(n, n)
    units = _units(n, n)
    t = _constants(ring, _triple_counts(units, units))
    gram = op_transpose(ring, n, n)
    trip = JordanTriple(ring, n * n, t, gram, name=f"ThI({n},{ring.name})")
    return _named("ThI", ring, (n,), trip)


def make_mn_plus(n: int, ring: Ring) -> NamedSystem:
    """M_n as a Jordan algebra with x o y = (xy + yx)/2."""
    _check_dims(n, n)
    units = _units(n, n)
    xy = np.einsum("aij,bjk->abik", units, units)
    counts = (xy + xy.transpose(1, 0, 2, 3)).reshape(n * n, n * n, -1)
    prod = _constants(ring, counts, scale=ring.half_p)
    unit = _constants(ring, np.eye(n, dtype=np.int64).ravel())
    alg = JordanAlgebra(ring, n * n, prod, unit,
                        name=f"Mplus({n},{ring.name})")
    return _named("Mplus", ring, (n,), alg)


def make_bad_pair(ring: Ring) -> NamedSystem:
    """Deliberate axiom-violating fixture: {e1, f2, e2} = e1, all else zero.

    Outer symmetry fails since {e2, f2, e1} = 0.
    """
    zero, one = ring.zero_p, ring.one_p
    zvec = (zero, zero)
    t_plus = [[[zvec, zvec], [zvec, zvec]], [[zvec, zvec], [zvec, zvec]]]
    t_plus[0][1][1] = (one, zero)
    t_minus = tuple(tuple((zvec, zvec) for _ in range(2)) for _ in range(2))
    pair = JordanPair(ring, 2, 2,
                      tuple(tuple(tuple(e) for e in row) for row in t_plus),
                      t_minus, None, name=f"BadPair({ring.name})")
    return NamedSystem("BadPair", ring, (), pair)


# -- explicit isomorphisms -------------------------------------------------


@dataclass(frozen=True)
class PairIsomorphism:
    source: JordanPair
    target: JordanPair
    map: PairMap
    name: str = "iso"

    def verify(self) -> bool:
        return is_pair_isomorphism(self.source, self.target, self.map)


def extended_form(form: BilinearForm) -> BilinearForm:
    """Extend b on V to J = R1 + V: 1 is a norm-one vector orthogonal to V."""
    ring = form.gram.ring
    nv = form.gram.rows
    zero, one = ring.zero_p, ring.one_p
    rows = []
    rows.append(tuple([one] + [zero] * nv))
    for i in range(nv):
        rows.append(tuple([zero] + list(form.gram.entries[i])))
    return BilinearForm(Matrix(ring, nv + 1, nv + 1, tuple(rows)))


def lambda_isomorphism(form: BilinearForm, i: RingElement) -> PairIsomorphism:
    """From the pair of T_IV(V, b) onto the type IV pair of (J, extended b).

    Determined by v_k -> v_k and (sign)i*1 -> 1, which needs i^2 = -1.
    """
    ring = form.gram.ring
    if isinstance(i, int):
        i = ring.from_int(i)
    if i.ring != ring:
        raise BadInput("square root of -1 from a different ring")
    if i * i != ring.from_int(-1):
        raise NoSquareRootOfMinusOne(
            f"{i} squares to {(i * i)}, not -1, in {ring.name}")
    t_iv = make_t_iv(form).structure
    source = pair_from_triple(t_iv)
    target_sys = make_type_iv_pair(extended_form(form))
    target = target_sys.structure
    d = t_iv.dim
    # basis (1, v_1, ..., v_{n-1}); sigma*i*1 -> 1 forces 1 -> -sigma*i*1
    minus_i = (-i).payload
    plus_diag = [minus_i] + [ring.one_p] * (d - 1)
    minus_diag = [i.payload] + [ring.one_p] * (d - 1)
    f = PairMap(Matrix.diagonal(ring, plus_diag),
                Matrix.diagonal(ring, minus_diag))
    iso = PairIsomorphism(source, target, f,
                          name=f"lambda({d},{ring.name})")
    if not iso.verify():
        raise AxiomFailure(f"{iso.name}: constructed map failed transport "
                           "verification")
    return iso


def vti_to_vhi(m: int, n: int, ring: Ring) -> PairIsomorphism:
    """(x, y) -> (x, y^T) from VtI_{m,n} onto VhI_{m,n}."""
    source = make_vti(m, n, ring).structure
    target = make_vhi(m, n, ring).structure
    f = PairMap(Matrix.identity(ring, m * n), op_transpose(ring, m, n))
    iso = PairIsomorphism(source, target, f, name=f"vti-vhi({m},{n},{ring.name})")
    if not iso.verify():
        raise AxiomFailure(f"{iso.name}: transpose map failed transport "
                           "verification")
    return iso


# -- system-spec parsing ---------------------------------------------------

_SPEC_RE = re.compile(r"^\s*([A-Za-z]+)\s*\(\s*(.*?)\s*\)\s*$")

_ONE_DIM = {"VIV", "ThatIV", "TIV", "ThI", "Mplus", "Jbilin"}
_TWO_DIM = {"VtI", "VhI", "TtI"}


def parse_system(text: str) -> NamedSystem:
    """Parse specs like "VIV(n=2,ring=F5)", "VhI(1,2,F3)", "BadPair(F3)"."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ParseError(f"bad system spec: {text!r}")
    tag, argstr = m.group(1), m.group(2)
    args = [a.strip() for a in argstr.split(",")] if argstr.strip() else []
    kwargs, positional = {}, []
    for a in args:
        if "=" in a:
            k, v = a.split("=", 1)
            kwargs[k.strip()] = v.strip()
        else:
            positional.append(a)
    ring_text = kwargs.pop("ring", None)
    if ring_text is None and positional:
        ring_text = positional.pop()  # ring is always the last positional
    if ring_text is None:
        raise ParseError(f"system spec needs a ring: {text!r}")
    ring = parse_ring(ring_text)
    try:
        dims = [int(x) for x in positional]
    except ValueError:
        raise ParseError(f"non-integer dimension in {text!r}") from None
    if dims and ("m" in kwargs or "n" in kwargs):
        raise ParseError(f"mix of positional and keyword dimensions in {text!r}")
    for key in ("m", "n"):
        if key in kwargs:
            try:
                dims.append(int(kwargs.pop(key)))
            except ValueError:
                raise ParseError(f"non-integer dimension in {text!r}") from None
    if kwargs:
        raise ParseError(f"unknown system parameters {sorted(kwargs)} in {text!r}")

    if tag == "BadPair":
        if dims:
            raise ParseError("BadPair takes only a ring")
        return make_bad_pair(ring)
    if tag in _ONE_DIM:
        if len(dims) != 1:
            raise ParseError(f"{tag} takes one dimension, got {dims}")
        n = dims[0]
        if n < 1:
            raise BadDims(f"dimension must be positive, got {n}")
        if tag == "VIV":
            return make_type_iv_pair(standard_form(ring, n))
        if tag == "ThatIV":
            return make_type_iv_triple(standard_form(ring, n))
        if tag == "TIV":
            return make_t_iv(standard_form(ring, n - 1))
        if tag == "Jbilin":
            return make_bilinear_form_algebra(standard_form(ring, n - 1))
        if tag == "ThI":
            return make_thi(n, ring)
        if tag == "Mplus":
            return make_mn_plus(n, ring)
    if tag in _TWO_DIM:
        if len(dims) != 2:
            raise ParseError(f"{tag} takes dimensions (m, n), got {dims}")
        m_, n_ = dims
        maker = {"VtI": make_vti, "VhI": make_vhi, "TtI": make_tti}[tag]
        return maker(m_, n_, ring)
    raise ParseError(f"unknown system tag {tag!r}")
