"""Sparse multivariate polynomials over the integers, with exact elimination.

The variable universe is fixed: psi, g, f, z, x, y.  A polynomial maps
packed monomials to nonzero ints: one int per monomial, 21 bits per
variable, psi in the top field, so adding keys multiplies monomials and
integer order is lexicographic order.  Exponents stay below 2**20, the top
bit of each field being a guard: every product checks it, so an exponent
that does not fit raises ``OverflowError`` instead of carrying into the
next field.  The layout is private to this module; other code reads
exponents through ``MPoly.items(names)`` and builds from them through
``MPoly.from_items(names, pairs)``.

Elimination is the performance-critical piece.  ``resultant`` reduces the
higher-degree argument A by one pseudo-remainder R = ``_p_prem(A, B)`` and
takes the determinant of the norm matrix of R modulo B, deg B square, by
the fraction-free elimination that also serves the kernels of ``linalg``.
``gcd_mpoly`` runs a recursive primitive remainder sequence through the
same pseudo-remainder after one specialization test
(``_constant_gcd_certified``) that proves most gcds constant without it.
``squarefree_primitive`` is a content gcd and one ``gcd_mpoly(A, dA/dv)``,
so that test is also its squarefree test.
"""

from __future__ import annotations

import math
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import InvalidElimination, ZeroPolynomial
from . import polyq

VARS = ("psi", "g", "f", "z", "x", "y")

_SHIFT = 21
_MASK = (1 << _SHIFT) - 1
_LIMIT = 1 << (_SHIFT - 1)  # exponents are below this; its bit is the guard
# bit offset of each variable's field, psi highest
_OFF = {v: (len(VARS) - 1 - i) * _SHIFT for i, v in enumerate(VARS)}
_OFFS = tuple(_OFF.values())
_GUARD = sum(_LIMIT << s for s in _OFFS)


def _key(names: Sequence[str], exps: Iterable[int]) -> int:
    """The packed monomial with exponents ``exps`` of ``names``."""
    m = 0
    for v, k in zip(names, exps):
        if k < 0:
            raise ValueError(f"negative exponent {k} of {v}")
        if k >= _LIMIT:
            raise OverflowError(f"exponent {k} of {v} exceeds {_LIMIT - 1}")
        m += k << _OFF[v]
    return m


def _fits(terms: dict[int, int]) -> dict[int, int]:
    """``terms``, once no exponent in it has reached the guard bit."""
    if reduce(or_, terms, 0) & _GUARD:
        raise OverflowError(f"an exponent exceeds {_LIMIT - 1}")
    return terms


def _tdeg(m: int) -> int:
    return sum((m >> s) & _MASK for s in _OFFS)


def _names_in(support: int) -> tuple[str, ...]:
    """The variables with a nonzero field in ``support``, in VARS order."""
    return tuple(v for v in VARS if (support >> _OFF[v]) & _MASK)


def _new(terms: dict[int, int]) -> "MPoly":
    """Wrap a dict with no zero coefficient, without copying it."""
    out = MPoly.__new__(MPoly)
    out.terms = terms
    out._hash = None
    return out


class MPoly:
    """Immutable sparse polynomial; ``terms`` maps packed monomials to ints."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}
        self._hash = None

    # --- constructors ---

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls({0: int(c)})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls({_key((name,), (1,)): 1})

    @classmethod
    def monomial(cls, coeff: int, **exps: int) -> "MPoly":
        return cls({_key(exps, exps.values()): int(coeff)})

    @classmethod
    def from_items(cls, names: Sequence[str],
                   pairs: Iterable[tuple[Sequence[int], int]]) -> "MPoly":
        """The sum of ``c * prod(v**k)`` over pairs ``(exponents of names, c)``."""
        t: dict[int, int] = {}
        for e, c in pairs:
            m = _key(names, e)
            t[m] = t.get(m, 0) + c
        return cls(t)

    # --- basic queries ---

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self, names: Sequence[str]) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield ``(exponents of names, coefficient)`` for every term.

        The one view of exponents outside this module.  Raises ValueError
        on a term that has a variable not in ``names``.
        """
        offs = [_OFF[v] for v in names]
        rest = reduce(or_, (_MASK << s for s in _OFFS if s not in offs), 0)
        for m, c in self.terms.items():
            if m & rest:
                raise ValueError(f"a term has a variable outside {tuple(names)}")
            yield tuple([(m >> s) & _MASK for s in offs]), c

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        s = _OFF[var]
        return max((m >> s) & _MASK for m in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(map(_tdeg, self.terms))

    def variables(self) -> tuple[str, ...]:
        return _names_in(_support(self))

    def constant_value(self) -> int:
        """Value as an integer constant; raises if any variable appears."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError("not a constant polynomial")

    def valuation(self, var: str) -> int:
        """Least exponent of ``var`` across terms; raises on zero input."""
        if not self.terms:
            raise ZeroPolynomial("valuation of the zero polynomial")
        s = _OFF[var]
        return min((m >> s) & _MASK for m in self.terms)

    def int_content(self) -> int:
        return polyq.icontent(self.terms.values())

    def leading_term_key(self) -> int:
        """Graded-lex leading monomial (for sign normalization)."""
        return max(self.terms, key=lambda m: (_tdeg(m), m))

    # --- arithmetic ---

    def __add__(self, other: "MPoly | int") -> "MPoly":
        other = _coerce(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                del t[m]
        return _new(t)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return _new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MPoly | int") -> "MPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "MPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        return _new(_p_mul(self.terms, _coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _new(_p_pow(self.terms, n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # --- structure ---

    def as_univariate(self, var: str) -> list["MPoly"]:
        """Dense coefficient list in ``var``, constant coefficient first."""
        s = _OFF[var]
        coeffs: list[dict] = [{} for _ in range(self.degree(var) + 1)]
        for m, c in self.terms.items():
            k = (m >> s) & _MASK
            coeffs[k][m - (k << s)] = c
        return [_new(t) for t in coeffs]

    @classmethod
    def from_univariate(cls, coeffs: Sequence["MPoly"], var: str) -> "MPoly":
        t: dict[int, int] = {}
        for k, p in enumerate(coeffs):
            step = _key((var,), (k,))
            for m, c in p.terms.items():
                m += step
                t[m] = t.get(m, 0) + c
        return cls(_fits(t))

    def coeff_of(self, var: str, k: int) -> "MPoly":
        s = _OFF[var]
        return _new({m - (k << s): c for m, c in self.terms.items()
                     if (m >> s) & _MASK == k})

    def derivative(self, var: str) -> "MPoly":
        s = _OFF[var]
        t = {}
        for m, c in self.terms.items():
            k = (m >> s) & _MASK
            if k:
                t[m - (1 << s)] = c * k
        return _new(t)

    def rename_var(self, src: str, dst: str) -> "MPoly":
        """Move every exponent of ``src`` onto ``dst`` (dst must be absent)."""
        if self.degree(dst) > 0:
            raise ValueError(f"target variable {dst} already present")
        si, sj = _OFF[src], _OFF[dst]
        t = {}
        for m, c in self.terms.items():
            k = (m >> si) & _MASK
            t[m - (k << si) + (k << sj)] = c
        return _new(t)

    def subs_int(self, assignments: dict[str, int]) -> "MPoly":
        """Substitute integers for variables."""
        offs = [(_OFF[v], n) for v, n in assignments.items()]
        t: dict[int, int] = {}
        for m, val in self.terms.items():
            for s, n in offs:
                k = (m >> s) & _MASK
                val *= n ** k
                m -= k << s
            if val == 0:
                continue
            acc = t.get(m, 0) + val
            if acc:
                t[m] = acc
            else:
                del t[m]
        return _new(t)

    def normalized(self) -> "MPoly":
        """Integer content removed, graded-lex leading coefficient positive."""
        if not self.terms:
            return self
        g = self.int_content()
        if self.terms[self.leading_term_key()] < 0:
            g = -g
        if g == 1:
            return self
        return _new({m: c // g for m, c in self.terms.items()})

    def divexact(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ArithmeticError when not divisible."""
        q = self.try_divexact(other)
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        return q

    def try_divexact(self, other: "MPoly") -> "MPoly | None":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q = _p_try_divexact(self.terms, other.terms)
        return None if q is None else _new(q)

    def __repr__(self) -> str:
        return f"MPoly({self.render()})"

    def render(self) -> str:
        """Canonical text in the equation grammar (graded-lex, descending)."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.items(VARS), reverse=True,
                           key=lambda t: (sum(t[0]), t[0])):
            factors = []
            for v, k in zip(VARS, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append(f"{v}**{k}")
            if not factors:
                body = polyq.num_str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([polyq.num_str(abs(c))] + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += sign + body
        return out


def _coerce(v: "MPoly | int") -> MPoly:
    if isinstance(v, MPoly):
        return v
    if isinstance(v, int):
        return MPoly.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to MPoly")


# --- packed-term kernel ---
#
# Plain dict[int, int] terms of MPoly, for the loops that run hot.  Every
# key that goes into a sum of keys has its guard bits clear: fields below
# 2**20 add to less than 2**21, so no sum carries, and the result is checked
# before it is used again.

def _p_mul(a: dict, b: dict) -> dict:
    if len(a) > len(b):
        a, b = b, a
    r: dict[int, int] = {}
    get = r.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            s = get(m, 0) + c1 * c2
            if s:
                r[m] = s
            else:
                del r[m]
    return _fits(r)


def _p_submul(acc: dict, u: dict, v: dict) -> dict:
    """acc -= u*v, in place."""
    get = acc.get
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            m = m1 + m2
            s = get(m, 0) - c1 * c2
            if s:
                acc[m] = s
            else:
                del acc[m]
    return _fits(acc)


def _p_pow(a: dict, n: int) -> dict:
    out = {0: 1}
    base = a
    while n:
        if n & 1:
            out = _p_mul(out, base)
        n >>= 1
        if n:
            base = _p_mul(base, base)
    return out


def _p_try_divexact(a: dict, d: dict) -> dict | None:
    """Exact division of packed terms; None when not divisible.

    A quotient monomial is ``(m | _GUARD) - dm``: each field of m is at
    least its field of dm exactly when that field's guard bit survives.
    """
    if len(d) == 1:
        (dm, dc), = d.items()
        q = {}
        for m, c in a.items():
            t = (m | _GUARD) - dm
            if c % dc or t & _GUARD != _GUARD:
                return None
            q[t ^ _GUARD] = c // dc
        return q
    a = dict(a)
    dl = max(d)
    dc = d[dl]
    q: dict[int, int] = {}
    # a max-heap of the remainder's monomials; a popped one that has
    # cancelled since it was pushed is skipped
    heap = [-m for m in a]
    heapify(heap)
    get = a.get
    while a:
        al = -heappop(heap)
        ac = get(al)
        if ac is None:
            continue
        # a remainder exponent past the guard cannot occur in an exact
        # division: its exponents are bounded by those of the dividend
        t = (al | _GUARD) - dl
        if ac % dc or al & _GUARD or t & _GUARD != _GUARD:
            return None
        m = t ^ _GUARD
        qc = ac // dc
        q[m] = qc
        for mm, cc in d.items():
            k = m + mm
            s = get(k)
            if s is None:
                a[k] = -qc * cc
                heappush(heap, -k)
            elif s := s - qc * cc:
                a[k] = s
            else:
                del a[k]
    return q


def _p_divexact(a: dict, d: dict) -> dict:
    q = _p_try_divexact(a, d)
    if q is None:
        raise ArithmeticError("inexact division in an exact elimination")
    return q


def _p_prem(A: list[dict], B: list[dict]) -> list[dict]:
    """Pseudo-remainder lc(B)^(dA-dB+1) * A mod B on packed coefficient lists."""
    dB = len(B) - 1
    lb = B[dB]
    R = list(A)
    for _ in range(len(A) - len(B) + 1):
        dR = len(R) - 1
        if dR < dB:
            R = [_p_mul(lb, c) for c in R]
            continue
        lr = R[dR]
        R2 = [_p_mul(lb, c) for c in R[:dR]]
        for j in range(dB):
            _p_submul(R2[dR - dB + j], lr, B[j])
        while R2 and not R2[-1]:
            R2.pop()
        R = R2
        if not R:
            return R
    return R


def prem(A: MPoly, B: MPoly, v: str) -> MPoly:
    """Pseudo-remainder lc_v(B)^(dA-dB+1) * A mod B in v, for B nonzero;
    A itself when deg_v A < deg_v B."""
    r = _p_prem([c.terms for c in A.as_univariate(v)],
                [c.terms for c in B.as_univariate(v)])
    return MPoly.from_univariate(list(map(_new, r)), v)


def resultant(A: MPoly, B: MPoly, v: str) -> MPoly:
    """Resultant of A and B with respect to v, exact, with the sign of the
    Sylvester determinant.

    With deg A >= deg B (else swapped), one pseudo-remainder
    R = lc(B)^(dA-dB+1) * A mod B gives Res(B, A) = lc(B)^e * Res(B, R),
    e = dA - dR - (dA-dB+1)*dB <= 0.  Res(B, R) is R^dB for a constant R,
    and otherwise comes from the dB-square norm matrix of R modulo B: row 0
    is R, row i is v times row i-1, reduced by one pseudo-remainder step
    once it reaches degree dB.  Its determinant is
    lc(B)^(dR(dR+1)/2) * N(R), where N(R) is the product of R over the
    roots of B, and Res(B, R) = lc(B)^dR * N(R), so one exact division by
    lc(B)^(dR(dR-1)/2 - e) gives Res(B, A).  The determinant is sign
    times the last pivot of `linalg._eliminate`, the Bareiss elimination
    that the kernels run, and zero with fewer than dB pivots.
    """
    dA, dB = A.degree(v), B.degree(v)
    if dA <= 0 or dB <= 0:
        raise InvalidElimination(
            f"resultant in {v} needs positive degree, got {dA} and {dB}")
    a = [c.terms for c in A.as_univariate(v)]
    b = [c.terms for c in B.as_univariate(v)]
    # Res(A, B) = (-1)^(dA*dB) Res(B, A), and Res(B, A) is what is computed;
    # at equal degrees the operand with fewer terms is the divisor B, which
    # reduces the norm matrix's rows and whose lead is divided out
    neg = dA * dB % 2 == 1
    if (dA, len(A.terms)) < (dB, len(B.terms)):
        a, b, dA, dB, neg = b, a, dB, dA, False
    r = _p_prem(a, b)
    if not r:
        return MPoly.zero()
    dR = len(r) - 1
    k = dR * (dR - 1) // 2 - (dA - dR - (dA - dB + 1) * dB)
    if dR == 0:
        res = _p_pow(r[0], dB)
    else:
        rows = [r + [{}] * (dB - 1 - dR)]
        for i in range(1, dB):
            # v times the last row; from row dB - dR on it reaches degree
            # dB, and a pseudo-remainder step scales it by lc(B) once
            row = [{}] + rows[-1]
            row = _p_prem(row, b) if i >= dB - dR else row[:-1]
            rows.append(row + [{}] * (dB - len(row)))
        from .linalg import _eliminate  # here: linalg imports this module
        M = [list(map(_new, row)) for row in rows]
        piv, sign = _eliminate(M, MPoly.divexact)
        if len(piv) < dB:
            return MPoly.zero()
        res, neg = M[-1][-1].terms, neg ^ (sign < 0)
    if k:
        res = _p_divexact(res, _p_pow(b[-1], k))
    return _new({m: -c for m, c in res.items()} if neg else res)


# --- multivariate gcd (recursive primitive PRS with a coprimality fast path) ---

def _support(P: MPoly) -> int:
    """A key whose nonzero fields are the variables of P."""
    return reduce(or_, P.terms, 0)


def _pos_sign(P: MPoly) -> MPoly:
    if P.is_zero:
        return P
    return -P if P.terms[P.leading_term_key()] < 0 else P


_POINTS = [(2, 3), (3, 5), (5, 2), (7, 11), (4, 9), (11, 13), (6, 17), (13, 7)]


def _specializations(others: Sequence[str]) -> Iterator[dict[str, int]]:
    """Integer values for the variables ``others``, one dict per point tried."""
    for point in _POINTS:
        yield {w: point[j % len(point)] + 2 * (j // len(point))
               for j, w in enumerate(others)}


def _constant_gcd_certified(A: MPoly, B: MPoly) -> bool:
    """True only when the gcd is proven to be an integer.

    For each shared variable v, a specialization of the other variables that
    keeps both leading v-coefficients nonzero bounds deg_v(gcd) from above by
    the specialized univariate gcd degree.  All bounds zero means the gcd is
    a constant.  Returns False when inconclusive.
    """
    va = _names_in(_support(A) | _support(B))
    for v in va:
        if A.degree(v) <= 0 or B.degree(v) <= 0:
            continue  # gcd has degree 0 in v already
        la = A.as_univariate(v)[-1]
        lb = B.as_univariate(v)[-1]
        assign = next((a for a in _specializations([w for w in va if w != v])
                       if la.subs_int(a) and lb.subs_int(a)), None)
        if assign is None:
            return False
        ua = [c.constant_value() for c in A.subs_int(assign).as_univariate(v)]
        ub = [c.constant_value() for c in B.subs_int(assign).as_univariate(v)]
        if len(polyq.igcd_poly(ua, ub)) > 1:
            return False
    return True


def gcd_mpoly(A: MPoly, B: MPoly) -> MPoly:
    """Gcd over the integers (content included), positive leading sign."""
    if A.is_zero:
        return _pos_sign(B)
    if B.is_zero:
        return _pos_sign(A)
    if _constant_gcd_certified(A, B):
        return MPoly.const(math.gcd(A.int_content(), B.int_content()))
    v = _names_in(_support(A) | _support(B))[0]
    if A.degree(v) <= 0 or B.degree(v) <= 0:
        # v appears in only one argument: gcd divides that one's v-content
        short, other = (A, B) if A.degree(v) <= 0 else (B, A)
        return _pos_sign(_coeff_gcd([short, *other.as_univariate(v)]))
    ua = A.as_univariate(v)
    ub = B.as_univariate(v)
    conta = _coeff_gcd(ua)
    contb = _coeff_gcd(ub)
    cont = gcd_mpoly(conta, contb)
    pa = [c.divexact(conta).terms for c in ua]
    pb = [c.divexact(contb).terms for c in ub]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    # pb stays primitive: a remainder of degree 0 leaves the primitive parts
    # coprime, and no remainder leaves pb as their gcd
    while len(r := _p_prem(pa, pb)) > 1:
        g = _coeff_gcd(map(_new, r)).terms
        pa, pb = pb, [_p_divexact(c, g) for c in r]
    pp = MPoly.const(1) if r else MPoly.from_univariate(list(map(_new, pb)), v)
    # integer contents flow through the two content gcds, so the primitive
    # part is normalized and the content part keeps the integer factor
    return _pos_sign(pp.normalized() * cont)


def _coeff_gcd(cs: Iterable[MPoly]) -> MPoly:
    g = MPoly.zero()
    for c in cs:
        if c.is_zero:
            continue
        g = gcd_mpoly(g, c)
        if g == 1:
            return g
    return g


# --- squarefree primitive part ---

def squarefree_primitive(A: MPoly, v: str) -> MPoly:
    """Primitive part of the squarefree part of A with respect to v.

    The result keeps exactly the distinct irreducible factors of A that
    involve v (repeated factors once, v-free content dropped), has integer
    content 1 and positive leading sign, and has the same root set in v.
    """
    if A.is_zero:
        raise ZeroPolynomial("squarefree_primitive of the zero polynomial")
    vval = A.valuation(v)
    # strip the monomial content: the key of per-variable valuations
    low = sum(A.valuation(w) << _OFF[w] for w in VARS)
    if low:
        A = _new({m - low: c for m, c in A.terms.items()})
    d = A.degree(v)
    if d == 0:
        return MPoly.var(v) if vval else MPoly.const(1)
    coeffs = A.as_univariate(v)
    cont = _coeff_gcd(coeffs)
    if cont != 1:
        A = MPoly.from_univariate([c.divexact(cont) for c in coeffs], v)
    if d > 1:
        # A is v-primitive now: gcd_mpoly's constant-gcd test is the
        # squarefree test, and a nonconstant gcd is the repeated part
        g = gcd_mpoly(A, A.derivative(v))
        if g.total_degree() > 0:
            A = A.divexact(g)
    if vval:
        A = A * MPoly.var(v)
    return A.normalized()
