"""Sparse multivariate polynomials over the integers, with exact elimination.

The variable universe is fixed: psi, g, f, z, x, y, in that order.  Every
polynomial stores exponent tuples of length six over that order, so equality
and hashing are syntactic and independent of construction history.

Elimination is the performance-critical piece.  ``resultant`` runs a
subresultant polynomial remainder sequence whose coefficient arithmetic works
on monomials packed into single integers (21 bits per variable, most
significant variable first, so integer comparison is lexicographic
comparison).  ``resultant_sylvester`` is an independent fraction-free
determinant route kept for cross-checking the PRS on small inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidElimination, ZeroPolynomial
from . import polyq

VARS = ("psi", "g", "f", "z", "x", "y")
_VIDX = {v: i for i, v in enumerate(VARS)}
_NV = len(VARS)
_ZEXP = (0,) * _NV

_SHIFT = 21
_MASK = (1 << _SHIFT) - 1


def _exp(**exps: int) -> tuple[int, ...]:
    e = [0] * _NV
    for name, k in exps.items():
        e[_VIDX[name]] = k
    return tuple(e)


class MPoly:
    """Immutable sparse polynomial; ``terms`` maps exponent tuples to ints."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t
        self._hash = None

    # --- constructors ---

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls({_ZEXP: int(c)} if c else None)

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls({_exp(**{name: 1}): 1})

    @classmethod
    def monomial(cls, coeff: int, **exps: int) -> "MPoly":
        return cls({_exp(**exps): int(coeff)} if coeff else None)

    # --- basic queries ---

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = _VIDX[var]
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables(self) -> tuple[str, ...]:
        present = [False] * _NV
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    present[i] = True
        return tuple(v for i, v in enumerate(VARS) if present[i])

    def constant_value(self) -> int:
        """Value as an integer constant; raises if any variable appears."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and _ZEXP in self.terms:
            return self.terms[_ZEXP]
        raise ValueError("not a constant polynomial")

    def valuation(self, var: str) -> int:
        """Least exponent of ``var`` across terms; raises on zero input."""
        if not self.terms:
            raise ZeroPolynomial("valuation of the zero polynomial")
        i = _VIDX[var]
        return min(e[i] for e in self.terms)

    def int_content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def leading_term_key(self) -> tuple:
        """Graded-lex leading exponent tuple (for sign normalization)."""
        return max(self.terms, key=lambda e: (sum(e), e))

    # --- arithmetic ---

    def __add__(self, other: "MPoly | int") -> "MPoly":
        other = _coerce(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                del t[e]
        out = MPoly.__new__(MPoly)
        out.terms = t
        out._hash = None
        return out

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        out = MPoly.__new__(MPoly)
        out.terms = {e: -c for e, c in self.terms.items()}
        out._hash = None
        return out

    def __sub__(self, other: "MPoly | int") -> "MPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: int) -> "MPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "MPoly | int") -> "MPoly":
        other = _coerce(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        t: dict[tuple[int, ...], int] = {}
        get = t.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(sum, zip(e1, e2)))
                s = get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    del t[e]
        out = MPoly.__new__(MPoly)
        out.terms = t
        out._hash = None
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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
        i = _VIDX[var]
        d = self.degree(var)
        if d < 0:
            return []
        coeffs: list[dict] = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            k = e[i]
            e0 = e[:i] + (0,) + e[i + 1:]
            coeffs[k][e0] = c
        out = []
        for t in coeffs:
            p = MPoly.__new__(MPoly)
            p.terms = t
            p._hash = None
            out.append(p)
        return out

    @classmethod
    def from_univariate(cls, coeffs: Sequence["MPoly"], var: str) -> "MPoly":
        i = _VIDX[var]
        t: dict[tuple[int, ...], int] = {}
        for k, p in enumerate(coeffs):
            for e, c in p.terms.items():
                e2 = e[:i] + (e[i] + k,) + e[i + 1:]
                t[e2] = t.get(e2, 0) + c
        return cls(t)

    def coeff_of(self, var: str, k: int) -> "MPoly":
        i = _VIDX[var]
        t = {}
        for e, c in self.terms.items():
            if e[i] == k:
                t[e[:i] + (0,) + e[i + 1:]] = c
        return MPoly(t)

    def derivative(self, var: str) -> "MPoly":
        i = _VIDX[var]
        t = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                t[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return MPoly(t)

    def rename_var(self, src: str, dst: str) -> "MPoly":
        """Move every exponent of ``src`` onto ``dst`` (dst must be absent)."""
        i, j = _VIDX[src], _VIDX[dst]
        if self.degree(dst) > 0:
            raise ValueError(f"target variable {dst} already present")
        t = {}
        for e, c in self.terms.items():
            le = list(e)
            le[j] += le[i]
            le[i] = 0
            t[tuple(le)] = c
        return MPoly(t)

    def subs_int(self, assignments: dict[str, int]) -> "MPoly":
        """Substitute integers for variables."""
        idx = [(_VIDX[v], n) for v, n in assignments.items()]
        t: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            val = c
            le = list(e)
            for i, n in idx:
                val *= n ** le[i]
                le[i] = 0
            if val == 0:
                continue
            key = tuple(le)
            s = t.get(key, 0) + val
            if s:
                t[key] = s
            else:
                del t[key]
        return MPoly(t)

    def subs_poly(self, assignments: dict[str, "MPoly"]) -> "MPoly":
        """Substitute polynomials for variables (small inputs only)."""
        out = MPoly.zero()
        cache: dict[tuple[str, int], MPoly] = {}

        def power(v: str, k: int) -> MPoly:
            if k == 0:
                return MPoly.const(1)
            got = cache.get((v, k))
            if got is None:
                got = assignments[v] ** k
                cache[(v, k)] = got
            return got

        for e, c in self.terms.items():
            term = MPoly.const(c)
            for i, k in enumerate(e):
                if not k:
                    continue
                v = VARS[i]
                if v in assignments:
                    term = term * power(v, k)
                else:
                    term = term * MPoly.monomial(1, **{v: k})
            out = out + term
        return out

    def normalized(self) -> "MPoly":
        """Integer content removed, graded-lex leading coefficient positive."""
        if not self.terms:
            return self
        g = self.int_content()
        if self.terms[self.leading_term_key()] < 0:
            g = -g
        if g == 1:
            return self
        out = MPoly.__new__(MPoly)
        out.terms = {e: c // g for e, c in self.terms.items()}
        out._hash = None
        return out

    def divexact(self, other: "MPoly") -> "MPoly":
        """Exact division; raises ArithmeticError when not divisible."""
        q = self.try_divexact(other)
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        return q

    def try_divexact(self, other: "MPoly") -> "MPoly | None":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return MPoly.zero()
        pvars = sorted(set(self.variables()) | set(other.variables()),
                       key=_VIDX.get)
        a = _pack(self, pvars)
        b = _pack(other, pvars)
        q = _p_try_divexact(a, b, len(pvars))
        if q is None:
            return None
        return _unpack(q, pvars)

    def __repr__(self) -> str:
        return f"MPoly({self.render()})"

    def render(self) -> str:
        """Canonical text in the equation grammar (graded-lex, descending)."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        parts = []
        for e in keys:
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(VARS[i])
                elif k > 1:
                    factors.append(f"{VARS[i]}**{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
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


# --- packed-monomial kernel ---
#
# A packed polynomial is dict[int, int]: monomial key -> coefficient, where
# the key packs the exponents of an ordered variable list, first variable at
# the highest bit offset.  Key addition is monomial multiplication and
# integer max is the lexicographic leading monomial.

def _pack(p: MPoly, pvars: Sequence[str]) -> dict[int, int]:
    idxs = [_VIDX[v] for v in pvars]
    shifts = [(len(pvars) - 1 - j) * _SHIFT for j in range(len(pvars))]
    out = {}
    for e, c in p.terms.items():
        key = 0
        for j, i in enumerate(idxs):
            k = e[i]
            if k >> _SHIFT:
                raise OverflowError("exponent exceeds the packing width")
            key |= k << shifts[j]
        out[key] = c
    return out


def _unpack(d: dict[int, int], pvars: Sequence[str]) -> MPoly:
    idxs = [_VIDX[v] for v in pvars]
    shifts = [(len(pvars) - 1 - j) * _SHIFT for j in range(len(pvars))]
    t = {}
    for key, c in d.items():
        e = [0] * _NV
        for j, i in enumerate(idxs):
            e[i] = (key >> shifts[j]) & _MASK
        t[tuple(e)] = c
    return MPoly(t)


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
    return r


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
    return acc


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


def _p_try_divexact(a: dict, d: dict, nvars: int) -> dict | None:
    """Exact division of packed polynomials; None when not divisible."""
    if len(d) == 1:
        (dm, dc), = d.items()
        q = {}
        for m, c in a.items():
            if c % dc:
                return None
            mq = m - dm
            for j in range(nvars):
                if mq < 0:
                    return None
                if ((m >> (j * _SHIFT)) & _MASK) < ((dm >> (j * _SHIFT)) & _MASK):
                    return None
            q[mq] = c // dc
        return q
    a = dict(a)
    dl = max(d)
    dc = d[dl]
    q: dict[int, int] = {}
    while a:
        al = max(a)
        ac = a[al]
        if ac % dc:
            return None
        for j in range(nvars):
            if ((al >> (j * _SHIFT)) & _MASK) < ((dl >> (j * _SHIFT)) & _MASK):
                return None
        m = al - dl
        qc = ac // dc
        q[m] = qc
        get = a.get
        for mm, cc in d.items():
            k = m + mm
            s = get(k, 0) - qc * cc
            if s:
                a[k] = s
            else:
                del a[k]
    return q


def _p_divexact(a: dict, d: dict, nvars: int) -> dict:
    q = _p_try_divexact(a, d, nvars)
    if q is None:
        raise ArithmeticError("inexact division inside the PRS")
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


def _p_resultant(A: list[dict], B: list[dict], nvars: int) -> dict:
    """Subresultant PRS resultant of packed dense coefficient lists."""
    sign = 1
    dA, dB = len(A) - 1, len(B) - 1
    if dA < dB:
        A, B = B, A
        if (dA * dB) % 2:
            sign = -sign
        dA, dB = dB, dA
    one = {0: 1}
    g, h = one, one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA * dB) % 2:
            sign = -sign
        R = _p_prem(A, B)
        if not R:
            return {}
        div = _p_mul(g, _p_pow(h, delta)) if delta else g
        R = [_p_divexact(c, div, nvars) for c in R]
        A, B = B, R
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _p_divexact(_p_pow(g, delta), _p_pow(h, delta - 1), nvars)
        if len(B) - 1 == 0:
            dAp = len(A) - 1
            lb = B[0]
            if dAp == 0:
                res = one
            elif dAp == 1:
                res = lb
            else:
                res = _p_divexact(_p_pow(lb, dAp), _p_pow(h, dAp - 1), nvars)
            if sign == -1:
                res = {m: -c for m, c in res.items()}
            return res


def resultant(A: MPoly, B: MPoly, v: str) -> MPoly:
    """Resultant of A and B with respect to v, exact.

    Subresultant PRS on packed monomials; agrees with the Sylvester
    determinant including sign.
    """
    dA, dB = A.degree(v), B.degree(v)
    if dA <= 0 or dB <= 0:
        raise InvalidElimination(
            f"resultant in {v} needs positive degree, got {dA} and {dB}")
    pvars = sorted((set(A.variables()) | set(B.variables())) - {v},
                   key=_VIDX.get)
    if not pvars:
        pvars = ["y"]  # packing needs at least one slot
    pa = [_pack(c, pvars) for c in A.as_univariate(v)]
    pb = [_pack(c, pvars) for c in B.as_univariate(v)]
    res = _p_resultant(pa, pb, len(pvars))
    return _unpack(res, pvars)


def resultant_sylvester(A: MPoly, B: MPoly, v: str) -> MPoly:
    """Resultant via Bareiss fraction-free elimination of the Sylvester matrix.

    Independent of the PRS route; intended for cross-checks at small degree.
    """
    dA, dB = A.degree(v), B.degree(v)
    if dA <= 0 or dB <= 0:
        raise InvalidElimination(
            f"resultant in {v} needs positive degree, got {dA} and {dB}")
    a = A.as_univariate(v)
    b = B.as_univariate(v)
    n = dA + dB
    M: list[list[MPoly]] = []
    for i in range(dB):
        row = [MPoly.zero()] * n
        for k, c in enumerate(reversed(a)):
            row[i + k] = c
        M.append(row)
    for i in range(dA):
        row = [MPoly.zero()] * n
        for k, c in enumerate(reversed(b)):
            row[i + k] = c
        M.append(row)
    sign = 1
    prev = MPoly.const(1)
    for k in range(n - 1):
        if M[k][k].is_zero:
            for r in range(k + 1, n):
                if not M[r][k].is_zero:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero()
        piv = M[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * piv - M[i][k] * M[k][j]
                M[i][j] = num.divexact(prev)
            M[i][k] = MPoly.zero()
        prev = piv
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


# --- multivariate gcd (recursive primitive PRS with a coprimality fast path) ---

def _pos_sign(P: MPoly) -> MPoly:
    if P.is_zero:
        return P
    return -P if P.terms[P.leading_term_key()] < 0 else P


def _constant_gcd_certified(A: MPoly, B: MPoly) -> bool:
    """True only when the gcd is proven to be an integer.

    For each shared variable v, a specialization of the other variables that
    keeps both leading v-coefficients nonzero bounds deg_v(gcd) from above by
    the specialized univariate gcd degree.  All bounds zero means the gcd is
    a constant.  Returns False when inconclusive.
    """
    va = sorted(set(A.variables()) | set(B.variables()), key=_VIDX.get)
    for v in va:
        if A.degree(v) <= 0 or B.degree(v) <= 0:
            continue  # gcd has degree 0 in v already
        la = A.as_univariate(v)[-1]
        lb = B.as_univariate(v)[-1]
        others = [w for w in va if w != v]
        done = False
        for point in _SQF_POINTS:
            assign = {w: point[j % len(point)] + 2 * (j // len(point))
                      for j, w in enumerate(others)}
            if others and (la.subs_int(assign).is_zero
                           or lb.subs_int(assign).is_zero):
                continue
            sa = A.subs_int(assign) if others else A
            sb = B.subs_int(assign) if others else B
            ua = [c.constant_value() for c in sa.as_univariate(v)]
            ub = [c.constant_value() for c in sb.as_univariate(v)]
            g = polyq.igcd_poly(ua, ub)
            if len(g) - 1 == 0:
                done = True
            break
        if not done:
            return False
    return True


def gcd_mpoly(A: MPoly, B: MPoly) -> MPoly:
    """Gcd over the integers (content included), positive leading sign."""
    if A.is_zero:
        return _pos_sign(B)
    if B.is_zero:
        return _pos_sign(A)
    va = set(A.variables()) | set(B.variables())
    if not va:
        return MPoly.const(math.gcd(A.constant_value(), B.constant_value()))
    if _constant_gcd_certified(A, B):
        return MPoly.const(math.gcd(A.int_content(), B.int_content()))
    v = min(va, key=_VIDX.get)
    if A.degree(v) <= 0 or B.degree(v) <= 0:
        # v appears in only one argument: gcd divides that one's v-content
        short, other = (A, B) if A.degree(v) <= 0 else (B, A)
        g = short
        for c in other.as_univariate(v):
            if c.is_zero:
                continue
            g = gcd_mpoly(g, c)
            if g.total_degree() == 0 and abs(g.constant_value()) == 1:
                return MPoly.const(1)
        return _pos_sign(g)
    ua = A.as_univariate(v)
    ub = B.as_univariate(v)
    conta = _coeff_gcd(ua)
    contb = _coeff_gcd(ub)
    cont = gcd_mpoly(conta, contb)
    pa = [c.divexact(conta) for c in ua]
    pb = [c.divexact(contb) for c in ub]
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while True:
        r = polyq.prem(pa, pb)
        if not r:
            gpp = pb
            break
        if len(r) == 1:
            gpp = [MPoly.const(1)]
            break
        g = _coeff_gcd(r)
        pa, pb = pb, [c.divexact(g) for c in r]
    pp = MPoly.from_univariate(gpp, v)
    gc = _coeff_gcd(pp.as_univariate(v))
    if not (gc.total_degree() == 0 and abs(gc.constant_value()) == 1):
        pp = pp.divexact(gc)
    # integer contents flow through the two content gcds, so the primitive
    # part is normalized and the content part keeps the integer factor
    return _pos_sign(pp.normalized() * cont)


def _coeff_gcd(cs: Iterable[MPoly]) -> MPoly:
    g = MPoly.zero()
    for c in cs:
        if c.is_zero:
            continue
        g = gcd_mpoly(g, c)
        if g.total_degree() == 0 and abs(g.constant_value()) == 1:
            return MPoly.const(1)
    return g


# --- squarefree primitive part ---

_SQF_POINTS = [(2, 3), (3, 5), (5, 2), (7, 11), (4, 9), (11, 13), (6, 17), (13, 7)]


def squarefree_primitive(A: MPoly, v: str) -> MPoly:
    """Primitive part of the squarefree part of A with respect to v.

    The result keeps exactly the distinct irreducible factors of A that
    involve v (repeated factors once, v-free content dropped), has integer
    content 1 and positive leading sign, and has the same root set in v.
    """
    if A.is_zero:
        raise ZeroPolynomial("squarefree_primitive of the zero polynomial")
    i = _VIDX[v]
    vval = A.valuation(v)
    if vval:
        A = MPoly({e[:i] + (e[i] - vval,) + e[i + 1:]: c
                   for e, c in A.terms.items()})
    # strip monomial content in the remaining variables
    mins = [None] * _NV
    for e in A.terms:
        for j, k in enumerate(e):
            if mins[j] is None or k < mins[j]:
                mins[j] = k
    if any(mins):
        A = MPoly({tuple(e[j] - mins[j] for j in range(_NV)): c
                   for e, c in A.terms.items()})
    d = A.degree(v)
    if d == 0:
        out = MPoly.var(v) if vval else MPoly.const(1)
        return out
    coeffs = A.as_univariate(v)
    cont = _coeff_gcd(coeffs)
    if not (cont.total_degree() == 0 and abs(cont.constant_value()) == 1):
        coeffs = [c.divexact(cont) for c in coeffs]
        A = MPoly.from_univariate(coeffs, v)
    part = _squarefree_part(A, v)
    if vval:
        part = part * MPoly.var(v)
    return part.normalized()


def _squarefree_part(A: MPoly, v: str) -> MPoly:
    """Squarefree part in v of a v-primitive polynomial."""
    d = A.degree(v)
    if d == 1:
        return A
    others = [w for w in A.variables() if w != v]
    lead = A.as_univariate(v)[-1]
    for point in _SQF_POINTS:
        assign = {w: point[j % len(point)] + 2 * (j // len(point))
                  for j, w in enumerate(others)}
        if others and lead.subs_int(assign).is_zero:
            continue
        spec = A.subs_int(assign) if others else A
        uni = [c.constant_value() for c in spec.as_univariate(v)]
        if len(uni) - 1 != d:
            continue
        g = polyq.igcd_poly(uni, polyq.pderiv(uni))
        if len(g) - 1 == 0:
            # specialized gcd is constant and the leading coefficient
            # survived, so the generic gcd is v-free: A is squarefree in v
            return A
        break
    g = gcd_mpoly(A, A.derivative(v))
    if g.total_degree() <= 0:
        return A
    return A.divexact(g)


# --- Newton polygon vanishing bound ---

def vanishing_bound(M: MPoly, zv: str) -> int:
    """Largest possible x-valuation of a nonzero series root of M in zv.

    Builds the lower Newton polygon of the points (i, val_x(m_i)) over the
    nonzero zv-coefficients m_i and returns the floor of the maximal finite
    slope (valuations are read as root valuations, so the slope of the edge
    from (i1,v1) to (i2,v2), i1 < i2, is (v1-v2)/(i2-i1)).  Guarantee: any
    series root h with h = 0 mod x^(B+1) is identically zero.  Clamped to be
    nonnegative; a single-point polygon (monomial in zv) gives 0.
    """
    if M.is_zero:
        raise ZeroPolynomial("vanishing bound of the zero polynomial")
    pts = []
    for i, c in enumerate(M.as_univariate(zv)):
        if not c.is_zero:
            pts.append((i, c.valuation("x")))
    if len(pts) == 1:
        return 0
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or above the new edge
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    best = None
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        w = Fraction(v1 - v2, i2 - i1)
        if best is None or w > best:
            best = w
    b = math.floor(best)
    return b if b > 0 else 0
