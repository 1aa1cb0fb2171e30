"""Dense univariate polynomials over any exact ring, written once.

A polynomial is a plain list of coefficients, constant term first, with no
trailing zeros; the zero polynomial is the empty list.  The routines need
only ``+ - *`` and a falsy zero, so one copy serves int, Fraction and
``MPoly`` coefficients alike.  ``peval`` also serves :class:`RatFunc`: it
takes the ring's ``zero`` last, as ``series._mul_trunc`` does, with a
default that suits int and Fraction.  No polynomial is divided over Q: the
content, primitive-part, gcd and exact-quotient helpers (``icontent``,
``ipp``, ``igcd_poly``, ``idivexact``) need integer division and take int
lists only.

Also here: :class:`RatFunc`, the canonical rational function in one
variable used as the coefficient domain of bivariate series, the rational
roots (found p-adically, with no integer factored) needed by the
series-branch search, and ``num_str``, the one conversion of an int or
Fraction to text, with its inverse ``int_parse``, for numbers of any size.
Both work by divide and conquer on pieces that ``str()`` and ``int()``
convert, below Python's 4,300-digit limit; reading back is then
multiplications only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


def trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def deg(p: Sequence) -> int:
    """Degree, with deg(0) = -1."""
    return len(p) - 1


def padd(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pmul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    # skip b's low zeros (localized numerators often carry a power of y)
    vb = 0
    while vb < len(b) and not b[vb]:
        vb += 1
    bs = b[vb:]
    for i, ca in enumerate(a, vb):
        if ca:
            for j, cb in enumerate(bs, i):
                out[j] += ca * cb
    return trim(out)


def peval(a: Sequence, x, zero=0):
    """a(x) by Horner's rule."""
    out = zero
    for c in reversed(a):
        out = out * x + c
    return out


def peval_pow2(a: Sequence[int], B: int) -> int:
    """a(2^B) for an int polynomial, by halves: a = lo + t^h * hi gives
    lo(2^B) + (hi(2^B) << B*h).  Each level of halving adds ints of about
    the value's bit size once, where Horner's shift-and-add does so at
    every coefficient.  With entries in [0, 2^B) it packs them into one
    int, entry i in bits [B*i, B*(i+1))."""
    if len(a) <= 16:
        v = 0
        for c in reversed(a):
            v = (v << B) + c
        return v
    h = len(a) // 2
    return peval_pow2(a[:h], B) + (peval_pow2(a[h:], B) << (B * h))


def pshift(a: Sequence, s) -> list:
    """Coefficients of a(t + s) via repeated synthetic division by (t - s)."""
    out = []
    work = trim(list(a))
    while work:
        q = [0] * (len(work) - 1)
        acc = work[-1]
        for i in range(len(work) - 2, -1, -1):
            q[i] = acc
            acc = work[i] + s * acc
        out.append(acc)
        work = trim(q)
    return trim(out)


def pderiv(a: Sequence) -> list:
    return trim([i * a[i] for i in range(1, len(a))])


def prem(a: Sequence, b: Sequence) -> list:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, division-free."""
    r = list(a)
    lb = b[-1]
    for _ in range(len(a) - len(b) + 1):
        if len(r) < len(b):
            r = [lb * c for c in r]
            continue
        lr = r[-1]
        k = len(r) - len(b)
        r = [lb * c for c in r[:-1]]
        for i, bc in enumerate(b[:-1]):
            r[k + i] -= lr * bc
        trim(r)
        if not r:
            return []
    return r


def series_div(num: Sequence, den: Sequence, n: int) -> list[Fraction]:
    """The first n Taylor coefficients of num/den at 0; den(0) != 0."""
    rem = [Fraction(c) for c in num[:n]]
    rem += [Fraction(0)] * (n - len(rem))
    d0 = den[0]
    for k in range(n):
        c = rem[k] = rem[k] / d0
        if c:
            for j in range(1, min(len(den), n - k)):
                rem[k + j] -= c * den[j]
    return rem


# --- integer-coefficient helpers ---

def icontent(a: Iterable[int]) -> int:
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def ipp(a: Sequence[int]) -> list[int]:
    """Primitive part with positive leading coefficient."""
    a = trim(list(a))
    if not a:
        return []
    g = icontent(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def igcd_poly(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Gcd of integer polynomials, primitive with positive lead, content included."""
    a = trim(list(a))
    b = trim(list(b))
    if not a:
        return ipp(b)
    if not b:
        return ipp(a)
    cont = math.gcd(icontent(a), icontent(b))
    a, b = ipp(a), ipp(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, ipp(prem(a, b))
    return [c * cont for c in a]


def idivexact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b of integer polynomials; b must divide a in Z[y]."""
    r = list(a)
    q = [0] * max(0, len(r) - len(b) + 1)
    lead = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + len(b) - 1], lead)
        if m:
            raise ArithmeticError("inexact integer polynomial division")
        if c:
            q[k] = c
            for i, bc in enumerate(b):
                r[k + i] -= c * bc
    if any(r):
        raise ArithmeticError("inexact integer polynomial division")
    return trim(q)


def clear_denominators(a: Sequence[Fraction]) -> tuple[list[int], Fraction]:
    """Write an int or Fraction polynomial as scale * (primitive int
    polynomial) whose leading coefficient is positive."""
    a = trim(list(a))
    if not a:
        return [], Fraction(0)
    lcm = 1
    for c in a:
        lcm = math.lcm(lcm, c.denominator)
    ints = [c.numerator * (lcm // c.denominator) for c in a]
    g = icontent(ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints], Fraction(g, lcm)


# --- rational roots, p-adically (Loos, SIAM J. Comput. 12, 1983) ---

def _simple_roots_mod(s: Sequence[int]) -> tuple[int, list[int]]:
    """The least prime p not dividing lc(s) at which every root of s mod p
    is simple, and those roots.  s must be squarefree over Q."""
    p = 1
    while True:
        p += 1
        if s[-1] % p == 0 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        sp = [c % p for c in s]
        dsp = pderiv(sp)
        roots = [r for r in range(p) if peval(sp, r) % p == 0]
        if all(peval(dsp, r) % p for r in roots):
            return p, roots


def rational_roots(a: Sequence[int]) -> list[Fraction]:
    """All rational roots of an integer polynomial, without multiplicity.

    No integer is factored.  Each root u/v of the squarefree part s has
    |u| <= |s(0)| and 0 < v <= |lc(s)|, and reduces mod p to a simple root
    of s mod p; Hensel's lemma lifts that root uniquely to p^k > 2|s(0) lc(s)|,
    where rational reconstruction finds u/v.  Every candidate is checked by
    exact evaluation, so the list is complete and holds roots only.
    """
    a = ipp(a)
    if len(a) <= 1:
        return []
    roots = []
    v = 0
    while not a[v]:
        v += 1
    if v:
        roots.append(Fraction(0))
        a = a[v:]
    if len(a) <= 1:
        return roots
    s = idivexact(a, igcd_poly(a, pderiv(a)))
    d, ds = len(s) - 1, pderiv(s)
    N, D = abs(s[0]), abs(s[-1])
    p, mod_roots = _simple_roots_mod(s)
    for r in mod_roots:
        m = p
        while m <= 2 * N * D:
            m *= m
            r = (r - peval(s, r) * pow(peval(ds, r), -1, m)) % m
        # the first Euclidean remainder at most N, with its cofactor
        r0, t0, r1, t1 = m, 0, r, 1
        while r1 > N:
            q = r0 // r1
            r0, t0, r1, t1 = r1, t1, r0 - q * r1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if 0 < t1 <= D and not sum(c * r1**i * t1**(d - i)
                                   for i, c in enumerate(s)):
            roots.append(Fraction(r1, t1))
    roots.sort()
    return roots


def integer_roots(a: Sequence[int]) -> list[int]:
    return [int(r) for r in rational_roots(a) if r.denominator == 1]


# Digits per piece that str() or int() converts; Python 3.11+ refuses more
# than 4,300, and both are quadratic in the digit count.
_PIECE = 3000


def _pow10_ladder(digits: int) -> list[int]:
    """10^(_PIECE * 2^i) for i = 0, 1, ... up to the first with
    _PIECE * 2^(i+1) >= digits."""
    pows = [10**_PIECE]
    while _PIECE << len(pows) < digits:
        pows.append(pows[-1] ** 2)
    return pows


def _digits(n: int) -> str:
    """str(n) for an int n >= 0 of any size, by divide and conquer
    (Brent and Zimmermann, Modern Computer Arithmetic, 1.7)."""
    if n.bit_length() <= 3 * _PIECE:  # then n < 8^_PIECE < 10^_PIECE
        return str(n)
    # log10(2) < 0.30103, so n has at most this many digits
    pows = _pow10_ladder(int(n.bit_length() * 0.30103) + 1)

    def part(n: int, i: int, width: int) -> str:
        # n < 10^(2w) with w = _PIECE * 2^i; zero-padded to width
        while not width and i >= 0 and n < pows[i]:
            i -= 1
        if i < 0:
            return str(n).zfill(width)
        hi, lo = divmod(n, pows[i])
        w = _PIECE << i
        return part(hi, i - 1, max(width - w, 0)) + part(lo, i - 1, w)

    return part(n, len(pows) - 1, 0)


def num_str(c: int | Fraction) -> str:
    """``str(c)`` for an int or Fraction of any size."""
    num = c.numerator
    text = "-" + _digits(-num) if num < 0 else _digits(num)
    return text if c.denominator == 1 else f"{text}/{_digits(c.denominator)}"


def int_parse(s: str) -> int:
    """``int(s)`` for a string of the form ``-?[0-9]+`` in ASCII, of any
    length; ValueError on anything else.  Pieces of at most ``_PIECE``
    digits are read by int() and combined as hi * 10^len(lo) + lo."""
    digits = s.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {s!r}")
    if len(digits) <= _PIECE:
        return int(s)
    pows = _pow10_ladder(len(digits))

    def part(a: int, b: int, i: int) -> int:
        # int(digits[a:b]), where b - a <= _PIECE * 2^(i+1)
        while i >= 0 and b - a <= _PIECE << i:
            i -= 1
        if i < 0:
            return int(digits[a:b])
        m = b - (_PIECE << i)
        return part(a, m, i - 1) * pows[i] + part(m, b, i - 1)

    n = part(0, len(digits), len(pows) - 1)
    return -n if len(digits) < len(s) else n


def poly_str(a: Sequence, var: str) -> str:
    """Human-readable rendering, highest degree first."""
    if not a:
        return "0"
    parts = []
    for i in reversed(range(len(a))):
        c = a[i]
        if not c:
            continue
        if i == 0:
            mono = ""
        elif i == 1:
            mono = var
        else:
            mono = f"{var}^{i}"
        if mono and abs(c) == 1:
            body = mono
        elif mono:
            body = f"{num_str(abs(c))}*{mono}"
        else:
            body = num_str(abs(c))
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class RatFunc:
    """A rational function in one variable, canonical form.

    Denominator is monic and coprime to the numerator, so equality is
    syntactic.  Instances are immutable.  Reduction runs over the integers:
    clear denominators, divide both sides exactly by their gcd in Z[y],
    then make the denominator monic.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence, den: Sequence = (Fraction(1),)):
        num, nscale = clear_denominators(num)
        den, dscale = clear_denominators(den)
        if not den:
            raise ZeroDivisionError("zero denominator in RatFunc")
        if not num:
            self.num: tuple = ()
            self.den: tuple = (Fraction(1),)
            return
        g = igcd_poly(num, den)
        if len(g) > 1:
            num, den = idivexact(num, g), idivexact(den, g)
        lead = den[-1]
        s = nscale / dscale / lead
        self.num = tuple(s * c for c in num)
        self.den = tuple(Fraction(c, lead) for c in den)

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls([Fraction(c)])

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def regular_at_0(self) -> bool:
        return bool(self.den[0])

    def eval0(self) -> Fraction:
        if not self.den[0]:
            raise ZeroDivisionError("rational function has a pole at 0")
        return (self.num[0] if self.num else Fraction(0)) / self.den[0]

    def evaluate(self, x: Fraction) -> Fraction:
        d = peval(self.den, x)
        if not d:
            raise ZeroDivisionError(f"pole at {x}")
        return peval(self.num, x) / d

    def series(self, order: int) -> list[Fraction]:
        """Taylor coefficients at 0 through the given order (inclusive)."""
        if not self.den[0]:
            raise ZeroDivisionError("rational function has a pole at 0")
        return series_div(self.num, self.den, order + 1)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if not self.num:
            return other
        if not other.num:
            return self
        return RatFunc(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num = tuple(-c for c in self.num)
        r.den = self.den
        return r

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if not self.num or not other.num:
            return RATFUNC_ZERO
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self})"

    def __str__(self) -> str:
        n = poly_str(self.num, "y") if self.num else "0"
        if self.den == (Fraction(1),):
            return n
        d = poly_str(self.den, "y")
        return f"({n})/({d})"


RATFUNC_ZERO = RatFunc([])
RATFUNC_ONE = RatFunc([Fraction(1)])
