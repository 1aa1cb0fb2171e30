"""Known answers for the benchmark, computed with the standard library only.

Nothing here imports tuttesolve: every value the benchmark checks a report
against comes from a closed form, a classical recurrence or a direct count
of lattice walks, so agreement is a real cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def planar_maps(n: int) -> int:
    """Rooted planar maps with n edges: 2 * 3^n * (2n)! / (n! (n+2)!)."""
    return 2 * 3 ** n * comb(2 * n, n) // ((n + 1) * (n + 2))


def triangulations(n: int) -> int:
    """2 * (3n+3)(3n+4)...(4n+1) / (n+1)!, with 1 at n = 0."""
    if n == 0:
        return 1
    prod = 1
    for k in range(3 * n + 3, 4 * n + 2):
        prod *= k
    return 2 * prod // factorial(n + 1)


def dyck_excursions(n: int) -> int:
    """Walks with steps -1, +1 from 0 back to 0, never below 0."""
    return 0 if n % 2 else catalan(n // 2)


def motzkin(n: int) -> int:
    """Motzkin numbers by (n+2) M(n) = (2n+1) M(n-1) + 3(n-1) M(n-2)."""
    m0, m1 = 1, 1
    if n == 0:
        return 1
    for k in range(2, n + 1):
        m0, m1 = m1, ((2 * k + 1) * m1 + 3 * (k - 1) * m0) // (k + 2)
    return m1


def walk_counts(steps: tuple[int, ...], N: int, top: int) -> list[list[int]]:
    """rows[n][m] = walks of n steps from 0 ending at height m <= top.

    Steps come from `steps` (all >= -1) and the walk never goes below 0.
    Heights that cannot come back to `top` within N steps are dropped.
    """
    if min(steps) < -1:
        raise ValueError("the walk counter needs down steps of size 1")
    rows = []
    cur = {0: 1}
    for i in range(N + 1):
        rows.append([cur.get(m, 0) for m in range(top + 1)])
        limit = top + (N - i - 1)
        nxt: dict[int, int] = {}
        for h, c in cur.items():
            for s in steps:
                k = h + s
                if 0 <= k <= limit:
                    nxt[k] = nxt.get(k, 0) + c
        cur = nxt
    return rows


# the flagship's Q(psi, g, x, y) as {(psi, g, x, y) exponents: coefficient}:
# y^2 psi^2 + (x + x g y - y - y^2) psi + y - x g
FLAGSHIP_TERMS = {(2, 0, 0, 2): 1, (1, 0, 1, 0): 1, (1, 1, 1, 1): 1,
                  (1, 0, 0, 1): -1, (1, 0, 0, 2): -1, (0, 0, 0, 1): 1,
                  (0, 1, 1, 0): -1}


def _bimul(a, b, N, M):
    out = [[Fraction(0)] * (M + 1) for _ in range(N + 1)]
    for i in range(N + 1):
        for j in range(M + 1):
            if a[i][j]:
                for k in range(N + 1 - i):
                    row, brow = out[i + k], b[k]
                    for l in range(M + 1 - j):
                        row[j + l] += a[i][j] * brow[l]
    return out


def residual_is_zero(terms: dict, table) -> bool:
    """Whether Q(T, T(x, 0), x, y) = 0 mod (x^(N+1), y^(M+1)).

    `table[n][m]` is the claimed [x^n y^m] psi.  Every monomial of the
    truncated result only reads table entries inside the box, so the check
    is exact.
    """
    N, M = len(table) - 1, len(table[0]) - 1
    psi = [[Fraction(v) for v in row] for row in table]
    g = [[row[0]] + [Fraction(0)] * M for row in psi]
    one = [[Fraction(int(i == j == 0)) for j in range(M + 1)]
           for i in range(N + 1)]
    acc = [[Fraction(0)] * (M + 1) for _ in range(N + 1)]
    for (ip, ig, ex, ey), c in terms.items():
        prod = one
        for _ in range(ip):
            prod = _bimul(prod, psi, N, M)
        for _ in range(ig):
            prod = _bimul(prod, g, N, M)
        for n in range(ex, N + 1):
            for m in range(ey, M + 1):
                acc[n][m] += c * prod[n - ex][m - ey]
    return not any(v for row in acc for v in row)


def unroll(coeffs, initials, count: int) -> list[Fraction]:
    """First `count` terms of sum_t coeffs[t](n) a(n+t) = 0.

    Indices below the order, and indices where the leading coefficient
    vanishes, take their value from `initials`; IndexError when missing.
    """
    s = len(coeffs) - 1

    def at(q, k):
        v = 0
        for c in reversed(q):
            v = v * k + c
        return v

    out: list[Fraction] = []
    for n in range(count):
        k = n - s
        lead = at(coeffs[-1], k) if n >= s else 0
        if lead == 0:
            out.append(Fraction(initials[n]))
            continue
        acc = sum(at(coeffs[t], k) * out[k + t] for t in range(s))
        out.append(Fraction(-acc, lead))
    return out


class Oracle:
    """Exact [x^n] g for each named equation, with per-run caches.

    Catalan, maps and the flagship have closed forms.  The walk equations,
    given by their step sets, are counted directly; for their far values
    Dyck and Motzkin use their classical formulas instead, since direct
    counting is quadratic in n.
    """

    CLOSED = {"catalan": catalan, "maps": planar_maps,
              "flagship": triangulations}
    FAR = {"dyck": dyck_excursions, "motzkin": motzkin}

    def __init__(self, walks: dict[str, tuple[int, ...]]):
        self.walks = walks
        self._terms: dict[str, list[int]] = {}

    def terms(self, name: str, count: int) -> list[int]:
        have = self._terms.get(name, [])
        if len(have) < count:
            if name in self.CLOSED:
                have = [self.CLOSED[name](n) for n in range(count)]
            else:
                have = [row[0] for row in
                        walk_counts(self.walks[name], count - 1, 0)]
            self._terms[name] = have
        return have[:count]

    def value(self, name: str, n: int) -> int:
        f = self.CLOSED.get(name) or self.FAR.get(name)
        return f(n) if f else self.terms(name, n + 1)[n]

    def table(self, name: str, N: int, M: int):
        """[x^n y^m] psi for n <= N, m <= M, or None without a direct count."""
        if name not in self.walks:
            return None
        return walk_counts(self.walks[name], N, M)
