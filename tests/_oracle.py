"""Independent oracles for the test suite.

Everything in this module is computed with the standard library only and
never imports the package under test, so agreement between the two is a
genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd


# --- truncated series arithmetic on Fraction lists -------------------------

def ser_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def ser_pow(a, k, n):
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(k):
        out = ser_mul(out, a, n)
    return out


def poly_eval_series(nested, f, n):
    """Evaluate sum_{i,j} c[i][j] * f(x)^i * x^j truncated to n terms.

    `nested` is a list of rows, one per power of f; row i lists the integer
    coefficients of x^0, x^1, ... multiplying f^i.
    """
    out = [Fraction(0)] * n
    fp = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for i, row in enumerate(nested):
        if i:
            fp = ser_mul(fp, f, n)
        for j, c in enumerate(row):
            if c:
                for t in range(n - j):
                    out[j + t] += c * fp[t]
    return out


def subs_at(terms, psi, g, y0, n):
    """Truncation to n terms of sum c * psi^a * g^b * x^j * y0^l.

    `terms` maps exponent tuples (a, b, j, l) to coefficients; psi is a
    series already evaluated at y = y0, g a series free of y.  Every term
    is expanded on its own, with no sharing of powers.
    """
    out = [Fraction(0)] * n
    for (a, b, j, l), c in terms.items():
        t = ser_mul(ser_pow(psi, a, n), ser_pow(g, b, n), n)
        for k in range(n - j):
            out[j + k] += c * Fraction(y0) ** l * t[k]
    return out


def implicit_series(nested, n):
    """The unique series f with f(0) = 0 and P(f(x), x) = 0.

    Requires the constant coefficient of `nested` to vanish and the f^1 x^0
    coefficient to be nonzero, which makes the branch simple: each new
    coefficient is determined linearly by the previous ones.

    The powers f^i are kept as columns grown one coefficient at a time.
    Since f(0) = 0, [x^k] f^i for i >= 2 needs only f[<k], so step k costs
    O(deg * k) and the whole series O(deg * n^2).
    """
    c10 = Fraction(nested[1][0])
    assert nested[0][0] == 0 and c10 != 0
    f = [Fraction(0)] * n
    pows = ([[Fraction(1)] + [Fraction(0)] * (n - 1), f]
            + [[Fraction(0)] * n for _ in nested[2:]])
    for k in range(1, n):
        for i in range(2, len(nested)):
            prev = pows[i - 1]
            pows[i][k] = sum(f[t] * prev[k - t] for t in range(1, k))
        val = sum(c * pows[i][k - j]
                  for i, row in enumerate(nested) for j, c in enumerate(row)
                  if c and j <= k and (i, j) != (1, 0))
        f[k] = -val / c10
    return f


# --- sparse polynomials on exponent tuples ---------------------------------
#
# A polynomial is a dict from exponent tuples (one slot per variable) to
# nonzero integers; variables are named by their slot.

def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def sparse_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def sparse_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _nonzero(out)


def sparse_pow(a, n, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = sparse_mul(out, a)
    return out


def sparse_derivative(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in a.items() if e[i]}


def sparse_coeff(a, i, k):
    """The coefficient of slot i to the power k, as a polynomial."""
    return {e[:i] + (0,) + e[i + 1:]: c for e, c in a.items() if e[i] == k}


def sparse_rename(a, i, j):
    """Move the exponent of slot i onto slot j, which must be absent."""
    out = {}
    for e, c in a.items():
        f = list(e)
        f[i], f[j] = 0, f[j] + f[i]
        out[tuple(f)] = c
    return out


def sparse_subs_int(a, values):
    """Put the integer values[i] in for slot i."""
    out = {}
    for e, c in a.items():
        f = list(e)
        for i, n in values.items():
            c *= n ** f[i]
            f[i] = 0
        out[tuple(f)] = out.get(tuple(f), 0) + c
    return _nonzero(out)


def sparse_div_monomial(a, d, dc):
    """a / (dc * monomial d), or None when that does not divide a."""
    out = {}
    for e, c in a.items():
        if c % dc or any(i < j for i, j in zip(e, d)):
            return None
        out[tuple(i - j for i, j in zip(e, d))] = c // dc
    return out


def sparse_det(M, nvars):
    """Determinant of a square matrix of sparse polynomials, by the
    permutation expansion: rows are taken top down, and the partial sums
    are merged on the set of columns used so far."""
    n = len(M)
    partial = {0: {(0,) * nvars: 1}}
    for row in M:
        nxt = {}
        for used, acc in partial.items():
            for j, entry in enumerate(row):
                if used >> j & 1 or not entry:
                    continue
                # each column used above and to the right is an inversion
                if bin(used >> j).count("1") % 2:
                    entry = {e: -c for e, c in entry.items()}
                key = used | 1 << j
                nxt[key] = sparse_add(nxt.get(key, {}), sparse_mul(acc, entry))
        partial = nxt
    return partial.get((1 << n) - 1, {})


def sylvester_resultant(a, b, i):
    """Res(a, b) in slot i: the determinant of the Sylvester matrix."""
    nvars = len(next(iter(a)))
    da = max(e[i] for e in a)
    db = max(e[i] for e in b)
    n = da + db
    rows = []
    for p, d, shifts in ((a, da, db), (b, db, da)):
        coeffs = [sparse_coeff(p, i, k) for k in range(d, -1, -1)]
        for s in range(shifts):
            rows.append([{}] * s + coeffs + [{}] * (n - d - 1 - s))
    return sparse_det(rows, nvars)


def subs_poly(P, assignments):
    """P with the polynomial assignments[v] put in for each variable v.

    P is a package polynomial, read through its public ``variables``,
    ``items``, ``var`` and ``const`` and its arithmetic, so this module
    still imports nothing from the package.  Small inputs only.
    """
    cls, names = type(P), P.variables()
    out = cls.const(0)
    for e, c in P.items(names):
        term = cls.const(c)
        for v, k in zip(names, e):
            term = term * assignments.get(v, cls.var(v)) ** k
        out = out + term
    return out


# --- rational roots ---------------------------------------------------------

# the product of the Mersenne primes 2^61 - 1 and 2^89 - 1, which Pollard rho
# does not split in useful time
WIDE_SEMIPRIME = (2**61 - 1) * (2**89 - 1)

# 2 * 3 * 5 * ... * 47
PRIMES_BELOW_50 = 614889782588491410


def rational_roots_by_divisors(a):
    """Sorted rational roots of an integer polynomial (constant term first),
    by the rational root theorem: every p/q with p dividing the lowest
    nonzero coefficient and q the leading one is tried.  Small coefficients
    only."""
    a = list(a)
    while not a[-1]:
        a.pop()
    low = next(c for c in a if c)
    roots = {Fraction(0)} if not a[0] else set()
    for p in range(1, abs(low) + 1):
        for q in range(1, abs(a[-1]) + 1):
            if low % p or a[-1] % q:
                continue
            for r in (Fraction(p, q), Fraction(-p, q)):
                if not sum(c * r ** k for k, c in enumerate(a)):
                    roots.add(r)
    return sorted(roots)


def poly_divmod_q(a, b):
    """Quotient and remainder over Q of lists (constant term first), by
    long division in Fractions; b must have a nonzero last entry."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    while r and not r[-1]:
        r.pop()
    while q and not q[-1]:
        q.pop()
    return q, r


def poly_gcd_q(a, b):
    """Monic gcd over Q by Euclid's algorithm; gcd(0, 0) = 0 (the empty list)."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, poly_divmod_q(a, b)[1]
    return [c / a[-1] for c in a]


# --- the relation search, exactly -------------------------------------------

def kernel_rref(rows, C):
    """Kernel basis of rows (C wide) over Q from the reduced row echelon
    form: one vector per free column, 1 there and 0 at the other free
    columns."""
    m = [[Fraction(a) for a in row] for row in rows]
    piv = []
    for c in range(C):
        r = next((i for i in range(len(piv), len(m)) if m[i][c]), None)
        if r is None:
            continue
        k = len(piv)
        m[k], m[r] = m[r], m[k]
        m[k] = [a / m[k][c] for a in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        piv.append(c)
    basis = []
    for fc in (c for c in range(C) if c not in piv):
        v = [Fraction(0)] * C
        v[fc] = Fraction(1)
        for k, pc in enumerate(piv):
            v[pc] = -m[k][fc]
        basis.append(v)
    return basis


def exact_relations(shapes, column):
    """What linalg.relations yields, from the kernel of all rows of every
    shape: each basis vector scaled to a primitive integer vector with its
    last nonzero entry positive, cut into the trimmed grid of its a-rows,
    and one shape's grids sorted by (attained A, attained B, max |c|,
    basis position)."""
    out = []
    for A, B in shapes:
        C = (A + 1) * (B + 1)
        cols = [column(A, a, b) for a in range(A + 1) for b in range(B + 1)]
        cands = []
        for pos, v in enumerate(kernel_rref(list(zip(*cols)), C)):
            den = 1
            for a in v:
                den = den * a.denominator // gcd(den, a.denominator)
            ints = [int(a * den) for a in v]
            g = gcd(*ints)
            if next(a for a in reversed(ints) if a) < 0:
                g = -g
            ints = [a // g for a in ints]
            grid = [ints[a * (B + 1):(a + 1) * (B + 1)] for a in range(A + 1)]
            for row in grid:
                while row and not row[-1]:
                    row.pop()
            while not grid[-1]:
                grid.pop()
            cands.append(((len(grid) - 1, max(map(len, grid)) - 1,
                           max(map(abs, ints)), pos), grid))
        out.extend(grid for _, grid in sorted(cands, key=lambda t: t[0]))
    return out


# --- reference sequences ----------------------------------------------------

def counting_term(n: int) -> Fraction:
    """2 * (3n+3)(3n+4)...(4n+1) / (n+1)!, empty product at n = 1; 1 at n = 0."""
    if n == 0:
        return Fraction(1)
    prod = 1
    for k in range(3 * n + 3, 4 * n + 2):
        prod *= k
    return Fraction(2 * prod, factorial(n + 1))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def planar_maps(n: int) -> int:
    """Rooted planar maps with n edges: 2 * 3^n * C(2n, n) / ((n+1)(n+2))."""
    return 2 * 3 ** n * comb(2 * n, n) // ((n + 1) * (n + 2))


def motzkin(n: int) -> int:
    """(k+2) M_k = (2k+1) M_(k-1) + 3(k-1) M_(k-2), with M_0 = M_1 = 1."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k + 1) * cur + 3 * (k - 1) * prev) // (k + 2)
    return cur


def sqrt_one_minus_x(n: int) -> list[Fraction]:
    """Series coefficients of (1-x)^(1/2) to n terms."""
    out = [Fraction(1)]
    for k in range(1, n):
        # c_k = c_{k-1} * (1/2 - (k-1)) / k * (-1)
        out.append(out[-1] * (Fraction(1, 2) - (k - 1)) / k * -1)
    return out


def poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def walk_counts(steps, N, top):
    """rows[n][m] = walks of n steps from height 0 ending at height m <= top.

    Steps come from `steps` and the walk never goes below 0.  Heights from
    which no walk can come back to `top` within the remaining steps are
    dropped, which needs every down step to have size 1.
    """
    assert min(steps) >= -1
    rows = []
    cur = {0: 1}
    for n in range(N + 1):
        rows.append([cur.get(m, 0) for m in range(top + 1)])
        limit = top + (N - n - 1)
        nxt = {}
        for h, c in cur.items():
            for s in steps:
                k = h + s
                if 0 <= k <= limit:
                    nxt[k] = nxt.get(k, 0) + c
        cur = nxt
    return rows


def walk_equation(steps):
    """Equation text whose solution psi counts the walks of `walk_counts` by
    length (x) and final height (y); g = psi(x, 0) counts excursions."""
    ups = " + ".join(f"y**{s + 1}" for s in steps if s >= 0)
    return f"y*psi - y - x*({ups})*psi - x*psi + x*g"
