"""Independent reference implementations used as test oracles.

Everything here is deliberately naive list-based arithmetic with no
imports from the package under test, so agreement between the two is
meaningful. Coefficients are ints, low degree first. The float oracles
are the spectral radius, from a dense symmetric eigensolver, and root
moduli, from the eigenvalues of the companion matrix (or, for reciprocal
inputs, of the colleague matrix of the trace polynomial). The exact one
is ``salem_certificate``, the unit-circle certificate for any reciprocal
polynomial at any separators, with exact signs of its trace polynomial
at the dyadic values of the floats; the package's own certificate reads
those signs off the repunit rule instead, for tree remainders only.
"""

import math
from fractions import Fraction

import numpy as np


def trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return trim(out)


def pneg(a):
    return [-x for x in a]


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def pdivmod(f, g):
    """Quotient and remainder over Q (coefficients become Fractions)."""
    rem = [Fraction(c) for c in f]
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 1)
    gl = Fraction(g[-1])
    while len(trim(rem)) >= len(g):
        rem = trim(rem)
        k = len(rem) - len(g)
        c = rem[-1] / gl
        q[k] = c
        for i, gc in enumerate(g):
            rem[i + k] -= c * gc
        rem.pop()
    return trim(q), trim(rem)


def xn1(n):
    """x^n - 1"""
    return [-1] + [0] * (n - 1) + [1]


def p_cleared(arms):
    """prod(z^a_i - 1)(z+1) - z sum_i (z^(a_i-1)-1) prod_{j!=i} (z^a_j - 1)"""
    prod_all = [1]
    for a in arms:
        prod_all = pmul(prod_all, xn1(a))
    first = pmul(prod_all, [1, 1])
    acc = []
    for i in range(len(arms)):
        t = xn1(arms[i] - 1)
        for j in range(len(arms)):
            if j != i:
                t = pmul(t, xn1(arms[j]))
        acc = padd(acc, t)
    return padd(first, pneg(pmul([0, 1], acc)))


def coxeter(arms):
    div = [1]
    for _ in range(len(arms)):
        div = pmul(div, [-1, 1])
    q, rem = pdivmod(p_cleared(arms), div)
    assert rem == [], arms
    return [int(c) for c in q]


def adjacency(arms):
    """Dense 0/1 adjacency matrix of T(arms); vertex 0 is the centre."""
    n = 1 + sum(a - 1 for a in arms)
    a = np.zeros((n, n))
    idx = 1
    for arm in arms:
        prev = 0
        for _ in range(arm - 1):
            a[prev, idx] = a[idx, prev] = 1.0
            prev = idx
            idx += 1
    return a


def spectral_radius(arms) -> float:
    """Largest adjacency eigenvalue, by ``numpy.linalg.eigvalsh``."""
    return float(np.linalg.eigvalsh(adjacency(arms))[-1])


def root_moduli(cs):
    """|z| for every root z of cs, ascending: companion-matrix eigenvalues."""
    return np.sort(np.abs(np.roots([float(c) for c in reversed(cs)])))


def trace_root_moduli(cs):
    """root_moduli for a reciprocal cs of degree 2m, from the m roots t of
    its trace polynomial: z + 1/z = t. With a_j = cs[m + j],
    T(t) = a_0 + sum 2 a_j Cheb_j(t/2), whose roots are the eigenvalues of
    an m x m colleague matrix, about 8 times cheaper than the companion
    matrix of cs at degree 1000."""
    m = (len(cs) - 1) // 2
    cheb = np.array([cs[m]] + [2 * c for c in cs[m + 1:]], dtype=float)
    t = 2 * np.polynomial.chebyshev.chebroots(cheb).astype(complex)
    w = np.sqrt(t * t - 4)
    return np.sort(np.abs(np.concatenate([(t + w) / 2, (t - w) / 2])))


def from_trace(ts):
    """z^m T(z + 1/z) for T = sum_i ts[i] t^i of degree m."""
    m = len(ts) - 1
    out = []
    power = [1]  # (z^2 + 1)^i
    for i, c in enumerate(ts):
        out = padd(out, pmul([0] * (m - i) + [c], power))
        power = pmul(power, [1, 0, 1])
    return out


def trace_poly(cs):
    """The power-basis T with z^m T(z + 1/z) = cs, for a reciprocal cs of
    degree 2m: from_trace run backwards, one top coefficient at a time."""
    m = (len(cs) - 1) // 2
    rem, ts = list(cs), [0] * (m + 1)
    for i in range(m, -1, -1):
        ts[i] = rem[m + i] if m + i < len(rem) else 0
        rem = padd(rem, pneg([0] * (m - i) + from_trace([0] * i + [ts[i]])))
    assert rem == [], cs
    return ts


def eval_sign(cs, x: Fraction) -> int:
    """Exact sign of the polynomial at a rational point."""
    p, q = x.numerator, x.denominator
    if not cs:
        return 0
    acc = cs[-1]
    qq = 1
    for c in reversed(cs[:-1]):
        qq *= q
        acc = acc * p + c * qq
    return (acc > 0) - (acc < 0)


def bisect_root(cs, lo: Fraction, hi: Fraction, steps: int = 200) -> Fraction:
    """Plain exact-sign bisection; lo/hi must straddle a sign change."""
    s_lo = eval_sign(cs, lo)
    assert s_lo != 0 and eval_sign(cs, hi) not in (0, s_lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        s = eval_sign(cs, mid)
        if s == 0:
            return mid
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def phi_brute(n: int) -> int:
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def divides_poly(g, f) -> bool:
    """g | f over Q, naive remainder."""
    _, rem = pdivmod(f, g)
    return rem == []


def eval_exact(cs, x: Fraction) -> Fraction:
    """Exact value of the polynomial at a rational point."""
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def ball_value(cs, p: int, q: int, w: int):
    """The fixed-point Horner ball (c, r) around 2^w f(p/q) by the general
    formula, with a floor division at every step whatever q is:
    acc <- floor(acc p / q) + c_i 2^w from acc = c_d 2^w, and
    r <- ceil(r |p| / q) + 1 from r = 0."""
    if not cs:
        return 0, 0
    acc, r = cs[-1] * 2**w, 0
    for c in reversed(cs[:-1]):
        acc = acc * p // q + c * 2**w
        r = -(-r * abs(p) // q) + 1
    return acc, r


def decimal_cell(cs, digits: int):
    """The package's answer for the root of cs above 1, by exact-sign
    bisection on the grid of step 1/S, S = 10^(digits + 5), from x = 1 to
    the height bound height + 2: (r, (r, r)) when a grid point r is a root,
    else the cell [n/S, (n + 1)/S] whose ends have opposite signs, with its
    midpoint."""
    scale = 10 ** (digits + 5)
    lo, hi = scale, (max(abs(c) for c in cs) + 2) * scale
    s_lo = eval_sign(cs, Fraction(lo, scale))
    assert s_lo != 0 and eval_sign(cs, Fraction(hi, scale)) not in (0, s_lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = eval_sign(cs, Fraction(mid, scale))
        if s == 0:
            r = Fraction(mid, scale)
            return r, (r, r)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return Fraction(2 * lo + 1, 2 * scale), (Fraction(lo, scale), Fraction(hi, scale))


def scanned_circle_min(cs):
    """The circle bound that ``multiplicity_bound`` used before its exact
    proof: the minimum of |f| over N equispaced points of the unit circle,
    N doubling from 4096, less a float error bound and the Lipschitz slack
    (sum k |c_k|) * pi / N; the first positive value, as a Fraction."""
    lipschitz = sum(k * abs(c) for k, c in enumerate(cs))
    eval_err = Fraction(4 * len(cs) + 8, 2**52) * sum(abs(c) for c in cs)
    high_first = np.array([float(c) for c in reversed(cs)])
    n = 4096
    while n <= 1 << 26:
        z = np.exp(2j * np.pi * np.arange(n) / n)
        sample_min = float(np.abs(np.polyval(high_first, z)).min())
        bound = Fraction(sample_min) - eval_err - Fraction(lipschitz) * Fraction(355, 113) / n
        if bound > 0:
            return bound
        n *= 2
    raise AssertionError("no positive circle bound up to 2^26 samples")


def multiplicity_head(eta, f0: int, n0: int) -> Fraction:
    """eta - 2^(1-n0) F0: the paper's n0 is the least n0 >= 1 that makes
    this positive."""
    return eta - Fraction(2) ** (1 - n0) * f0


def multiplicity_bracket_holds(eta, f0: int, e: int, f: int, g: int, n0: int, s: int) -> bool:
    """The paper's inequality for c at s = a1 + a2, in Fraction form:

        eta - 2^(1-n0) F0 - 2^(n0-1)(E+F)/(s-n0+1) - G/(s)_(n0) > 0,

    taken as false for s < n0; the paper's c is the largest s where it
    fails."""
    if s < n0:
        return False
    falling = 1
    for i in range(n0):
        falling *= s - i
    middle = Fraction(2 ** (n0 - 1) * (e + f), s - n0 + 1)
    return multiplicity_head(eta, f0, n0) - middle - Fraction(g, falling) > 0


# ----------------------------------------------------------------------
# the unit-circle certificate on exact dyadic trace signs
# ----------------------------------------------------------------------

def tree_separators(arms):
    """The floats 2 cos(2 pi j / a) for every distinct fraction j/a in
    (0, 1/2) with a among the arms, in no particular order. The float j / a
    is correctly rounded, so equal fractions give one float."""
    return list({2 * math.cos(2 * math.pi * (j / a)) for a in arms for j in range(1, (a + 1) // 2)})


def dyadic(x: float):
    """(p, k) with p/2^k equal to the float x exactly."""
    p, q = x.as_integer_ratio()
    return p, q.bit_length() - 1


def salem_certificate(cs, separators) -> bool:
    """True when cs has one real root tau > 1, the root 1/tau, and every
    other root simple and on the unit circle, proved by exact signs.

    cs must be monic, reciprocal and of even degree 2m; any other input
    gives False. Then cs(z) = z^m T(z + 1/z) for the trace polynomial
    T(t) = a_0 + sum_{j>=1} a_j D_j(t), a_j = cs[m + j], in the basis
    D_j(z + 1/z) = z^j + z^-j. T(2) = cs(1) must be negative, and the exact
    signs of T from 2 through the separators in (-2, 2), each taken as its
    float's exact dyadic value, to -2 must change m - 1 times: then T has
    m - 1 simple roots in (-2, 2) and one above 2. A sign 0 counts as no
    change on either side, so a double root at a point cannot pass for two
    simple ones.
    """
    cs = trim(list(cs))
    deg = len(cs) - 1
    if not (cs and cs[-1] == 1 and cs == cs[::-1] and deg % 2 == 0):
        return False
    if sum(cs) >= 0:  # T(2) = cs(1)
        return False
    m = deg // 2
    inner = sorted({x for x in separators if -2 < x < 2}, reverse=True)
    if len(inner) < m - 2:  # len(inner) + 1 intervals for m - 1 changes
        return False
    points = [dyadic(x) for x in inner] + [(-2, 0)]
    signs = [-1] + trace_signs(cs[m:], points)
    return sum(x * y < 0 for x, y in zip(signs, signs[1:])) == m - 1


def trace_signs(a, points):
    """Exact signs of T = a_0 + sum a_j D_j at the dyadic points p/2^k in
    [-2, 2]: the ball of ``trace_balls`` at w = 32 + bits(r) decides where
    its centre v has |v| > r = 2m^2 + 1, and every other point is
    recomputed at w = km, where the ball is exact."""
    m = len(a) - 1
    r = 2 * m * m + 1
    signs = []
    for (p, k), v in zip(points, trace_balls(a, points, 32 + r.bit_length())):
        if abs(v) <= r:
            [v] = trace_balls(a, [(p, k)], k * m)
        signs.append((v > 0) - (v < 0))
    return signs


def trace_balls(a, points, w):
    """Centres v of integer balls around 2^w T(p/2^k), one per point.

    Clenshaw's recurrence in fixed point: B_j = 2^w a_j + floor(p B_{j+1} / 2^k)
    - B_{j+2} for j = m, ..., 1, then v = 2^w a_0 + floor(p B_1 / 2^k) - 2 B_2.

    Radius. With e_j = B_j - 2^w b_j for the exact Clenshaw values b_j, each
    floor takes some delta_j in [0, 1) off, so e_j = t e_{j+1} - e_{j+2} -
    delta_j, whose kernel is U_n(t/2); |U_n(x)| <= n + 1 on [-1, 1] gives
    |e_1| <= m(m+1)/2, |e_2| <= m(m-1)/2, and |v - 2^w T(t)| <= 2m^2 + 1
    for |t| <= 2. At w >= km every 2^w b_j is an integer divisible by
    2^(kj), so no floor takes anything off and v = 2^w T(p/2^k) exactly.
    """
    *top, low = [c << w for c in reversed(a)]
    balls = []
    for p, k in points:
        b1 = b2 = 0
        for c in top:
            b1, b2 = c + (p * b1 >> k) - b2, b1
        balls.append(low + (p * b1 >> k) - 2 * b2)
    return balls
