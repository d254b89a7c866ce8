"""Independent reference implementations used as test oracles.

Everything here is deliberately naive list-based arithmetic with no
imports from the package under test, so agreement between the two is
meaningful. Coefficients are ints, low degree first.
"""

from fractions import Fraction


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


def resolved_places(width: Fraction) -> int:
    """Smallest k with width >= 10^-k, capped at 10 000."""
    k = 0
    w = width
    while w < 1 and k < 10_000:
        w *= 10
        k += 1
    return k


def dominant_root_fraction(cs, digits: int, trace=None):
    """Exact-sign bisection interleaved with Newton steps, all in Fractions.

    The same iterates as the package's ``dominant_root``: bisect (1 + 2^-20,
    height + 2] down to width 1/128, then Newton steps rounded to
    ``min(2 * resolved_places(step + eps) + 10, digits + 9)`` decimal places,
    finished by an exact sign check of (x - eps, x + eps). Returns
    (root, (lo, hi)), or None when there is no sign change. When ``trace``
    is a list, "sign" is appended to it for every exact sign evaluation and
    the name of every fallback taken when it is taken.
    """
    def note(event):
        if trace is not None:
            trace.append(event)

    def sign(x):
        note("sign")
        return eval_sign(cs, x)

    dcs = [i * c for i, c in enumerate(cs)][1:]
    lo = Fraction((1 << 20) + 1, 1 << 20)
    hi = Fraction(max(abs(c) for c in cs) + 2)
    s_lo = sign(lo)
    if s_lo == 0:
        return lo, (lo, lo)
    s_hi = sign(hi)
    if s_hi == 0:
        return hi, (hi, hi)
    if s_lo == s_hi:
        return None
    target = Fraction(1, 10 ** (digits + 5))
    eps = target / 4

    def bisect_once():
        nonlocal lo, hi
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            note("bisection hit a root")
            return mid, (mid, mid)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
        return None

    while hi - lo > Fraction(1, 128):
        exact = bisect_once()
        if exact:
            return exact

    x = (lo + hi) / 2
    for _ in range(120):
        fx = eval_exact(cs, x)
        if fx == 0:
            note("newton hit a root")
            return x, (x, x)
        dfx = eval_exact(dcs, x)
        if dfx == 0:
            note("zero derivative")
        nxt = x - fx / dfx if dfx else None
        if nxt is None or not (lo < nxt < hi):
            if nxt is not None:
                note("newton left the bracket")
            exact = bisect_once()
            if exact:
                return exact
            if hi - lo <= target:
                return (lo + hi) / 2, (lo, hi)
            x = (lo + hi) / 2
            continue
        step = abs(nxt - x)
        places = min(2 * resolved_places(step + eps) + 10, digits + 9)
        x = Fraction(round(nxt * 10**places), 10**places)
        if not (lo < x < hi):
            note("clip left the bracket")
            x = nxt
        if step < eps / 4:
            a, b = x - eps, x + eps
            if lo < a and b < hi:
                sa = sign(a)
                if sa == 0:
                    return a, (a, a)
                sb = sign(b)
                if sb == 0:
                    return b, (b, b)
                if sa != sb:
                    return x, (a, b)
            note("enclosure failed")
            exact = bisect_once()
            if exact:
                return exact

    note("newton budget spent")
    while hi - lo > target:
        exact = bisect_once()
        if exact:
            return exact
    return (lo + hi) / 2, (lo, hi)
