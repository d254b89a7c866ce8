"""High-precision root computations.

``dominant_root`` locates the unique real root above 1 by exact-sign
bisection seeded at (1 + 2^-20, height + 2], interleaved with Newton
steps whose endpoints are rounded to short decimals so the rationals
stay small. Every bracket update is decided by an exact integer sign
evaluation, so the returned enclosure is unconditional. The Newton steps
are formed from scaled integer values (``IntPoly.scaled_value``); only
the bisection endpoints and the final enclosure are Fractions. Past
``intpoly.BALL_BITS``, a Newton step is first decided from integer balls
around f and f' (``IntPoly.ball_value``), and exact values settle every
step the balls leave open, so the iterates are the same either way.

``lambda_bracket`` maps the enclosure of tau to one of the tree's
spectral radius lambda = sqrt(tau) + 1/sqrt(tau) in exact integer
arithmetic (``math.isqrt`` on scaled integers, rounded outward).

``certify_tree`` puts the two together for a tree's remainder. Whether
that remainder is Salem is the factorization's label, decided by
``factorize.salem_certificate``; no float enters this module.

The convergence sweeps reproduce the limit behaviour of the Salem roots:
with two arms growing they approach the m-bonacci number of the fixed
arm; with the top arms of a larger star growing they approach the
dominant root of the limit polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coxeter import StarTree, coxeter_polynomial, limit_polynomial, mbonacci_poly
from .cyclotomic import CyclotomicTable
from .factorize import CoxeterFactorization, factor_coxeter
from .intpoly import BALL_BITS, IntPoly


class NoSignChange(ArithmeticError):
    """No sign change above 1: the input has no dominant real root there."""


@dataclass(frozen=True)
class RootCertificate:
    tau: str  # decimal string
    tau_value: Fraction
    bracket: tuple[Fraction, Fraction]
    lam: str  # decimal string, the midpoint of lam_bracket
    lam_bracket: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ConvergenceRecord:
    arms: tuple[int, ...]
    a1: int
    tau: str
    limit_value: str
    gap: str
    gap_value: Optional[Fraction]
    note: str = ""


# 2000 bits is 603 decimal digits, under 640, the lowest int-to-str limit
# Python accepts (sys.set_int_max_str_digits)
_STR_BITS = 2000


def _int_str(n: int) -> str:
    """Decimal digits of n >= 0, converted in pieces that each stay under
    the interpreter's int-to-str digit limit, which is left as it is."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    high, low = divmod(n, 10**k)
    return _int_str(high) + _int_str(low).zfill(k)


def fraction_text(x: Fraction) -> str:
    """x as the exact string "p/q", of any length."""
    sign = "-" if x < 0 else ""
    return f"{sign}{_int_str(abs(x.numerator))}/{_int_str(x.denominator)}"


def fraction_to_decimal(x: Fraction, digits: int) -> str:
    """Fixed-point decimal string with ``digits`` places, rounded to nearest."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10**digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    if digits == 0:
        return f"{sign}{_int_str(units)}"
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{_int_str(whole)}.{_int_str(frac).zfill(digits)}"


def dominant_root(f: IntPoly, digits: int = 30) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """The real root of f in (1, infinity), to ``digits`` decimal places.

    Returns (root, (lo, hi)) with f changing sign across [lo, hi] and
    hi - lo <= 10^-(digits+5); bracket signs are evaluated exactly, so
    the enclosure holds unconditionally. Raises NoSignChange when f does
    not change sign between 1 + 2^-20 and the coefficient bound
    height + 2, which is how cyclotomic-only inputs announce themselves.

    Strategy: coarse exact-sign bisection, then Newton steps rounded to
    short decimals (denominators stay near twice the resolved precision),
    finished by an exact sign check on a width-2*eps enclosure around the
    Newton limit. Bisection is the fallback whenever Newton leaves the
    bracket or fails to certify.

    Only the bisection endpoints and the final enclosure are Fractions.
    A Newton step at x = p/q works on the scaled integer values
    A = q^d f(x) and B = q^(d-1) f'(x): the Newton point is
    (pB - A)/(qB), the step is |A|/(q|B|), and the bracket tests and the
    decimal rounding are integer cross-multiplications and one divmod.
    Where deg * max(bits(p), bits(q)) reaches ``BALL_BITS``, balls around
    2^w f(x) and 2^w f'(x) are tried first (``ball_newton``), with w up to
    twice bits(q); the exact values are computed only when they cannot
    decide.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if f.degree() < 1:
        raise NoSignChange(f"no dominant root: {f.describe()} is constant")
    lo = Fraction((1 << 20) + 1, 1 << 20)
    hi = Fraction(f.height() + 2)
    s_lo = f.sign_at(lo)
    if s_lo == 0:
        return lo, (lo, lo)
    s_hi = f.sign_at(hi)
    if s_hi == 0:
        return hi, (hi, hi)
    if s_lo == s_hi:
        raise NoSignChange(f"no sign change in (1, {hi}] for {f.describe()}")

    target = Fraction(1, 10 ** (digits + 5))
    eps = target / 4
    inv_eps = eps.denominator

    def bisect_once() -> Optional[tuple[Fraction, tuple[Fraction, Fraction]]]:
        nonlocal lo, hi
        mid = (lo + hi) / 2
        s = f.sign_at(mid)
        if s == 0:
            return mid, (mid, mid)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
        return None

    def side(num: int, den: int) -> int:
        """-1 if num/den <= lo, 1 if num/den >= hi, else 0 (den > 0)."""
        if num * lo.denominator <= lo.numerator * den:
            return -1
        return 1 if num * hi.denominator >= hi.numerator * den else 0

    while hi - lo > Fraction(1, 128):
        exact = bisect_once()
        if exact:
            return exact

    deg = len(f.coeffs) - 1
    df = f.derivative(1)
    top_bits = (10 ** (digits + 9)).bit_length()

    def rounded_newton(num: int, den: int, step_num: int) -> tuple[int, int, bool]:
        """(p, q, stop) for the Newton point num/den (den > 0) and the step
        step_num/den: p/q is the point rounded to the decimal places the
        step has resolved, and stop is the test step < eps/4."""
        resolved = _resolved_digits(step_num * inv_eps + den, den * inv_eps)  # of step + eps
        scale = 10 ** min(2 * resolved + 10, digits + 9)
        return _round_half_even(num * scale, den), scale, 4 * step_num * inv_eps < den

    def ball_newton(p: int, q: int) -> tuple[int, int, bool] | bool | None:
        """The exact Newton step at x = p/q, decided from integer balls
        around f(x) and f'(x): ``rounded_newton``'s triple, False when the
        Newton point leaves (lo, hi), or None when the balls cannot tell.

        The balls put 2^w |f(x)| in [a0, a1] and 2^w |f'(x)| in [b0, b1],
        both away from 0, so the step |f/f'| lies in [a0/b1, a1/b0] and
        the Newton point x - s |f/f'| (s the sign of f f') lies between
        the two end points. Every test on it (the side of (lo, hi), the
        resolved places, the rounding, the stop test) is monotone in the
        step, so where the two ends agree the exact step agrees too.

        The new point is rounded to about twice the places of x, but never
        past digits + 9, so w takes twice bits(q) up to the bits of those
        places, plus 64 bits of margin and deg bits per bit of |x| > 1.
        """
        w = min(2 * q.bit_length(), top_bits) + 64
        w += deg * max(0, p.bit_length() - q.bit_length() + 1)
        ca, ra = f.ball_value(p, q, w)
        cb, rb = df.ball_value(p, q, w)
        if abs(ca) <= ra or abs(cb) <= rb:
            return None
        s = 1 if (ca > 0) == (cb > 0) else -1
        ends = [
            (p * b - s * q * a, q * b, q * a)  # x - s a/b, the step a/b
            for a, b in ((abs(ca) - ra, abs(cb) + rb), (abs(ca) + ra, abs(cb) - rb))
        ]
        sides = {side(num, den) for num, den, _ in ends}
        if sides != {0}:
            return False if len(sides) == 1 else None
        step, other = (rounded_newton(*end) for end in ends)
        if step != other or side(step[0], step[1]):
            return None
        return step

    p, q = ((lo + hi) / 2).as_integer_ratio()
    for _ in range(120):
        newton = None
        if deg * max(p.bit_length(), q.bit_length()) >= BALL_BITS:
            newton = ball_newton(p, q)
        if newton is None:
            fx, _ = f.scaled_value(p, q)
            if fx == 0:
                x = Fraction(p, q)
                return x, (x, x)
            dfx, _ = df.scaled_value(p, q)
            # the Newton point is num/den with den = q|B| > 0
            num, den = (p * dfx - fx, q * dfx) if dfx > 0 else (fx - p * dfx, -q * dfx)
            newton = False
            if dfx and not side(num, den):
                newton = rounded_newton(num, den, abs(fx))  # the step is |A|/den
                if side(newton[0], newton[1]):
                    g = math.gcd(num, den)
                    newton = num // g, den // g, newton[2]
        if not newton:  # f'(x) = 0, or the Newton point left (lo, hi)
            exact = bisect_once()
            if exact:
                return exact
            if hi - lo <= target:
                return (lo + hi) / 2, (lo, hi)
            p, q = ((lo + hi) / 2).as_integer_ratio()
            continue
        p, q, stop = newton
        if stop:
            x = Fraction(p, q)
            a, b = x - eps, x + eps
            if lo < a and b < hi:
                sa = f.sign_at(a)
                if sa == 0:
                    return a, (a, a)
                sb = f.sign_at(b)
                if sb == 0:
                    return b, (b, b)
                if sa != sb:
                    return x, (a, b)
            # Newton limit was not actually a root enclosure; keep bisecting
            exact = bisect_once()
            if exact:
                return exact

    while hi - lo > target:
        exact = bisect_once()
        if exact:
            return exact
    return (lo + hi) / 2, (lo, hi)


def _round_half_even(num: int, den: int) -> int:
    """num/den rounded to an integer, ties to even, as ``round(Fraction)`` does (den > 0)."""
    units, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and units % 2):
        units += 1
    return units


_MAX_PLACES = 10_000


def _resolved_digits(num: int, den: int) -> int:
    """Smallest k >= 0 with num/den >= 10^-k, capped at 10 000 (num, den > 0).

    These are the decimal places a width num/den has already resolved.
    With m the bit length of den minus that of num, den/num > 2^(m-1),
    so floor((m-1) * 0.30102) is at most the answer; exact comparisons
    then raise the count by the last few places.
    """
    m = den.bit_length() - num.bit_length()
    k = min(max(0, (m - 1) * 30102 // 100_000), _MAX_PLACES)
    power = 10**k
    while k < _MAX_PLACES and num * power < den:
        power *= 10
        k += 1
    return k


def lambda_bracket(
    tau_bracket: tuple[Fraction, Fraction], digits: int
) -> tuple[Fraction, Fraction]:
    """Enclosure of lambda = sqrt(tau) + 1/sqrt(tau) from one of tau > 1.

    lambda^2 = h(tau) with h(t) = t + 2 + 1/t = (t + 1)^2 / t, which
    increases for t > 1, so lambda lies in [sqrt(h(lo)), sqrt(h(hi))].
    The two square roots are taken at scale S = 10^(digits + 5) with
    ``math.isqrt`` on integers, the lower one rounded down and the upper
    one rounded up. As d lambda / d tau < 1/5 for tau > 1, the result is
    at most (hi - lo)/5 + 2/S wide.

    lambda is the spectral radius of the tree: by A'Campo's identity
    R_T(z) = z^(n/2) chi_T(z^(1/2) + z^(-1/2)), the root tau > 1 of R_T
    makes lambda > 2 an eigenvalue of the adjacency matrix A. Deleting the
    centre of a star-like tree leaves paths, whose eigenvalues
    2 cos(j pi / (m + 1)) all lie in (-2, 2). By Cauchy interlacing the
    second eigenvalue of A is at most the largest eigenvalue of that
    principal submatrix, so A has at most one eigenvalue above 2, and
    lambda is the largest one. ``scan.grid_verify`` checks all of this
    exactly, tree by tree.
    """
    scale_sq = 10 ** (2 * (digits + 5))

    def scaled_h(t: Fraction) -> tuple[int, int]:
        """h(t) S^2 as (numerator, denominator)."""
        n, d = t.numerator, t.denominator
        return (n + d) ** 2 * scale_sq, n * d

    num, den = scaled_h(tau_bracket[0])
    low = math.isqrt(num // den)
    num, den = scaled_h(tau_bracket[1])
    top = -(-num // den)
    high = math.isqrt(top)
    if high * high < top:
        high += 1
    scale = 10 ** (digits + 5)
    return Fraction(low, scale), Fraction(high, scale)


def certify_tree(
    tree: StarTree,
    digits: int = 30,
    factorization: Optional[CoxeterFactorization] = None,
    table: CyclotomicTable | None = None,
) -> Optional[RootCertificate]:
    """Full dominant-root certificate for a tree, or None when the
    Coxeter polynomial is a pure product of cyclotomics.

    The spectral radius lambda comes from tau's enclosure through
    ``lambda_bracket``; no characteristic polynomial or matrix is built.
    That tau is a Salem number (or a quadratic unit) is the factorization's
    ``classification``, which this function does not read.
    """
    fz = factorization or factor_coxeter(tree, table=table)
    if fz.salem_factor.degree() < 1:
        return None
    tau, bracket = dominant_root(fz.salem_factor, digits)
    lam_bracket = lambda_bracket(bracket, digits)
    return RootCertificate(
        tau=fraction_to_decimal(tau, digits),
        tau_value=tau,
        bracket=bracket,
        lam=fraction_to_decimal(sum(lam_bracket) / 2, digits),
        lam_bracket=lam_bracket,
    )


def converge_mbonacci(
    a0: int,
    eta: int,
    a1_values: Sequence[int],
    digits: int = 30,
    table: CyclotomicTable | None = None,
) -> list[ConvergenceRecord]:
    """Salem roots of T(a0, a1, a1 + eta) against the a0-bonacci number."""
    if a0 < 2:
        raise ValueError("a0 must be >= 2")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    limit, _ = dominant_root(mbonacci_poly(a0), digits)
    limit_str = fraction_to_decimal(limit, digits)
    records = []
    for a1 in a1_values:
        if a1 <= a0:
            raise ValueError(f"a1 must exceed a0, got a1={a1}, a0={a0}")
        tree = StarTree((a0, a1, a1 + eta))
        if tree.excluded:
            records.append(
                ConvergenceRecord(
                    arms=tree.arms,
                    a1=a1,
                    tau="",
                    limit_value=limit_str,
                    gap="",
                    gap_value=None,
                    note="skipped: no root leaves the unit circle for these arms",
                )
            )
            continue
        fz = factor_coxeter(tree, table=table)
        tau, _ = dominant_root(fz.salem_factor, digits)
        gap = abs(tau - limit)
        records.append(
            ConvergenceRecord(
                arms=tree.arms,
                a1=a1,
                tau=fraction_to_decimal(tau, digits),
                limit_value=limit_str,
                gap=fraction_to_decimal(gap, digits),
                gap_value=gap,
            )
        )
    return records


def converge_general(
    prefix_arms: Sequence[int],
    r: int,
    growth_schedule: Sequence[Sequence[int]],
    digits: int = 30,
) -> list[ConvergenceRecord]:
    """Salem roots of full trees against the dominant root of the limit
    polynomial of their fixed prefix."""
    prefix = tuple(int(a) for a in prefix_arms)
    schedule = []
    for tail in growth_schedule:  # every entry is checked before any root is computed
        arms = prefix + tuple(int(t) for t in tail)
        if len(arms) != r + 1:
            raise ValueError(f"schedule entry {tail} does not extend to r+1 = {r + 1} arms")
        # StarTree sorts its arms, so the order is checked on the input
        if any(a >= b for a, b in zip(arms, arms[1:])):
            raise ValueError(f"full arm vector must be strictly increasing, got {arms}")
        schedule.append(arms)
    limit, _ = dominant_root(limit_polynomial(prefix, r), digits)
    limit_str = fraction_to_decimal(limit, digits)
    records = []
    for arms in schedule:
        tau, _ = dominant_root(coxeter_polynomial(StarTree(arms)), digits)
        gap = abs(tau - limit)
        records.append(
            ConvergenceRecord(
                arms=arms,
                a1=arms[len(prefix)],
                tau=fraction_to_decimal(tau, digits),
                limit_value=limit_str,
                gap=fraction_to_decimal(gap, digits),
                gap_value=gap,
            )
        )
    return records
