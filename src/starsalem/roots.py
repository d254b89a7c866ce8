"""High-precision root computations.

``dominant_root`` locates the unique real root above 1. After the exact
sign at 1 + 2^-20 (at height + 2, above every root, f has the sign of its
leading coefficient), a float Newton search safeguarded by bisection, run
on the reversed polynomial so that nothing overflows at high degree,
picks the first Newton point; the bracket's midpoint takes its place
when floats cannot find the root. Exact Newton steps follow, safeguarded
by bisection the same way, with points rounded to dyadic grids 2^-b, for
bit counts b planned back from bits(10^(digits + 9)) (about half of it, a
quarter, ...), so the rationals stay small and the Horner kernels shift
where they would divide; the cell is tried once twice the bits a step
resolved pass the cell's, as Newton's quadratic convergence then puts the
next point inside it, so at high precision the last Newton step is taken
at about half the width.
It returns the cell [n, n + 1] / 10^(digits+5) of the decimal grid that
holds the root, so the answer depends neither on the float start nor on
the path Newton took. The cell is proved by exact signs at the ends of a
cell of a dyadic grid 256 times finer, which lies inside it, and by at
most one decimal sign, where a point of the decimal grid falls inside
that dyadic cell; so these signs shift where they would divide too. Every
sign point reaches ``IntPoly.sign_at`` as an integer pair (p, q). The
Newton steps are formed from scaled integer values
(``IntPoly.scaled_value``) or, past ``intpoly.BALL_BITS``, from the
centres of integer balls around f and f' (``IntPoly.ball_value``) where
both exclude 0; only the cell is a Fraction.

``lambda_bracket`` maps the enclosure of tau to one of the tree's
spectral radius lambda = sqrt(tau) + 1/sqrt(tau) in exact integer
arithmetic (``math.isqrt`` on scaled integers, rounded outward).

``certify_tree`` puts the two together for the remainder of a
factorization that the caller already holds (``factor_coxeter``), so the
tree is factored once. Whether that remainder is Salem is the
factorization's label, decided in integers by
``factorize.repunit_certificate``. The float start is the only float in
this module, and no float value reaches an answer.

``converge_general`` reproduces the limit behaviour of the Salem roots:
with the top arms of a star growing they approach the dominant root of
the limit polynomial of the fixed prefix. ``converge_mbonacci`` is the
prefix (a0) at r = 2, whose limit z^(a0+1) - 2z^a0 + 1 is the Q block
and has the a0-bonacci number as its root above 1.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coxeter import StarTree, _repunit_rule, limit_polynomial
from .factorize import CoxeterFactorization, factor_coxeter
from .intpoly import BALL_BITS, IntPoly


class NoSignChange(ArithmeticError):
    """No sign change in (1 + 2^-20, height + 2], the interval where
    ``dominant_root`` looks for the input's root."""


@dataclass(frozen=True)
class RootCertificate:
    tau: str  # decimal string
    bracket: tuple[Fraction, Fraction]  # tau's decimal cell, or (tau, tau) on the grid
    lam: str  # decimal string, the midpoint of lam_bracket
    lam_bracket: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ConvergenceRecord:
    arms: tuple[int, ...]
    tau: str
    limit_value: str
    gap: str
    gap_value: Optional[Fraction]
    note: str = ""


# steps of the float search before it gives up: bisection alone would
# take about 52 + log2(tau) of them
_SEED_STEPS = 100

# dominant_root rounds each Newton point to a multiple of 2^-b, for bit
# counts b planned back from bits(10^(digits + 9)): every count is half the
# next one plus _LADDER_PAD, down to _LADDER_FLOOR. A point on count c whose
# step resolves c - 43 bits or more still fills the next count, as
# 2 (c - 43) + 34 >= 2 c - 53; a smaller pad would cost an extra step,
# never an answer.
_LADDER_PAD = 27
# Below this count a point takes twice its step's bits plus 34. A float
# start holds at most about 56 bits of a root above 1, so the first Newton
# point stays under the ladder or lands on a count of 133 or more, finer
# than twice those bits either way.
_LADDER_FLOOR = 133
# Bits past bits(10^(digits + 5)), the decimal cell's, that twice a Newton
# step's resolved bits must reach before the cell is tried; the signs that
# prove it are taken 8 bits finer, on the dyadic cell's ends. Resolved bits
# come from bit lengths (off by up to 1, 2 once doubled), and the new point
# is then rounded to bits(10^(digits + 9)) bits, about 13 past the decimal
# cell's. A try too early costs the 2 or 3 signs that fail to prove the
# cell, one too late a Newton step: the exact signs at the dyadic cell's
# ends decide it either way. 20 bits is about 6 places: from 22 bits up the
# 15-digit grid roots take more Newton steps, from -4 down the degree-1048
# trees take tries that fail, and -2 to 21 bits take the same steps and
# signs on every benchmark root.
_CELL_MARGIN = 20

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


def _float_seed(
    f: IntPoly, lo: tuple[int, int], hi: tuple[int, int], s_lo: int
) -> Optional[float]:
    """A float near a root of f in (lo, hi), 1 <= lo, where f has the
    exact sign s_lo at lo and the opposite sign at hi; the ends are integer
    pairs (p, q) for p/q, made floats only here. None when floats cannot
    find one: a coefficient or hi past float range, an inf or NaN value, or
    no convergence in ``_SEED_STEPS`` steps. It only picks
    ``dominant_root``'s first Newton point, so no float reaches an answer.

    Newton safeguarded by bisection (the rtsafe rule: bisect when a step
    leaves the bracket or fails to halve the last one) on the reversed
    polynomial g(y) = y^d f(1/y), over y = 1/x in (1/hi, 1/lo). g has the
    sign of f(1/y) there, and as 0 < y < 1 every Horner partial value of
    g stays below e = sum |c_i| y^(d-i), where powers of x itself overflow
    near x = 2 at degree 1000. Bisecting in y also reaches a root near 1 in
    a few steps when hi is large. The search stops once |g| <= 2 (d + 1)
    eps e, twice the rounding bound of Horner's rule: there g's sign may be
    noise, and next to a simple root a bracket of two neighbouring floats
    is already inside that bound.
    """
    try:
        cs = [float(c) for c in f.coeffs]  # g's coefficients, highest power first
        a, b = 1 / (hi[0] / hi[1]), 1 / (lo[0] / lo[1])  # f has the sign s_lo at 1/b
    except OverflowError:
        return None
    noise = 2 * len(cs) * sys.float_info.epsilon
    y = (a + b) / 2
    dy = b - a
    for _ in range(_SEED_STEPS):
        g = dg = e = 0.0
        for c in cs:
            dg = dg * y + g
            g = g * y + c
            e = e * y + abs(c)
        if not all(map(math.isfinite, (g, dg, e))):
            return None
        if abs(g) <= noise * e:
            return 1 / y
        if (g > 0) == (s_lo > 0):
            b = y
        else:
            a = y
        step = g / dg if dg else math.inf
        if a < y - step < b and 2 * abs(step) < abs(dy):
            dy = step
            y -= step
        else:
            dy = (b - a) / 2
            y = a + dy
    return None


def dominant_root(f: IntPoly, digits: int = 30) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """The real root of f in (1, infinity), to ``digits`` decimal places.

    Returns (root, (lo, hi)): with S = 10^(digits+5), (lo, hi) is the cell
    [n/S, (n+1)/S] of the decimal grid that holds the root, and root is its
    midpoint. Opposite exact signs of f at the ends of a cell of the dyadic
    grid 2^-(bits(S) + 8), 256 times finer, prove that the root lies in that
    dyadic cell; when it holds no point of the decimal grid it lies inside
    [n/S, (n+1)/S], and else the sign at the one grid point m/S inside it
    decides between the cells either side of m. A root r on the decimal grid
    is returned as (r, (r, r)), and an exact zero found off it proves its
    own cell. Every caller passes an f with exactly one root above 1, and
    then the answer depends on f and digits only, not on the path taken to
    it. On other inputs it is a proved cell of one of those roots, or the
    ArithmeticError below, and which one depends on the path. Raises
    NoSignChange when f does not change sign between 1 + 2^-20 and the
    coefficient bound height + 2, where f has the sign of its leading
    coefficient, which is how cyclotomic-only inputs announce themselves,
    and ArithmeticError when no dyadic cell next to the root has opposite
    signs at its ends, which takes more roots of f within a dyadic cell or
    two of it.

    Strategy: after the exact sign at 1 + 2^-20, a float search
    (``_float_seed``) finds a float near the root, and exact Newton steps
    start there, or at the bracket's midpoint when floats cannot find it.
    Each Newton point is rounded to a multiple of 2^-b, for a bit count b
    planned back from B = bits(10^(digits + 9)): B, B // 2 + 27, and so on
    down to 133 (Brent and Zimmermann, Modern Computer Arithmetic, 4.2), the
    largest of them within twice the bits the step resolved plus 34, or that
    bound itself below the ladder, so denominators stay small powers of 2.
    The rounding goes towards the point the step started from: Newton points
    land on the side of the root from which its iterates approach it
    monotonically, and rounding past them could move them off it, where a
    rough step may converge only linearly. Newton's error after a step s is
    about s^2 |f''/2f'| near the root, so the cell is tried once twice the
    bits the step resolved reach bits(S) + 20, 20 bits of room for that
    factor and the rounding (``_CELL_MARGIN``): the signs at the ends of
    the point's dyadic cell decide it, with one more sign at the far end of
    the neighbouring dyadic cell when both ends lie on one side of the root,
    and one decimal sign when a grid point lies inside the proved dyadic
    cell. A cell not proved costs those signs only, and Newton goes on.
    The next point is the midpoint of the bracket (lo, hi) instead (the
    rtsafe rule of ``_float_seed``) whenever the Newton point leaves the
    bracket or the step fails to halve the one before, so a start far from
    the root cannot crawl towards it by about x/deg a step. The value behind
    each step has the exact sign of f at the point, and every point inside
    the bracket moves the end of its sign at once. There is no step cap:
    accepted Newton steps halve the step before, from points on finitely
    many dyadic grids, and each bisection midpoint lies inside the bracket,
    so its sign halves the bracket; the loop ends on an exact zero, a proved
    cell, or a bracket one dyadic cell wide, where its midpoint's dyadic
    cell or a neighbour is proved or the ArithmeticError raised. The trigger
    and the bit counts only choose where to look. On the benchmark's
    1000-digit roots the last Newton evaluation is at B // 2 + 27 bits, and
    only the 2 or 3 signs at the dyadic cell's ends work at full width, on
    the kernels' shift path; at most one sign works on the decimal grid.

    Only the cell is a Fraction. The float start, the first ends
    1 + 2^-20 and height + 2 and the Newton points are all dyadic, so the
    later ends and the bisection midpoints are too: the ends are integer
    pairs (p, 2^k), and every Newton step is taken at a point x = p/2^k,
    where both kernels shift instead of dividing. The sign points reach
    ``IntPoly.sign_at`` as integer pairs too, not reduced: the end lo, the
    dyadic cell's ends (k, 2^(bits(S) + 8)) and the decimal point (m, S).
    A Newton step at x = p/q works on integers A and B with
    f(x)/f'(x) = A/(qB): the Newton point is (pB - A)/(qB) and the step
    |A|/(q|B|). Where deg * max(bits(p), bits(q)) reaches ``BALL_BITS``,
    A = q * c_f is the centre of an integer ball around 2^w f(x)
    (``IntPoly.ball_value``), with w up to twice bits(q), when that ball
    excludes 0; then B = c_f', the centre of the ball around 2^w f'(x),
    when it excludes 0 too, and else B = 0, which bisects. Otherwise
    A = q^d f(x) and B = q^(d-1) f'(x) are exact
    (``IntPoly.scaled_value``). A rough step costs at most an iteration: no
    Newton point decides the answer.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if f.degree() < 1:
        raise NoSignChange(f"no dominant root: {f.describe()} is constant")
    scale = 10 ** (digits + 5)
    cell_bits = scale.bit_length()

    def cell(n: int) -> tuple[Fraction, tuple[Fraction, Fraction]]:
        return Fraction(2 * n + 1, 2 * scale), (Fraction(n, scale), Fraction(n + 1, scale))

    def root_at(p: int, q: int) -> tuple[Fraction, tuple[Fraction, Fraction]]:
        """The answer for an exact zero p/q (q > 0): p/q itself on the
        grid, else its cell."""
        n, rem = divmod(p * scale, q)
        if rem:
            return cell(n)
        x = Fraction(p, q)
        return x, (x, x)

    lo = ((1 << 20) + 1, 1 << 20)
    s_lo = f.sign_at(*lo)
    if s_lo == 0:
        return root_at(*lo)
    # every root has |z| < 1 + height (Cauchy's bound), so at height + 2 f
    # has the sign of its leading coefficient
    top = f.height() + 2
    if (f.coeffs[-1] > 0) == (s_lo > 0):
        raise NoSignChange(f"no sign change in (1 + 2^-20, {top}] for {f.describe()}")
    hi = (top, 1)

    # the cell is proved on the dyadic grid 2^-fine, 256 times finer than
    # the decimal one, where sign_at shifts instead of dividing: a dyadic
    # cell then holds a point of the decimal grid about once in 256
    fine = cell_bits + 8

    def proved_cell(p: int, q: int) -> Optional[tuple[Fraction, tuple[Fraction, Fraction]]]:
        """The decimal cell of the root near p/q (q > 0), where opposite
        exact signs at the ends of p/q's dyadic cell, or of the neighbour
        they point to, prove that the root lies in it; else None."""
        u = (p << fine) // q
        signs = {k: f.sign_at(k, 1 << fine) for k in (u, u + 1)}
        if signs[u] == signs[u + 1]:  # both ends below the root, or both above
            up = signs[u] == s_lo
            k = u + 2 if up else u - 1
            signs[k] = f.sign_at(k, 1 << fine)
            u += 1 if up else -1
        for k in (u, u + 1):
            if signs[k] == 0:
                return root_at(k, 1 << fine)
        if signs[u] == signs[u + 1]:
            return None
        # the root is in (u, u + 1) / 2^fine, which is narrower than 1/S
        n = u * scale >> fine
        if (u + 1) * scale <= (n + 1) << fine:
            return cell(n)
        # the grid point m = n + 1 lies strictly inside it: one sign there
        m = n + 1
        s = f.sign_at(m, scale)
        if s == 0:
            return root_at(m, scale)
        return cell(m) if s == signs[u] else cell(n)

    def inside(num: int, den: int) -> bool:
        """lo < num/den < hi (den > 0)."""
        return lo[0] * den < num * lo[1] and num * hi[1] < hi[0] * den

    def midpoint() -> tuple[int, int, int, int]:
        """The bracket's midpoint p/q in lowest terms, and its half-width."""
        big_q = max(lo[1], hi[1])  # a power of 2, as are lo[1] and hi[1]
        n_lo, n_hi = lo[0] * (big_q // lo[1]), hi[0] * (big_q // hi[1])
        p, q = n_lo + n_hi, 2 * big_q
        g = min(p & -p, q)  # gcd(p, q), as q is a power of 2 and p > 0
        return p // g, q // g, n_hi - n_lo, q

    seed = _float_seed(f, lo, hi, s_lo)
    p, q = midpoint()[:2] if seed is None else seed.as_integer_ratio()
    # the last step as |A|/den; the first one has none to halve (1/0)
    step_num, step_den = 1, 0

    deg = len(f.coeffs) - 1
    df = f.derivative()
    top_bits = (10 ** (digits + 9)).bit_length()
    ladder = [top_bits]
    while ladder[-1] // 2 + _LADDER_PAD >= _LADDER_FLOOR:
        ladder.append(ladder[-1] // 2 + _LADDER_PAD)
    # accepted Newton steps halve the step before, and each bisection
    # midpoint lies inside the bracket, so its sign halves the bracket
    while True:
        a = None
        if deg * max(p.bit_length(), q.bit_length()) >= BALL_BITS:
            # the new point is rounded to about twice the bits of x, but
            # never past top_bits: w takes twice bits(q) up to top_bits, plus
            # 64 bits of margin and deg bits per bit of |x| > 1
            w = min(2 * q.bit_length(), top_bits) + 64
            w += deg * max(0, p.bit_length() - q.bit_length() + 1)
            ca, ra = f.ball_value(p, q, w)
            if abs(ca) > ra:
                # f's ball alone gives the sign that moves the bracket
                cb, rb = df.ball_value(p, q, w)
                a, b = q * ca, cb if abs(cb) > rb else 0
        if a is None:
            a, _ = f.scaled_value(p, q)
            if a == 0:
                return root_at(p, q)
            b, _ = df.scaled_value(p, q)
        # A has the exact sign of f(x): x moves the end of that sign
        if inside(p, q):
            if (a > 0) == (s_lo > 0):
                lo = (p, q)
            else:
                hi = (p, q)
        # the Newton point is num/den with den = q|B| > 0, the step |A|/den
        num, den = (p * b - a, q * b) if b > 0 else (a - p * b, -q * b)
        if b and inside(num, den) and 2 * abs(a) * step_den < step_num * den:
            step_num, step_den = abs(a), den
            # about the bits the step has resolved, from bit lengths
            resolved = max(0, den.bit_length() - abs(a).bit_length())
            # the largest planned count this step can fill; below the
            # ladder, twice the resolved bits and a pad of 34, 10 places
            # rounded up: a count finer than the point's error only widens
            # the next evaluation, and a coarser one costs a step at most
            bits = max((c for c in ladder if c <= 2 * resolved + 34), default=2 * resolved + 34)
            q = 1 << bits
            # rounded towards x, so that a point on the side of the root from
            # which Newton's iterates approach it monotonically stays there
            p = -(-(num << bits) // den) if (a > 0) == (b > 0) else (num << bits) // den
            # the new point's error is about the step squared
            if 2 * resolved >= cell_bits + _CELL_MARGIN:
                found = proved_cell(p, q)
                if found:
                    return found
            # a cell not proved costs its signs only: Newton goes on
            continue
        # f'(x) = 0, the Newton point left (lo, hi) or the step did not
        # halve the last one: bisect (the rtsafe rule)
        p, q, step_num, step_den = midpoint()
        if step_num << (fine + 1) <= step_den:  # (hi - lo) 2^fine <= 1
            # the root is within 2^-(fine + 1) of the midpoint, so in its
            # dyadic cell or a neighbour; 2^-fine < 1/S, so the message holds
            found = proved_cell(p, q)
            if found:
                return found
            raise ArithmeticError(f"{f.describe()} has roots closer together than 10^-{digits + 5}")


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


def certify_tree(fz: CoxeterFactorization, digits: int = 30) -> Optional[RootCertificate]:
    """Full dominant-root certificate for a factored tree, or None when
    its Coxeter polynomial is a pure product of cyclotomics.

    The spectral radius lambda comes from tau's enclosure through
    ``lambda_bracket``; no characteristic polynomial or matrix is built.
    That tau is a Salem number (or a quadratic unit) is the factorization's
    ``classification``, which this function does not read.
    """
    if fz.salem_factor.degree() < 1:
        return None
    tau, bracket = dominant_root(fz.salem_factor, digits)
    lam_bracket = lambda_bracket(bracket, digits)
    return RootCertificate(
        tau=fraction_to_decimal(tau, digits),
        bracket=bracket,
        lam=fraction_to_decimal(sum(lam_bracket) / 2, digits),
        lam_bracket=lam_bracket,
    )


def converge_mbonacci(
    a0: int,
    eta: int,
    a1_values: Sequence[int],
    digits: int = 30,
) -> list[ConvergenceRecord]:
    """Salem roots of T(a0, a1, a1 + eta) against the a0-bonacci number,
    the dominant root of the limit of the prefix (a0) at r = 2, which is
    also the Q block z^(a0+1) - 2z^a0 + 1 = (z - 1)(z^a0 - z^(a0-1) - ... - 1)."""
    return converge_general((a0,), 2, [(a1, a1 + eta) for a1 in a1_values], digits)


def converge_general(
    prefix_arms: Sequence[int],
    r: int,
    growth_schedule: Sequence[Sequence[int]],
    digits: int = 30,
) -> list[ConvergenceRecord]:
    """Salem roots of full trees against the dominant root of the limit
    polynomial of their fixed prefix.

    Each tree is factored and its Salem factor rooted; a tree whose
    remainder is 1 has no root off the unit circle and gets a note.
    """
    prefix = tuple(map(operator.index, prefix_arms))
    schedule = []
    for tail in growth_schedule:  # every entry is checked before any root is computed
        arms = prefix + tuple(map(operator.index, tail))
        if len(arms) != r + 1:
            raise ValueError(f"schedule entry {tail} does not extend to r+1 = {r + 1} arms")
        # StarTree sorts its arms, so the order is checked on the input
        if any(a >= b for a, b in zip(arms, arms[1:])):
            raise ValueError(f"full arm vector must be strictly increasing, got {arms}")
        schedule.append(arms)
    limit_poly = limit_polynomial(prefix, r)  # checks the prefix's arms first
    deflated = IntPoly.from_coeffs(_repunit_rule(prefix, len(prefix) - r))
    try:  # the same root above 1 without limit_poly's factor (z - 1)^(k+1)
        limit, _ = dominant_root(deflated, digits)
    except NoSignChange:  # raised again, naming the limit polynomial
        limit, _ = dominant_root(limit_poly, digits)
    limit_str = fraction_to_decimal(limit, digits)
    records = []
    for arms in schedule:
        fz = factor_coxeter(StarTree(arms))
        if fz.salem_factor.degree() < 1:
            records.append(
                ConvergenceRecord(
                    arms=arms,
                    tau="",
                    limit_value=limit_str,
                    gap="",
                    gap_value=None,
                    note="skipped: no root leaves the unit circle for these arms",
                )
            )
            continue
        tau, _ = dominant_root(fz.salem_factor, digits)
        gap = abs(tau - limit)
        records.append(
            ConvergenceRecord(
                arms=arms,
                tau=fraction_to_decimal(tau, digits),
                limit_value=limit_str,
                gap=fraction_to_decimal(gap, digits),
                gap_value=gap,
            )
        )
    return records
