"""Exact factorization of Coxeter polynomials and certified bounds.

``factor_coxeter`` splits R_T into a product of cyclotomic polynomials
times a remainder. The sieve takes no order cap: only orders with
phi(k) <= deg R_T can divide, and they all lie under the exact bound
``phi_inverse_bound(deg R_T)``. So the paper's order bound
420*(a2 - a1 + a0 - 1) for strictly ordered three-arm trees is checked
against what the sieve finds (``scan.grid_verify``), never used to
limit it.

Every question of the form "which orders k have Phi_k | f" goes through
one primitive, ``cyclotomic_divisors``, used by the sieve, by the
periodicity scan and by ``verify_mann``. Its candidates are the orders
with phi(k) <= deg f (under an optional cap), read off the phi sieve.
One exact integer screen discards every order k for which Phi_k(2) does
not divide f(2), and every survivor is settled by exact integer
division. No float enters the sieve. Every Phi_k, Phi_k(2) and phi
value used here, by the sieve and by the degree bound alike, comes from
the one process-wide table, ``cyclotomic.default_table()``.

The remainder's label (Salem, quadratic Pisot or cyclotomic-only) has
one exact test, ``repunit_certificate``, and is computed only when
``CoxeterFactorization.classification`` is first read. The certificate
proves that every root of a reciprocal remainder f other than tau and
1/tau lies on the unit circle, by counting the sign changes of its trace
polynomial T, f(z) = z^m T(z + 1/z), at t = 2 cos(2 pi p/n) for every
fraction p/n in (0, 1/2) whose n divides an arm. No polynomial is
evaluated there: the sign is read off the trace form of the repunit rule
for R_T, divided by that of the sieve's cyclotomic part, as integer
parities. At a point where s >= 2 arms are divisible by n both vanish,
and the sign is the quotient of their leading terms, of order s - 1;
the certificate checks that the sieve found m_n = s - 1 there, and m_1
even. One exact tie, at one integer point, proves that the computed R_T
is the rule and the product of the factorization. A remainder other than
1 that it does not certify raises ClassificationError.

``multiplicity_bound`` certifies the effectively computable bound m on
root multiplicities of P on the unit circle: the lower bound eta for
min_{|z|=1} |Qtilde(z)| is the grid value n/10^12 just below it, proved
in the trace basis (|Qtilde|^2 = U(z + 1/z) > eta^2 on [-2, 2], by
exact Bernstein coefficients with bisection; a float search only picks
where to cut), all remaining suprema are bounded by coefficient-sum
norms, and the selection inequalities are decided in integers:
cross-multiplied by the denominators of eta = p/q and of each term.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .cyclotomic import default_table, phi_inverse_bound
from .coxeter import ArityError, OrderError, StarTree, block_polys, coxeter_polynomial
from .intpoly import IntPoly, taylor_shift

ORDER_BOUND_FACTOR = 420

SALEM = "Salem"
QUADRATIC_PISOT = "QuadraticPisot"
CYCLOTOMIC_ONLY = "CyclotomicOnly"

class ClassificationError(RuntimeError):
    """The non-cyclotomic remainder is neither 1 nor certified by
    ``repunit_certificate``."""


class CertificationError(RuntimeError):
    """A certified positive lower bound could not be established."""


@dataclass(frozen=True)
class CoxeterFactorization:
    arms: tuple[int, ...]
    rt: IntPoly  # R_T, the polynomial that was factored
    cyclotomic_factors: dict[int, int]  # order -> multiplicity
    salem_factor: IntPoly
    max_observed_order: int
    max_observed_multiplicity: int
    unramified: bool

    @cached_property
    def classification(self) -> str:
        """``classify_remainder`` of this factorization, computed on first read:
        callers that never read the label never pay for its certificate."""
        return classify_remainder(self)

    @property
    def proven_order_bound(self) -> Optional[int]:
        """The paper's order bound for a2 > a1 > a0 > 1, else None."""
        a = self.arms
        return order_bound(*a) if len(a) == 3 and a[0] < a[1] < a[2] else None

    def to_json_dict(self, degree_lower_bound: Optional[int] = None) -> dict:
        return {
            "arms": list(self.arms),
            "classification": self.classification,
            "cyclotomic": [
                {"order": k, "multiplicity": m}
                for k, m in sorted(self.cyclotomic_factors.items())
            ],
            "salem_coeffs": self.salem_factor.json_coeffs(),
            "salem_degree": max(self.salem_factor.degree(), 0),
            "order_bound": self.proven_order_bound,
            "degree_lower_bound": degree_lower_bound,
            "unramified": self.unramified,
        }


@dataclass(frozen=True)
class MultiplicityBoundTrace:
    a0: int
    delta: int
    eta_lower: Fraction
    f0_upper: int
    en_upper: int
    fn_upper: int
    gn_upper: int
    n0: int
    c: int
    m: int
    grid_points: int  # pieces of [-2, 2] the circle proof examined

    def to_json_dict(self) -> dict:
        # eta_lower is n/10^12 by construction: print n's digits, never rounded up
        whole, frac = divmod(int(self.eta_lower * _ETA_SCALE), _ETA_SCALE)
        return asdict(self) | {
            "eta_lower": f"{whole}.{frac:012d}",
            "eta_lower_exact": f"{self.eta_lower.numerator}/{self.eta_lower.denominator}",
        }


# ----------------------------------------------------------------------
# order bound and sieve
# ----------------------------------------------------------------------

def order_bound(a0: int, a1: int, a2: int) -> int:
    """420 * (a2 - a1 + a0 - 1): cap on orders of unit roots of P."""
    if not (a2 > a1 > a0 > 1):
        raise OrderError(f"need a2 > a1 > a0 > 1, got {(a0, a1, a2)}")
    return ORDER_BOUND_FACTOR * (a2 - a1 + a0 - 1)


def cyclotomic_divisors(f: IntPoly, max_order: Optional[int] = None) -> list[int]:
    """Every order k with Phi_k | f (and k <= max_order, if given), ascending.

    Screen, then settle:

    1. Orders with phi(k) > deg f cannot divide; the candidates are read
       off the phi sieve of the process-wide ``default_table()``, which
       never has to reach past ``phi_inverse_bound(deg f)``.
    2. Phi_k | f in Z[x] forces Phi_k(2) | f(2), so every order with
       f(2) mod Phi_k(2) != 0 is discarded (``value_at_two`` caches
       Phi_k(2)). When f(2) = 0, none is.
    3. Every survivor is settled by exact integer division.

    No step uses a float, at any height of f.
    """
    if f.is_zero():
        raise ValueError("cannot sieve the zero polynomial")
    if max_order is not None and max_order < 1:
        raise ValueError("max_order must be >= 1")
    table = default_table()
    deg = f.degree()
    cap = phi_inverse_bound(deg)
    if max_order is not None:
        cap = min(cap, max_order)
    phis = table.phi_values(cap)
    candidates = [k for k in range(1, cap + 1) if phis[k] <= deg]
    at_two = f.eval_int(2)
    survivors = [k for k in candidates if at_two % table.value_at_two(k) == 0]
    return [k for k in survivors if table.divides_coxeter(k, f)]


def extract_cyclotomic(f: IntPoly) -> tuple[dict[int, int], IntPoly]:
    """Divide out every cyclotomic factor of f.

    Returns (multiplicities, remainder) with
    prod_k Phi_k^[m_k] * remainder == f exactly. The orders come from one
    ``cyclotomic_divisors`` call on f (the remainder divides f, so no
    order outside that list can divide it). The sieve settled that Phi_k
    divides f, and so the remainder, which lost only factors prime to it:
    Phi_k is divided out once untested, then again while
    ``divides_coxeter`` says it divides the remainder.
    """
    table = default_table()
    mults: dict[int, int] = {}
    rem = f
    for k in cyclotomic_divisors(f):
        phi_k = table.cyclotomic(k)
        mults[k] = 0
        while not mults[k] or table.divides_coxeter(k, rem):
            rem = rem.exact_div(phi_k)
            mults[k] += 1
    return mults, rem


# ----------------------------------------------------------------------
# classification: the certificate read off the repunit rule
# ----------------------------------------------------------------------

def separator_signs(
    arms: Sequence[int], mults: dict[int, int]
) -> Optional[list[tuple[int, int, int]]]:
    """(p, n, sign) at every p/n in lowest terms with 0 < p/n < 1/2 and n
    dividing an arm, ascending in p/n: the sign of the trace polynomial T
    of the sieve remainder at t = 2 cos(2 pi p/n), for the tree with these
    arms and cyclotomic multiplicities, by the closed form
    (-1)^(sum_i floor(a_i p/n) + m_1/2 + sum_(k>=3) m_k c_k(p/n) + s - 1)
    of ``repunit_certificate``, with s the number of arms that n divides.
    None when m_n != s - 1 at some point, where that form does not hold.
    """
    fractions = [(j, a) for a in set(arms) for j in range(1, (a + 1) // 2)]
    points = {(j // math.gcd(j, a), a // math.gcd(j, a)) for j, a in fractions}
    divisible = {n: sum(a % n == 0 for a in arms) for _, n in points}  # n -> s
    if any(mults.get(n, 0) != s - 1 for n, s in divisible.items()):
        return None
    # two distinct points differ by at least 1/max(arms)^2 > 2^-bits, so
    # floor(x 2^bits) orders them exactly
    bits = 2 * max(arms).bit_length()
    # only the parity counts, so only the orders k >= 3 of odd m_k; for
    # each, below[L] counts the i in [1, L] prime to k, and c_k(p/n) counts
    # those with i n < p k, that is i <= (p k - 1) // n
    odd = [(k, [0]) for k, mk in mults.items() if k >= 3 and mk % 2]
    for k, below in odd:
        for i in range(1, (k + 1) // 2):
            below.append(below[-1] + (math.gcd(i, k) == 1))
    half, signs = mults.get(1, 0) // 2, []
    for p, n in sorted(points, key=lambda x: (x[0] << bits) // x[1]):
        e = half + divisible[n] - 1
        for a in arms:
            e += a * p // n
        for k, below in odd:
            e += below[(p * k - 1) // n]
        signs.append((p, n, -1 if e & 1 else 1))
    return signs


def _ties_hold(fz: CoxeterFactorization) -> bool:
    """R_T is the repunit rule (z + 1) prod_i [a_i] - z sum_i [a_i - 1]
    prod_(j!=i) [a_j] and the product C f = prod_k Phi_k^(m_k) f: the three
    values at B = 2^(8 size), read off bytes, agree.

    The rule's coefficients are differences of those of two nonnegative
    products, whose sums are 2 prod a_i and sum_i (a_i - 1) prod_(j!=i) a_j;
    those of C f are at most ||f||_1 prod_k ||Phi_k||_1^(m_k). So each
    side's are at most h, a difference D of two has height 2h < B at most,
    and D(B) = 0 makes D = 0: its top term d B^e would otherwise exceed
    the rest, at most 2h (B^e - 1)/(B - 1) < B^e in modulus.
    """
    table, arms, f, mults = default_table(), fz.arms, fz.salem_factor, fz.cyclotomic_factors
    prod = math.prod(arms)
    cyclotomic_l1 = math.prod(table.cyclotomic(k).l1() ** m for k, m in mults.items())
    rule_l1 = 2 * prod + sum((a - 1) * (prod // a) for a in arms)
    bound = max(fz.rt.height(), rule_l1, f.l1() * cyclotomic_l1)
    size = (2 * bound).bit_length() // 8 + 1  # so B > 4h
    base, one = 1 << (8 * size), (1).to_bytes(size, "little")
    half = base >> 1

    def at_b(g: IntPoly) -> int:
        # the digits c + B/2 lie in (0, B): their bytes spell g(B) + (B/2) [len](B)
        packed = b"".join((c + half).to_bytes(size, "little") for c in g.coeffs)
        tail = half * int.from_bytes(one * len(g.coeffs), "little")
        return int.from_bytes(packed, "little") - tail

    prod_b, rest_b = 1, 0
    for a in arms:
        rep, rep_less = int.from_bytes(one * a, "little"), int.from_bytes(one * (a - 1), "little")
        rest_b, prod_b = rest_b * rep + prod_b * rep_less, prod_b * rep
    value = at_b(fz.rt)
    product = at_b(f) * math.prod(at_b(table.cyclotomic(k)) ** m for k, m in mults.items())
    return value == (base + 1) * prod_b - base * rest_b == product


def repunit_certificate(fz: CoxeterFactorization) -> bool:
    """True when the sieve remainder f of ``fz`` has one real root tau > 1,
    the root 1/tau, and every other root simple and on the unit circle;
    proved in exact integer arithmetic.

    The count. f must be monic, reciprocal and of even degree 2m, so
    f(z) = z^m T(z + 1/z) for a monic T of degree m. If T(2) = f(1) < 0 and
    the signs of T from T(2) through points 2 > t_1 > ... > t_L > -2 to
    T(-2) = (-1)^m f(-1) change m - 1 times, T has m - 1 roots in (-2, 2)
    and, as T(+inf) > 0, one above 2: all m, each simple. Each root in
    (-2, 2) gives a pair e^(+-i theta) on the unit circle, the one above 2
    gives tau and 1/tau, and when no cyclotomic polynomial divides f,
    Kronecker's theorem makes f irreducible. The points are
    t = 2 cos(2 pi x) at the x = p/n of ``separator_signs``, in increasing
    x; by Cauchy interlacing at most one root of T lies between two.

    The signs, from the trace form of the repunit rule. With
    zeta = e^(2 pi i x), [a](zeta) = e^(i pi (a-1) x) sigma_a(x) for
    sigma_a(x) = sin(pi a x)/sin(pi x), so e^(-i pi N x) R_T(zeta), N = deg R_T, is

        T_R(x) = 2 cos(pi x) prod_i sigma_(a_i) - sum_i sigma_(a_i - 1) prod_(j!=i) sigma_(a_j).

    The same turn takes R_T = C f, C = prod_k Phi_k^(m_k), to a product of
    real factors: f to T(2 cos 2 pi x); Phi_1 to 2i sin(pi x); Phi_2 to
    2 cos(pi x) > 0; Phi_k, k >= 3, to the product of t - 2 cos(2 pi i/k)
    over the i < k/2 prime to k, of sign (-1)^c_k(x), where c_k(x) counts
    the i with i/k < x. At x0 = p/n, let s arms be divisible by n. Where
    n does not divide a, sigma_a(x0) has the sign (-1)^floor(a p/n); where
    it does, sigma_a vanishes to first order with slope of sign
    (-1)^(a p/n), and sigma_(a-1)(x0) = -(-1)^(a p/n). So T_R vanishes to
    order s - 1 at x0, and its terms of that order, one per arm divisible
    by n, all have the sign (-1)^(sum_i floor(a_i p/n)). C's factor vanishes
    there through Phi_n alone, to order m_n, and t - 2 cos(2 pi p/n) falls
    as x grows, so its leading term has the sign
    (-1)^(m_1/2 + sum_(k>=3) m_k c_k(x0) + m_n) for even m_1. When
    m_n = s - 1, T(t0) is the quotient of the two leading terms, with the
    sign of ``separator_signs``; so m_1 even and m_n = s - 1 are checked.

    The tie. The closed form describes the repunit rule and the
    multiplicities, not the printed coefficients; ``_ties_hold`` proves
    that R_T is the rule and equals C f. Each sign then costs
    O(arms + orders) small-integer operations.
    """
    f, mults = fz.salem_factor, fz.cyclotomic_factors
    deg = f.degree()
    if not (f.is_monic() and f.is_reciprocal() and deg % 2 == 0):
        return False
    if f.eval_int(1) >= 0 or mults.get(1, 0) % 2 or not _ties_hold(fz):
        return False
    points = separator_signs(fz.arms, mults)
    if points is None:
        return False
    m = deg // 2
    end = f.eval_int(-1) * (-1) ** m  # T(-2)
    signs = [-1] + [sign for _, _, sign in points] + [(end > 0) - (end < 0)]
    # a sign 0 (only T(-2) can be 0) counts as no change on either side
    return sum(x * y < 0 for x, y in zip(signs, signs[1:])) == m - 1


def classify_remainder(fz: CoxeterFactorization) -> str:
    """The label of the factorization's remainder, decided by
    ``repunit_certificate``.

    A remainder of exactly 1 is CyclotomicOnly. A certified remainder of
    degree 2 (x^2 - a x + 1 with a > 2) is QuadraticPisot, and one of
    larger degree is Salem. Any other remainder raises
    ClassificationError.
    """
    rem = fz.salem_factor
    if rem.coeffs == (1,):
        return CYCLOTOMIC_ONLY
    if repunit_certificate(fz):
        return QUADRATIC_PISOT if rem.degree() == 2 else SALEM
    raise ClassificationError(f"no Salem certificate for the remainder, {rem.describe()}")


def factor_coxeter(tree: StarTree) -> CoxeterFactorization:
    """Sieve every cyclotomic factor out of R_T; the remainder is
    classified when ``classification`` is first read."""
    rt = coxeter_polynomial(tree)
    mults, rem = extract_cyclotomic(rt)
    unramified = abs(rem.eval_int(1)) == 1 and abs(rem.eval_int(-1)) == 1
    return CoxeterFactorization(
        arms=tree.arms,
        rt=rt,
        cyclotomic_factors=dict(sorted(mults.items())),
        salem_factor=rem,
        max_observed_order=max(mults, default=0),
        max_observed_multiplicity=max(mults.values(), default=0),
        unramified=unramified,
    )


def salem_degree_lower_bound(tree: StarTree, m: int) -> int:
    """deg R_T - m * sum_{k <= order bound} phi(k); may be negative."""
    if tree.r != 2:
        raise ArityError("degree lower bound is only stated for three-arm trees")
    if m < 1:
        raise ValueError("multiplicity bound m must be >= 1")
    bound = order_bound(*tree.arms)
    deg_rt = tree.vertex_count  # equals deg R_T
    return deg_rt - m * default_table().phi_sum(bound)


# ----------------------------------------------------------------------
# multiplicity bound certification
# ----------------------------------------------------------------------

# eta_lower is n / 10^12, which ``bound`` prints exactly
_ETA_SCALE = 10**12
# the circle proof gives up after examining this many pieces of [-2, 2]
_MAX_PIECES = 100_000


@lru_cache(maxsize=None)
def _certified_circle_min(f: IntPoly) -> tuple[Fraction, int]:
    """(eta, pieces): eta = n/S, S = 10^12, with n the largest integer
    such that (n/S)^2 < min_{|z|=1} |f(z)|^2, proved in exact arithmetic,
    and the number of pieces of [-2, 2] the proof examined.

    On the circle z = e^(i theta), t = z + 1/z = 2 cos theta runs over
    [-2, 2] and |f(z)|^2 = f(z) f(1/z) = U(t) with
    U(t) = u_0 + sum_{j>=1} u_j D_j(t), u_j = sum_i c_i c_(i+j), for
    D_j(z + 1/z) = z^j + z^-j: an integer polynomial of degree d = deg f.
    eta depends on f alone, so a float may pick where to look but can
    never move eta.

    Proof. On a piece [l, r], U(t) = sum_i b_i C(d, i) x^i (1 - x)^(d-i)
    with x = (t - l)/(r - l), so U >= min_i b_i there, with b_0 = U(l)
    and b_d = U(r). (Up to positive factors the b_i are the coefficients
    of (1 + y)^d U((l + r y)/(1 + y)), so min_i b_i > 0 is Descartes' rule
    of signs with no variation on (0, inf).) The pieces start between the
    cut points -2, 2 and ``_float_minima``, and n starts as the largest
    integer with (n/S)^2 < U(p) for the smallest U at a cut p. A piece
    whose b_i all exceed (n/S)^2 is done. Any other is halved by de
    Casteljau's rule, and U at its midpoint lowers n when it must. n only
    falls, so a piece that is done stays done. At the end U > (n/S)^2 on
    all of [-2, 2], and some evaluated point has U <= ((n + 1)/S)^2: so n
    is the largest such integer. Where the float search misses a
    minimum the halving finds it at more cost.

    Raises CertificationError when n < 1 (a root of f on the circle, or
    min |f| <= 1/S) or after ``_MAX_PIECES`` pieces. f is memoised: the
    bound of ``multiplicity_bound`` depends on a0 alone.
    """
    c = f.coeffs
    d = len(c) - 1
    trace = [sum(x * y for x, y in zip(c, c[j:])) for j in range(d + 1)]
    u = _trace_to_power(trace)
    cuts = sorted({-2.0, 2.0, *_float_minima(trace)})
    todo = [_bernstein(u, _dyadic(lo), _dyadic(hi)) for lo, hi in zip(cuts, cuts[1:])]
    sq = _ETA_SCALE**2
    n = min(_grid_below(x * sq, den) for b, den in todo for x in (b[0], b[-1]))
    pieces = 0
    while todo:
        if n < 1:
            raise CertificationError(f"no positive lower bound on the circle for {f.describe()}")
        if pieces == _MAX_PIECES:
            raise CertificationError(
                f"no lower bound on the circle proved in {_MAX_PIECES} pieces for {f.describe()}"
            )
        b, den = todo.pop()
        pieces += 1
        floor = n * n * den
        if all(x * sq > floor for x in b):
            continue
        left, right = _halves(b)
        den <<= d
        n = min(n, _grid_below(left[-1] * sq, den))
        todo += [(right, den), (left, den)]
    return Fraction(n, _ETA_SCALE), pieces


def _dyadic(x: float) -> tuple[int, int]:
    """(p, k) with p/2^k equal to the float x exactly."""
    p, q = x.as_integer_ratio()
    return p, q.bit_length() - 1


def _grid_below(num: int, den: int) -> int:
    """The largest integer n with n^2 < num/den (den > 0); -1 when num <= 0."""
    return math.isqrt((num - 1) // den) if num > 0 else -1


def _trace_to_power(a: Sequence[int]) -> list[int]:
    """Power-basis coefficients of a_0 + sum_{j>=1} a_j D_j(t)."""
    u = [a[0]] + [0] * (len(a) - 1)
    prev, cur = [2], [0, 1]  # D_0, D_1
    for aj in a[1:]:
        for i, x in enumerate(cur):
            u[i] += aj * x
        nxt = [0] + cur  # D_(j+1) = t D_j - D_(j-1)
        for i, x in enumerate(prev):
            nxt[i] -= x
        prev, cur = cur, nxt
    return u


def _float_minima(a: Sequence[int]) -> list[float]:
    """Float guesses at the lowest minima of U = a_0 + sum a_j D_j on
    [-2, 2]: U is sampled at 2 cos(pi i / N), N = 4 deg U + 4, and every
    sampled local minimum within |lowest sample| of the lowest sample is
    returned.
    """
    n = 4 * len(a)
    ts = [2.0 * math.cos(math.pi * i / n) for i in range(n + 1)]
    vs = [_trace_float(a, t) for t in ts]
    lowest = min(vs)
    return [
        t
        for i, (t, v) in enumerate(zip(ts, vs))
        if v <= min(vs[min(i + 1, n)], vs[max(i - 1, 0)]) and v - lowest <= abs(lowest)
    ]


def _trace_float(a: Sequence[int], t: float) -> float:
    """a_0 + sum_{j>=1} a_j D_j(t) in floats, by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for c in reversed(a[1:]):
        b1, b2 = c + t * b1 - b2, b1
    return a[0] + t * b1 - 2.0 * b2


def _bernstein(
    u: Sequence[int], lo: tuple[int, int], hi: tuple[int, int]
) -> tuple[list[int], int]:
    """(B, den): the Bernstein coefficients of u on [lo, hi] are B_i / den,
    for dyadic ends (p, k) meaning p/2^k.

    With l = p_l/2^k and r = p_r/2^k on one k, H(x) = 2^(kd) u(l + (r - l) x)
    has integer coefficients (shift by p_l, then scale by p_r - p_l), and
    the coefficients beta_i of (1 + y)^d H(y / (1 + y)) are
    C(d, i) 2^(kd) b_i (reverse, shift by 1, reverse). So
    B_i = beta_i i! (d - i)! and den = d! 2^(kd).
    """
    d = len(u) - 1
    k = max(lo[1], hi[1])
    pl, pr = lo[0] << (k - lo[1]), hi[0] << (k - hi[1])
    h = taylor_shift([c << (k * (d - i)) for i, c in enumerate(u)], pl)
    h = [c * (pr - pl) ** i for i, c in enumerate(h)]
    beta = taylor_shift(h[::-1], 1)[::-1]
    fact = [math.factorial(i) for i in range(d + 1)]
    return [c * fact[i] * fact[d - i] for i, c in enumerate(beta)], fact[d] << (k * d)


def _halves(b: list[int]) -> tuple[list[int], list[int]]:
    """The Bernstein coefficients of the two halves of a piece, on 2^d
    times the scale of b: de Casteljau's rule at the midpoint, where row i
    (the sums of neighbouring pairs of row i - 1) is 2^i times the true
    row."""
    d = len(b) - 1
    left, right = [b[0] << d], [b[-1] << d]
    row = b
    for i in range(1, d + 1):
        row = [x + y for x, y in zip(row, row[1:])]
        left.append(row[0] << (d - i))
        right.append(row[-1] << (d - i))
    return left, right[::-1]


def _derivative_norms(f: IntPoly, n: int) -> list[int]:
    """||f^(k)||_1 for k = 1..n in one pass: row k holds |c_i| (i)_k, and
    each row is the one before times (i - k + 1)."""
    row = [abs(c) for c in f.coeffs]
    norms = []
    for k in range(1, n + 1):
        row = [x * (i - k + 1) for i, x in enumerate(row)]
        norms.append(sum(row))
    return norms


def multiplicity_bound(a0: int, delta: int) -> MultiplicityBoundTrace:
    """Effectively computable bound m(a0, delta) on unit-circle root
    multiplicities of P for three-arm trees with a2 - a1 = delta.

    Recipe: divide the blocks by their common root at 1, certify
    eta < min |Qtilde| on the circle (``_certified_circle_min``; Qtilde
    depends on a0 alone, so this runs once per a0), bound the block
    derivatives by coefficient sums (E and F the largest over orders
    1..n0, G at order n0), pick the smallest n0 with
    eta - 2^(1-n0) * F0 > 0, then the smallest c making

        eta - 2^(1-n0) F0 - 2^(n0-1)(E+F)/(s-n0+1) - G/(s)_(n0) > 0

    for all s = a1 + a2 > c. Trees with a1 + a2 <= c have
    deg Ptilde <= c + a0, so m = max(n0, c + a0) + 1 works in all cases.
    Both are decided in integers, with eta = p/q: n0 is
    1 + bitlength(F0 q // p), and c's inequality is multiplied through by
    its denominators.
    """
    if a0 < 2:
        raise ValueError("a0 must be >= 2")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    one = IntPoly.from_coeffs([-1, 1])
    q_tilde, r_tilde, s_tilde = (b.exact_div(one) for b in block_polys(a0, delta))

    eta_lower, grid_points = _certified_circle_min(q_tilde)
    f0_upper = r_tilde.l1()

    p, q = eta_lower.numerator, eta_lower.denominator
    n0 = 1 + (f0_upper * q // p).bit_length()  # the least n0 with p 2^(n0-1) > F0 q
    en_upper = max(_derivative_norms(q_tilde, n0))
    fn_upper = max(_derivative_norms(r_tilde, n0))
    gn_upper = _derivative_norms(s_tilde, n0)[-1]

    # eta - 2^(1-n0) F0 = head/den > 0 and 2^(n0-1)(E+F) = mid, so c's
    # inequality at s >= n0 is head/den > mid/(s-n0+1) + G/(s)_(n0), cross-multiplied
    scale = 1 << (n0 - 1)
    head, den, mid = p * scale - f0_upper * q, q * scale, scale * (en_upper + fn_upper)

    def holds(s: int) -> bool:
        span, perm = s - n0 + 1, math.perm(s, n0)
        return head * span * perm > den * (mid * perm + gn_upper * span)

    # the right side falls to 0 as s grows and head > 0, so the doubling stops
    s_hi = n0
    while not holds(s_hi):
        s_hi *= 2
    s_lo = n0 - 1  # holds is monotone for s >= n0
    while s_lo + 1 < s_hi:
        s = (s_lo + s_hi) // 2
        if holds(s):
            s_hi = s
        else:
            s_lo = s
    c = s_hi - 1

    return MultiplicityBoundTrace(
        a0=a0,
        delta=delta,
        eta_lower=eta_lower,
        f0_upper=f0_upper,
        en_upper=en_upper,
        fn_upper=fn_upper,
        gn_upper=gn_upper,
        n0=n0,
        c=c,
        m=max(n0, c + a0) + 1,
        grid_points=grid_points,
    )


# ----------------------------------------------------------------------
# vanishing sums of three roots of unity
# ----------------------------------------------------------------------

def verify_mann(
    a: int, b: int, c: int, p: int, q: int, search_order: int
) -> list[tuple[int, int]]:
    """Roots of unity of order <= search_order with a*z^p + b*z^q + c == 0.

    Clearing negative exponents gives the integer polynomial
    g = x^(-min(p, q, 0)) * (a*x^p + b*x^q + c), which vanishes at a
    primitive n-th root exactly when Phi_n divides it; the orders come
    from ``cyclotomic_divisors``. Returns the exact pair (n, j) of each
    primitive root exp(2 pi i j / n), 0 <= j < n and gcd(j, n) = 1, of each
    such order n. Every returned order divides 6*gcd(p, q).
    """
    if a == 0 or b == 0 or c == 0:
        raise ValueError("a, b, c must be nonzero")
    if p == 0 and q == 0:
        raise ValueError("(p, q) = (0, 0) is excluded")
    if search_order < 1:
        raise ValueError("search_order must be >= 1")
    low = min(p, q, 0)
    g = (
        IntPoly.monomial(p - low, a)
        + IntPoly.monomial(q - low, b)
        + IntPoly.monomial(-low, c)
    )
    return [
        (n, j)
        for n in cyclotomic_divisors(g, search_order)
        for j in range(n)
        if math.gcd(j, n) == 1
    ]
