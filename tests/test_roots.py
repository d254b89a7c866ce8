import decimal
import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starsalem import (
    IntPoly,
    NoSignChange,
    StarTree,
    certify_tree,
    converge_general,
    converge_mbonacci,
    coxeter_polynomial,
    cyclotomic_poly,
    dominant_root,
    factor_coxeter,
    fraction_to_decimal,
    lambda_bracket,
    limit_polynomial,
)
import starsalem.roots as roots
from starsalem.intpoly import BALL_BITS

import oracles
from oracles import (
    bisect_root,
    decimal_cell,
    eval_exact,
    eval_sign,
    from_trace,
    pmul,
    root_moduli,
    salem_certificate,
    spectral_radius,
    trace_balls,
    trace_signs,
    tree_separators,
)

LEHMER = IntPoly.from_coeffs((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
# 30 decimals, fixed beforehand by exact-sign bisection
LEHMER_TAU_30 = "1.176280818259917506544070338474"
GOLDEN_30 = "1.618033988749894848204586834366"


def poly(*cs):
    return IntPoly.from_coeffs(cs)


def times(*fs):
    """The product of the IntPolys fs, by the oracle's convolution."""
    return IntPoly.from_coeffs(reduce(pmul, (f.coeffs for f in fs), [1]))


# ----------------------------------------------------------------------
# dominant root
# ----------------------------------------------------------------------

def test_golden_ratio():
    tau, (lo, hi) = dominant_root(poly(-1, -1, 1), 30)
    oracle = bisect_root([-1, -1, 1], Fraction(1), Fraction(2), steps=150)
    assert abs(tau - oracle) < Fraction(1, 10**30)
    assert fraction_to_decimal(tau, 30) == GOLDEN_30
    assert hi - lo <= Fraction(1, 10**35)


def test_exact_integer_root():
    tau, bracket = dominant_root(poly(-2, 1), 30)
    assert tau == 2
    assert bracket == (Fraction(2), Fraction(2))


def test_lehmer_30_digits():
    tau, _ = dominant_root(LEHMER, 30)
    assert fraction_to_decimal(tau, 30) == LEHMER_TAU_30
    oracle = bisect_root(list(LEHMER.coeffs), Fraction(11, 10), Fraction(13, 10), steps=160)
    assert abs(tau - oracle) < Fraction(1, 10**30)


def test_bracket_signs_are_opposite():
    for f in (LEHMER, poly(-1, -1, 1), poly(*[-1] * 5, 1)):
        tau, (lo, hi) = dominant_root(f, 25)
        if lo == hi:
            assert f.sign_at(*lo.as_integer_ratio()) == 0
        else:
            assert f.sign_at(*lo.as_integer_ratio()) * f.sign_at(*hi.as_integer_ratio()) < 0
            assert lo <= tau <= hi


def test_no_sign_change_on_cyclotomic():
    with pytest.raises(NoSignChange):
        dominant_root(cyclotomic_poly(12), 15)


def test_reciprocity_at_working_precision():
    tau, _ = dominant_root(LEHMER, 30)
    assert abs(eval_exact(list(LEHMER.coeffs), 1 / tau)) < Fraction(1, 10**25)


def test_determinism():
    a = dominant_root(LEHMER, 30)
    b = dominant_root(LEHMER, 30)
    assert a == b
    assert fraction_to_decimal(a[0], 30) == fraction_to_decimal(b[0], 30)


def test_no_sign_change_messages_are_short():
    for f, message in [
        (poly(0, 0, -1, 1), "no sign change in (1 + 2^-20, 3] for a degree-3 polynomial of height 1"),
        # the root 1 + 10^-30 lies below 1 + 2^-20, outside the interval searched
        (
            poly(-(10**30 + 1), 10**30),
            f"no sign change in (1 + 2^-20, {10**30 + 3}] for a degree-1 polynomial"
            f" of height {10**30 + 1}",
        ),
        (poly(7), "no dominant root: a degree-0 polynomial of height 7 is constant"),
        (poly(), "no dominant root: the zero polynomial is constant"),
    ]:
        with pytest.raises(NoSignChange) as exc:
            dominant_root(f, 15)
        assert str(exc.value) == message


# Inputs that send dominant_root down each of its paths; whatever the
# path, the answer is the cell that grid bisection in Fractions finds.
ORACLE_CASES = (
    [pytest.param(LEHMER, 30, id="lehmer-30")]
    + [pytest.param(poly(*[-1] * m, 1), 1000, id=f"mbonacci{m}-1000") for m in (2, 3, 4)]
    + [
        pytest.param(
            factor_coxeter(StarTree(arms)).salem_factor, 15, id="T" + "-".join(map(str, arms)) + "-15"
        )
        for arms in list(itertools.combinations(range(2, 26), 3))[::97]
        if not StarTree(arms).excluded
    ]
    # past the ball-screen cutoff: Newton steps and cell signs are
    # decided by integer balls wherever they can be
    + [
        pytest.param(
            factor_coxeter(StarTree(arms)).salem_factor,
            digits,
            id="T" + "-".join(map(str, arms)) + f"-{digits}",
        )
        for arms, digits in (((3, 19, 21), 1000), ((2, 31, 32), 1000), ((5, 40, 1005), 30))
    ]
)

FALLBACK_CASES = [
    pytest.param(poly(-4, 2, -4, 6, 3, -1), 12, id="bracket-exit"),
    # (10^8 x - C)^3 - E: the first Newton point is floored onto C/10^8,
    # where f' = 0
    pytest.param(
        poly(
            -(125749603**3) - 828737608474799,
            3 * 10**8 * 125749603**2,
            -3 * 10**16 * 125749603,
            10**24,
        ),
        12,
        id="zero-derivative",
    ),
    # 10^40 x - C: the root sits just below a bisection endpoint and has
    # more places than any Newton point
    pytest.param(poly(-13040815594454177918036756835092100713158, 10**40), 12, id="clip"),
    # Newton lands on the root: 3/2 is on the grid, C/10^19 is not
    pytest.param(poly(-3, 2), 12, id="root-hit-on-the-grid"),
    pytest.param(poly(-13040815594454177918, 10**19), 12, id="root-hit-off-the-grid"),
    # roots about 10^-40 below and above 3/2: the last Newton point
    # lands across 3/2 from the root, in the neighbouring cell
    pytest.param(poly(-(225 * 10**38 - 1), 0, 10**40), 6, id="root-just-below-a-grid-point"),
    pytest.param(
        poly(-64 * 10**40 + 10**40 - 8, 96 * 10**40, -48 * 10**40, 8 * 10**40),
        6,
        id="root-just-above-a-grid-point",
    ),
]


def check_cell(f, digits, answer):
    """What proves dominant_root's answer without grid bisection, which
    is slow at 1000 digits and at degree 1000: the ends lie on the grid,
    1/S apart, f has opposite exact signs there, and the root that exact
    bisection from (1, height + 2] finds is within its error of the cell."""
    root, (lo, hi) = answer
    scale = 10 ** (digits + 5)
    assert (lo * scale).denominator == 1 and hi - lo == Fraction(1, scale)
    assert root == (lo + hi) / 2
    cs = list(f.coeffs)
    assert eval_sign(cs, lo) * eval_sign(cs, hi) < 0
    top = f.height() + 2
    steps = 100
    err = Fraction(top - 1, 2**steps)
    assert lo - err <= bisect_root(cs, Fraction(1), Fraction(top), steps) <= hi + err


@pytest.mark.parametrize("f, digits", ORACLE_CASES + FALLBACK_CASES)
def test_dominant_root_matches_fraction_oracle(f, digits):
    answer = dominant_root(f, digits)
    if digits >= 1000 or f.degree() >= 1000:
        check_cell(f, digits, answer)
    else:
        assert answer == decimal_cell(list(f.coeffs), digits)


@pytest.fixture
def sign_at_calls(monkeypatch):
    """Points p/q at which IntPoly.sign_at is called during the test, as
    Fractions."""
    calls = []
    sign_at = IntPoly.sign_at

    def counted(self, p, q):
        calls.append(Fraction(p, q))
        return sign_at(self, p, q)

    monkeypatch.setattr(IntPoly, "sign_at", counted)
    return calls


def force_seed(monkeypatch, seed):
    """Make every float search in dominant_root return ``seed``."""
    monkeypatch.setattr(roots, "_float_seed", lambda f, lo, hi, s_lo: seed)


def is_dyadic(x):
    return x.denominator & (x.denominator - 1) == 0


def dyadic_cell_bits(digits):
    """bits(10^(digits + 5)) + 8: dominant_root proves its cell on the
    dyadic grid of this many bits."""
    return (10 ** (digits + 5)).bit_length() + 8


def test_the_cell_check_takes_two_signs_or_three(monkeypatch, sign_at_calls):
    # the ends of the last Newton point's dyadic cell, inside its decimal cell
    _, (lo, hi) = dominant_root(LEHMER, 30)
    unit = Fraction(1, 2 ** dyadic_cell_bits(30))
    a, b = sign_at_calls[-2:]
    assert b - a == unit and (a / unit).denominator == 1 and lo <= a < b <= hi
    # the last two FALLBACK_CASES, from a start 2^-45 across 3/2 from the
    # root: f is convex near the root of `below` and concave near that of
    # `above`, so the Newton point lands across 3/2 too, and the step to it,
    # about 2^-45, tries the cell. Both ends of its dyadic cell (2^-45 wide
    # at 6 digits) have one sign, and the far end of the neighbouring cell
    # proves that one
    below, above = (case.values[0] for case in FALLBACK_CASES[-2:])
    half, tick, step = Fraction(3, 2), Fraction(1, 10**11), Fraction(1, 2**45)
    assert dyadic_cell_bits(6) == 45
    force_seed(monkeypatch, 1.5 + 2**-45)
    sign_at_calls.clear()
    assert dominant_root(below, 6)[1] == (half - tick, half)
    assert sign_at_calls[-3:] == [half, half + step, half - step]
    force_seed(monkeypatch, 1.5 - 2**-45)
    sign_at_calls.clear()
    assert dominant_root(above, 6)[1] == (half, half + tick)
    assert sign_at_calls[-3:] == [half - step, half, half + step]


def test_roots_sharing_a_cell_are_refused(monkeypatch):
    # ((10^10 x - c)^2 - 2)(3 10^10 x - 3 c' - 1): roots 2.8e-10 apart in
    # one cell of width 10^-9 and a third below it. Dyadic cells 2^-38 wide
    # (3.6e-12) separate the pair, and from a start next to either root the
    # answer is their one decimal cell, proved by the sign change across a
    # dyadic cell inside it (its own ends have one sign)
    x = poly(-15000000032, 10**10)
    linear = poly(-(3 * 15000000008 + 1), 3 * 10**10)
    f = times(times(x, x) - poly(2), linear)
    cell = (Fraction(1500000003, 10**9), Fraction(1500000004, 10**9))
    for seed in (1.50000000307, 1.50000000333):
        force_seed(monkeypatch, seed)
        assert dominant_root(f, 4) == (sum(cell) / 2, cell)
    # a pair 2.8e-13 apart, closer than 2^-38: from a start next to either
    # root no cell around it has opposite signs at its ends
    x = poly(-15000000032000, 10**13)
    f = times(times(x, x) - poly(2), linear)
    for seed in (1.5000000032 - 1.4e-13, 1.5000000032 + 1.4e-13):
        force_seed(monkeypatch, seed)
        with pytest.raises(ArithmeticError, match="roots closer together than 10\\^-9"):
            dominant_root(f, 4)


@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_a_grid_point_inside_the_dyadic_cell_takes_one_decimal_sign(sign_at_calls, side):
    # 2^(K+1) S x - (2^(K+1) n +- 1), K = dyadic_cell_bits(10): the root is
    # 2^-(K+1)/S above or below the grid point n/S, which is not dyadic, so
    # the root's dyadic cell holds n/S strictly inside, and one sign there
    # decides which of the two decimal cells holds the root
    digits = 10
    scale = 10 ** (digits + 5)
    n = scale + scale // 3
    wide = 2 ** (dyadic_cell_bits(digits) + 1)
    f = poly(-(wide * n + side), wide * scale)
    answer = dominant_root(f, digits)
    assert answer == decimal_cell(list(f.coeffs), digits)
    assert answer[1][0] == Fraction(n if side > 0 else n - 1, scale)
    assert [x for x in sign_at_calls if not is_dyadic(x)] == [Fraction(n, scale)]


def test_a_root_on_the_grid_is_found_by_its_decimal_sign(sign_at_calls):
    # 6/5 is on the decimal grid and on no dyadic one, so no Newton point
    # or dyadic sign lands on it: the one decimal sign inside its dyadic
    # cell finds f(6/5) = 0, and the answer is the point itself
    f = times(poly(-6, 5), poly(1, 1, 1))
    r = Fraction(6, 5)
    assert dominant_root(f, 10) == (r, (r, r))
    assert [x for x in sign_at_calls if not is_dyadic(x)] == [r]


def test_several_roots_above_1_give_a_proved_cell_of_one(monkeypatch):
    # outside the contract: (x^2 - 3)(x^2 - 5)(x^2 - 7) has three roots
    # above 1, and the answer is the cell of the one the path reaches. f is
    # negative at 1 + 2^-20, and the start's own sign moves its end of the
    # bracket: f(2.2) > 0 leaves (1, 2.2), which holds sqrt 3 alone, and
    # f(2.6) < 0 leaves (2.6, 107), which holds sqrt 7 alone
    factors = [poly(-3, 0, 1), poly(-5, 0, 1), poly(-7, 0, 1)]
    f = times(*factors)
    cells = [decimal_cell(list(g.coeffs), 20) for g in factors]
    assert dominant_root(f, 20) in cells
    for seed, cell in ((1.7, cells[0]), (2.2, cells[0]), (2.6, cells[2])):
        force_seed(monkeypatch, seed)
        assert dominant_root(f, 20) == cell, seed


def test_inputs_past_float_range_take_the_bisection_start():
    # 10^400 (x^2 - 2) + x: neither a coefficient nor height + 2 is a float
    tall = poly(-2 * 10**400, 1, 10**400)
    # 10^308 (x^4 - x^3 - x^2 - x - 1): every coefficient is a float, but
    # y^4 f(1/y) passes -1.8e308 on its way to its value near y = 1/2
    wide = IntPoly.from_coeffs(c * 10**308 for c in (-1, -1, -1, -1, 1))
    assert all(math.isfinite(float(c)) for c in wide.coeffs)
    lo = (2**20 + 1, 2**20)
    for f in (tall, wide):
        assert roots._float_seed(f, lo, (f.height() + 2, 1), f.sign_at(*lo)) is None
        assert dominant_root(f, 12) == decimal_cell(list(f.coeffs), 12)


@st.composite
def one_root_above_1(draw):
    """(q x - p) with p > q > 0, times factors with no root above 1:
    cyclotomic polynomials, x^2 + b x + 1 with |b| < 2, k x +- 1 and x + k."""
    q = draw(st.integers(1, 30))
    f = poly(-draw(st.integers(q + 1, 5 * q + 40)), q)
    others = st.one_of(
        st.integers(2, 40).map(cyclotomic_poly),
        st.integers(-1, 1).map(lambda b: poly(1, b, 1)),
        st.tuples(st.sampled_from([-1, 1]), st.integers(2, 9)).map(lambda t: poly(*t)),
        st.integers(1, 9).map(lambda k: poly(k, 1)),
    )
    for g in draw(st.lists(others, max_size=5)):
        f = times(f, g)
    return f


@settings(max_examples=60, deadline=None)
@given(one_root_above_1(), st.integers(5, 20))
def test_one_root_above_1_matches_the_oracle(f, digits):
    assert dominant_root(f, digits) == decimal_cell(list(f.coeffs), digits)


def test_ball_screen_settles_the_large_steps(monkeypatch):
    # T(3,31,33) at 1000 digits. Without the screen, 14 exact evaluations
    # are at or past the cutoff, four of them with q >= 10^999. With it,
    # at most one is.
    big_q, past_cutoff = [], []
    scaled_value = IntPoly.scaled_value

    def counted(self, p, q):
        big_q.append(q >= 10**999)
        past_cutoff.append(self.degree() * max(p.bit_length(), q.bit_length()) >= BALL_BITS)
        return scaled_value(self, p, q)

    monkeypatch.setattr(IntPoly, "scaled_value", counted)
    f = factor_coxeter(StarTree((3, 31, 33))).salem_factor
    check_cell(f, 1000, dominant_root(f, 1000))
    assert big_q.count(True) <= 1
    assert past_cutoff.count(True) <= 1


T_20_30_1000 = factor_coxeter(StarTree((20, 30, 1000))).salem_factor


@pytest.mark.parametrize("arms, digits", [((3, 31, 33), 1000), ((20, 30, 1000), 30)])
def test_any_valid_ball_gives_the_same_root(monkeypatch, arms, digits):
    # widen every ball by |c| / 2^k and move its centre by half that: still
    # a valid ball, but from k = 2 (Newton steps off by up to 29%) to
    # k = 1000 (nearly the real one) the path changes, and the cell must not.
    # Nor may the cost: flooring each ladder point puts it below the root,
    # where these steps fall short of it, so Newton converges linearly: 5121
    # passes at k = 2 on T(3, 31, 33), against 10 with the real balls
    f = factor_coxeter(StarTree(arms)).salem_factor
    ball_value = IntPoly.ball_value
    passes = []

    def counted(self, p, q, w):
        passes.append(w)
        return ball_value(self, p, q, w)

    monkeypatch.setattr(IntPoly, "ball_value", counted)
    expected = dominant_root(f, digits)
    check_cell(f, digits, expected)
    real = len(passes)
    for k in (2, 6, 30, 1000):
        def loose(self, p, q, w, k=k):
            c, r = counted(self, p, q, w)
            slack = abs(c) >> k
            return c + slack // 2, r + slack

        monkeypatch.setattr(IntPoly, "ball_value", loose)
        passes.clear()
        assert dominant_root(f, digits) == expected, k
        assert len(passes) <= real + 4, k


@pytest.mark.parametrize("held", [0, 1], ids=["f", "f'"])
def test_a_ball_that_holds_0_does_not_steer_newton(monkeypatch, sign_at_calls, held):
    # valid balls around f (or f') that always hold 0, centred on
    # -sign(c) (|c| + r), so the centres point Newton the wrong way: every
    # step must come from exact values (or, for f', bisect on f's ball),
    # and sign_at falls through to them too, so the run takes the same
    # signs as with the real balls
    f = factor_coxeter(StarTree((3, 31, 33))).salem_factor
    expected = dominant_root(f, 1000)
    signs = len(sign_at_calls)
    ball_value = IntPoly.ball_value

    def holding_0(self, p, q, w):
        c, r = ball_value(self, p, q, w)
        if self.degree() != f.degree() - held:
            return c, r
        return (abs(c) + r) * (-1 if c > 0 else 1), 2 * (abs(c) + r) + 1

    monkeypatch.setattr(IntPoly, "ball_value", holding_0)
    sign_at_calls.clear()
    assert dominant_root(f, 1000) == expected
    assert len(sign_at_calls) == signs


@pytest.mark.parametrize("f, digits", ORACLE_CASES + FALLBACK_CASES)
def test_the_predicted_error_only_chooses_where_to_look(monkeypatch, f, digits):
    # a margin of -10^9 bits tries the cell after every accepted Newton
    # step, and one of 200 bits only after a step from a full-width point
    # at 1000 digits, and at 30 digits and below only at the bisection's
    # exit; the exact signs at the cell's ends decide either way
    expected = dominant_root(f, digits)
    for margin in (-(10**9), 200):
        monkeypatch.setattr(roots, "_CELL_MARGIN", margin)
        assert dominant_root(f, digits) == expected, margin


@pytest.fixture
def evaluations(monkeypatch):
    """(degree, q, whether sign_at asked for it, whether it is exact) for
    every ball_value and scaled_value call at p/q during the test, and the
    points p/q of every sign_at call, as Fractions."""
    ball_value, scaled_value, sign_at = IntPoly.ball_value, IntPoly.scaled_value, IntPoly.sign_at
    signs, inside_sign, calls = [], [], []

    def tracked_sign(self, p, q):
        signs.append(Fraction(p, q))
        inside_sign.append(True)
        try:
            return sign_at(self, p, q)
        finally:
            inside_sign.pop()

    def tracked(method):
        def evaluate(self, p, q, *w):
            calls.append((self.degree(), q, bool(inside_sign), method is scaled_value))
            return method(self, p, q, *w)
        return evaluate

    monkeypatch.setattr(IntPoly, "sign_at", tracked_sign)
    monkeypatch.setattr(IntPoly, "ball_value", tracked(ball_value))
    monkeypatch.setattr(IntPoly, "scaled_value", tracked(scaled_value))
    return signs, calls


def test_newton_stays_at_half_width_at_1000_digits(evaluations):
    # T(2, 24, 25) at 1000 digits: the ladder's bit counts are
    # bits(10^1009) = 3352, 1703, 878, ..., and the step from its 1703-bit
    # point resolves enough bits to send the next point to the cell. Newton
    # evaluates f and f' at points p/2^b with b <= 3352 // 2 + 27 = 1703;
    # only the 2 or 3 signs at the ends of the dyadic cell take f at full
    # width, where the kernels shift. A ladder that doubles from the floor
    # up (..., 1318, 2582, 3352 bits) and tries the cell only after a
    # full-width step fails this, and so do signs taken at the ends of the
    # decimal cell
    f = factor_coxeter(StarTree((2, 24, 25))).salem_factor
    half = 2**1703
    signs, calls = evaluations
    signs.clear()  # factor_coxeter's own evaluations
    calls.clear()
    check_cell(f, 1000, dominant_root(f, 1000))
    # every evaluation of f and f' that sign_at did not ask for is Newton's
    newton = [(degree, q) for degree, q, signed, _ in calls if not signed]
    assert {degree for degree, _ in newton} == {f.degree(), f.degree() - 1}
    assert max(q for _, q in newton) <= half
    wide = [x for x in signs if x.denominator > half]
    assert 2 <= len(wide) <= 3 and all(map(is_dyadic, wide))


@pytest.mark.parametrize(
    "arms, digits",
    [((2, 24, 25), 1000), ((20, 30, 1000), 30), ((11, 17, 19), 15)],
    ids=["T2-24-25", "T20-30-1000", "T11-17-19"],
)
def test_newton_points_are_dyadic(evaluations, arms, digits):
    # Newton points are rounded to q = 2^b, and the float start, the
    # bisection midpoints and the bracket's ends 1 + 2^-20 and height + 2
    # are dyadic already, so every Newton evaluation, ball or exact, runs
    # the kernels' shift path; so do the cell's signs, on a dyadic grid 256
    # times finer than the decimal one, but for at most one decimal sign
    f = factor_coxeter(StarTree(arms)).salem_factor
    _, calls = evaluations
    calls.clear()  # factor_coxeter's own evaluations
    check_cell(f, digits, dominant_root(f, digits))
    newton = [q for _, q, signed, _ in calls if not signed]
    assert newton and all(q & (q - 1) == 0 for q in newton)


@pytest.mark.parametrize(
    "arms, digits, exact, steps",
    [
        ((2, 3, 7), 15, True, 1),
        ((6, 7, 8), 15, True, 1),
        ((11, 17, 19), 15, True, 1),
        ((2, 3, 7), 30, True, 2),
        ((20, 30, 1000), 30, False, 2),
    ],
    ids=["T2-3-7-15", "T6-7-8-15", "T11-17-19-15", "T2-3-7-30", "T20-30-1000-30"],
)
def test_newton_steps_from_a_float_start(evaluations, arms, digits, exact, steps):
    # the float start holds about 50 bits of the root, so the step taken
    # there (f and f') resolves about 50 bits. At 15 digits twice that
    # passes bits(10^20) + 20 = 87, and the cell is proved at the next
    # point; at 30 digits (bits(10^35) + 20 = 137) one more step is taken,
    # exact on T(2, 3, 7) and from integer balls at degree 1020
    f = factor_coxeter(StarTree(arms)).salem_factor
    _, calls = evaluations
    calls.clear()  # factor_coxeter's own evaluations
    check_cell(f, digits, dominant_root(f, digits))
    newton = [(degree, is_exact) for degree, _, signed, is_exact in calls if not signed]
    assert newton == [(f.degree(), exact), (f.degree() - 1, exact)] * steps


@pytest.mark.parametrize(
    "f, digits",
    [(LEHMER, 30), (T_20_30_1000, 30), (LEHMER, 60)],
    ids=["lehmer", "T20-30-1000", "lehmer-60"],
)
def test_bisection_alone_gives_the_same_root(monkeypatch, f, digits):
    # with f' = 0 every Newton step falls back to bisection; at 60 digits
    # the bracket (1, 3] takes 217 halvings to reach one cell
    expected = dominant_root(f, digits)
    monkeypatch.setattr(IntPoly, "derivative", lambda self: IntPoly.zero())
    assert dominant_root(f, digits) == expected


def test_a_ball_of_f_alone_moves_the_bracket(monkeypatch):
    # with f' = 0 its ball always holds 0; f's ball still gives each sign,
    # so the bisection to a 30-digit cell of T(20, 30, 1000) evaluates f
    # exactly at most once (119 times when f' forced the exact pass too)
    expected = dominant_root(T_20_30_1000, 30)
    scaled_value = IntPoly.scaled_value
    exact_f = []

    def counted(self, p, q):
        exact_f.append(self == T_20_30_1000)
        return scaled_value(self, p, q)

    monkeypatch.setattr(IntPoly, "derivative", lambda self: IntPoly.zero())
    monkeypatch.setattr(IntPoly, "scaled_value", counted)
    assert dominant_root(T_20_30_1000, 30) == expected
    assert exact_f.count(True) <= 1


def test_newton_steps_away_from_the_root_do_not_slow_bisection(monkeypatch):
    # with f' negated every Newton step heads away from the root. Were the
    # ends moved only before a bisection, such steps could wander on the
    # midpoint's side and leave the next bracket wider than half; as every
    # point moves its end at once, they leave the bracket and are refused
    expected = dominant_root(LEHMER, 60)
    derivative = IntPoly.derivative
    values = []
    for name in ("scaled_value", "ball_value"):
        method = getattr(IntPoly, name)
        monkeypatch.setattr(
            IntPoly, name, lambda self, *args, method=method: values.append(1) or method(self, *args)
        )
    counts = []
    for guide in (lambda self: IntPoly.zero(), lambda self: -derivative(self)):
        monkeypatch.setattr(IntPoly, "derivative", guide)
        values.clear()
        assert dominant_root(LEHMER, 60) == expected
        counts.append(len(values))
    bisection_alone, away = counts
    assert away <= bisection_alone + 8


FLOAT_STARTS = {
    "none": lambda lo, hi: None,
    "below-the-bracket": lambda lo, hi: 0.5,
    "far-end": lambda lo, hi: float(Fraction(*hi)),
    "mid-bracket": lambda lo, hi: float(Fraction(*lo) + Fraction(*hi)) / 2,
}


@pytest.mark.parametrize("start", list(FLOAT_STARTS))
@pytest.mark.parametrize("f", [LEHMER, T_20_30_1000], ids=["lehmer", "T20-30-1000"])
def test_floats_only_guide(monkeypatch, sign_at_calls, f, start):
    # no start, or one far from tau, gives the cell the float search gives;
    # tau is 1.18 for LEHMER and 2.00 for T(20,30,1000), whose brackets end
    # at 3 and 5
    expected = dominant_root(f, 30)
    monkeypatch.setattr(roots, "_float_seed", lambda f, lo, hi, s_lo: FLOAT_STARTS[start](lo, hi))
    sign_at_calls.clear()
    assert dominant_root(f, 30) == expected
    if start in ("far-end", "mid-bracket"):
        # the sign at 1 + 2^-20 and at most three around the cell. Without
        # the halving rule a start at 3 or 5 on T(20,30,1000) crawls down by
        # about x/deg a step, runs out of Newton steps and bisects to the
        # cell by signs: 123 of them
        assert len(sign_at_calls) <= 4


def test_the_float_start_keeps_newton_inside_the_bracket(monkeypatch, sign_at_calls):
    # T(20, 30, 1000): from the midpoint of a width-1/128 bracket, 7 of 13
    # Newton points left it and dominant_root took 45 ball passes
    passes = []
    ball_value = IntPoly.ball_value

    def counted(self, p, q, w):
        passes.append(w)
        return ball_value(self, p, q, w)

    monkeypatch.setattr(IntPoly, "ball_value", counted)
    f = T_20_30_1000
    _, (lo, hi) = dominant_root(f, 30)
    # 9 passes from the float start; every bisection point costs two more
    assert len(passes) <= 12
    # the sign at 1 + 2^-20, then only at the ends of the cell and its
    # neighbours: the leading coefficient gives the sign at h + 2
    assert sign_at_calls[0] == Fraction(2**20 + 1, 2**20)
    assert all(abs(x - lo) <= 2 * (hi - lo) for x in sign_at_calls[1:])


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(2), 4) == "2.0000"
    assert fraction_to_decimal(Fraction(1, 3), 5) == "0.33333"
    assert fraction_to_decimal(Fraction(2, 3), 5) == "0.66667"
    assert fraction_to_decimal(Fraction(-5, 4), 2) == "-1.25"
    assert fraction_to_decimal(Fraction(7), 0) == "7"


# ----------------------------------------------------------------------
# the unit-circle certificate on exact dyadic trace signs (oracles.salem_certificate)
# ----------------------------------------------------------------------

PHI_10 = poly(1, -1, 1, -1, 1)
# 511 Chebyshev points 2 cos(pi i / 512): far more than any input here has roots
DENSE = [2 * math.cos(math.pi * i / 512) for i in range(1, 512)]


def test_lehmer_unit_residual():
    assert salem_certificate(LEHMER.coeffs, tree_separators((2, 3, 7)))
    # float oracle: 8 moduli on the circle, and tau and 1/tau
    tau, _ = dominant_root(LEHMER, 20)
    moduli = root_moduli(LEHMER.coeffs)
    assert np.max(np.abs(moduli[1:-1] - 1)) < 1e-9
    assert abs(moduli[-1] - float(tau)) < 1e-9 and abs(moduli[0] * float(tau) - 1) < 1e-9


def test_quadratic_pisot_certifies_with_m_one():
    # T = t - a: the root a lies above 2 exactly when a > 2; no separator needed
    assert salem_certificate(poly(1, -3, 1).coeffs, [])
    assert salem_certificate(poly(1, -1000, 1).coeffs, [])
    assert not salem_certificate(poly(1, -2, 1).coeffs, DENSE)  # (x - 1)^2
    assert not salem_certificate(poly(1, -1, 1).coeffs, DENSE)  # Phi_6
    assert not salem_certificate(poly(1, 3, 1).coeffs, DENSE)  # roots below -1


def test_salem_factor_has_exactly_one_root_outside():
    for arms in [(2, 3, 7), (2, 4, 9), (3, 5, 8)]:
        fz = factor_coxeter(StarTree(arms))
        assert salem_certificate(fz.salem_factor.coeffs, tree_separators(arms)), arms
        moduli = root_moduli(fz.salem_factor.coeffs)
        assert int(np.sum(moduli > 1 + 1e-8)) == 1, arms


@pytest.mark.parametrize(
    "f",
    [
        # T = (t - 3)(t - 4): two roots above 2
        pytest.param(times(poly(1, -3, 1), poly(1, -4, 1)), id="two-roots-above-2"),
        # T = T_Lehmer (t^2 + 1): the roots +-i of t^2 + 1 put a pair off the circle
        pytest.param(times(LEHMER, poly(1, 0, 3, 0, 1)), id="pair-off-the-circle"),
        # the double roots of Phi_10^2 give T no sign change
        pytest.param(times(LEHMER, PHI_10, PHI_10), id="squared-cyclotomic"),
        # T = (t + 3)(t^2 - t - 1): m - 1 changes in (-2, 2), but T(2) > 0
        pytest.param(times(poly(1, 3, 1), PHI_10), id="root-below-minus-2"),
        pytest.param(poly(-1, -1, 1), id="not-reciprocal"),
        pytest.param(poly(1, 0, 1, 0, 0, 1), id="not-reciprocal-odd"),
        pytest.param(times(LEHMER, poly(1, 1)), id="reciprocal-odd-degree"),
        pytest.param(poly(2, -5, 2), id="not-monic"),
        pytest.param(IntPoly.one(), id="constant"),
        pytest.param(IntPoly.zero(), id="zero"),
    ],
)
def test_certificate_can_fail(f):
    assert not salem_certificate(f.coeffs, DENSE)


def test_certificate_fails_at_a_root_on_1():
    # (z - 1)^2 has T = t - 2, so T(2) = f(1) = 0: with no sign change to
    # find (m - 1 = 0), only the test f(1) < 0 refuses it
    assert not salem_certificate([1, -2, 1], [0.0, 1.0])


def test_certificate_drops_points_outside_the_interval():
    # T = (t - 3)(t^2 + 1) has the roots +-i, so four roots of f lie off
    # the circle; a point at 3.5, past T's root 3, would count that root
    # as the change inside (-2, 2) that m = 3 asks for
    f = IntPoly.from_coeffs(from_trace([-3, 1, -3, 1]))
    assert f == poly(1, -3, 4, -9, 4, -3, 1)
    assert not salem_certificate(f.coeffs, [3.5])


@pytest.mark.parametrize(
    "cyclotomic, point",
    [pytest.param(poly(1, -1, 1), 1.0, id="Phi_6"), pytest.param(poly(1, 1, 1), -1.0, id="Phi_3")],
)
def test_certificate_counts_no_change_at_a_trace_root(cyclotomic, point):
    # Phi_6 and Phi_3 have the trace roots t = 1 and t = -1; squared, they
    # give T a double root at the added point, where the sign 0 must not
    # count as a change on either side
    arms = (2, 4, 7)
    salem = factor_coxeter(StarTree(arms)).salem_factor
    separators = tree_separators(arms) + [point]
    assert salem_certificate(salem.coeffs, separators)
    assert not salem_certificate(times(salem, cyclotomic, cyclotomic).coeffs, separators)


def test_cyclotomic_polynomials_do_not_certify():
    # every root on the circle: T has all m roots in (-2, 2) and T(2) > 0
    for n in range(3, 60):
        assert not salem_certificate(cyclotomic_poly(n).coeffs, DENSE), n


# T = t^3 - 2 (10 t - 1)^2 has roots 0.0978 and 0.1023, within 0.0045 of
# each other, and one near 200; so this is a degree-6 Salem polynomial
CLOSE_TRACE_ROOTS = IntPoly.from_coeffs(from_trace([-2, 40, -200, 1]))


def test_certificate_separates_close_roots():
    f = CLOSE_TRACE_ROOTS
    assert f.is_reciprocal() and f.degree() == 6
    moduli = root_moduli(f.coeffs)
    assert np.max(np.abs(moduli[1:-1] - 1)) < 1e-9 and moduli[-1] > 199
    assert salem_certificate(f.coeffs, [0.1])
    assert salem_certificate(f.coeffs, [1.5, 0.1, -1.0])
    assert salem_certificate(f.coeffs, [0.1, 0.1, 2.0, -2.0, 7.0])  # repeats and ends are dropped


@pytest.mark.parametrize(
    "separators",
    [
        pytest.param([], id="none"),
        # 2 cos(pi i / 8): both close roots lie between 0.765 and 0
        pytest.param([2 * math.cos(math.pi * i / 8) for i in range(1, 8)], id="coarse"),
        pytest.param([0.11], id="above-both"),
        pytest.param([0.09], id="below-both"),
        pytest.param([0.12, 0.09], id="around-both"),
    ],
)
def test_certificate_fails_at_coarse_or_misplaced_separators(separators):
    assert not salem_certificate(CLOSE_TRACE_ROOTS.coeffs, separators)


def test_tree_separators():
    # j/a in (0, 1/2) for a = 2, 3, 7: 1/3, 1/7, 2/7, 3/7
    fractions = (Fraction(1, 3), Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))
    expected = {2 * math.cos(2 * math.pi * x) for x in fractions}
    assert set(tree_separators((2, 3, 7))) == expected
    # 1/4, 1/6, 1/3, 1/8, 3/8, 1/9, 2/9, 4/9: 2/8, 2/6 and 3/9 count once
    assert len(tree_separators((4, 6, 8, 9))) == 8
    assert tree_separators((2, 2)) == []


def test_certificate_matches_the_oracle_on_trace_polynomials():
    """Random monic T of degree 2..8 with small coefficients: the
    certificate for z^m T(z + 1/z) holds exactly when the companion
    matrix of T shows m - 1 simple real roots in (-2, 2) and one above 2.
    Inputs with roots too close to each other or to +-2 for the float
    oracle to call are skipped."""
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(400):
        m = rng.randint(2, 8)
        ts = [rng.randint(-4, 4) for _ in range(m)] + [1]
        t_roots = np.roots(ts[::-1])
        real = np.abs(t_roots.imag) < 1e-7
        inside = real & (np.abs(t_roots.real) < 2 - 1e-6)
        above = real & (t_roots.real > 2 + 1e-6)
        gaps = np.abs(t_roots[:, None] - t_roots[None, :]) + np.eye(m)
        if np.min(gaps) < 1e-4 or np.any(np.abs(np.abs(t_roots) - 2) < 1e-6):
            continue
        expected = int(np.sum(inside)) == m - 1 and int(np.sum(above)) == 1
        # midpoints between neighbouring real parts of the oracle's roots
        xs = sorted(t_roots.real)
        separators = [float(x + y) / 2 for x, y in zip(xs, xs[1:])]
        f = IntPoly.from_coeffs(from_trace(ts))
        assert salem_certificate(f.coeffs, separators) == expected, ts
        seen[expected] += 1
    assert seen[True] >= 20 and seen[False] >= 100


def scaled_trace_value(a, p, k):
    """2^(km) T(p/2^k) for T = a_0 + sum a_j D_j, summed term by term from
    d_j = 2^(kj) D_j(p/2^k): d_0 = 2, d_1 = p, d_(j+1) = p d_j - 4^k d_(j-1)."""
    m = len(a) - 1
    total, d_prev, d = a[0] << (k * m), 2, p
    for j in range(1, m + 1):
        total += a[j] * d << (k * (m - j))
        d_prev, d = d, p * d - (d_prev << (2 * k))
    return total


dyadic_in_range = st.one_of(
    st.sampled_from([(2, 0), (-2, 0), (0, 0)]),
    st.integers(0, 40).flatmap(
        lambda k: st.tuples(st.integers(-(2 << k), 2 << k), st.just(k))
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=600),
    st.lists(dyadic_in_range, min_size=1, max_size=6),
)
@example([10**6] * 600, [(2, 0), (-2, 0), (0, 0), (2**40 - 1, 39)])
def test_trace_ball_encloses_the_value(lower, points):
    """|v - 2^w T(p/2^k)| <= 2m^2 + 1 for monic T of degree m, checked
    exactly: v 2^(km) against 2^w times the scaled value; and at w = km,
    v is the scaled value 2^(km) T(p/2^k) itself."""
    a = lower + [1]
    m = len(a) - 1
    r = 2 * m * m + 1
    for w in (0, 64 + r.bit_length()):
        for (p, k), v in zip(points, trace_balls(a, points, w)):
            exact = scaled_trace_value(a, p, k)
            assert abs((v << (k * m)) - (exact << w)) <= r << (k * m), (p, k)
    for p, k in points:  # w = km, one width per point
        assert trace_balls(a, [(p, k)], k * m) == [scaled_trace_value(a, p, k)], (p, k)


def count_exact_trace_values(monkeypatch):
    """The points that ``trace_signs`` recomputes exactly: its
    ``trace_balls`` calls at w = km."""
    calls = []
    balls = oracles.trace_balls

    def counted(a, points, w):
        m = len(a) - 1
        calls.extend((p, k) for p, k in points if w == k * m)
        return balls(a, points, w)

    monkeypatch.setattr(oracles, "trace_balls", counted)
    return calls


def test_trace_signs_fall_through_where_the_ball_holds_0(monkeypatch):
    calls = count_exact_trace_values(monkeypatch)
    # T = t (t^2 - t - 1) is 0 at t = 0: the ball is exact there and
    # centred on 0, and the exact recurrence returns 0
    a = from_trace([0, -1, -1, 1])[3:]
    assert trace_signs(a, [(0, 0), (1, 0), (-1, 1)]) == [0, -1, 1]
    assert calls == [(0, 0)]
    # T = t^3 is 2^-120 at t = 2^-40, below the ball's resolution: its
    # centre is 0, and only the exact recurrence sees the sign
    a = from_trace([0, 0, 0, 1])[3:]
    assert trace_balls(a, [(1, 40)], 32 + (19).bit_length()) == [0]
    assert trace_signs(a, [(1, 40), (-1, 40)]) == [1, -1]
    assert calls[1:] == [(1, 40), (-1, 40)]


def test_trace_signs_trust_the_ball_only_past_its_radius(monkeypatch):
    # m = 3, so r = 19: the screen takes the sign of a centre only past
    # 19, and every other point falls through to the exact sign, here the
    # opposite of the centre's
    calls = count_exact_trace_values(monkeypatch)
    balls = oracles.trace_balls
    screen = 32 + (19).bit_length()
    monkeypatch.setattr(
        oracles,
        "trace_balls",
        lambda a, points, w: [19, -19, 20, -20] if w == screen else balls(a, points, w),
    )
    a = from_trace([0, -1, -1, 1])[3:]  # T = t (t^2 - t - 1): T(1) < 0 < T(-1/2)
    points = [(1, 0), (-1, 1), (1, 0), (-1, 1)]
    assert trace_signs(a, points) == [-1, 1, 1, -1]
    assert calls == [(1, 0), (-1, 1)]


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

def test_certificate_for_lehmer_tree():
    cert = certify_tree(factor_coxeter(StarTree((2, 3, 7))), digits=30)
    assert cert is not None
    assert cert.tau == LEHMER_TAU_30
    # lambda = sqrt(tau) + 1/sqrt(tau), mapped by the decimal module
    ctx = decimal.Context(prec=60)
    tau = sum(cert.bracket) / 2
    t = ctx.divide(decimal.Decimal(tau.numerator), tau.denominator)
    lam = ctx.add(ctx.sqrt(t), ctx.divide(1, ctx.sqrt(t)))
    assert cert.lam == str(lam.quantize(decimal.Decimal(10) ** -30, context=ctx))
    assert cert.lam == "2.006593618346016732650515917682"
    lo, hi = cert.lam_bracket
    assert lo < Fraction(str(lam)) < hi
    oracle = spectral_radius((2, 3, 7))
    assert abs(float(lo) - oracle) < 1e-9 and abs(float(hi) - oracle) < 1e-9


def test_certificate_none_for_cyclotomic_only():
    assert certify_tree(factor_coxeter(StarTree((2, 3, 5))), digits=15) is None


# ----------------------------------------------------------------------
# convergence sweeps
# ----------------------------------------------------------------------

def test_mbonacci_limit_value():
    recs = converge_mbonacci(3, 2, [10], digits=30)
    assert recs[0].limit_value.startswith("1.8392867552141611325518525646")


def test_mbonacci_gaps_decrease():
    recs = converge_mbonacci(2, 1, [6, 10, 14], digits=25)
    gaps = [r.gap_value for r in recs]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_mbonacci_skips_excluded():
    recs = converge_mbonacci(2, 1, [3, 10], digits=15)
    assert recs[0].note != "" and recs[0].gap_value is None
    assert recs[1].note == "" and recs[1].gap_value is not None


def test_mbonacci_number_is_the_prefix_limit():
    # the a0-bonacci polynomial and the limit of the prefix (a0) at r = 2,
    # (z - 1) times it, have the same root above 1 and the same cell
    for a0 in range(2, 9):
        mbonacci, limit = poly(*[-1] * a0, 1), limit_polynomial((a0,), 2)
        for digits in (30, 1000):
            assert dominant_root(mbonacci, digits) == dominant_root(limit, digits), (a0, digits)


def test_mbonacci_validation():
    with pytest.raises(ValueError):
        converge_mbonacci(2, 1, [2], digits=15)
    with pytest.raises(ValueError):
        converge_mbonacci(2, 0, [5], digits=15)
    with pytest.raises(ValueError):
        converge_mbonacci(1, 1, [5], digits=15)  # the limit polynomial's own check


def test_general_gaps_decrease():
    recs = converge_general((2, 3), 2, [(10,), (20,)], digits=25)
    assert recs[0].gap_value > recs[1].gap_value > 0


def test_general_r3():
    recs = converge_general((2, 4), 3, [(10, 11), (20, 21)], digits=25)
    assert recs[0].gap_value > recs[1].gap_value > 0
    assert recs[0].limit_value.startswith("2.69679718910396")


def test_general_validation():
    with pytest.raises(ValueError):
        converge_general((2, 4), 3, [(10,)], digits=15)  # wrong tail width
    with pytest.raises(ValueError):
        converge_general((2, 4), 3, [(4, 11)], digits=15)  # not increasing
    # arms are exact integers, not truncated to other trees
    with pytest.raises(TypeError):
        converge_general((2.0, 4), 3, [(10, 11)], digits=15)
    with pytest.raises(TypeError):
        converge_general((2, 4), 3, [(10.5, 11)], digits=15)


# ----------------------------------------------------------------------
# bridge between tau and the spectral radius
# ----------------------------------------------------------------------

def test_lambda_tau_bridge_samples():
    """The exact lambda enclosure lies within 1e-9 of eigvalsh, on random
    trees with 2-5 arms (repeated arms included) and on T(20, 30, 1000)."""
    rng = random.Random(6)
    trees = [(2, 3, 7), (3, 3, 5), (4, 4, 4), (2, 2, 2, 2), (20, 30, 1000)]
    trees += [tuple(rng.randint(2, 12) for _ in range(rng.randint(2, 5))) for _ in range(40)]
    certified = 0
    for arms in trees:
        rt = coxeter_polynomial(StarTree(arms))
        lam = spectral_radius(arms)
        if lam <= 2 + 1e-9:
            # Dynkin and affine trees: R_T has no root above 1
            with pytest.raises(NoSignChange):
                dominant_root(rt, 20)
            continue
        _, bracket = dominant_root(rt, 20)
        lo, hi = lambda_bracket(bracket, 20)
        assert lam - 1e-9 <= lo < hi <= lam + 1e-9, arms
        certified += 1
    assert certified >= 30


def test_lambda_bracket_rounds_outward():
    # tau = (3 + sqrt 5)/2 gives lambda = sqrt 5 exactly; a bracket of
    # rationals on either side must keep sqrt 5 strictly inside
    _, bracket = dominant_root(poly(1, -3, 1), 30)
    lo, hi = lambda_bracket(bracket, 30)
    assert lo * lo < 5 < hi * hi
    assert hi - lo <= (bracket[1] - bracket[0]) / 5 + Fraction(2, 10**35)
    # an exact tau: lambda^2 = h(4) = 25/4 exactly, so both ends are 5/2
    assert lambda_bracket((Fraction(4), Fraction(4)), 10) == (Fraction(5, 2), Fraction(5, 2))


def test_fraction_to_decimal_past_the_int_str_limit():
    # 5000 places is past Python's 4300-digit int-to-str limit
    places = 5000
    root2 = Fraction(math.isqrt(2 * 10 ** (2 * (places + 20))), 10 ** (places + 20))
    ctx = decimal.Context(prec=places + 1)
    assert fraction_to_decimal(root2, places) == str(ctx.sqrt(decimal.Decimal(2)))
    assert fraction_to_decimal(-Fraction(10**6000 - 1, 3), 0) == "-" + "3" * 6000
