import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import starsalem
from starsalem import IntPoly, NotDivisible, StarTree, p_polynomial
from starsalem.intpoly import BALL_BITS

from oracles import ball_value, eval_exact, eval_sign, pmul

ONE = IntPoly.one()


def poly(*cs):
    return IntPoly.from_coeffs(cs)


def times(*fs):
    """The product of the IntPolys fs, by the oracle's convolution."""
    return IntPoly.from_coeffs(reduce(pmul, (f.coeffs for f in fs), [1]))


polys = st.builds(
    IntPoly.from_coeffs,
    st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=9),
)
nonzero_polys = polys.filter(lambda f: not f.is_zero())


# ----------------------------------------------------------------------
# the package's public names
# ----------------------------------------------------------------------

def test_public_names_resolve():
    # every name in __all__ is bound in the package, so ``import *`` runs
    assert [name for name in starsalem.__all__ if not hasattr(starsalem, name)] == []
    namespace = {}
    exec("from starsalem import *", namespace)
    assert set(starsalem.__all__) <= set(namespace)


# ----------------------------------------------------------------------
# construction and basic queries
# ----------------------------------------------------------------------

def test_coefficients_are_exact_integers():
    # ints, bools and numpy integers are integers; a float or a Fraction is
    # refused, not truncated to another polynomial
    f = IntPoly.from_coeffs([np.int64(-2), True, np.int32(1)])
    assert f == poly(-2, 1, 1) and all(type(c) is int for c in f.coeffs)
    assert IntPoly.monomial(2, np.int64(3)) == poly(0, 0, 3)
    for bad in ([1.5, -0.5, 1], [Fraction(1), 2], [np.float64(2.0)]):
        with pytest.raises(TypeError):
            IntPoly.from_coeffs(bad)
    with pytest.raises(TypeError):
        IntPoly.monomial(2, 1.0)


def test_negative_exponents_are_refused():
    for thunk in (lambda: IntPoly.monomial(-3), lambda: poly(0, 0, 0, 1).shift(-2)):
        with pytest.raises(ValueError, match="negative exponent"):
            thunk()


def test_trailing_zeros_trimmed():
    assert poly(1, 2, 0, 0).coeffs == (1, 2)
    assert poly(0, 0).is_zero()


def test_zero_degree_is_sentinel():
    assert IntPoly.zero().degree() == -1
    assert poly(5).degree() == 0


def test_height_length_reciprocal():
    f = poly(1, 0, -2, 1)  # x^3 - 2x^2 + 1
    assert f.height() == 2
    assert poly(1, -3, 1).is_reciprocal()
    assert not poly(-1, -1, 1).is_reciprocal()


# ----------------------------------------------------------------------
# arithmetic examples
# ----------------------------------------------------------------------

def test_add_examples():
    assert poly(1, 1) + poly(-1, 1) == poly(0, 2)
    f = poly(3, -1, 4)
    assert f + IntPoly.zero() == f
    assert poly(-1, 0, 1) + poly(1, 0, -1) == IntPoly.zero()


def test_exact_div_examples():
    assert poly(-1, 0, 1).exact_div(poly(-1, 1)) == poly(1, 1)
    f = poly(7, -3, 2)
    assert f.exact_div(f) == ONE
    with pytest.raises(NotDivisible):
        poly(1, 0, 1).exact_div(poly(-1, 1))


def test_not_divisible_names_degree_and_height():
    f = IntPoly.from_coeffs([(-1) ** i * (i % 97 + 1) for i in range(1001)])
    with pytest.raises(NotDivisible) as info:
        f.exact_div(poly(1, 1, 1))
    message = str(info.value)
    assert message == (
        "a degree-1000 polynomial of height 97 is not divisible by "
        "a degree-2 polynomial of height 1"
    )
    assert len(message) < 200
    assert IntPoly.zero().describe() == "the zero polynomial"


def test_divides_examples():
    assert poly(1, 1).divides(poly(-1, 0, 1))
    assert not poly(1, 1).divides(poly(1, 0, 1))


def test_divides_z_minus_one_divides_p_for_any_tree():
    zm1 = poly(-1, 1)
    for arms in [(2, 3, 7), (2, 2), (3, 5, 8), (2, 4, 6, 9), (5, 5, 5)]:
        assert zm1.divides(p_polynomial(StarTree(arms)))


def test_eval_examples():
    f = poly(-1, -1, 1)  # x^2 - x - 1
    assert f.eval_int(2) == 1
    assert poly(3, 9, -2).eval_int(0) == 3
    assert f.scaled_value(1, 2) == (-5, 4)  # 4 f(1/2)


def test_sign_at_matches_eval():
    f = poly(-3, 0, 1)
    for v in (Fraction(1), Fraction(17, 10), Fraction(2), Fraction(-9, 4)):
        assert f.sign_at(*v.as_integer_ratio()) == eval_sign(list(f.coeffs), v)
    # a dyadic point p/2^k, passed unreduced as (p 2^j, 2^(k + j)), has the
    # sign of p/2^k: sqrt(3) lies between 443/256 and 887/512
    for p, k in ((443, 8), (887, 9), (-887, 9), (7, 2), (0, 0)):
        sign = eval_sign(list(f.coeffs), Fraction(p, 2**k))
        assert sign != 0
        for j in (0, 1, 5, 64):
            assert f.sign_at(p << j, 1 << (k + j)) == sign, (p, k, j)


# ----------------------------------------------------------------------
# integer balls
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    degree=st.sampled_from([0, 1, 5, 40, 350]),
    seed=st.integers(0, 2**32),
    height=st.sampled_from([1, 10**3, 10**30]),
    p=st.integers(-(2**90), 2**90),
    q=st.integers(1, 2**90),
    common=st.integers(1, 10**6),
    w=st.integers(0, 400),
)
@example(degree=350, seed=1, height=1, p=-(3**50), q=2**78, common=6, w=0)
@example(degree=40, seed=2, height=10**30, p=10**25 + 1, q=10**24, common=1, w=333)
def test_ball_value_encloses_the_scaled_value(degree, seed, height, p, q, common, w):
    # degrees on both sides of the screen cutoff, either sign of p, and
    # points p/q that share the factor ``common`` (not in lowest terms)
    rng = random.Random(seed)
    cs = [rng.randint(-height, height) for _ in range(degree)] + [rng.choice((-height, height))]
    c, r = IntPoly.from_coeffs(cs).ball_value(p * common, q * common, w)
    assert r >= 0
    assert abs(c - eval_exact(cs, Fraction(p, q)) * 2**w) <= r


@settings(max_examples=60, deadline=None)
@given(
    degree=st.sampled_from([0, 1, 40, 350]),
    seed=st.integers(0, 2**32),
    k=st.integers(0, 400),
    p=st.integers(-(2**402), 2**402),
    w=st.integers(0, 400),
)
@example(degree=1, seed=0, k=1, p=-3, w=0)
@example(degree=40, seed=1, k=80, p=-(2**81 + 1), w=64)
def test_power_of_two_denominators_give_the_general_values(degree, seed, k, p, w):
    # at q = 2^k both kernels shift instead of dividing or multiplying by
    # powers of q; for odd negative p the shift must floor as // does
    rng = random.Random(seed)
    cs = [rng.randint(-(10**30), 10**30) for _ in range(degree)] + [rng.choice((-1, 1))]
    f = IntPoly.from_coeffs(cs)
    assert f.ball_value(p, 2**k, w) == ball_value(cs, p, 2**k, w)
    scale = 2 ** (k * degree)
    assert f.scaled_value(p, 2**k) == (eval_exact(cs, Fraction(p, 2**k)) * scale, scale)


def test_ball_value_examples():
    assert IntPoly.zero().ball_value(3, 7, 10) == (0, 0)
    assert poly(5).ball_value(-3, 7, 4) == (80, 0)  # a constant is exact
    # x + 1 at -1/3 with w = 3: floor(-8/3) + 8 = 5, against 16/3
    assert poly(1, 1).ball_value(-1, 3, 3) == (5, 1)


# the root C/10^40 of the linear factor of a polynomial past the cutoff;
# the cofactor 3 - x^300 is negative there
ROOT_C = 13040815594454177918036756835092100713157
SCREENED = times(poly(-ROOT_C, 10**40), poly(*([3] + [0] * 299 + [-1])))


def test_sign_at_past_the_cutoff(monkeypatch):
    exact_calls = []
    ball_calls = []
    scaled_value = IntPoly.scaled_value
    ball_value = IntPoly.ball_value

    def counted(self, p, q):
        exact_calls.append(q)
        return scaled_value(self, p, q)

    def counted_ball(self, p, q, w):
        ball_calls.append(w)
        return ball_value(self, p, q, w)

    monkeypatch.setattr(IntPoly, "scaled_value", counted)
    monkeypatch.setattr(IntPoly, "ball_value", counted_ball)
    root = Fraction(ROOT_C, 10**40)
    assert SCREENED.degree() * root.denominator.bit_length() >= BALL_BITS
    # at the root the ball is centred exactly on 0: the exact evaluation
    # decides
    assert SCREENED.sign_at(ROOT_C, 10**40) == 0
    assert len(exact_calls) == 1
    assert ball_calls == [root.denominator.bit_length() + 64]
    for offset, sign in ((Fraction(-1, 10**80), 1), (Fraction(1, 10**80), -1)):
        x = root + offset
        assert SCREENED.sign_at(*x.as_integer_ratio()) == sign
        assert eval_sign(list(SCREENED.coeffs), x) == sign
    assert len(exact_calls) == 1  # the ball decided both
    # the dyadic points p/2^200 either side of the root, passed unreduced as
    # (p 2^j, 2^(200 + j)), have the signs of p/2^200; the ball decides each
    u = ROOT_C * 2**200 // 10**40
    for p, sign in ((u, 1), (u + 1, -1)):
        assert eval_sign(list(SCREENED.coeffs), Fraction(p, 2**200)) == sign
        for j in (0, 1, 9, 300):
            ball_calls.clear()
            assert SCREENED.sign_at(p << j, 1 << (200 + j)) == sign, (p, j)
            assert ball_calls == [200 + j + 1 + 64]
    assert len(exact_calls) == 1
    # (10^40 x - C)^101 is about 10^-4040 at these points, too small for
    # the one ball tried at each, so the exact evaluation decides
    tiny = times(*[poly(-ROOT_C, 10**40)] * 101)
    ball_calls.clear()
    for offset, sign in ((Fraction(-1, 10**80), -1), (Fraction(7, 10**75), 1)):
        x = root + offset
        assert tiny.sign_at(*x.as_integer_ratio()) == sign == eval_sign(list(tiny.coeffs), x)
    assert ball_calls == [330, 314]  # bits(10^80) + 64, bits(10^75) + 64
    assert len(exact_calls) == 3


def test_sign_at_trusts_the_ball_only_past_its_radius(monkeypatch):
    # (2^200 x - 2^200 - 1) x^49 is 0 at 1 + 2^-200, and its exact
    # accumulator there, 50 * 201 bits, is past the cutoff and 4w, so one
    # ball is tried. The balls (r, r) and (-r, r), r = 19, hold 0, the
    # value, and prove no sign: only the exact evaluation may decide
    f = poly(-(2**200) - 1, 2**200).shift(49)
    p, q = 2**200 + 1, 2**200
    assert f.degree() * p.bit_length() >= BALL_BITS
    assert eval_sign(list(f.coeffs), Fraction(p, q)) == 0
    tried = []
    for centre in (1, -1):
        def ball(self, p, q, w, centre=centre):
            tried.append(w)
            return centre * 19, 19

        monkeypatch.setattr(IntPoly, "ball_value", ball)
        assert f.sign_at(p, q) == 0, centre
    assert tried == [201 + 64] * 2


def test_derivative_examples():
    assert poly(0, 0, 0, 1).derivative() == poly(0, 0, 3)
    assert poly(4, -2, 7).derivative() == poly(-2, 14)
    assert poly(1, 0, -2, 1).derivative().derivative() == poly(-4, 6)
    f = poly(1, 1)
    for _ in range(5):
        f = f.derivative()
    assert f == IntPoly.zero()
    assert poly(5).derivative() == IntPoly.zero() == IntPoly.zero().derivative()


def test_power_and_shift():
    # shift(k) is the product with the power x^k
    assert poly(1, 2).shift(2) == poly(0, 0, 1, 2) == times(poly(1, 2), IntPoly.monomial(2))


def test_rendering():
    f = poly(1, 1, 0, -1, 0, 1)
    assert f.to_text() == "x^5 - x^3 + x + 1"
    assert f.json_coeffs() == ["1", "1", "0", "-1", "0", "1"]
    assert IntPoly.zero().to_text() == "0"
    assert poly(-2).to_text() == "-2"


# ----------------------------------------------------------------------
# algebraic laws (property-based)
# ----------------------------------------------------------------------

@given(polys, polys)
def test_add_commutative(f, g):
    assert f + g == g + f


@given(polys, polys, polys)
def test_add_associative(f, g, h):
    assert (f + g) + h == f + (g + h)


@given(polys, polys, polys)
def test_distributive(f, g, h):
    assert times(f, g + h) == times(f, g) + times(f, h)


@given(polys, nonzero_polys)
def test_exact_div_round_trip(f, g):
    assert times(f, g).exact_div(g) == f


@given(polys, polys)
def test_height_subadditive(f, g):
    assert (f + g).height() <= f.height() + g.height()


@given(polys, nonzero_polys)
def test_divides_iff_exact_div_succeeds(f, g):
    try:
        g_divides = True
        f.exact_div(g)
    except NotDivisible:
        g_divides = False
    assert g.divides(f) == g_divides

