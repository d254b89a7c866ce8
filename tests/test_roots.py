import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starsalem import (
    IntPoly,
    NoSignChange,
    NonConvergence,
    StarTree,
    aberth_roots,
    certify_tree,
    converge_general,
    converge_mbonacci,
    cyclotomic_poly,
    dominant_root,
    factor_coxeter,
    fraction_to_decimal,
    mbonacci_poly,
    spectral_radius,
    unit_circle_residual,
)
from starsalem.roots import _residuals_small, _resolved_digits, _round_half_even

from oracles import bisect_root, dominant_root_fraction, resolved_places

LEHMER = IntPoly.from_coeffs((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
# 30 decimals, fixed beforehand by exact-sign bisection
LEHMER_TAU_30 = "1.176280818259917506544070338474"
GOLDEN_30 = "1.618033988749894848204586834366"


def poly(*cs):
    return IntPoly.from_coeffs(cs)


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
    for f in (LEHMER, poly(-1, -1, 1), mbonacci_poly(5)):
        tau, (lo, hi) = dominant_root(f, 25)
        if lo == hi:
            assert f.sign_at(lo) == 0
        else:
            assert f.sign_at(lo) * f.sign_at(hi) < 0
            assert lo <= tau <= hi


def test_no_sign_change_on_cyclotomic():
    with pytest.raises(NoSignChange):
        dominant_root(cyclotomic_poly(12), 15)


def test_reciprocity_at_working_precision():
    tau, _ = dominant_root(LEHMER, 30)
    assert abs(LEHMER.eval_int(1 / tau)) < Fraction(1, 10**25)


def test_determinism():
    a = dominant_root(LEHMER, 30)
    b = dominant_root(LEHMER, 30)
    assert a == b
    assert fraction_to_decimal(a[0], 30) == fraction_to_decimal(b[0], 30)


def test_no_sign_change_messages_are_short():
    for f, message in [
        (poly(0, 0, -1, 1), "no sign change in (1, 3] for a degree-3 polynomial of height 1"),
        (poly(7), "no dominant root: a degree-0 polynomial of height 7 is constant"),
        (poly(), "no dominant root: the zero polynomial is constant"),
    ]:
        with pytest.raises(NoSignChange) as exc:
            dominant_root(f, 15)
        assert str(exc.value) == message


# The Newton loop works on scaled integers; the oracle runs the same
# iterates in Fractions, so (root, bracket) must agree exactly.
ORACLE_CASES = (
    [pytest.param(LEHMER, 30, id="lehmer-30")]
    + [pytest.param(mbonacci_poly(m), 1000, id=f"mbonacci{m}-1000") for m in (2, 3, 4)]
    + [
        pytest.param(
            factor_coxeter(StarTree(arms)).salem_factor, 15, id="T" + "-".join(map(str, arms)) + "-15"
        )
        for arms in list(itertools.combinations(range(2, 26), 3))[::97]
        if not StarTree(arms).excluded
    ]
)


@pytest.fixture
def sign_at_calls(monkeypatch):
    """Points at which IntPoly.sign_at is called during the test."""
    calls = []
    sign_at = IntPoly.sign_at

    def counted(self, v):
        calls.append(v)
        return sign_at(self, v)

    monkeypatch.setattr(IntPoly, "sign_at", counted)
    return calls


@pytest.mark.parametrize("f, digits", ORACLE_CASES)
def test_dominant_root_matches_fraction_oracle(f, digits, sign_at_calls):
    trace = []
    assert dominant_root(f, digits) == dominant_root_fraction(list(f.coeffs), digits, trace)
    assert len(sign_at_calls) == trace.count("sign")


@pytest.mark.parametrize(
    "coeffs, event",
    [
        ((-4, 2, -4, 6, 3, -1), "newton left the bracket"),
        # (10^8 x - C)^3 - E: the first Newton point rounds onto C/10^8, where f' = 0
        (
            (
                -(125749603**3) - 828737608474798,
                3 * 10**8 * 125749603**2,
                -3 * 10**16 * 125749603,
                10**24,
            ),
            "zero derivative",
        ),
        # 10^40 x - C: the root sits just below a bisection endpoint, so
        # the rounded Newton point falls outside (lo, hi); the unrounded
        # one is the root itself
        ((-13040815594454177918036756835092100713158, 10**40), "clip left the bracket"),
        ((-13040815594454177918036756835092100713158, 10**40), "newton hit a root"),
    ],
)
def test_dominant_root_fallbacks_match_fraction_oracle(coeffs, event, sign_at_calls):
    trace = []
    expected = dominant_root_fraction(list(coeffs), 12, trace)
    assert event in trace
    assert dominant_root(poly(*coeffs), 12) == expected
    assert len(sign_at_calls) == trace.count("sign")


WIDTHS = st.one_of(
    st.builds(
        lambda a, b, e: Fraction(a, b * 10**e),
        st.integers(1, 10**60),
        st.integers(1, 10**60),
        st.integers(0, 300),
    ),
    # just above a power of two, where the bit-length estimate is least tight
    st.builds(lambda n, j: Fraction(2**n - 1, 2 ** (n + j)), st.integers(1, 80), st.integers(0, 900)),
    # at and next to a power of ten, where the count steps
    st.builds(lambda k, d: Fraction(10**40 + d, 10 ** (40 + k)), st.integers(0, 900), st.integers(-1, 1)),
)


@given(WIDTHS)
@example(Fraction(1))
@example(Fraction(10**60))
@example(Fraction(1, 10**300))
def test_resolved_digits_matches_places_loop(width):
    assert _resolved_digits(width.numerator, width.denominator) == resolved_places(width)


@settings(max_examples=5, deadline=None)
@given(st.integers(1, 10**30), st.integers(1, 10**30), st.integers(9_990, 10_010))
def test_resolved_digits_keeps_the_cap(a, b, e):
    width = Fraction(a, b * 10**e)
    assert _resolved_digits(width.numerator, width.denominator) == resolved_places(width)


@given(st.integers(-(10**40), 10**40), st.integers(1, 10**20))
@example(5, 2)
@example(7, 2)
@example(-5, 2)
@example(-7, 2)
def test_round_half_even_matches_fraction_round(num, den):
    assert _round_half_even(num, den) == round(Fraction(num, den))


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(2), 4) == "2.0000"
    assert fraction_to_decimal(Fraction(1, 3), 5) == "0.33333"
    assert fraction_to_decimal(Fraction(2, 3), 5) == "0.66667"
    assert fraction_to_decimal(Fraction(-5, 4), 2) == "-1.25"
    assert fraction_to_decimal(Fraction(7), 0) == "7"


# ----------------------------------------------------------------------
# Aberth iteration and the unit-circle residual
# ----------------------------------------------------------------------

def test_aberth_against_companion_matrix():
    for f in (LEHMER, mbonacci_poly(6), poly(-1, 0, 0, 0, 1) * poly(-3, 1)):
        mine = aberth_roots(f)
        ref = np.roots([float(c) for c in reversed(f.coeffs)])
        # conjugate pairs can swap under sorting; match each root to its
        # nearest reference root instead
        for z in mine:
            assert np.min(np.abs(ref - z)) < 1e-8


def test_aberth_nonconvergence_message_is_short():
    f = mbonacci_poly(1000)
    with pytest.raises(NonConvergence) as exc:
        aberth_roots(f, max_iter=1)
    assert len(str(exc.value)) < 200
    assert "degree-1000" in str(exc.value)


def test_residual_guard_can_fail_past_double_range():
    # x^1099 (x - 2): max |z|^deg = 2^1100 overflows a double
    f = IntPoly.monomial(1099) * poly(-2, 1)
    roots = np.array([0.0] * 1099 + [2.0], dtype=complex)
    assert _residuals_small(f, roots)
    assert not _residuals_small(f, roots + 1e-6)
    z = aberth_roots(LEHMER)
    assert _residuals_small(LEHMER, z)
    assert not _residuals_small(LEHMER, z + 1e-6)


def test_lehmer_unit_residual():
    tau, _ = dominant_root(LEHMER, 20)
    assert unit_circle_residual(LEHMER, tau) < 1e-9


def test_quadratic_residual_is_zero_by_convention():
    f = poly(1, -3, 1)
    tau, _ = dominant_root(f, 20)
    assert unit_circle_residual(f, tau) == 0.0


def test_salem_factor_has_exactly_one_root_outside():
    for arms in [(2, 3, 7), (2, 4, 9), (3, 5, 8)]:
        fz = factor_coxeter(StarTree(arms))
        roots = aberth_roots(fz.salem_factor)
        assert int(np.sum(np.abs(roots) > 1 + 1e-8)) == 1, arms


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

def test_certificate_for_lehmer_tree():
    cert = certify_tree(StarTree((2, 3, 7)), digits=30)
    assert cert is not None
    assert cert.tau == LEHMER_TAU_30
    assert cert.classification_echo == "Salem"
    assert cert.unit_residual < 1e-9
    t = float(cert.tau_value)
    assert abs(math.sqrt(t) + 1 / math.sqrt(t) - cert.lam) < 1e-6


def test_certificate_none_for_cyclotomic_only():
    assert certify_tree(StarTree((2, 3, 5)), digits=15) is None


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


def test_mbonacci_validation():
    with pytest.raises(ValueError):
        converge_mbonacci(2, 1, [2], digits=15)
    with pytest.raises(ValueError):
        converge_mbonacci(2, 0, [5], digits=15)


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


# ----------------------------------------------------------------------
# bridge between tau and the spectral radius
# ----------------------------------------------------------------------

def test_lambda_tau_bridge_samples():
    for arms in [(2, 3, 7), (2, 4, 5), (3, 4, 8), (4, 7, 9)]:
        tree = StarTree(arms)
        fz = factor_coxeter(tree)
        tau, _ = dominant_root(fz.salem_factor, 20)
        lam = spectral_radius(tree)
        t = float(tau)
        assert abs(math.sqrt(t) + 1 / math.sqrt(t) - lam) <= 1e-6, arms
