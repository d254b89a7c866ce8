import math
from fractions import Fraction

import numpy as np
import pytest

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

from oracles import bisect_root

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
