import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from starsalem import (
    ArityError,
    IntPoly,
    InternalInconsistency,
    OrderError,
    StarTree,
    certify_tree,
    characteristic_polynomial,
    coxeter_polynomial,
    factor_coxeter,
    limit_polynomial,
    p_polynomial,
    qrs_blocks,
)

from starsalem.coxeter import _chi_value, _slot_bits
from starsalem.intpoly import taylor_shift

from oracles import adjacency, coxeter, from_trace, p_cleared, pmul, spectral_radius

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
P_237 = (-1, 2, 0, -1, -1, 1, 0, 0, -1, 1, 1, 0, -2, 1)


def poly(*cs):
    return IntPoly.from_coeffs(cs)


def times(*fs):
    """The product of the IntPolys fs, by the oracle's convolution."""
    return IntPoly.from_coeffs(reduce(pmul, (f.coeffs for f in fs), [1]))


# ----------------------------------------------------------------------
# StarTree
# ----------------------------------------------------------------------

def test_tree_validation():
    with pytest.raises(ValueError):
        StarTree((3,))
    with pytest.raises(ValueError):
        StarTree((1, 2, 3))


def test_tree_arms_are_exact_integers():
    # numpy integers are integers; a float is refused, not truncated to
    # another tree
    arms = StarTree((np.int64(7), np.int32(3), 2)).arms
    assert arms == (2, 3, 7) and all(type(a) is int for a in arms)
    with pytest.raises(TypeError):
        StarTree((2.9, 3, 7.5))
    with pytest.raises(TypeError):
        StarTree((2, 3, Fraction(7)))


def test_tree_flags():
    t = StarTree((2, 3, 7))
    assert t.r == 2 and t.strictly_ordered and not t.excluded
    assert t.vertex_count == 10
    assert StarTree((2, 3, 4)).excluded
    assert StarTree((2, 3, 5)).excluded
    assert StarTree((2, 3, 6)).excluded
    assert not StarTree((2, 3, 4, 5)).excluded  # exclusion is a three-arm notion
    assert not StarTree((3, 3, 5)).strictly_ordered


def test_adjacency_shape():
    a = adjacency((2, 3))
    assert a.shape == (4, 4)
    assert a.sum() == 2 * 3  # path on 4 vertices has 3 edges
    assert (a == a.T).all()
    assert characteristic_polynomial(StarTree((2, 3))).degree() == StarTree((2, 3)).vertex_count


def test_arms_are_sorted():
    assert StarTree((7, 3, 2)) == StarTree((2, 3, 7))
    assert StarTree((7, 3, 2)).arms == (2, 3, 7)
    assert StarTree((5, 3, 3)).arms == (3, 3, 5)
    assert not StarTree((5, 3, 3)).strictly_ordered
    assert StarTree((4, 3, 2)).excluded
    with pytest.raises(ValueError, match=r"\(5, 1, 3\)"):
        StarTree((5, 1, 3))  # the message shows the arms as given


# ----------------------------------------------------------------------
# P and R_T
# ----------------------------------------------------------------------

def test_p_polynomial_frozen_vector():
    # expansion fixed beforehand with an independent CAS
    assert p_polynomial(StarTree((2, 3, 7))).coeffs == P_237


def test_p_polynomial_against_naive_expansion():
    rng = random.Random(11)
    for _ in range(30):
        r = rng.randint(1, 4)
        arms = tuple(rng.randint(2, 9) for _ in range(r + 1))
        assert list(p_polynomial(StarTree(arms)).coeffs) == p_cleared(list(arms))


def test_p_degree_and_height_three_arms():
    rng = random.Random(5)
    for _ in range(60):
        a0 = rng.randint(2, 15)
        a1 = rng.randint(a0 + 1, a0 + 10)
        a2 = rng.randint(a1 + 1, a1 + 15)
        p = p_polynomial(StarTree((a0, a1, a2)))
        assert p.degree() == a0 + a1 + a2 + 1
        assert p.height() == 2


def test_coxeter_lehmer():
    assert coxeter_polynomial(StarTree((2, 3, 7))).coeffs == LEHMER


def test_coxeter_excluded_triple_is_degree_seven():
    rt = coxeter_polynomial(StarTree((2, 3, 4)))
    assert rt.degree() == 7


def test_coxeter_against_naive_oracle():
    rng = random.Random(23)
    cases = [(5, 40, 1005)]
    for _ in range(30):
        r = rng.randint(1, 6)
        cases.append(tuple(rng.randint(2, 8) for _ in range(r + 1)))
    for arms in cases:
        assert list(coxeter_polynomial(StarTree(arms)).coeffs) == coxeter(sorted(arms)), arms


def test_clearing_identity_and_degree():
    rng = random.Random(3)
    zm1 = poly(-1, 1)
    for _ in range(25):
        r = rng.randint(1, 5)
        arms = tuple(rng.randint(2, 9) for _ in range(r + 1))
        tree = StarTree(arms)
        rt = coxeter_polynomial(tree)
        assert times(rt, *[zm1] * (tree.r + 1)) == p_polynomial(tree)
        assert rt.degree() == tree.vertex_count


# ----------------------------------------------------------------------
# Q / R / S blocks
# ----------------------------------------------------------------------

def test_blocks_2_3_7():
    b = qrs_blocks(StarTree((2, 3, 7)))
    assert b.q == poly(1, 0, -2, 1)       # z^3 - 2z^2 + 1
    assert b.r == poly(-1, 1, 0, 0, -1, 1)  # z^5 - z^4 + z - 1
    assert b.s == poly(-1, 2, 0, -1)      # -z^3 + 2z - 1
    assert b.shifts == (10, 4)


def test_blocks_max_degree():
    b = qrs_blocks(StarTree((3, 5, 8)))
    assert max(b.q.degree(), b.r.degree(), b.s.degree()) == 8 - 5 + 3 - 1


def test_blocks_vanish_at_one():
    rng = random.Random(7)
    for _ in range(30):
        a0 = rng.randint(2, 12)
        a1 = rng.randint(a0 + 1, a0 + 8)
        a2 = rng.randint(a1 + 1, a1 + 12)
        b = qrs_blocks(StarTree((a0, a1, a2)))
        assert b.q.eval_int(1) == 0
        assert b.r.eval_int(1) == 0
        assert b.s.eval_int(1) == 0


def test_block_identity_random_grid():
    rng = random.Random(42)
    seen = set()
    while len(seen) < 200:
        a0 = rng.randint(2, 57)
        a1 = rng.randint(a0 + 1, 58)
        a2 = rng.randint(a1 + 1, 60)
        seen.add((a0, a1, a2))
    for arms in seen:
        tree = StarTree(arms)
        assert qrs_blocks(tree).reconstruct() == p_polynomial(tree)


def test_blocks_arity_and_order_errors():
    with pytest.raises(ArityError):
        qrs_blocks(StarTree((2, 3)))
    with pytest.raises(OrderError):
        qrs_blocks(StarTree((3, 3, 5)))


def test_block_exponent_collision_case():
    # a2 - a1 == a0 - 1 makes two R-block terms cancel
    b = qrs_blocks(StarTree((2, 3, 4)))
    assert b.r == poly(-1, 0, 1)


# ----------------------------------------------------------------------
# limit polynomial
# ----------------------------------------------------------------------

def test_limit_polynomial_frozen_vectors():
    # both fixed beforehand with an independent CAS
    assert limit_polynomial((2, 3), 2).coeffs == (0, -1, 1, 1, 0, -2, 1)
    assert limit_polynomial((2, 4), 3).coeffs == (-1, -1, 2, 0, 2, 0, -3, 1)


def test_limit_single_arm_equals_q_block():
    # (z - 1) times the a0-bonacci polynomial z^a0 - z^(a0-1) - ... - z - 1
    for a0 in range(2, 31):
        expect = times(poly(-1, 1), poly(*[-1] * a0, 1))
        assert limit_polynomial((a0,), 2) == expect


def test_limit_degree():
    for prefix, r in [((2, 3), 2), ((2, 4), 3), ((3, 4, 6), 5), ((2,), 4)]:
        q = limit_polynomial(prefix, r)
        assert q.degree() == 1 + sum(prefix)


def test_limit_leading_block_of_p():
    # P minus the shifted limit polynomial has degree a0 + a1,
    # independent of the growing arm
    for (a0, a1) in [(2, 3), (3, 5), (2, 4)]:
        q = limit_polynomial((a0, a1), 2)
        for a2 in (8, 15, 30):
            if a2 <= a1:
                continue
            p = p_polynomial(StarTree((a0, a1, a2)))
            diff = p - q.shift(a2)
            assert diff.degree() == a0 + a1, (a0, a1, a2)


def test_limit_coefficient_facts():
    # verified against CAS expansion: with A = sum(prefix) and s the
    # multiplicity of 0, CT = Q / z^s satisfies
    #   k == r - 2:  [z^1] CT = k * (-1)^k   and  [z^A] CT = -r
    #   k == r - 1:  s == 1                  and  [z^(A-1)] CT = -r
    for prefix, r in [((2,), 2), ((2, 4), 3), ((3, 4), 3), ((2, 3, 4), 4), ((3, 4, 5), 4)]:
        k = len(prefix) - 1
        assert k == r - 2
        q = limit_polynomial(prefix, r)
        a = sum(prefix)
        assert q.coeffs[0] != 0  # s = 0
        assert q.coeffs[1] == k * (-1) ** k
        assert q.coeffs[a] == -r
    for prefix, r in [((2, 3), 2), ((3, 5), 2), ((2, 3, 7), 3)]:
        k = len(prefix) - 1
        assert k == r - 1
        q = limit_polynomial(prefix, r)
        a = sum(prefix)
        assert q.coeffs[0] == 0 and q.coeffs[1] != 0  # s = 1
        ct = IntPoly.from_coeffs(q.coeffs[1:])
        assert ct.coeffs[a - 1] == -r


def test_limit_validation():
    with pytest.raises(ValueError):
        limit_polynomial((2, 3), 1)  # r must exceed k
    with pytest.raises(OrderError):
        limit_polynomial((3, 3), 3)
    with pytest.raises(ValueError):
        limit_polynomial((1, 3), 3)
    with pytest.raises(TypeError):
        limit_polynomial((2.2, 4.9), 3)  # not the prefix (2, 4)


# ----------------------------------------------------------------------
# m-bonacci
# ----------------------------------------------------------------------

def test_mbonacci_times_z_minus_one_is_q_block():
    for a0 in range(2, 31):
        q = qrs_blocks(StarTree((a0, a0 + 1, a0 + 2))).q
        assert times(poly(-1, 1), poly(*[-1] * a0, 1)) == q


# ----------------------------------------------------------------------
# spectral radius: the exact chi_T against the float eigensolver oracle
# ----------------------------------------------------------------------

def test_spectral_radius_path_on_three_vertices():
    assert characteristic_polynomial(StarTree((2, 2))) == poly(0, -2, 0, 1)  # x^3 - 2x
    assert abs(spectral_radius((2, 2)) - math.sqrt(2)) < 1e-10


def test_spectral_radius_affine_boundary():
    # T(2, 3, 6) is the affine E8 diagram: lambda = 2 exactly
    assert characteristic_polynomial(StarTree((2, 3, 6))).eval_int(2) == 0
    assert abs(spectral_radius((2, 3, 6)) - 2.0) < 1e-10


def test_spectral_radius_lehmer_tree():
    cert = certify_tree(factor_coxeter(StarTree((2, 3, 7))), digits=30)
    lo, hi = cert.lam_bracket
    assert 2 < lo < hi and hi - lo < Fraction(1, 10**34)
    chi = characteristic_polynomial(StarTree((2, 3, 7)))
    assert chi.sign_at(*lo.as_integer_ratio()) * chi.sign_at(*hi.as_integer_ratio()) < 0
    lam = spectral_radius((2, 3, 7))
    assert abs(float(lo) - lam) < 1e-9 and abs(float(hi) - lam) < 1e-9
    assert cert.lam.startswith("2.0065936183460167")


def test_spectral_radius_matches_dense_eigensolver():
    rng = random.Random(99)
    eps = Fraction(1, 10**9)
    for _ in range(30):
        arms = tuple(rng.randint(2, 8) for _ in range(rng.randint(2, 5)))
        chi = characteristic_polynomial(StarTree(arms))
        assert list(chi.coeffs) == [int(round(c)) for c in np.poly(adjacency(arms))[::-1]], arms
        lam = Fraction(spectral_radius(arms))
        below, above = (lam - eps).as_integer_ratio(), (lam + eps).as_integer_ratio()
        assert chi.sign_at(*below) * chi.sign_at(*above) < 0, arms


def _random_trees(seed, count):
    rng = random.Random(seed)
    return [
        StarTree(tuple(rng.randint(2, 12) for _ in range(rng.randint(2, 6))))
        for _ in range(count)
    ]


def test_chi_value_is_the_scaled_value_of_chi():
    rng = random.Random(7)
    for tree in _random_trees(11, 60):
        chi = characteristic_polynomial(tree)
        for _ in range(5):
            p, q = rng.randint(-10**12, 10**12), rng.randint(1, 10**12)
            assert _chi_value(tree, p, q) == chi.scaled_value(p, q)[0], (tree.arms, p, q)


def test_slot_bits_bound_the_coefficients_they_pack():
    # every |coefficient| of chi(x + t), and of x^n chi(x + 1/x) for t = 1,
    # lies below 2^(s-1)
    for tree in _random_trees(12, 40) + [StarTree((2, 3, 60)), StarTree((19, 20, 21))]:
        chi = characteristic_polynomial(tree)
        for t in (0, 1, 2):
            half = 1 << (_slot_bits(tree, t) - 1)
            assert max(map(abs, taylor_shift(chi.coeffs, t))) < half, (tree.arms, t)
        # x^n chi(x + 1/x) for n = deg chi
        acampo = from_trace(list(chi.coeffs))
        assert max(map(abs, acampo)) < 1 << (_slot_bits(tree, 1) - 1), tree.arms

