import dataclasses
import itertools
import math
import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsalem import (
    CYCLOTOMIC_ONLY,
    QUADRATIC_PISOT,
    SALEM,
    CertificationError,
    ClassificationError,
    IntPoly,
    OrderError,
    StarTree,
    coxeter_polynomial,
    cyclotomic_divisors,
    extract_cyclotomic,
    factor_coxeter,
    multiplicity_bound,
    order_bound,
    phi_sum,
    salem_degree_lower_bound,
    verify_mann,
)
from starsalem.coxeter import block_polys
from starsalem.cyclotomic import default_table, phi_inverse_bound
import starsalem.factorize as factorize
from starsalem.factorize import classify_remainder, separator_signs

from oracles import (
    divides_poly,
    dyadic,
    eval_exact,
    multiplicity_bracket_holds,
    multiplicity_head,
    pmul,
    root_moduli,
    scanned_circle_min,
    trace_poly,
    trace_signs,
    tree_separators,
)


def poly(*cs):
    return IntPoly.from_coeffs(cs)


def times(*fs):
    """The product of the IntPolys fs, by the oracle's convolution."""
    return IntPoly.from_coeffs(reduce(pmul, (f.coeffs for f in fs), [1]))


def reassemble(mults, rem):
    """rem times Phi_k^m for every order k of multiplicity m in mults."""
    table = default_table()
    return times(rem, *[table.cyclotomic(k) for k, m in mults.items() for _ in range(m)])


def derivatives(f, n):
    """f', f'', ..., the n-th derivative of f, by repeated first derivatives."""
    out = []
    for _ in range(n):
        f = f.derivative()
        out.append(f)
    return out


LEHMER = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


# ----------------------------------------------------------------------
# order bound
# ----------------------------------------------------------------------

def test_order_bound_values():
    assert order_bound(2, 3, 7) == 2100
    assert order_bound(3, 5, 8) == 2100
    assert order_bound(2, 5, 6) == 840


def test_order_bound_rejects_bad_ordering():
    with pytest.raises(OrderError):
        order_bound(3, 3, 5)
    with pytest.raises(OrderError):
        order_bound(1, 2, 3)


# ----------------------------------------------------------------------
# cyclotomic sieve
# ----------------------------------------------------------------------

def test_extract_simple():
    mults, rem = extract_cyclotomic(poly(-1, 0, 1))
    assert mults == {1: 1, 2: 1}
    assert rem == IntPoly.one()


def test_extract_lehmer_has_no_cyclotomic_part():
    mults, rem = extract_cyclotomic(LEHMER)
    assert mults == {}
    assert rem == LEHMER


def test_extract_excluded_triples():
    # frozen from an independent sieve run
    mults, rem = extract_cyclotomic(coxeter_polynomial(StarTree((2, 3, 4))))
    assert mults == {2: 1, 18: 1} and rem == IntPoly.one()
    mults, rem = extract_cyclotomic(coxeter_polynomial(StarTree((2, 3, 5))))
    assert mults == {30: 1} and rem == IntPoly.one()
    mults, rem = extract_cyclotomic(coxeter_polynomial(StarTree((2, 3, 6))))
    assert mults == {1: 2, 2: 1, 3: 1, 5: 1} and rem == IntPoly.one()


def test_extract_respects_multiplicity():
    f = reassemble({4: 3, 5: 1}, poly(-2, 0, 1))
    mults, rem = extract_cyclotomic(f)
    assert mults == {4: 3, 5: 1}
    assert rem == poly(-2, 0, 1)


def test_extract_reassembles_exactly():
    rng = random.Random(31)
    for _ in range(15):
        arms = sorted(rng.sample(range(2, 20), 3))
        f = coxeter_polynomial(StarTree(tuple(arms)))
        mults, rem = extract_cyclotomic(f)
        assert reassemble(mults, rem) == f, arms


def test_remainder_purity():
    table = default_table()
    for arms in [(2, 3, 7), (2, 4, 9), (3, 7, 11)]:
        fz = factor_coxeter(StarTree(arms))
        assert cyclotomic_divisors(fz.salem_factor) == []
        # independent naive re-check on small orders
        for k in range(1, 40):
            assert not divides_poly(
                list(table.cyclotomic(k).coeffs), list(fz.salem_factor.coeffs)
            ), (arms, k)


def brute_divisors(f, cap, table):
    return [k for k in range(1, cap + 1) if table.cyclotomic(k).divides(f)]


def full_cap(f):
    # every order with phi(k) <= deg f lies below 2*deg^2; look a bit past it
    return 2 * f.degree() ** 2 + 8


def test_phi_inverse_bound_covers_every_inverse_phi():
    # phi(k) >= sqrt(k/2), so a sieve to 2*500^2 sees every k with phi(k) <= 500
    top = 500
    phis = default_table().phi_values(2 * top * top)
    largest = [0] * (top + 1)  # largest[d] = max{k : phi(k) == d}
    for k in range(1, len(phis)):
        if phis[k] <= top:
            largest[phis[k]] = k
    worst = 0
    for d in range(top + 1):
        worst = max(worst, largest[d])  # now max{k : phi(k) <= d}
        assert worst <= phi_inverse_bound(d) <= 1.5 * worst, d
    assert phi_inverse_bound(58) == 253 and phi_inverse_bound(1048) == 5043
    with pytest.raises(ValueError):
        phi_inverse_bound(-1)


def test_cyclotomic_divisors_grid_trees_match_brute_force():
    table = default_table()
    trees = [StarTree(arms) for arms in itertools.combinations(range(2, 11), 3)]
    trees += [StarTree(arms) for arms in [(3, 3, 5), (2, 2, 2), (2, 4, 10, 11), (2, 3)]]
    for tree in trees:
        f = coxeter_polynomial(tree)
        brute = brute_divisors(f, full_cap(f), table)
        assert cyclotomic_divisors(f) == brute, tree.arms
        assert cyclotomic_divisors(f, full_cap(f)) == brute, tree.arms


def test_cyclotomic_divisors_respects_max_order():
    f = coxeter_polynomial(StarTree((2, 3, 6)))  # Phi_1^2 Phi_2 Phi_3 Phi_5
    assert cyclotomic_divisors(f) == cyclotomic_divisors(f, 100) == [1, 2, 3, 5]
    assert cyclotomic_divisors(f, 4) == [1, 2, 3]
    assert cyclotomic_divisors(f, 1) == [1]


def test_cyclotomic_divisors_small_edges():
    assert cyclotomic_divisors(poly(1, 1), 10) == [2]  # k = 2 = 2*deg^2
    assert cyclotomic_divisors(poly(-1, 1), 10) == [1]
    assert cyclotomic_divisors(poly(5), 10) == []
    with pytest.raises(ValueError):
        cyclotomic_divisors(IntPoly.zero(), 10)
    with pytest.raises(ValueError):
        cyclotomic_divisors(poly(1, 1), 0)


@pytest.mark.parametrize("g", [poly(1), poly(-3), poly(2, 1), poly(1, 0, 0, 2)])
def test_cyclotomic_divisors_planted_factor_at_phi_edge(g):
    table = default_table()
    f = times(table.cyclotomic(240), g)  # phi(240) = 64
    cap = 480
    found = cyclotomic_divisors(f, cap)
    assert 240 in found
    assert found == brute_divisors(f, cap, table)


@pytest.fixture
def counting_table(monkeypatch):
    """The process-wide table, with every order that reaches exact
    division recorded in ``settled``."""
    table = default_table()
    settled = []
    original = table.divides_coxeter

    def divides_coxeter(k, f):
        settled.append(k)
        return original(k, f)

    # set on the instance's own dict, so that undoing it removes the entry
    monkeypatch.setitem(vars(table), "divides_coxeter", divides_coxeter)
    return table, settled


def test_cyclotomic_divisors_screen_discards_most_orders(counting_table):
    table, settled = counting_table
    f = coxeter_polynomial(StarTree((2, 5, 40)))
    assert cyclotomic_divisors(f, 5000) == [2, 5]
    phis = table.phi_values(5000)
    candidates = [k for k in range(1, 5001) if phis[k] <= f.degree()]
    assert len(candidates) == 88
    assert len(settled) < len(candidates) // 4


def test_cyclotomic_divisors_tall_input_is_settled_exactly(counting_table):
    table, settled = counting_table
    tall = poly(1, 1 << 45, 0, 1)  # height 2^45: the screen is exact at any height
    f = reassemble({7: 1, 12: 2}, tall)
    cap = full_cap(f)
    assert cyclotomic_divisors(f) == [7, 12]
    phis = table.phi_values(cap)
    candidates = [k for k in range(1, cap + 1) if phis[k] <= f.degree()]
    # exactly the orders with Phi_k(2) | f(2) are settled: 3 of 32
    assert settled == [k for k in candidates if f.eval_int(2) % table.value_at_two(k) == 0]
    assert settled == [1, 7, 12] and len(candidates) == 32
    assert brute_divisors(f, cap, table) == [7, 12]
    mults, rem = extract_cyclotomic(f)
    assert mults == {7: 1, 12: 2} and rem == tall


def test_cyclotomic_divisors_settles_every_candidate_when_f_vanishes_at_2(counting_table):
    # f(2) = 0 is divisible by every Phi_k(2), so the screen discards
    # nothing and exact division alone decides
    table, settled = counting_table
    f = reassemble({7: 1, 12: 2}, poly(-2, 1))
    assert f.eval_int(2) == 0
    assert cyclotomic_divisors(f) == [7, 12]
    phis = table.phi_values(full_cap(f))
    assert settled == [k for k in range(1, len(phis)) if phis[k] <= f.degree()]


def test_cyclotomic_divisors_near_the_height_limit():
    # multiples of Phi_k of height near 2^40: the screen keeps every true
    # divisor
    table = default_table()
    rng = random.Random(5)
    for k in (7, 60, 105, 210):
        bound = (1 << 40) // table.cyclotomic(k).l1()
        g = IntPoly.from_coeffs([rng.randint(-bound, bound) for _ in range(40)] + [1])
        f = times(table.cyclotomic(k), g)
        assert f.height() <= 1 << 40
        assert cyclotomic_divisors(f, 250) == brute_divisors(f, 250, table) == [k]


@settings(max_examples=60, deadline=None)
@given(
    planted=st.lists(
        st.tuples(st.integers(1, 60), st.integers(1, 3)), max_size=4, unique_by=lambda t: t[0]
    ),
    g=st.lists(st.integers(-3, 3), min_size=1, max_size=7).filter(lambda cs: cs[-1] != 0),
)
def test_cyclotomic_divisors_random_products_match_brute_force(planted, g):
    table = default_table()
    f = reassemble(dict(planted), IntPoly.from_coeffs(g))
    cap = min(full_cap(f), 400)
    found = cyclotomic_divisors(f, cap)
    assert found == brute_divisors(f, cap, table)
    assert {k for k, _ in planted} <= set(found)
    mults, rem = extract_cyclotomic(f)
    assert sorted(mults) == cyclotomic_divisors(f)
    assert [k for k in mults if k <= cap] == found
    assert reassemble(mults, rem) == f


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_factor_lehmer_tree():
    fz = factor_coxeter(StarTree((2, 3, 7)))
    assert fz.classification == SALEM
    assert fz.salem_factor == LEHMER
    assert fz.cyclotomic_factors == {}
    assert fz.proven_order_bound == 2100
    assert fz.unramified  # |S(1)| = |S(-1)| = 1
    assert fz.max_observed_order == 0 and fz.max_observed_multiplicity == 0


def test_factor_excluded_triples_are_cyclotomic_only():
    for t in (4, 5, 6):
        fz = factor_coxeter(StarTree((2, 3, t)))
        assert fz.classification == CYCLOTOMIC_ONLY
        assert fz.salem_factor == IntPoly.one()


def test_factor_repeated_arms_outside_hypotheses():
    # outside the paper's hypotheses, yet the certificate proves the label
    fz = factor_coxeter(StarTree((3, 3, 5)))
    assert fz.classification == SALEM
    assert fz.salem_factor.degree() == 6
    assert fz.proven_order_bound is None
    assert fz.to_json_dict()["order_bound"] is None


def test_factor_general_r_needs_no_cap():
    fz = factor_coxeter(StarTree((2, 4, 10, 11)))
    assert fz.classification == SALEM
    # the same factors the former explicit cap max_order=500 gave
    assert fz.cyclotomic_factors == {2: 2}
    assert fz.salem_factor.degree() == 22
    assert fz.proven_order_bound is None


def test_salem_shape_invariants():
    for arms in [(2, 3, 7), (2, 4, 7), (3, 5, 8), (4, 6, 9)]:
        fz = factor_coxeter(StarTree(arms))
        s = fz.salem_factor
        assert fz.classification == SALEM
        assert s.is_reciprocal()
        assert s.coeffs[0] == 1
        assert abs(s.eval_int(1)) * abs(s.eval_int(-1)) >= 1


def test_classify_remainder_shapes():
    assert classify_remainder(factor_coxeter(StarTree((2, 3, 6)))) == CYCLOTOMIC_ONLY
    pisot = factor_coxeter(StarTree((2, 2, 2, 2, 2)))
    assert pisot.salem_factor == poly(1, -3, 1) and classify_remainder(pisot) == QUADRATIC_PISOT
    lehmer = factor_coxeter(StarTree((2, 3, 7)))
    assert lehmer.salem_factor == LEHMER and classify_remainder(lehmer) == SALEM
    with pytest.raises(ClassificationError):
        # roots negative, none above 1
        classify_remainder(dataclasses.replace(lehmer, salem_factor=poly(1, 3, 1)))
    with pytest.raises(ClassificationError):
        classify_remainder(dataclasses.replace(lehmer, salem_factor=poly(2,)))
    with pytest.raises(ClassificationError):
        # odd degree, not a Salem shape
        classify_remainder(dataclasses.replace(lehmer, salem_factor=poly(1, 1, 1, 1)))
    with pytest.raises(ClassificationError):
        # the separators of T(2, 3) alone cannot separate 4 roots, and its
        # repunit rule is not this R_T
        classify_remainder(dataclasses.replace(lehmer, arms=(2, 3)))


# ----------------------------------------------------------------------
# the certificate read off the repunit rule
# ----------------------------------------------------------------------

def test_separator_signs_match_the_oracle_on_the_grid(grid_data):
    """At every separator p/n of every grid tree whose remainder is not 1,
    the closed-form sign equals the oracle's exact sign of the remainder's
    trace polynomial at the dyadic value of the float 2 cos(2 pi p/n), at
    the 0/0 points (s >= 2 arms divisible by n) too, and there the sieve
    found m_n = s - 1. The points are today's float separators, ascending in
    p/n."""
    points = zero_over_zero = 0
    for arms, fz in grid_data["factorizations"].items():
        f, mults = fz.salem_factor, fz.cyclotomic_factors
        if f == IntPoly.one():
            continue
        assert mults.get(1, 0) % 2 == 0, arms
        signs = separator_signs(arms, mults)
        xs = [Fraction(p, n) for p, n, _ in signs]
        assert [(x.numerator, x.denominator) for x in xs] == [(p, n) for p, n, _ in signs]
        assert xs == sorted(set(xs)), arms
        separators = [2 * math.cos(2 * math.pi * (p / n)) for p, n, _ in signs]
        assert set(separators) == set(tree_separators(arms)), arms
        m = f.degree() // 2
        exact = trace_signs(f.coeffs[m:], [dyadic(x) for x in separators])
        assert exact == [sign for _, _, sign in signs], arms
        for _, n, _ in signs:
            s = sum(a % n == 0 for a in arms)
            if s >= 2:
                assert mults[n] == s - 1, (arms, n)
                zero_over_zero += 1
        points += len(signs)
    # 2021 trees; the 0/0 points lie in 949 of them
    assert (points, zero_over_zero) == (34418, 1901)


def refused(fz):
    """True when reading fz's label raises ClassificationError with the
    message every failed certificate gives."""
    with pytest.raises(ClassificationError) as exc:
        fz.classification
    return str(exc.value) == f"no Salem certificate for the remainder, {fz.salem_factor.describe()}"


def flip_signs(monkeypatch, term):
    """separator_signs with one term of its exponent dropped: each sign
    times (-1)^term(arms, p, n)."""
    signs = factorize.separator_signs

    def flipped(arms, mults):
        return [(p, n, sign * (-1) ** term(arms, p, n)) for p, n, sign in signs(arms, mults)]

    monkeypatch.setattr(factorize, "separator_signs", flipped)


@pytest.mark.parametrize("arms", [(2, 3, 7), (20, 50, 980)])
def test_the_tie_refuses_a_changed_coefficient_of_r_t(arms):
    # the signs never read R_T's coefficients, so only the tie sees this
    fz = factor_coxeter(StarTree(arms))
    assert fz.classification == SALEM
    for i in (0, len(fz.rt.coeffs) // 2, len(fz.rt.coeffs) - 1):
        for change in (1, -1):
            cs = list(fz.rt.coeffs)
            cs[i] += change
            assert refused(dataclasses.replace(fz, rt=IntPoly.from_coeffs(cs))), (i, change)


@pytest.mark.parametrize("arms", [(2, 3, 9), (2, 3, 12), (20, 50, 980)])
def test_the_count_refuses_signs_without_the_s_minus_1_term(monkeypatch, arms):
    assert factor_coxeter(StarTree(arms)).classification == SALEM
    flip_signs(monkeypatch, lambda arms, p, n: sum(a % n == 0 for a in arms) - 1)
    assert refused(factor_coxeter(StarTree(arms)))


@pytest.mark.parametrize("arms, i", [((2, 3, 7), 1), ((2, 3, 9), 2), ((20, 50, 980), 0)])
def test_the_count_refuses_signs_without_one_floor_term(monkeypatch, arms, i):
    assert factor_coxeter(StarTree(arms)).classification == SALEM
    flip_signs(monkeypatch, lambda arms, p, n: arms[i] * p // n)
    assert refused(factor_coxeter(StarTree(arms)))


@pytest.mark.parametrize(
    "arms, k, by_signs",
    [
        ((2, 3, 10), 8, True),  # the count
        ((2, 3, 9), 3, True),  # m_3 = 0, not s - 1 = 1
        ((20, 50, 980), 6, False),  # the flips past 1/6 keep the count
        ((20, 50, 980), 2, False),  # Phi_2 > 0 takes no part in any sign
    ],
)
def test_a_cyclotomic_order_left_out_is_refused(monkeypatch, arms, k, by_signs):
    fz = factor_coxeter(StarTree(arms))
    mults = {j: m for j, m in fz.cyclotomic_factors.items() if j != k}
    assert mults != fz.cyclotomic_factors
    left_out = dataclasses.replace(fz, cyclotomic_factors=mults)
    assert refused(left_out)
    # without the tie C f = R_T, the signs alone refuse some of them
    monkeypatch.setattr(factorize, "_ties_hold", lambda fz: True)
    assert factorize.repunit_certificate(left_out) is not by_signs


@pytest.mark.parametrize(
    "arms, n, m",
    [((2, 3, 9), 3, 2), ((20, 50, 980), 4, 2), ((20, 50, 980), 20, 0), ((2, 3, 7), 7, 1)],
)
def test_a_multiplicity_other_than_s_minus_1_is_refused(monkeypatch, arms, n, m):
    fz = factor_coxeter(StarTree(arms))
    mults = fz.cyclotomic_factors | {n: m}
    assert separator_signs(arms, mults) is None
    assert refused(dataclasses.replace(fz, cyclotomic_factors=mults))
    monkeypatch.setattr(factorize, "_ties_hold", lambda fz: True)
    assert refused(dataclasses.replace(fz, cyclotomic_factors=mults))


def test_an_odd_multiplicity_of_phi_1_is_refused(monkeypatch):
    fz = dataclasses.replace(factor_coxeter(StarTree((2, 3, 7))), cyclotomic_factors={1: 1})
    assert refused(fz)
    monkeypatch.setattr(factorize, "_ties_hold", lambda fz: True)
    assert refused(fz)


def test_repeated_arm_trees_are_classified():
    """A seeded sample of 50 trees with 3-5 arms in 2..8, each with a
    repeated arm. Every one gets a label, and the companion matrix of each
    non-cyclotomic remainder has exactly one root outside the unit circle."""
    fixed = [(3, 3, 5), (2, 2, 2, 2, 2)]
    trees = [
        arms
        for n in (3, 4, 5)
        for arms in itertools.combinations_with_replacement(range(2, 9), n)
        if len(set(arms)) < n and arms not in fixed
    ]
    labels = {}
    for arms in fixed + random.Random(8).sample(trees, 48):
        fz = factor_coxeter(StarTree(arms))
        labels[arms] = fz.classification
        if fz.classification == CYCLOTOMIC_ONLY:
            assert fz.salem_factor == IntPoly.one(), arms
            continue
        assert (fz.classification == QUADRATIC_PISOT) == (fz.salem_factor.degree() == 2), arms
        moduli = root_moduli(fz.salem_factor.coeffs)
        assert int(np.sum(moduli > 1 + 1e-8)) == 1, arms
        assert np.all(np.abs(moduli[1:-1] - 1) < 1e-9), arms
    assert len(labels) == 50
    assert labels[(3, 3, 5)] == SALEM
    assert labels[(2, 2, 2, 2, 2)] == QUADRATIC_PISOT


# ----------------------------------------------------------------------
# degree lower bound
# ----------------------------------------------------------------------

def test_degree_lower_bound_formula():
    tree = StarTree((2, 3, 7))
    assert salem_degree_lower_bound(tree, 1) == 10 - phi_sum(2100)
    assert phi_sum(2100) == 1340822  # frozen from a direct sieve run
    assert salem_degree_lower_bound(tree, 1) < 0  # vacuous at this scale
    assert salem_degree_lower_bound(tree, 3) == 10 - 3 * 1340822


def test_degree_lower_bound_validation():
    with pytest.raises(ValueError):
        salem_degree_lower_bound(StarTree((2, 3, 7)), 0)


# ----------------------------------------------------------------------
# multiplicity bound
# ----------------------------------------------------------------------

def test_multiplicity_trace_2_1():
    tr = multiplicity_bound(2, 1)
    # Qtilde = z^2 - z - 1 has |.| >= 1 on the circle, so the certified
    # bound sits just below 1; the rest is forced arithmetic
    assert Fraction(99, 100) < tr.eta_lower <= 1
    assert tr.f0_upper == 2   # Rtilde = z + 1
    assert tr.n0 == 3
    assert tr.en_upper == 3 and tr.fn_upper == 1 and tr.gn_upper == 0
    assert tr.c == 34
    assert tr.m == 37


def test_multiplicity_trace_invariants(monkeypatch):
    """n0 and c are the least values that pass the paper's inequalities,
    decided by the Fraction oracle, and E, F, G are the norms of the
    blocks' derivatives."""

    def check(tr):
        q, r, s = (b.exact_div(poly(-1, 1)) for b in block_polys(tr.a0, tr.delta))
        assert tr.f0_upper == r.l1()
        assert tr.en_upper == max(d.l1() for d in derivatives(q, tr.n0))
        assert tr.fn_upper == max(d.l1() for d in derivatives(r, tr.n0))
        assert tr.gn_upper == derivatives(s, tr.n0)[-1].l1()
        assert tr.eta_lower > 0
        assert multiplicity_head(tr.eta_lower, tr.f0_upper, tr.n0) > 0
        assert tr.n0 == 1 or multiplicity_head(tr.eta_lower, tr.f0_upper, tr.n0 - 1) <= 0
        args = (tr.eta_lower, tr.f0_upper, tr.en_upper, tr.fn_upper, tr.gn_upper, tr.n0)
        assert multiplicity_bracket_holds(*args, tr.c + 1)
        assert not multiplicity_bracket_holds(*args, tr.c)
        assert tr.m == max(tr.n0, tr.c + tr.a0) + 1

    for a0 in range(2, 26):
        for delta in range(1, 21):
            check(multiplicity_bound(a0, delta))
    # at eta = 10^-12, the smallest the circle proof can return, c passes
    # 2^200, where the doubling once gave up on a bound that exists
    monkeypatch.setattr(factorize, "_certified_circle_min", lambda f: (Fraction(1, 10**12), 1))
    tr = multiplicity_bound(25, 20)
    assert tr.c.bit_length() > 200
    check(tr)


def test_multiplicity_bound_validation():
    with pytest.raises(ValueError):
        multiplicity_bound(1, 1)
    with pytest.raises(ValueError):
        multiplicity_bound(2, 0)


def q_tilde(a0):
    """Qtilde = (z^(a0+1) - 2 z^a0 + 1)/(z - 1) = z^a0 - z^(a0-1) - ... - 1."""
    return IntPoly.from_coeffs([-1] * a0 + [1])


def test_circle_bound_beats_the_scan(monkeypatch):
    """The exact bound against the float scan with Lipschitz slack that it
    replaced: eta never falls and m never rises, on a0 <= 25, delta <= 20."""
    new = {(a0, d): multiplicity_bound(a0, d) for a0 in range(2, 26) for d in range(1, 21)}
    scanned = {}

    def scan(f):
        if f not in scanned:
            scanned[f] = (scanned_circle_min(list(f.coeffs)), 0)
        return scanned[f]

    monkeypatch.setattr(factorize, "_certified_circle_min", scan)
    for (a0, d), tr in new.items():
        old = multiplicity_bound(a0, d)
        assert tr.eta_lower >= old.eta_lower, (a0, d)
        assert tr.m <= old.m, (a0, d)
    # a0 = 21: the scan's slack ate more than half of the minimum
    assert new[21, 1].eta_lower > 2 * scanned[q_tilde(21)][0]


@pytest.mark.parametrize("a0", [2, 3, 7, 13, 20])
def test_circle_bound_holds_at_dense_rationals(a0):
    # U with |Qtilde(z)|^2 = U(z + 1/z), from the oracles' trace conversion
    cs = list(q_tilde(a0).coeffs)
    u = trace_poly(pmul(cs, cs[::-1]))
    eta, _ = factorize._certified_circle_min(q_tilde(a0))
    assert all(eval_exact(u, Fraction(k, 512)) > eta * eta for k in range(-1024, 1025))
    # and eta is tight, on the 10^-12 grid: the lowest sample of U is near eta^2
    assert (eta * 10**12).denominator == 1
    sampled = min(eval_exact(u, Fraction(k, 512)) for k in range(-1024, 1025))
    assert sampled - eta * eta < Fraction(1, 1000)


@pytest.mark.parametrize(
    "start",
    [
        pytest.param(lambda xs: [], id="no-cuts"),
        pytest.param(lambda xs: [min(x + 1e-3, 2.0) for x in xs], id="shifted"),
        pytest.param(lambda xs: [0.0, 1.0, -1.5], id="elsewhere"),
    ],
)
def test_circle_bound_ignores_the_float_start(monkeypatch, start):
    expected = {a0: factorize._certified_circle_min(q_tilde(a0))[0] for a0 in (3, 8, 19, 24)}
    minima = factorize._float_minima
    monkeypatch.setattr(factorize, "_float_minima", lambda a: start(minima(a)))
    for a0, eta in expected.items():
        assert factorize._certified_circle_min.__wrapped__(q_tilde(a0))[0] == eta, a0


@pytest.mark.parametrize(
    "f",
    [
        pytest.param(poly(1, 1), id="root-at-minus-1"),
        pytest.param(poly(1, 1, 1), id="phi-3"),
        pytest.param(times(poly(1, 1, 1, 1, 1), poly(2, 1)), id="phi-5-times-2-plus-z"),
    ],
)
def test_circle_bound_fails_on_a_root_on_the_circle(f):
    with pytest.raises(CertificationError, match="on the circle"):
        factorize._certified_circle_min.__wrapped__(f)


def test_circle_bound_runs_once_per_a0():
    factorize._certified_circle_min.cache_clear()
    traces = [multiplicity_bound(a0, d) for a0 in (4, 5) for d in range(1, 8)]
    assert factorize._certified_circle_min.cache_info().misses == 2
    assert len({(tr.a0, tr.eta_lower, tr.grid_points) for tr in traces}) == 2


# ----------------------------------------------------------------------
# vanishing sums of three roots of unity
# ----------------------------------------------------------------------

def test_mann_forces_one():
    # z = exp(2 pi i 0 / 1) = 1
    assert verify_mann(1, 1, -2, 1, 1, 50) == [(1, 0)]


def test_mann_cube_roots():
    hits = verify_mann(1, 1, 1, 1, 2, 50)
    assert hits == [(3, 1), (3, 2)]
    for n, j in hits:
        z = np.exp(2j * np.pi * j / n)
        assert abs(z + z**2 + 1) < 1e-12


def test_mann_no_solutions():
    assert verify_mann(1, 1, 5, 1, 2, 40) == []


def test_mann_rejects_degenerate_input():
    with pytest.raises(ValueError):
        verify_mann(0, 1, 1, 1, 2, 10)
    with pytest.raises(ValueError):
        verify_mann(1, 1, 1, 0, 0, 10)


def test_mann_orders_divide_property():
    rng = random.Random(1234)
    checked = 0
    for _ in range(100):
        a = rng.choice([-2, -1, 1, 2])
        b = rng.choice([-2, -1, 1, 2])
        c = rng.choice([-2, -1, 1, 2])
        p = rng.randint(-10, 10)
        q = rng.randint(-10, 10)
        if (p, q) == (0, 0):
            continue
        bound = 6 * math.gcd(p, q)
        for n, _ in verify_mann(a, b, c, p, q, 80):
            assert bound % n == 0, (a, b, c, p, q, n)
            checked += 1
    assert checked > 0
