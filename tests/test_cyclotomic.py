import itertools
from functools import reduce

import pytest

from starsalem import CyclotomicTable, IntPoly, cyclotomic_poly, phi_sum
from starsalem.cyclotomic import default_table

from oracles import phi_brute, pmul


def poly(*cs):
    return IntPoly.from_coeffs(cs)


def times(*fs):
    """The product of the IntPolys fs, by the oracle's convolution."""
    return IntPoly.from_coeffs(reduce(pmul, (f.coeffs for f in fs), [1]))


def test_small_orders():
    assert cyclotomic_poly(1) == poly(-1, 1)
    assert cyclotomic_poly(2) == poly(1, 1)
    assert cyclotomic_poly(3) == poly(1, 1, 1)
    assert cyclotomic_poly(4) == poly(1, 0, 1)
    assert cyclotomic_poly(6) == poly(1, -1, 1)
    assert cyclotomic_poly(12) == poly(1, 0, -1, 0, 1)


def test_order_105_first_height_two():
    # smallest order whose polynomial has a coefficient of magnitude 2
    assert cyclotomic_poly(105).height() == 2
    assert min(cyclotomic_poly(105).coeffs) == -2
    for n in range(1, 105):
        assert cyclotomic_poly(n).height() == 1


def test_product_identity_up_to_200():
    table = default_table()
    for n in range(1, 201):
        prod = times(*[table.cyclotomic(d) for d in range(1, n + 1) if n % d == 0])
        assert prod == IntPoly.monomial(n) - IntPoly.one(), n


def test_degree_equals_phi_up_to_2000():
    table = CyclotomicTable()
    phis = table.phi_values(2000)
    for n in range(1, 2001):
        assert table.cyclotomic(n).degree() == phis[n], n


def test_reciprocal_except_order_one():
    assert not cyclotomic_poly(1).is_reciprocal()
    for n in range(2, 260):
        assert cyclotomic_poly(n).is_reciprocal(), n


def test_euler_phi_examples():
    phis = CyclotomicTable().phi_values(420)
    assert phis[1] == 1
    assert phis[12] == 4
    assert phis[420] == 96


def test_euler_phi_brute_force():
    phis = CyclotomicTable().phi_values(299)
    for n in range(1, 300):
        assert phis[n] == phi_brute(n), n


def test_phi_sum_examples():
    assert phi_sum(1) == 1
    assert phi_sum(5) == 10
    # frozen from a direct sieve-and-sum run
    assert phi_sum(1000) == 304192


def test_phi_sum_difference_law():
    phis = CyclotomicTable().phi_values(997)  # a sieve of its own
    for b in (2, 17, 100, 419, 420, 997):
        assert phi_sum(b) - phi_sum(b - 1) == phis[b]


def test_phi_sum_past_the_sieve_matches_its_prefix_sums():
    table = CyclotomicTable()
    sums = list(itertools.accumulate(table.phi_values(20_000)))
    fresh = CyclotomicTable()  # its sieve holds phi(0) and phi(1) only
    for b in itertools.chain(range(1, 2000), range(2000, 20_001, 37), [20_000]):
        assert fresh.phi_sum(b) == sums[b], b
    # frozen from a numpy sieve to 415,381, the order bound of T(2, 30, 1018)
    assert CyclotomicTable().phi_sum(415_380) == 52_446_068_670
    assert table.phi_sum(415_380) == 52_446_068_670


def test_value_at_two_is_the_polynomial_at_two():
    table = CyclotomicTable()
    for k in range(1, 601):
        assert table.value_at_two(k) == table.cyclotomic(k).eval_int(2), k
    with pytest.raises(ValueError):
        table.value_at_two(0)


def test_phi_values_slice():
    table = default_table()
    vals = table.phi_values(30)
    assert vals[1] == 1 and vals[12] == 4 and vals[30] == 8


def test_divides_coxeter_folding():
    table = default_table()
    # (x^2 - 1)(x^2 + x + 1) is divisible by orders 1, 2, 3 and nothing else small
    f = times(poly(-1, 0, 1), poly(1, 1, 1))
    assert table.divides_coxeter(1, f)
    assert table.divides_coxeter(2, f)
    assert table.divides_coxeter(3, f)
    assert not table.divides_coxeter(4, f)
    assert not table.divides_coxeter(5, f)
    # folding agrees with plain division on larger inputs
    g = IntPoly.monomial(60) - IntPoly.one()
    for k in (1, 2, 5, 6, 12, 20, 60, 7, 9, 11):
        assert table.divides_coxeter(k, g) == table.cyclotomic(k).divides(g)


def test_rejects_bad_order():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)
    with pytest.raises(ValueError):
        phi_sum(0)
