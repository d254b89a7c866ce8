"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines. The
grid is every strictly ordered triple 2 <= a0 < a1 < a2 <= 25 (2024
triples), factored once by the session fixture in conftest.py.
"""

import math
import random
import time
from fractions import Fraction
from functools import reduce

import numpy as np

from starsalem import (
    CYCLOTOMIC_ONLY,
    QUADRATIC_PISOT,
    SALEM,
    IntPoly,
    StarTree,
    coxeter_polynomial,
    converge_general,
    converge_mbonacci,
    cyclotomic_divisors,
    dominant_root,
    factor_coxeter,
    lambda_bracket,
    multiplicity_bound,
    order_bound,
    p_polynomial,
    periodicity_scan,
    qrs_blocks,
    salem_degree_lower_bound,
)
from starsalem.scan import _bridge_failure

from oracles import (
    bisect_root,
    pmul,
    root_moduli,
    salem_certificate,
    spectral_radius,
    trace_root_moduli,
    tree_separators,
)


def _ok(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {message}")


def times(*fs):
    """The product of the IntPolys fs, by the oracle's convolution."""
    return IntPoly.from_coeffs(reduce(pmul, (f.coeffs for f in fs), [1]))


# ----------------------------------------------------------------------
# 1. block identity
# ----------------------------------------------------------------------

def test_criterion_01_block_identity(grid_data):
    start = time.perf_counter()
    count = 0
    for arms in grid_data["factorizations"]:
        tree = StarTree(arms)
        blocks = qrs_blocks(tree)  # verifies the reconstruction internally
        p = p_polynomial(tree)
        assert blocks.reconstruct() == p
        assert p.degree() == sum(arms) + 1
        assert p.height() == 2
        count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"block identity took {elapsed:.1f}s, budget 10s"
    _ok(1, f"block identity exact on {count} triples in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. decomposition exactness
# ----------------------------------------------------------------------

def test_criterion_02_decomposition_exact(grid_data):
    table = grid_data["table"]
    start = time.perf_counter()
    for arms, fz in grid_data["factorizations"].items():
        rt = coxeter_polynomial(StarTree(arms))
        phis = [table.cyclotomic(k) for k, m in fz.cyclotomic_factors.items() for _ in range(m)]
        assert times(fz.salem_factor, *phis) == rt, f"reassembly failed for {arms}"
        assert (
            cyclotomic_divisors(fz.salem_factor) == []
        ), f"remainder of {arms} still has a cyclotomic factor"
    elapsed = time.perf_counter() - start + grid_data["factor_seconds"]
    assert elapsed < 300.0, f"decomposition work took {elapsed:.1f}s, budget 300s"
    _ok(
        2,
        f"{len(grid_data['factorizations'])} factorizations reassemble bit-exactly, "
        f"remainders pure, {elapsed:.1f}s total",
    )


# ----------------------------------------------------------------------
# 3. Salem shape
# ----------------------------------------------------------------------

def test_criterion_03_salem_shape(grid_data):
    """Every remainder is labelled by the package's certificate and
    certified again by the oracle's, on exact dyadic trace signs; a sample
    is cross-checked against companion-matrix root moduli, which also
    check the cheaper trace-polynomial oracle."""
    salem = []
    quad = 0
    for arms, fz in grid_data["factorizations"].items():
        if StarTree(arms).excluded:
            continue
        assert fz.classification in (SALEM, QUADRATIC_PISOT), (arms, fz.classification)
        s = fz.salem_factor
        assert s.is_reciprocal(), arms
        assert salem_certificate(s.coeffs, tree_separators(arms)), arms
        if fz.classification == QUADRATIC_PISOT:
            assert s.degree() == 2, arms
            quad += 1
        else:
            salem.append(arms)
    sample = random.Random(3).sample(salem, 200)
    for arms in sample:
        s = grid_data["factorizations"][arms].salem_factor
        moduli = root_moduli(s.coeffs)
        assert np.allclose(moduli, trace_root_moduli(s.coeffs), rtol=0, atol=1e-9), arms
        assert int(np.sum(moduli > 1 + 1e-8)) == 1, arms
        assert np.max(np.abs(moduli[1:-1] - 1)) < 1e-9, arms
        tau, _ = dominant_root(s, 15)
        assert abs(moduli[-1] - float(tau)) < 1e-9, arms
    _ok(
        3,
        f"{len(salem)} Salem + {quad} quadratic Pisot remainders certified exactly, "
        f"{len(sample)} cross-checked against companion-matrix moduli",
    )


# ----------------------------------------------------------------------
# 4. Lehmer anchor
# ----------------------------------------------------------------------

def test_criterion_04_lehmer_anchor(grid_data):
    fz = grid_data["factorizations"][(2, 3, 7)]
    assert fz.classification == SALEM
    assert fz.salem_factor.degree() == 10
    tau, _ = dominant_root(fz.salem_factor, 30)
    # independent oracle: exact-sign bisection on the frozen coefficients
    oracle = bisect_root(
        [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], Fraction(11, 10), Fraction(13, 10), 140
    )
    assert abs(tau - oracle) < Fraction(1, 10**25)
    assert abs(tau - Fraction(1176280818, 10**9)) < Fraction(1, 10**9)
    from starsalem import fraction_to_decimal

    assert fraction_to_decimal(tau, 9) == "1.176280818"
    _ok(4, f"factor(2,3,7) -> degree-10 Salem factor, tau = {fraction_to_decimal(tau, 15)}...")


# ----------------------------------------------------------------------
# 5. lambda-tau bridge
# ----------------------------------------------------------------------

def test_criterion_05_lambda_tau_bridge(grid_data):
    worst = 0.0
    count = 0
    for arms, fz in grid_data["factorizations"].items():
        tree = StarTree(arms)
        if tree.excluded:
            continue
        _, bracket = dominant_root(fz.salem_factor, 20)
        lo, hi = lambda_bracket(bracket, 20)
        # exact, from point values of chi_T: A'Campo's identity at one
        # packed point, a sign change across the enclosure, and one
        # eigenvalue above 2
        failed = _bridge_failure(tree, fz.rt, (lo, hi))
        assert failed is None, (arms, failed)
        # float oracle: the enclosure sits within 1e-9 of eigvalsh
        lam = spectral_radius(arms)
        err = max(abs(float(lo) - lam), abs(float(hi) - lam))
        assert err <= 1e-9, (arms, err)
        worst = max(worst, err)
        count += 1
    _ok(5, f"exact bridge holds on {count} triples, worst deviation from eigvalsh {worst:.2e}")


# ----------------------------------------------------------------------
# 6. order bound
# ----------------------------------------------------------------------

def test_criterion_06_order_bound(grid_data):
    max_seen = 0
    for arms, fz in grid_data["factorizations"].items():
        # the sieve takes no cap, so this compares found orders with the bound
        assert fz.max_observed_order <= order_bound(*arms), arms
        max_seen = max(max_seen, fz.max_observed_order)
    _ok(6, f"zero violations; largest observed cyclotomic order = {max_seen}")


# ----------------------------------------------------------------------
# 7. degree bound
# ----------------------------------------------------------------------

def test_criterion_07_degree_bound(grid_data):
    traces = {}
    vacuous = informative = 0
    for arms, fz in grid_data["factorizations"].items():
        a0, a1, a2 = arms
        key = (a0, a2 - a1)
        if key not in traces:
            traces[key] = multiplicity_bound(*key)
        bound = salem_degree_lower_bound(StarTree(arms), traces[key].m)
        expected = StarTree(arms).vertex_count - traces[key].m * _phi_sum_cached(
            grid_data["table"], order_bound(*arms)
        )
        assert bound == expected
        if bound <= 0:
            vacuous += 1
        else:
            informative += 1
            assert fz.salem_factor.degree() >= bound, arms
    _ok(
        7,
        f"degree bound consistent on all triples "
        f"({informative} informative, {vacuous} vacuous at this scale)",
    )


def _phi_sum_cached(table, bound):
    return table.phi_sum(bound)


# ----------------------------------------------------------------------
# 8. multiplicity bound
# ----------------------------------------------------------------------

def test_criterion_08_multiplicity_bound(grid_data):
    traces = {}
    for a0 in range(2, 7):
        for delta in range(1, 6):
            tr = multiplicity_bound(a0, delta)
            assert tr.eta_lower > 0, (a0, delta)
            assert tr.m >= 1
            traces[(a0, delta)] = tr
    checked = 0
    worst = 0
    for arms, fz in grid_data["factorizations"].items():
        a0, a1, a2 = arms
        key = (a0, a2 - a1)
        if key not in traces:
            continue
        tree = StarTree(arms)
        for k, mult in fz.cyclotomic_factors.items():
            # the bound concerns P = (z-1)^(r+1) R_T, hence +3 at order 1
            eff = mult + (tree.r + 1 if k == 1 else 0)
            assert eff <= traces[key].m, (arms, k, mult)
            worst = max(worst, eff)
        checked += 1
    _ok(
        8,
        f"25 certified traces (eta_lower > 0), multiplicities checked on "
        f"{checked} triples, max observed (in P) = {worst}",
    )


# ----------------------------------------------------------------------
# 9. vanishing three-term sums of roots of unity
# ----------------------------------------------------------------------

def test_criterion_09_mann_property():
    from starsalem import verify_mann

    rng = random.Random(20240817)
    draws = hits = 0
    while draws < 500:
        a = rng.choice([-2, -1, 1, 2])
        b = rng.choice([-2, -1, 1, 2])
        c = rng.choice([-2, -1, 1, 2])
        p = rng.randint(-10, 10)
        q = rng.randint(-10, 10)
        if (p, q) == (0, 0):
            continue
        draws += 1
        bound = 6 * math.gcd(p, q)
        for n, _ in verify_mann(a, b, c, p, q, 80):
            assert bound % n == 0, (a, b, c, p, q, n)
            hits += 1
    _ok(9, f"500 draws, {hits} root-of-unity solutions, all orders divide 6*gcd(p,q)")


# ----------------------------------------------------------------------
# 10. m-bonacci convergence
# ----------------------------------------------------------------------

def test_criterion_10_mbonacci_convergence():
    start = time.perf_counter()
    finals = []
    for a0 in (2, 3, 4):
        for eta in (1, 2):
            records = converge_mbonacci(a0, eta, [10, 20, 30, 40], digits=30)
            gaps = [r.gap_value for r in records]
            assert all(g is not None for g in gaps)
            assert all(b < a for a, b in zip(gaps, gaps[1:])), (a0, eta, gaps)
            # oracle run gave 5.2e-9 for the slowest pair (2, 1);
            # 1e-7 tightens the provisional 1e-4 with a 20x margin
            assert gaps[-1] < Fraction(1, 10**7), (a0, eta, float(gaps[-1]))
            finals.append(float(gaps[-1]))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"convergence sweep took {elapsed:.1f}s, budget 120s"
    _ok(
        10,
        f"6 sweeps strictly decreasing, final gaps within "
        f"[{min(finals):.1e}, {max(finals):.1e}], {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# 11. general convergence
# ----------------------------------------------------------------------

def test_criterion_11_general_convergence():
    records = converge_general((2, 4), 3, [(10, 11), (20, 21), (40, 41)], digits=30)
    gaps = [r.gap_value for r in records]
    assert gaps[0] > gaps[1] > gaps[2] >= 0
    _ok(
        11,
        "r=3 prefix (2,4): gaps to the limit root decrease "
        f"({float(gaps[0]):.1e} -> {float(gaps[1]):.1e} -> {float(gaps[2]):.1e})",
    )


# ----------------------------------------------------------------------
# 12. periodicity
# ----------------------------------------------------------------------

def test_criterion_12_periodicity():
    records = periodicity_scan(2, 1, 64, (4, 132))
    assert len(records) == (132 - 4 + 1) * 64
    _ok(12, f"{len(records)} records, zero residue-class violations")


# ----------------------------------------------------------------------
# 13. exclusion sanity
# ----------------------------------------------------------------------

def test_criterion_13_exclusion_sanity(grid_data):
    for t in (4, 5, 6):
        fz = grid_data["factorizations"][(2, 3, t)]
        assert fz.classification == CYCLOTOMIC_ONLY, (2, 3, t)
    assert grid_data["factorizations"][(2, 3, 7)].classification == SALEM
    _ok(13, "(2,3,4), (2,3,5), (2,3,6) cyclotomic-only; (2,3,7) is not")
