"""Batch experiments over families of star-like trees.

``periodicity_scan`` tests, for fixed a0 and fixed gap eta = a2 - a1,
which cyclotomic orders k divide the Coxeter polynomial as a1 varies.
For each a1 one ``cyclotomic_divisors`` call answers all orders up to
k_max at once (orders with phi(k) > deg R_T are dropped, the exact screen
Phi_k(2) | R_T(2) discards most others, exact division settles the rest,
all from the process-wide ``default_table()``), and a record is written
for every (a1, k). Whether Phi_k divides depends only on a1 mod k within
such a family; the scan verifies that residue-class law on every record
and aborts loudly if it ever failed, since that would falsify the
underlying block-shift identity.

``grid_verify`` sweeps a triple grid and re-checks every certified
bound: the paper's cyclotomic order bound (against the orders an uncapped
sieve finds, so the check can fail), the multiplicity bound, the Salem
degree lower bound (when it is informative), and the bridge
lambda = sqrt(tau) + 1/sqrt(tau) between the dominant root and the
tree's spectral radius. The bridge is exact: the characteristic
polynomial chi_T of the tree's adjacency matrix is built from the path
recurrence, A'Campo's identity x^n chi_T(x + 1/x) = R_T(x^2) is checked
coefficient by coefficient, chi_T must change sign across the lambda
enclosure mapped from tau's, and Descartes' rule on chi_T(x + 2) (exact
for a real-rooted polynomial) shows that lambda is its only root above 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coxeter import StarTree, characteristic_polynomial, coxeter_polynomial
from .factorize import (
    CertificationError,
    CoxeterFactorization,
    MultiplicityBoundTrace,
    cyclotomic_divisors,
    factor_coxeter,
    multiplicity_bound,
    order_bound,
    salem_degree_lower_bound,
)
from .intpoly import IntPoly, taylor_shift
from .roots import dominant_root, lambda_bracket


class PeriodicityViolation(AssertionError):
    """Two trees in the same residue class disagreed on divisibility."""


@dataclass(frozen=True)
class ScanRecord:
    arms: tuple[int, ...]
    k: int
    divides: bool
    a1_mod_k: int


def periodicity_scan(
    a0: int,
    eta: int,
    k_max: int,
    a1_range: tuple[int, int],
) -> list[ScanRecord]:
    """Divisibility records for T(a0, a1, a1 + eta), a1 in the given range.

    Records are ordered by (a1, k). Raises PeriodicityViolation with both
    witnesses if two records sharing (k, a1 mod k) ever disagree.
    """
    if a0 < 2 or eta < 1 or k_max < 1:
        raise ValueError("need a0 >= 2, eta >= 1, k_max >= 1")
    lo, hi = a1_range
    if lo <= a0:
        raise ValueError(f"a1 range must start above a0={a0}, got {a1_range}")
    records: list[ScanRecord] = []
    seen: dict[tuple[int, int], tuple[bool, int]] = {}
    for a1 in range(lo, hi + 1):
        arms = (a0, a1, a1 + eta)
        hits = set(cyclotomic_divisors(coxeter_polynomial(StarTree(arms)), k_max))
        for k in range(1, k_max + 1):
            div = k in hits
            rec = ScanRecord(arms=arms, k=k, divides=div, a1_mod_k=a1 % k)
            key = (k, a1 % k)
            if key in seen:
                prev_div, prev_a1 = seen[key]
                if prev_div != div:
                    raise PeriodicityViolation(
                        f"residue-class law failed for k={k}, a1 mod k={a1 % k}: "
                        f"a1={prev_a1} gives divides={prev_div} but a1={a1} gives {div}"
                    )
            else:
                seen[key] = (div, a1)
            records.append(rec)
    return records


def grid_verify(
    a0_range: tuple[int, int],
    a1_range: tuple[int, int],
    a2_range: tuple[int, int],
    digits: int = 15,
) -> dict:
    """Re-check every certified bound on a grid of strictly ordered triples.

    Returns a JSON-ready summary; failures are collected, not raised.
    """
    traces: dict[tuple[int, int], Optional[MultiplicityBoundTrace]] = {}
    summary = {
        "triples": 0,
        "skipped_excluded": 0,
        "order_bound_pass": 0,
        "order_bound_fail": 0,
        "multiplicity_pass": 0,
        "multiplicity_fail": 0,
        "multiplicity_uncertified": 0,
        "degree_bound_pass": 0,
        "degree_bound_fail": 0,
        "degree_bound_vacuous": 0,
        "bridge_pass": 0,
        "bridge_fail": 0,
        "max_observed_order": 0,
        "max_observed_multiplicity": 0,
        "failures": [],
    }

    def trace_for(a0: int, delta: int) -> Optional[MultiplicityBoundTrace]:
        key = (a0, delta)
        if key not in traces:
            try:
                traces[key] = multiplicity_bound(a0, delta)
            except CertificationError:
                traces[key] = None
        return traces[key]

    for a0 in range(a0_range[0], a0_range[1] + 1):
        for a1 in range(max(a0 + 1, a1_range[0]), a1_range[1] + 1):
            for a2 in range(max(a1 + 1, a2_range[0]), a2_range[1] + 1):
                tree = StarTree((a0, a1, a2))
                if tree.excluded:
                    summary["skipped_excluded"] += 1
                    continue
                summary["triples"] += 1
                fz = factor_coxeter(tree)
                summary["max_observed_order"] = max(
                    summary["max_observed_order"], fz.max_observed_order
                )
                summary["max_observed_multiplicity"] = max(
                    summary["max_observed_multiplicity"], fz.max_observed_multiplicity
                )
                _check_order(tree, fz, summary)
                _check_multiplicity(tree, fz, trace_for(a0, a2 - a1), summary)
                _check_degree_bound(tree, fz, trace_for(a0, a2 - a1), summary)
                _check_bridge(tree, fz, digits, summary)
    return summary


def _fail(summary: dict, tree: StarTree, what: str) -> None:
    summary["failures"].append({"arms": list(tree.arms), "check": what})


def _check_order(tree: StarTree, fz: CoxeterFactorization, summary: dict) -> None:
    if fz.max_observed_order <= order_bound(*tree.arms):
        summary["order_bound_pass"] += 1
    else:
        summary["order_bound_fail"] += 1
        _fail(summary, tree, "order_bound")


def _check_multiplicity(
    tree: StarTree,
    fz: CoxeterFactorization,
    trace: Optional[MultiplicityBoundTrace],
    summary: dict,
) -> None:
    if trace is None:
        summary["multiplicity_uncertified"] += 1
        return
    # the bound concerns roots of P = (z-1)^(r+1) R_T, so the factor at
    # order 1 carries an extra r+1
    ok = all(
        mult + (tree.r + 1 if k == 1 else 0) <= trace.m
        for k, mult in fz.cyclotomic_factors.items()
    )
    if ok:
        summary["multiplicity_pass"] += 1
    else:
        summary["multiplicity_fail"] += 1
        _fail(summary, tree, "multiplicity_bound")


def _check_degree_bound(
    tree: StarTree,
    fz: CoxeterFactorization,
    trace: Optional[MultiplicityBoundTrace],
    summary: dict,
) -> None:
    if trace is None:
        summary["degree_bound_vacuous"] += 1
        return
    bound = salem_degree_lower_bound(tree, trace.m)
    if bound <= 0:
        summary["degree_bound_vacuous"] += 1
        return
    if fz.salem_factor.degree() >= bound:
        summary["degree_bound_pass"] += 1
    else:
        summary["degree_bound_fail"] += 1
        _fail(summary, tree, "degree_lower_bound")


def _check_bridge(
    tree: StarTree,
    fz: CoxeterFactorization,
    digits: int,
    summary: dict,
) -> None:
    if fz.salem_factor.degree() < 1:
        summary["bridge_fail"] += 1
        _fail(summary, tree, "bridge: no dominant root for non-excluded triple")
        return
    _, tau_bracket = dominant_root(fz.salem_factor, digits)
    failed = _bridge_failure(
        characteristic_polynomial(tree), fz.rt, lambda_bracket(tau_bracket, digits)
    )
    if failed is None:
        summary["bridge_pass"] += 1
    else:
        summary["bridge_fail"] += 1
        _fail(summary, tree, failed)


def _bridge_failure(
    chi: IntPoly, rt: IntPoly, lam: tuple[Fraction, Fraction]
) -> Optional[str]:
    """The first of the three bridge checks that fails, or None.

    1. ``acampo_identity``: x^n chi(x + 1/x) == R_T(x^2), n = deg chi.
    2. ``lambda_tau_bridge``: chi has opposite nonzero signs at the ends
       of the lambda enclosure (whose lower end is >= 2), so a root of
       chi lies strictly inside it.
    3. ``one_eigenvalue_above_two``: chi(x + 2) has exactly one sign
       variation. chi_T is real-rooted (A is symmetric), and Descartes'
       rule is exact for real-rooted polynomials, so chi_T has exactly one
       root above 2, which check 2 puts inside the enclosure.
    """
    n = len(chi.coeffs) - 1
    expect = [0] * (2 * len(rt.coeffs) - 1)
    expect[::2] = rt.coeffs
    if n < 1 or _acampo_side(chi.coeffs) != expect:
        return "acampo_identity"
    if chi.sign_at(lam[0]) * chi.sign_at(lam[1]) >= 0:
        return "lambda_tau_bridge"
    # chi(2y + 2) has the coefficients of chi(x + 2) times 2^j > 0, so the
    # same sign variations; shifting by 1 needs only prefix sums
    shifted = taylor_shift([c << k for k, c in enumerate(chi.coeffs)], 1)
    signs = [c > 0 for c in shifted if c]
    if sum(a != b for a, b in zip(signs, signs[1:])) != 1:
        return "one_eigenvalue_above_two"
    return None


def _acampo_side(cs: tuple[int, ...]) -> list[int]:
    """Coefficients of x^n f(x + 1/x) for f = sum c_k y^k of degree n.

    One Horner pass in y = x + 1/x on a list of ints: with P_n = c_n and
    P_k = (x^2 + 1) P_{k+1} + c_k x^(n-k), P_0 is the result.
    """
    n = len(cs) - 1
    acc = [cs[n]]
    for k in range(n - 1, -1, -1):
        acc = [a + b for a, b in zip(acc + [0, 0], [0, 0] + acc)]
        acc[n - k] += cs[k]
    return acc
