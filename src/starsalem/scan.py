"""Batch experiments over families of star-like trees.

``periodicity_scan`` tests, for fixed a0 and fixed gap eta = a2 - a1,
which cyclotomic orders k divide the Coxeter polynomial as a1 varies.
For each a1 one ``cyclotomic_divisors`` call answers all orders up to
k_max at once (orders with phi(k) > deg R_T are dropped, the exact screen
Phi_k(2) | R_T(2) discards most others, exact division settles the rest,
all from the process-wide ``default_table()``), and a record is written
for every (a1, k). For k >= 2, whether Phi_k divides depends only on
a1 mod k within such a family; the scan verifies that residue-class law
on every record with k >= 2 and aborts loudly if it ever failed, since
that would falsify the underlying block-shift identity. Phi_1 divides
R_T when R_T(1) = 0, which depends on a1 itself (T(2, 3, 6) is the
affine tree E8~), so the k = 1 records are written but not compared.

``grid_verify`` sweeps a triple grid and re-checks every certified
bound: the paper's cyclotomic order bound (against the orders an uncapped
sieve finds, so the check can fail), the multiplicity bound, the Salem
degree lower bound (when it is informative), and the bridge
lambda = sqrt(tau) + 1/sqrt(tau) between the dominant root and the
tree's spectral radius. The bridge is exact, and it reads point values
q^n chi_T(p/q) of the characteristic polynomial of the tree's adjacency
matrix, each one integer from the path recurrence (``coxeter._chi_value``):
A'Campo's identity x^n chi_T(x + 1/x) = R_T(x^2) is checked at x = 2^s,
wide enough that equal values prove equal coefficients; chi_T must change
sign across the lambda enclosure mapped from tau's; and Descartes' rule on
chi_T(x + 2), unpacked from its value at 2^s + 2 (exact for a real-rooted
polynomial), shows that lambda is its only root above 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coxeter import StarTree, _balanced_digits, _chi_value, _slot_bits, coxeter_polynomial
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
from .intpoly import IntPoly
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
    witnesses if two records sharing (k, a1 mod k), k >= 2, ever disagree.
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
        # the law starts at k = 2: modulo Phi_k, z^k = 1 and the repunit
        # [k] = 0, so R_T mod Phi_k depends on the arms mod k only then
        records.append(ScanRecord(arms=arms, k=1, divides=1 in hits, a1_mod_k=0))
        for k in range(2, k_max + 1):
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
                for key in ("max_observed_order", "max_observed_multiplicity"):
                    summary[key] = max(summary[key], getattr(fz, key))
                trace = trace_for(a0, a2 - a1)
                for check, outcome in (
                    ("order_bound", _check_order(tree, fz)),
                    ("multiplicity", _check_multiplicity(tree, fz, trace)),
                    ("degree_bound", _check_degree_bound(tree, fz, trace)),
                    ("bridge", _check_bridge(tree, fz, digits)),
                ):
                    # an outcome is "pass", "uncertified", "vacuous" or what failed
                    if outcome in ("pass", "uncertified", "vacuous"):
                        summary[f"{check}_{outcome}"] += 1
                    else:
                        summary[f"{check}_fail"] += 1
                        summary["failures"].append({"arms": list(tree.arms), "check": outcome})
    return summary


def _check_order(tree: StarTree, fz: CoxeterFactorization) -> str:
    return "pass" if fz.max_observed_order <= order_bound(*tree.arms) else "order_bound"


def _check_multiplicity(
    tree: StarTree, fz: CoxeterFactorization, trace: Optional[MultiplicityBoundTrace]
) -> str:
    if trace is None:
        return "uncertified"
    # the bound concerns roots of P = (z-1)^(r+1) R_T, so the factor at
    # order 1 carries an extra r+1
    ok = all(
        mult + (tree.r + 1 if k == 1 else 0) <= trace.m
        for k, mult in fz.cyclotomic_factors.items()
    )
    return "pass" if ok else "multiplicity_bound"


def _check_degree_bound(
    tree: StarTree, fz: CoxeterFactorization, trace: Optional[MultiplicityBoundTrace]
) -> str:
    bound = 0 if trace is None else salem_degree_lower_bound(tree, trace.m)
    if bound <= 0:
        return "vacuous"
    return "pass" if fz.salem_factor.degree() >= bound else "degree_lower_bound"


def _check_bridge(tree: StarTree, fz: CoxeterFactorization, digits: int) -> str:
    if fz.salem_factor.degree() < 1:
        return "bridge: no dominant root for non-excluded triple"
    _, tau_bracket = dominant_root(fz.salem_factor, digits)
    return _bridge_failure(tree, fz.rt, lambda_bracket(tau_bracket, digits)) or "pass"


def _bridge_failure(tree: StarTree, rt: IntPoly, lam: tuple[Fraction, Fraction]) -> Optional[str]:
    """The first of the three bridge checks that fails, or None. Each reads
    values q^n chi(p/q) = ``_chi_value(tree, p, q)``, n = vertex count.

    1. ``acampo_identity``: x^n chi(x + 1/x) == R_T(x^2) at x = B = 2^s,
       that is _chi_value at (B^2 + 1, B) against R_T(B^2). Every
       coefficient of either side is below B/2 in absolute value (the
       left by ``_slot_bits``), so the difference of the two polynomials
       has coefficients below B, and it is 0 when its value at B is: the
       lowest nonzero one would be a multiple of B.
    2. ``lambda_tau_bridge``: chi has opposite nonzero signs at the ends
       of the lambda enclosure (whose lower end is >= 2), so a root of
       chi lies strictly inside it.
    3. ``one_eigenvalue_above_two``: chi(x + 2), unpacked from its value
       at 2^s + 2 in balanced base 2^s, has exactly one sign variation.
       chi_T is real-rooted (A is symmetric), and Descartes' rule is exact
       for real-rooted polynomials, so chi_T has exactly one root above 2,
       which check 2 puts inside the enclosure.
    """
    s = max(_slot_bits(tree, 1), rt.height().bit_length() + 1)
    base = 1 << s
    packed = sum(c << (2 * s * k) for k, c in enumerate(rt.coeffs))  # R_T(B^2)
    if _chi_value(tree, base * base + 1, base) != packed:
        return "acampo_identity"
    lo, hi = (_chi_value(tree, x.numerator, x.denominator) for x in lam)
    if lo * hi >= 0:
        return "lambda_tau_bridge"
    s = _slot_bits(tree, 2)
    signs = [d > 0 for d in _balanced_digits(_chi_value(tree, (1 << s) + 2, 1), s) if d]
    if sum(a != b for a, b in zip(signs, signs[1:])) != 1:
        return "one_eigenvalue_above_two"
    return None
