"""High-precision root computations.

``dominant_root`` locates the unique real root above 1 by exact-sign
bisection seeded at (1 + 2^-20, height + 2], interleaved with Newton
steps whose endpoints are rounded to short decimals so the rationals
stay small. Every bracket update is decided by an exact integer sign
evaluation, so the returned enclosure is unconditional. The Newton steps
are formed from scaled integer values (``IntPoly.scaled_value``); only
the bisection endpoints and the final enclosure are Fractions.

``unit_circle_residual`` measures how far the non-dominant spectrum of a
Salem factor is from the unit circle, using simultaneous (Aberth-style)
root iteration in double precision with a Newton polish and a residual
guard compared in log space, so that it still fails at high degree.

The convergence sweeps reproduce the limit behaviour of the Salem roots:
with two arms growing they approach the m-bonacci number of the fixed
arm; with the top arms of a larger star growing they approach the
dominant root of the limit polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .coxeter import (
    StarTree,
    coxeter_polynomial,
    limit_polynomial,
    mbonacci_poly,
    spectral_radius,
)
from .cyclotomic import CyclotomicTable
from .factorize import CYCLOTOMIC_ONLY, CoxeterFactorization, factor_coxeter
from .intpoly import IntPoly


class NoSignChange(ArithmeticError):
    """No sign change above 1: the input has no dominant real root there."""


class NonConvergence(RuntimeError):
    """The simultaneous root iteration missed its residual target."""


@dataclass(frozen=True)
class RootCertificate:
    tau: str  # decimal string
    tau_value: Fraction
    bracket: tuple[Fraction, Fraction]
    lam: float
    unit_residual: float
    classification_echo: str


@dataclass(frozen=True)
class ConvergenceRecord:
    arms: tuple[int, ...]
    a1: int
    tau: str
    limit_value: str
    gap: str
    gap_value: Optional[Fraction]
    note: str = ""


def fraction_to_decimal(x: Fraction, digits: int) -> str:
    """Fixed-point decimal string with ``digits`` places, rounded to nearest."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    sign = "-" if x < 0 else ""
    scaled = abs(x) * 10**digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator % scaled.denominator) >= scaled.denominator:
        units += 1
    if digits == 0:
        return f"{sign}{units}"
    return f"{sign}{units // 10**digits}.{str(units % 10**digits).zfill(digits)}"


def dominant_root(f: IntPoly, digits: int = 30) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    """The real root of f in (1, infinity), to ``digits`` decimal places.

    Returns (root, (lo, hi)) with f changing sign across [lo, hi] and
    hi - lo <= 10^-(digits+5); bracket signs are evaluated exactly, so
    the enclosure holds unconditionally. Raises NoSignChange when f does
    not change sign between 1 + 2^-20 and the coefficient bound
    height + 2, which is how cyclotomic-only inputs announce themselves.

    Strategy: coarse exact-sign bisection, then Newton steps rounded to
    short decimals (denominators stay near twice the resolved precision),
    finished by an exact sign check on a width-2*eps enclosure around the
    Newton limit. Bisection is the fallback whenever Newton leaves the
    bracket or fails to certify.

    Only the bisection endpoints and the final enclosure are Fractions.
    A Newton step at x = p/q works on the scaled integer values
    A = q^d f(x) and B = q^(d-1) f'(x): the Newton point is
    (pB - A)/(qB), the step is |A|/(q|B|), and the bracket tests and the
    decimal rounding are integer cross-multiplications and one divmod.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if f.degree() < 1:
        raise NoSignChange(f"no dominant root: {_describe(f)} is constant")
    lo = Fraction((1 << 20) + 1, 1 << 20)
    hi = Fraction(f.height() + 2)
    s_lo = f.sign_at(lo)
    if s_lo == 0:
        return lo, (lo, lo)
    s_hi = f.sign_at(hi)
    if s_hi == 0:
        return hi, (hi, hi)
    if s_lo == s_hi:
        raise NoSignChange(f"no sign change in (1, {hi}] for {_describe(f)}")

    target = Fraction(1, 10 ** (digits + 5))
    eps = target / 4
    inv_eps = eps.denominator

    def bisect_once() -> Optional[tuple[Fraction, tuple[Fraction, Fraction]]]:
        nonlocal lo, hi
        mid = (lo + hi) / 2
        s = f.sign_at(mid)
        if s == 0:
            return mid, (mid, mid)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
        return None

    def inside(num: int, den: int) -> bool:
        """lo < num/den < hi, for den > 0."""
        return (
            lo.numerator * den < num * lo.denominator
            and num * hi.denominator < hi.numerator * den
        )

    while hi - lo > Fraction(1, 128):
        exact = bisect_once()
        if exact:
            return exact

    df = f.derivative(1)
    p, q = ((lo + hi) / 2).as_integer_ratio()
    for _ in range(120):
        fx, _ = f.scaled_value(p, q)
        if fx == 0:
            x = Fraction(p, q)
            return x, (x, x)
        dfx, _ = df.scaled_value(p, q)
        # the Newton point is num/den with den = q|B| > 0
        num, den = (p * dfx - fx, q * dfx) if dfx > 0 else (fx - p * dfx, -q * dfx)
        if not dfx or not inside(num, den):
            exact = bisect_once()
            if exact:
                return exact
            if hi - lo <= target:
                return (lo + hi) / 2, (lo, hi)
            p, q = ((lo + hi) / 2).as_integer_ratio()
            continue
        step_num = abs(fx)  # the Newton step is step_num/den
        resolved = _resolved_digits(step_num * inv_eps + den, den * inv_eps)  # of step + eps
        places = min(2 * resolved + 10, digits + 9)
        scale = 10**places
        p, q = _round_half_even(num * scale, den), scale
        if not inside(p, q):
            g = math.gcd(num, den)
            p, q = num // g, den // g
        if 4 * step_num * inv_eps < den:
            x = Fraction(p, q)
            a, b = x - eps, x + eps
            if lo < a and b < hi:
                sa = f.sign_at(a)
                if sa == 0:
                    return a, (a, a)
                sb = f.sign_at(b)
                if sb == 0:
                    return b, (b, b)
                if sa != sb:
                    return x, (a, b)
            # Newton limit was not actually a root enclosure; keep bisecting
            exact = bisect_once()
            if exact:
                return exact

    while hi - lo > target:
        exact = bisect_once()
        if exact:
            return exact
    return (lo + hi) / 2, (lo, hi)


def _round_half_even(num: int, den: int) -> int:
    """num/den rounded to an integer, ties to even, as ``round(Fraction)`` does (den > 0)."""
    units, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and units % 2):
        units += 1
    return units


_MAX_PLACES = 10_000


def _resolved_digits(num: int, den: int) -> int:
    """Smallest k >= 0 with num/den >= 10^-k, capped at 10 000 (num, den > 0).

    These are the decimal places a width num/den has already resolved.
    With m the bit length of den minus that of num, den/num > 2^(m-1),
    so floor((m-1) * 0.30102) is at most the answer; exact comparisons
    then raise the count by the last few places.
    """
    m = den.bit_length() - num.bit_length()
    k = min(max(0, (m - 1) * 30102 // 100_000), _MAX_PLACES)
    power = 10**k
    while k < _MAX_PLACES and num * power < den:
        power *= 10
        k += 1
    return k


def _describe(f: IntPoly) -> str:
    """Short name for f in messages: its degree and height, not its terms."""
    if f.is_zero():
        return "the zero polynomial"
    return f"a degree-{f.degree()} polynomial of height {f.height()}"


def aberth_roots(f: IntPoly, tol: float = 1e-13, max_iter: int = 500) -> np.ndarray:
    """All complex roots via simultaneous Aberth iteration, double precision.

    Deterministic start on a circle of radius 1.06 (the spectra handled
    here hug the unit circle). Each root gets a final Newton polish; a
    residual check guards the result.
    """
    deg = f.degree()
    if not isinstance(deg, int) or deg < 1:
        raise ValueError("need a nonconstant polynomial")
    cs = np.array([float(c) for c in reversed(f.coeffs)])
    dcs = np.polyder(cs)
    k = np.arange(deg)
    z = 1.06 * np.exp(2j * np.pi * (k + 0.35) / deg)
    for _ in range(max_iter):
        fz = np.polyval(cs, z)
        dfz = np.polyval(dcs, z)
        dfz = np.where(dfz == 0, 1e-300, dfz)
        newton = fz / dfz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        sums = (1.0 / diff).sum(axis=1)
        w = newton / (1.0 - newton * sums)
        z = z - w
        if np.all(np.abs(w) <= tol * (1.0 + np.abs(z))):
            break
    else:
        raise NonConvergence(f"Aberth iteration stalled on {_describe(f)}")
    for _ in range(3):
        fz = np.polyval(cs, z)
        dfz = np.polyval(dcs, z)
        dfz = np.where(dfz == 0, 1e-300, dfz)
        z = z - fz / dfz
    if not _residuals_small(f, z):
        raise NonConvergence(f"root residuals above tolerance for {_describe(f)}")
    return z


def _residuals_small(f: IntPoly, z: np.ndarray) -> bool:
    """|f(z)| <= 1e-10 * l1(f) * max(1, |z|)^deg at every z, compared in logs.

    The right side overflows a double near degree 1000, so both sides are
    taken as logarithms; a non-finite f(z) fails the check.
    """
    cs = np.array([float(c) for c in reversed(f.coeffs)])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fz = np.polyval(cs, z)
        if not np.all(np.isfinite(fz)):
            return False
        log_residual = np.log(np.abs(fz))
    log_scale = math.log(1e-10) + math.log(f.l1())
    log_bound = log_scale + f.degree() * np.log(np.maximum(1.0, np.abs(z)))
    return bool(np.all(log_residual <= log_bound))


def unit_circle_residual(f: IntPoly, tau: Fraction | float) -> float:
    """max | |root| - 1 | over the roots of f other than tau and 1/tau.

    tau and its reciprocal are removed by nearest match within 1e-6;
    an empty remainder (the quadratic case) gives 0.0 by convention.
    """
    roots = list(aberth_roots(f))
    t = float(tau)
    for target in (t, 1.0 / t):
        idx = min(range(len(roots)), key=lambda i: abs(roots[i] - target), default=None)
        if idx is not None and abs(roots[idx] - target) < 1e-6:
            roots.pop(idx)
    if not roots:
        return 0.0
    return float(max(abs(abs(z) - 1.0) for z in roots))


def certify_tree(
    tree: StarTree,
    digits: int = 30,
    factorization: Optional[CoxeterFactorization] = None,
    table: CyclotomicTable | None = None,
) -> Optional[RootCertificate]:
    """Full dominant-root certificate for a tree, or None when the
    Coxeter polynomial is a pure product of cyclotomics."""
    fz = factorization or factor_coxeter(tree, table=table)
    if fz.classification == CYCLOTOMIC_ONLY or fz.salem_factor.degree() < 1:
        return None
    tau, bracket = dominant_root(fz.salem_factor, digits)
    residual = (
        unit_circle_residual(fz.salem_factor, tau)
        if fz.salem_factor.degree() >= 2
        else 0.0
    )
    lam = spectral_radius(tree)
    return RootCertificate(
        tau=fraction_to_decimal(tau, digits),
        tau_value=tau,
        bracket=bracket,
        lam=lam,
        unit_residual=residual,
        classification_echo=fz.classification,
    )


def converge_mbonacci(
    a0: int,
    eta: int,
    a1_values: Sequence[int],
    digits: int = 30,
    table: CyclotomicTable | None = None,
) -> list[ConvergenceRecord]:
    """Salem roots of T(a0, a1, a1 + eta) against the a0-bonacci number."""
    if a0 < 2:
        raise ValueError("a0 must be >= 2")
    if eta < 1:
        raise ValueError("eta must be >= 1")
    limit, _ = dominant_root(mbonacci_poly(a0), digits)
    limit_str = fraction_to_decimal(limit, digits)
    records = []
    for a1 in a1_values:
        if a1 <= a0:
            raise ValueError(f"a1 must exceed a0, got a1={a1}, a0={a0}")
        tree = StarTree((a0, a1, a1 + eta))
        if tree.excluded:
            records.append(
                ConvergenceRecord(
                    arms=tree.arms,
                    a1=a1,
                    tau="",
                    limit_value=limit_str,
                    gap="",
                    gap_value=None,
                    note="skipped: no root leaves the unit circle for these arms",
                )
            )
            continue
        fz = factor_coxeter(tree, table=table)
        tau, _ = dominant_root(fz.salem_factor, digits)
        gap = abs(tau - limit)
        records.append(
            ConvergenceRecord(
                arms=tree.arms,
                a1=a1,
                tau=fraction_to_decimal(tau, digits),
                limit_value=limit_str,
                gap=fraction_to_decimal(gap, digits),
                gap_value=gap,
            )
        )
    return records


def converge_general(
    prefix_arms: Sequence[int],
    r: int,
    growth_schedule: Sequence[Sequence[int]],
    digits: int = 30,
) -> list[ConvergenceRecord]:
    """Salem roots of full trees against the dominant root of the limit
    polynomial of their fixed prefix."""
    prefix = tuple(int(a) for a in prefix_arms)
    limit_poly = limit_polynomial(prefix, r)
    limit, _ = dominant_root(limit_poly, digits)
    limit_str = fraction_to_decimal(limit, digits)
    records = []
    for tail in growth_schedule:
        arms = prefix + tuple(int(t) for t in tail)
        if len(arms) != r + 1:
            raise ValueError(f"schedule entry {tail} does not extend to r+1 = {r + 1} arms")
        tree = StarTree(arms)
        if not tree.strictly_ordered:
            raise ValueError(f"full arm vector must be strictly increasing, got {arms}")
        tau, _ = dominant_root(coxeter_polynomial(tree), digits)
        gap = abs(tau - limit)
        records.append(
            ConvergenceRecord(
                arms=arms,
                a1=arms[len(prefix)],
                tau=fraction_to_decimal(tau, digits),
                limit_value=limit_str,
                gap=fraction_to_decimal(gap, digits),
                gap_value=gap,
            )
        )
    return records
