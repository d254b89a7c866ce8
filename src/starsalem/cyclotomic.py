"""Cyclotomic polynomials and Euler-phi arithmetic, exactly over Z.

Phi_n is produced by the classical identities

    Phi_p(x)  = 1 + x + ... + x^(p-1)                      (p prime)
    Phi_n(x)  = Phi_rad(n)(x^(n/rad(n)))                   (rad = squarefree kernel)
    Phi_mp(x) = Phi_m(x^p) / Phi_m(x)                      (p prime, p not | m)

so every step stays in exact integer arithmetic and each polynomial is
derived from a strictly smaller one. The defining property
prod_{d | n} Phi_d = x^n - 1 is exercised by the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .intpoly import IntPoly


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi_inverse_bound(d: int) -> int:
    """An upper bound, exact and float-free, on every k with phi(k) <= d.

    Let p_1 < p_2 < ... be the primes and w the largest count with
    prod_{i<=w} (p_i - 1) <= d; the bound is d * prod p_i // prod (p_i - 1).
    Proof: if k has s distinct primes q_1 < ... < q_s, then
    d >= phi(k) >= prod (q_i - 1) >= prod_{i<=s} (p_i - 1), so s <= w; and
    k = phi(k) * prod q_i/(q_i - 1) <= d * prod_{i<=w} p_i/(p_i - 1), since
    p/(p-1) > 1 falls as p grows.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    num = den = 1
    p = 2
    while den * (p - 1) <= d:
        num, den = num * p, den * (p - 1)
        p += 1
        while _factorize(p) != {p: 1}:
            p += 1
    return d * num // den


def _compose_x_pow(f: IntPoly, k: int) -> IntPoly:
    """f(x^k): spreads coefficients, no arithmetic."""
    if k == 1:
        return f
    cs = [0] * ((len(f.coeffs) - 1) * k + 1) if f.coeffs else []
    for i, c in enumerate(f.coeffs):
        cs[i * k] = c
    return IntPoly.from_coeffs(cs)


def _phi_sieve(size: int) -> np.ndarray:
    """phi(k) for k = 0..size-1 (phi(0) slot is 0).

    Starts from phi(k) = k and applies phi(k) -= phi(k) / p once for every
    prime p dividing k; each division is exact whatever the order in which
    the primes are applied. Primes up to sqrt(size) update all their
    multiples by slicing; a larger prime divides k at most once, so those
    are applied one cofactor m at a time, to all p*m < size together.
    """
    phi = np.arange(size, dtype=np.int64)
    is_prime = np.ones(size, dtype=bool)
    is_prime[:2] = False
    root = math.isqrt(size - 1) if size > 1 else 0
    for p in range(2, root + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
            phi[p::p] -= phi[p::p] // p
    large = np.flatnonzero(is_prime[root + 1 :]) + root + 1
    for m in range(1, (size - 1) // (root + 1) + 1):
        ps = large[: np.searchsorted(large, (size - 1) // m, side="right")]
        phi[ps * m] -= phi[ps * m] // ps
    return phi


class CyclotomicTable:
    """Memoized generator for cyclotomic polynomials and phi values."""

    def __init__(self) -> None:
        self._cache: dict[int, IntPoly] = {1: IntPoly.from_coeffs([-1, 1])}
        self._phi_sieve = np.array([0, 1], dtype=np.int64)
        self._phi_sums = np.cumsum(self._phi_sieve)  # index B -> sum_{k<=B} phi(k)

    # ------------------------------------------------------------------
    def cyclotomic(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError("order must be >= 1")
        hit = self._cache.get(n)
        if hit is not None:
            return hit
        fac = _factorize(n)
        rad = 1
        for p in fac:
            rad *= p
        if n != rad:
            poly = _compose_x_pow(self.cyclotomic(rad), n // rad)
        elif len(fac) == 1:
            poly = IntPoly.from_coeffs([1] * n)  # n prime
        else:
            p = max(fac)
            base = self.cyclotomic(n // p)
            poly = _compose_x_pow(base, p).exact_div(base)
        self._cache[n] = poly
        return poly

    def euler_phi(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        phi = 1
        for p, e in _factorize(n).items():
            phi *= (p - 1) * p ** (e - 1)
        return phi

    def _grow_phi(self, b: int) -> None:
        if b < len(self._phi_sums):
            return
        size = max(b, 2 * (len(self._phi_sieve) - 1)) + 1
        self._phi_sieve = _phi_sieve(size)
        self._phi_sums = np.cumsum(self._phi_sieve)

    def phi_values(self, b: int) -> np.ndarray:
        """phi(k) for k = 0..b as an int64 array (phi(0) slot is 0)."""
        self._grow_phi(b)
        return self._phi_sieve[: b + 1]

    def phi_sum(self, b: int) -> int:
        """sum_{k <= b} phi(k)"""
        if b < 1:
            raise ValueError("bound must be >= 1")
        self._grow_phi(b)
        return int(self._phi_sums[b])

    def divides_coxeter(self, k: int, f: IntPoly) -> bool:
        """True when Phi_k divides f.

        Folds f modulo x^k - 1 first (Phi_k divides x^k - 1, so exponents
        can be reduced mod k), which keeps the exact division small when
        deg f is much larger than k.
        """
        if f.is_zero():
            return True
        folded = [0] * k
        for i, c in enumerate(f.coeffs):
            folded[i % k] += c
        return self.cyclotomic(k).divides(IntPoly.from_coeffs(folded))


_DEFAULT = CyclotomicTable()


def default_table() -> CyclotomicTable:
    return _DEFAULT


def cyclotomic_poly(n: int) -> IntPoly:
    return _DEFAULT.cyclotomic(n)


def euler_phi(n: int) -> int:
    return _DEFAULT.euler_phi(n)


def phi_sum(b: int) -> int:
    return _DEFAULT.phi_sum(b)
