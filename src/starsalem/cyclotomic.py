"""Cyclotomic polynomials and Euler-phi arithmetic, exactly over Z.

Phi_n is produced by the classical identities

    Phi_p(x)  = 1 + x + ... + x^(p-1)                      (p prime)
    Phi_n(x)  = Phi_rad(n)(x^(n/rad(n)))                   (rad = squarefree kernel)
    Phi_mp(x) = Phi_m(x^p) / Phi_m(x)                      (p prime, p not | m)

so every step stays in exact integer arithmetic and each polynomial is
derived from a strictly smaller one. The defining property
prod_{d | n} Phi_d = x^n - 1 is exercised by the test suite; at x = 2
it gives ``value_at_two``, the modulus of the sieve's exact screen. phi
has one source, a sieve over Python ints (``phi_values``), and
``phi_sum`` past it comes from a sublinear recursion. The package reads
all of this from one process-wide table, ``default_table()``.
"""

from __future__ import annotations

import math
from itertools import accumulate

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
    cs = [0] * ((len(f.coeffs) - 1) * k + 1) if f.coeffs else []
    for i, c in enumerate(f.coeffs):
        cs[i * k] = c
    return IntPoly.from_coeffs(cs)


def _phi_sieve(size: int) -> list[int]:
    """phi(k) for k = 0..size-1 (phi(0) slot is 0).

    Starts from phi(k) = k and applies phi(k) -= phi(k) / p once for every
    prime p dividing k; each division is exact whatever the order in which
    the primes are applied. p is prime exactly when no smaller prime has
    touched its slot yet, that is when phi(p) is still p.
    """
    phi = list(range(size))
    for p in range(2, size):
        if phi[p] == p:
            phi[p::p] = [v - v // p for v in phi[p::p]]
    return phi


class CyclotomicTable:
    """Memoized generator for cyclotomic polynomials and phi values."""

    def __init__(self) -> None:
        self._cache: dict[int, IntPoly] = {1: IntPoly.from_coeffs([-1, 1])}
        self._at_two: dict[int, int] = {}
        self._phi_sieve = [0, 1]
        self._phi_sums = [0, 1]  # index B -> sum_{k<=B} phi(k), within the sieve
        self._phi_sums_past: dict[int, int] = {}  # the same for B past the sieve

    # ------------------------------------------------------------------
    def cyclotomic(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError("order must be >= 1")
        hit = self._cache.get(n)
        if hit is not None:
            return hit
        fac = _factorize(n)
        rad = math.prod(fac)
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

    def value_at_two(self, k: int) -> int:
        """Phi_k(2) = prod_{e | k} (2^(k/e) - 1)^mu(e), by Moebius inversion
        of 2^k - 1 = prod_{d | k} Phi_d(2); mu(e) = 0 unless e is squarefree."""
        if k < 1:
            raise ValueError("order must be >= 1")
        hit = self._at_two.get(k)
        if hit is None:
            terms = [(k, 1)]  # (k / e, mu(e)) for every squarefree e | k
            for p in _factorize(k):
                terms += [(j // p, -mu) for j, mu in terms]
            num = math.prod((1 << j) - 1 for j, mu in terms if mu > 0)
            den = math.prod((1 << j) - 1 for j, mu in terms if mu < 0)
            hit = self._at_two[k] = num // den
        return hit

    def phi_values(self, b: int) -> list[int]:
        """phi(k) for k = 0..b (phi(0) slot is 0)."""
        if b >= len(self._phi_sieve):
            self._phi_sieve = _phi_sieve(max(b, 2 * (len(self._phi_sieve) - 1)) + 1)
            self._phi_sums = list(accumulate(self._phi_sieve))
        return self._phi_sieve[: b + 1]

    def phi_sum(self, b: int) -> int:
        """S(b) = sum_{k <= b} phi(k): a prefix sum within the phi sieve, and
        past it S(n) = n(n+1)/2 - sum_{d>=2} S(n // d), since sum_{d | j}
        phi(d) = j, with one term per run of equal n // d, memoised."""
        if b < 1:
            raise ValueError("bound must be >= 1")
        if b < len(self._phi_sums):
            return self._phi_sums[b]
        hit = self._phi_sums_past.get(b)
        if hit is None:
            hit = b * (b + 1) // 2
            d = 2
            while d <= b:
                last = b // (b // d)  # the last d' with b // d' == b // d
                hit -= (last - d + 1) * self.phi_sum(b // d)
                d = last + 1
            self._phi_sums_past[b] = hit
        return hit

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


def phi_sum(b: int) -> int:
    return _DEFAULT.phi_sum(b)
