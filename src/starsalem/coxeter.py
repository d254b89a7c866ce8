"""Polynomials attached to star-like trees.

A star-like tree T(a_0, ..., a_r) has one central vertex and r+1 paths
("arms") of a_0 - 1, ..., a_r - 1 edges attached to it. Everything this
module produces is derived from the arm-length vector:

* ``p_polynomial``       the cleared-denominator expansion
                         P = prod(z^{a_i}-1)(z+1) - z sum_i (z^{a_i-1}-1) prod_{j!=i}(z^{a_j}-1)
* ``coxeter_polynomial`` R_T = P / (z-1)^{r+1}, the Coxeter polynomial
* ``qrs_blocks``         for r = 2 the split P = z^{a1+a2} Q + z^{a1+1} R + S
* ``limit_polynomial``   the limit of the leading block when the last
                         r - k arms grow without bound
* ``mbonacci_poly``      x^m - x^{m-1} - ... - x - 1
* ``spectral_radius``    largest adjacency eigenvalue of the tree

All computation is exact integer arithmetic except ``spectral_radius``,
which is floating-point power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intpoly import IntPoly, NotDivisible

EXCLUDED_TRIPLES = frozenset({(2, 3, 4), (2, 3, 5), (2, 3, 6)})


class ArityError(ValueError):
    """Operation requires a different number of arms."""


class OrderError(ValueError):
    """Arm lengths are not strictly increasing where required."""


class InternalInconsistency(AssertionError):
    """An identity that must hold by construction failed; this is a bug."""


@dataclass(frozen=True)
class StarTree:
    """Arm-length vector (a_0, ..., a_r); every a_i >= 2 and r >= 1."""

    arms: tuple[int, ...]

    def __post_init__(self) -> None:
        arms = tuple(int(a) for a in self.arms)
        object.__setattr__(self, "arms", arms)
        if len(arms) < 2:
            raise ValueError("a star-like tree needs at least two arms (r >= 1)")
        if any(a < 2 for a in arms):
            raise ValueError(f"every arm length must be >= 2, got {arms}")

    @property
    def r(self) -> int:
        return len(self.arms) - 1

    @property
    def strictly_ordered(self) -> bool:
        return all(a < b for a, b in zip(self.arms, self.arms[1:]))

    @property
    def excluded(self) -> bool:
        """The three-arm shapes for which no root leaves the unit circle."""
        return self.r == 2 and self.arms in EXCLUDED_TRIPLES

    @property
    def vertex_count(self) -> int:
        return 1 + sum(a - 1 for a in self.arms)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix; vertex 0 is the center."""
        n = self.vertex_count
        a = np.zeros((n, n))
        idx = 1
        for arm in self.arms:
            prev = 0
            for _ in range(arm - 1):
                a[prev, idx] = a[idx, prev] = 1.0
                prev = idx
                idx += 1
        return a


@dataclass(frozen=True)
class BlockDecomposition:
    """The three-arm split P = z^(a1+a2) Q + z^(a1+1) R + S."""

    q: IntPoly
    r: IntPoly
    s: IntPoly
    shifts: tuple[int, int]  # (a1 + a2, a1 + 1)

    def reconstruct(self) -> IntPoly:
        return self.q.shift(self.shifts[0]) + self.r.shift(self.shifts[1]) + self.s


def _arm_product_and_sum(arms: tuple[int, ...]) -> tuple[IntPoly, IntPoly]:
    """prod_i (z^{a_i}-1) and z sum_i (z^{a_i-1}-1) prod_{j!=i} (z^{a_j}-1)."""
    prod_all = IntPoly.one()
    for a in arms:
        prod_all = prod_all * IntPoly.x_pow_minus_one(a)
    acc = IntPoly.zero()
    for i, a in enumerate(arms):
        term = IntPoly.x_pow_minus_one(a - 1)
        for j, b in enumerate(arms):
            if j != i:
                term = term * IntPoly.x_pow_minus_one(b)
        acc = acc + term
    return prod_all, acc.shift(1)


def p_polynomial(tree: StarTree) -> IntPoly:
    """Exact expansion of (z-1)^(r+1) * R_T from the arm lengths."""
    prod_all, arm_sum = _arm_product_and_sum(tree.arms)
    return prod_all * IntPoly.from_coeffs([1, 1]) - arm_sum


def coxeter_polynomial(tree: StarTree) -> IntPoly:
    """R_T = P / (z-1)^(r+1); its degree equals the vertex count."""
    p = p_polynomial(tree)
    divisor = IntPoly.from_coeffs([-1, 1]) ** (tree.r + 1)
    try:
        rt = p.exact_div(divisor)
    except NotDivisible as exc:  # mathematically impossible; implementation bug
        raise InternalInconsistency(
            f"(z-1)^{tree.r + 1} does not divide P for arms {tree.arms}"
        ) from exc
    return rt


def block_polys(a0: int, delta: int) -> tuple[IntPoly, IntPoly, IntPoly]:
    """The Q, R, S blocks, which depend only on a0 and delta = a2 - a1."""
    q = IntPoly.monomial(a0 + 1) + IntPoly.monomial(a0, -2) + IntPoly.one()
    # built by polynomial addition: the exponents delta and a0-1 may
    # coincide, and the colliding terms must cancel
    r = (
        IntPoly.monomial(delta + a0 - 1)
        + IntPoly.monomial(delta, -1)
        + IntPoly.monomial(a0 - 1)
        - IntPoly.one()
    )
    s = IntPoly.monomial(a0 + 1, -1) + IntPoly.monomial(1, 2) - IntPoly.one()
    return q, r, s


def qrs_blocks(tree: StarTree) -> BlockDecomposition:
    """Closed-form Q, R, S blocks for a strictly ordered three-arm tree."""
    if tree.r != 2:
        raise ArityError(f"block split needs exactly three arms, got {tree.r + 1}")
    if not tree.strictly_ordered:
        raise OrderError(f"arms must satisfy a0 < a1 < a2, got {tree.arms}")
    a0, a1, a2 = tree.arms
    q, r, s = block_polys(a0, a2 - a1)
    blocks = BlockDecomposition(q=q, r=r, s=s, shifts=(a1 + a2, a1 + 1))
    if blocks.reconstruct() != p_polynomial(tree):
        raise InternalInconsistency(f"block identity failed for arms {tree.arms}")
    return blocks


def limit_polynomial(prefix_arms: tuple[int, ...], r: int) -> IntPoly:
    """Limit of the leading coefficient block when arms k+1..r grow.

    With k = len(prefix_arms) - 1 this expands

        (z + 1 - r + k) prod_{i<=k} (z^{a_i} - 1)
            - z sum_{i<=k} (z^{a_i - 1} - 1) prod_{j<=k, j!=i} (z^{a_j} - 1)

    whose dominant root is the limit of the tree's Salem roots.
    """
    prefix = tuple(int(a) for a in prefix_arms)
    k = len(prefix) - 1
    if k < 0:
        raise ValueError("prefix_arms must be nonempty")
    if r <= k:
        raise ValueError(f"need r > k, got r={r}, k={k}")
    if any(a < 2 for a in prefix):
        raise ValueError("arm lengths must be >= 2")
    if any(a >= b for a, b in zip(prefix, prefix[1:])):
        raise OrderError(f"prefix arms must be strictly increasing, got {prefix}")
    prod_all, arm_sum = _arm_product_and_sum(prefix)
    return prod_all * IntPoly.from_coeffs([1 - r + k, 1]) - arm_sum


def mbonacci_poly(m: int) -> IntPoly:
    """x^m - x^(m-1) - ... - x - 1, minimal polynomial of the m-bonacci number."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return IntPoly.from_coeffs([-1] * m + [1])


def spectral_radius(tree: StarTree, tol: float = 1e-13, max_iter: int = 200_000) -> float:
    """Largest adjacency eigenvalue via power iteration.

    Trees are bipartite, so the spectrum is symmetric and the unshifted
    iteration would oscillate between +/- lambda; iterating A + I breaks
    the tie while keeping the same Perron vector. Deterministic: starts
    from the normalized all-ones vector (the Perron vector is positive)
    and stops when the Rayleigh quotient is stable to ``tol`` over several
    consecutive sweeps.
    """
    a = tree.adjacency()
    n = a.shape[0]
    x = np.ones(n) / math.sqrt(n)
    rq_prev = 0.0
    stable = 0
    rq = 0.0
    for _ in range(max_iter):
        y = a @ x + x
        rq = float(x @ y)
        x = y / np.linalg.norm(y)
        if abs(rq - rq_prev) <= tol * max(rq, 1.0):
            stable += 1
            if stable >= 4:
                break
        else:
            stable = 0
        rq_prev = rq
    return rq - 1.0
