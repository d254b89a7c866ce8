"""Polynomials attached to star-like trees.

A star-like tree T(a_0, ..., a_r) has one central vertex and r+1 paths
("arms") of a_0 - 1, ..., a_r - 1 edges attached to it. Everything this
module produces is derived from the arm-length vector:

* ``coxeter_polynomial`` R_T = (z+1) prod_i [a_i] - z sum_i [a_i-1] prod_{j!=i} [a_j]
                         over the repunits [a] = 1 + z + ... + z^(a-1)
* ``p_polynomial``       P = (z-1)^{r+1} R_T, derived from R_T; as z^a - 1 = (z-1)[a],
                         P = prod(z^{a_i}-1)(z+1) - z sum_i (z^{a_i-1}-1) prod_{j!=i}(z^{a_j}-1)
* ``qrs_blocks``         for r = 2 the split P = z^{a1+a2} Q + z^{a1+1} R + S
* ``limit_polynomial``   the limit of the leading block when the last
                         r - k arms grow without bound; for the prefix (a0)
                         at r = 2 it is the Q block z^{a0+1} - 2z^{a0} + 1,
                         (z-1) times z^{a0} - z^{a0-1} - ... - z - 1, the
                         minimal polynomial of the a0-bonacci number
* ``characteristic_polynomial``  chi_T, the characteristic polynomial of
                         the tree's adjacency matrix, unpacked from one
                         point value of ``_chi_value``

All computation is exact integer arithmetic. Multiplying by [a] is a
windowed prefix sum, so R_T takes no general product and no division.
chi_T is read through its values q^n chi_T(p/q), each one integer from
the path recurrence; its coefficients are the balanced base-2^s digits
of its value at 2^s, for a width s proved wide enough (``_slot_bits``).
R_T is symmetric in the arms, so a tree stores its arms in ascending
order: T(7, 3, 2) and T(2, 3, 7) are the same tree and get the same answers.

A'Campo's identity (A'Campo 1976) ties the two polynomials of a tree on
n vertices together: R_T(z) = z^(n/2) chi_T(z^(1/2) + z^(-1/2)). So a
root tau > 1 of R_T gives the eigenvalue sqrt(tau) + 1/sqrt(tau) > 2 of
the adjacency matrix; ``scan.grid_verify`` checks the identity exactly,
at one point x = 2^s where equal values prove equal coefficients.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

from .intpoly import IntPoly

EXCLUDED_TRIPLES = frozenset({(2, 3, 4), (2, 3, 5), (2, 3, 6)})


class ArityError(ValueError):
    """Operation requires a different number of arms."""


class OrderError(ValueError):
    """Arm lengths are not strictly increasing where required."""


class InternalInconsistency(AssertionError):
    """An identity that must hold by construction failed; this is a bug."""


@dataclass(frozen=True)
class StarTree:
    """Arm-length vector (a_0, ..., a_r); every a_i >= 2 and r >= 1.

    The arms are stored sorted ascending: every polynomial of the tree is
    symmetric in them.
    """

    arms: tuple[int, ...]

    def __post_init__(self) -> None:
        arms = tuple(map(operator.index, self.arms))
        if len(arms) < 2:
            raise ValueError("a star-like tree needs at least two arms (r >= 1)")
        if any(a < 2 for a in arms):
            raise ValueError(f"every arm length must be >= 2, got {arms}")
        object.__setattr__(self, "arms", tuple(sorted(arms)))

    @property
    def r(self) -> int:
        return len(self.arms) - 1

    @property
    def strictly_ordered(self) -> bool:
        """No two arms are equal (the arms are sorted)."""
        return all(a < b for a, b in zip(self.arms, self.arms[1:]))

    @property
    def excluded(self) -> bool:
        """The three-arm shapes for which no root leaves the unit circle."""
        return self.r == 2 and self.arms in EXCLUDED_TRIPLES

    @property
    def vertex_count(self) -> int:
        return 1 + sum(a - 1 for a in self.arms)


@dataclass(frozen=True)
class BlockDecomposition:
    """The three-arm split P = z^(a1+a2) Q + z^(a1+1) R + S."""

    q: IntPoly
    r: IntPoly
    s: IntPoly
    shifts: tuple[int, int]  # (a1 + a2, a1 + 1)

    def reconstruct(self) -> IntPoly:
        return self.q.shift(self.shifts[0]) + self.r.shift(self.shifts[1]) + self.s


def _times_repunit(cs: list[int], a: int) -> list[int]:
    """[a] times cs (low degree first): window sums, as differences of prefix sums."""
    sums = list(accumulate(cs + [0] * (a - 1)))
    return [x - y for x, y in zip(sums, [0] * a + sums)]


def _times_z_minus_one(cs: list[int], n: int) -> list[int]:
    """Coefficients of (z-1)^n times cs, one difference pass per factor."""
    for _ in range(n):
        cs = [y - x for x, y in zip(cs + [0], [0] + cs)]
    return cs


def _repunit_rule(arms: tuple[int, ...], c: int) -> list[int]:
    """(z + c) prod_i [a_i] - z sum_i [a_i - 1] prod_{j!=i} [a_j], arm by arm."""
    prod, rest = [1], []
    for a in arms:
        # a product rule over the arms so far: prod = prod_j [a_j] and
        # rest = sum_i [a_i - 1] prod_{j != i} [a_j], one degree lower
        rest = [x + y for x, y in zip(_times_repunit(rest, a), _times_repunit(prod, a - 1))]
        prod = _times_repunit(prod, a)
    return [c * x + y - z for x, y, z in zip(prod + [0], [0] + prod, [0] + rest + [0])]


def coxeter_polynomial(tree: StarTree) -> IntPoly:
    """R_T, the repunit rule with c = 1; its degree equals the vertex count."""
    return IntPoly.from_coeffs(_repunit_rule(tree.arms, 1))


def p_polynomial(tree: StarTree) -> IntPoly:
    """P = (z-1)^(r+1) R_T, R_T with cleared denominators."""
    rt = coxeter_polynomial(tree)
    return IntPoly.from_coeffs(_times_z_minus_one(list(rt.coeffs), tree.r + 1))


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

    whose dominant root is the limit of the tree's Salem roots. It is
    (z-1)^(k+1) times ``_repunit_rule`` of the prefix with c = 1 - r + k.
    """
    prefix = tuple(map(operator.index, prefix_arms))
    k = len(prefix) - 1
    if k < 0:
        raise ValueError("prefix_arms must be nonempty")
    if r <= k:
        raise ValueError(f"need r > k, got r={r}, k={k}")
    if any(a < 2 for a in prefix):
        raise ValueError("arm lengths must be >= 2")
    if any(a >= b for a, b in zip(prefix, prefix[1:])):
        raise OrderError(f"prefix arms must be strictly increasing, got {prefix}")
    return IntPoly.from_coeffs(_times_z_minus_one(_repunit_rule(prefix, 1 - r + k), k + 1))


def _chi_value(tree: StarTree, p: int, q: int, plus: bool = False) -> int:
    """q^n chi_T(p/q) for the tree's n vertices, as one integer, or with
    plus=True the same rule with every minus made a plus (chi+, for q = 1).

    Expanding det(x I - A) along the centre c, whose neighbours u_i start
    the arms: chi_T = x chi(T - c) - sum_i chi(T - c - u_i), where T - c is
    the disjoint union of the paths P_{a_i - 1} and T - c - u_i swaps
    P_{a_i - 1} for P_{a_i - 2}; chi_{P_m} = x chi_{P_{m-1}} - chi_{P_{m-2}}.
    Times q^m that is P_m = p P_{m-1} - q^2 P_{m-2} on the integers
    P_m = q^m chi_{P_m}(p/q), and the result is p prod - q^2 rest. R_T takes
    no part, so comparing the two proves something.
    """
    c = 1 if plus else -q * q
    paths = [1, p]
    for _ in range(2, tree.arms[-1]):
        paths.append(p * paths[-1] + c * paths[-2])
    prod, rest = 1, 0
    for a in tree.arms:
        # over the arms so far: prod = prod_j P_{a_j - 1} and
        # rest = sum_i P_{a_i - 2} prod_{j != i} P_{a_j - 1}
        rest = rest * paths[a - 1] + prod * paths[a - 2]
        prod *= paths[a - 1]
    return p * prod + c * rest


def _slot_bits(tree: StarTree, t: int) -> int:
    """A width s with 2^(s-1) > |c| for every coefficient c of chi(x + t),
    t >= 0, and also of x^n chi(x + 1/x) when t = 1.

    Proof, for whatever polynomial chi the rule of ``_chi_value`` computes.
    Read that rule over Z[y] with p = y and q = 1: it builds chi, and with
    plus=True chi+. Each step adds, or multiplies by y or by earlier terms;
    if f+ and g+ have nonnegative coefficients at least the |coefficients|
    of f and g, then f+ + g+, y f+ and f+ g+ bound f +- g, y f and f g the
    same way. So by induction chi+ bounds chi. Hence chi(x + t) =
    sum c_k (x + t)^k is bounded coefficientwise by chi+(x + t), whose
    coefficients are nonnegative with sum chi+(1 + t); and
    x^n chi(x + 1/x) = sum c_k x^(n-k) (x^2 + 1)^k by x^n chi+(x + 1/x),
    with sum chi+(2). s = bits(chi+(1 + t)) + 1 puts 2^(s-1) above that sum.
    """
    return _chi_value(tree, 1 + t, 1, plus=True).bit_length() + 1


def _balanced_digits(v: int, s: int) -> list[int]:
    """The digits d_k in [-2^(s-1), 2^(s-1)) of v = sum_k d_k 2^(sk), low
    first: the coefficients of the polynomial with value v at 2^s whenever
    all of them lie in that range."""
    digits = []
    while v:
        d = v & ((1 << s) - 1)  # v mod 2^s, for either sign of v
        d -= (d >> (s - 1)) << s  # into [-2^(s-1), 2^(s-1))
        digits.append(d)
        v = (v - d) >> s
    return digits


def characteristic_polynomial(tree: StarTree) -> IntPoly:
    """chi_T = det(x I - A) for the tree's adjacency matrix A: the value of
    ``_chi_value`` at 2^s, unpacked with the width s of ``_slot_bits``."""
    s = _slot_bits(tree, 0)
    return IntPoly(tuple(_balanced_digits(_chi_value(tree, 1 << s, 1), s)))
