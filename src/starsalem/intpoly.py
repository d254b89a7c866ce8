"""Dense polynomials over the integers with exact arithmetic.

Coefficients are arbitrary-precision Python ints, stored from the constant
term upward with trailing zeros trimmed; the zero polynomial is the empty
tuple, of degree -1. Values are immutable and all operations are pure
functions.

Every evaluator takes its point p/q as an integer pair (p, q) with q > 0,
not necessarily in lowest terms. Values there come two ways.
``scaled_value`` is exact: its Horner accumulator grows to about
deg * bits(q) bits. ``ball_value`` is an integer ball around 2^w f(p/q)
whose accumulator stays near w bits; it only screens. ``sign_at`` takes
the sign from the ball when the ball excludes 0 and the exact accumulator
would be large, and from ``scaled_value`` otherwise, so every sign it
returns is exact. At a dyadic point, q = 2^k, both kernels shift where
they would divide by q or multiply by its powers, and return the same
integers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

# Size in bits, deg * max(bits(p), bits(q)), of the exact Horner
# accumulator at p/q from which a ball screen is tried first. Below it the
# exact pass is about as fast, and screening first slowed grid-sized inputs.
BALL_BITS = 10_000


class NotDivisible(ArithmeticError):
    """Exact division was requested but the remainder is nonzero."""


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_coeffs(coeffs: Iterable[int]) -> "IntPoly":
        """Build a polynomial from low-to-high integer coefficients,
        trimming zeros; a float or Fraction raises TypeError."""
        cs = list(map(operator.index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "IntPoly":
        """coeff * x**exponent, for exponent >= 0"""
        coeff = operator.index(coeff)
        if exponent < 0:
            raise ValueError("negative exponent")
        if coeff == 0:
            return IntPoly(())
        return IntPoly((0,) * exponent + (coeff,))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """len(coeffs) - 1, which is -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def height(self) -> int:
        """Largest absolute coefficient (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0)

    def l1(self) -> int:
        """Sum of absolute coefficient values."""
        return sum(abs(c) for c in self.coeffs)

    def is_reciprocal(self) -> bool:
        """True when the coefficient sequence is a palindrome."""
        return self.coeffs == self.coeffs[::-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def describe(self) -> str:
        """Short name for messages: the degree and height, not the terms."""
        if not self.coeffs:
            return "the zero polynomial"
        return f"a degree-{self.degree()} polynomial of height {self.height()}"

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly.from_coeffs(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x**k, for k >= 0."""
        if k < 0:
            raise ValueError("negative exponent")
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def _divmod_int(self, g: "IntPoly") -> tuple["IntPoly", "IntPoly", bool]:
        """Quotient/remainder over Z.

        Returns (q, r, ok); ok is False when a leading-coefficient step was
        not an exact integer division, in which case no quotient in Z[x]
        exists and (q, r) are meaningless.
        """
        if g.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        gl = g.coeffs[-1]
        dg = len(g.coeffs) - 1
        q = [0] * max(len(rem) - dg, 0)
        while len(rem) - 1 >= dg and rem:
            if rem[-1] == 0:
                rem.pop()
                continue
            c, r = divmod(rem[-1], gl)
            if r != 0:
                return IntPoly(()), IntPoly(()), False
            k = len(rem) - 1 - dg
            q[k] = c
            for i, gc in enumerate(g.coeffs):
                rem[i + k] -= c * gc
            rem.pop()
        return IntPoly.from_coeffs(q), IntPoly.from_coeffs(rem), True

    def exact_div(self, g: "IntPoly") -> "IntPoly":
        """Return q with self == q * g, or raise NotDivisible."""
        q, r, ok = self._divmod_int(g)
        if not ok or not r.is_zero():
            raise NotDivisible(f"{self.describe()} is not divisible by {g.describe()}")
        return q

    def divides(self, f: "IntPoly") -> bool:
        """True when self divides f over Z[x]."""
        _, r, ok = f._divmod_int(self)
        return ok and r.is_zero()

    # ------------------------------------------------------------------
    # evaluation and calculus
    # ------------------------------------------------------------------
    def scaled_value(self, p: int, q: int) -> tuple[int, int]:
        """(q^deg * f(p/q), q^deg) for q > 0, by integer Horner steps.

        The first entry has the sign of f(p/q), and p/q need not be in
        lowest terms. For q = 2^k the term c_i q^(deg-i) is the shift
        c_i << k (deg - i), with no power of q formed.
        """
        if not self.coeffs:
            return 0, 1
        acc = self.coeffs[-1]
        if q & (q - 1) == 0:  # q = 2^k
            k = q.bit_length() - 1
            shift = 0
            for c in reversed(self.coeffs[:-1]):
                shift += k
                acc = acc * p + (c << shift)
            return acc, 1 << shift
        qq = 1
        for c in reversed(self.coeffs[:-1]):
            qq *= q
            acc = acc * p + c * qq
        return acc, qq

    def ball_value(self, p: int, q: int, w: int) -> tuple[int, int]:
        """An integer ball (c, r) with |c - 2^w f(p/q)| <= r, for q > 0, w >= 0.

        A fixed-point Horner pass on 2^w times the partial values:
        acc <- (acc * p) // q + (c_i << w), from acc = c_d << w, and
        r <- ceil(r |p| / q) + 1, from r = 0. p may have either sign, and
        p/q need not be in lowest terms. The accumulator stays within about
        w + deg * log2(max(1, |p/q|)) + log2(height) bits.

        Proof: let e_i be acc minus its exact value after step i (e = 0 at
        the start). The floor of acc * p / q is that quotient minus some t
        in [0, 1), so e_i = e_{i-1} p / q - t and |e_i| <= |e_{i-1}| |p|/q + 1.
        By induction |e_i| <= r_i, since r_i >= r_{i-1} |p|/q + 1.

        For q = 2^k the floors are shifts, floor(x / 2^k) = x >> k for
        every integer x (>> floors negative x too), so the pass returns the
        same (c, r) with no division and the proof holds as it stands.
        """
        if not self.coeffs:
            return 0, 0
        acc = self.coeffs[-1] << w
        r = 0
        ap = abs(p)
        if q & (q - 1) == 0:  # q = 2^k
            k = q.bit_length() - 1
            for c in reversed(self.coeffs[:-1]):
                acc = (acc * p >> k) + (c << w)
                r = -(-r * ap >> k) + 1
            return acc, r
        for c in reversed(self.coeffs[:-1]):
            acc = acc * p // q + (c << w)
            r = -(-r * ap // q) + 1
        return acc, r

    def eval_int(self, n: int) -> int:
        """Exact value at the integer n."""
        return self.scaled_value(n, 1)[0]

    def sign_at(self, p: int, q: int) -> int:
        """Exact sign of the value at p/q (-1, 0 or 1), for q > 0; p/q need
        not be in lowest terms.

        When the exact accumulator, deg * max(bits(p), bits(q)) bits,
        reaches ``BALL_BITS`` and is more than 4w for w = bits(q) + 64, one
        ball at w screens first: a ball that excludes 0 has the sign of the
        value. Otherwise the sign is that of ``scaled_value``, the value
        times a positive power of q.
        """
        size = (len(self.coeffs) - 1) * max(p.bit_length(), q.bit_length())
        if size >= BALL_BITS:
            w = q.bit_length() + 64
            if 4 * w < size:
                c, r = self.ball_value(p, q, w)
                if abs(c) > r:
                    return 1 if c > 0 else -1
        acc, _ = self.scaled_value(p, q)
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "IntPoly":
        """Exact first derivative: c_i x^i goes to i c_i x^(i-1)."""
        return IntPoly.from_coeffs([i * c for i, c in enumerate(self.coeffs[1:], 1)])

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def json_coeffs(self) -> list[str]:
        """Low-to-high coefficients as decimal strings."""
        return [str(c) for c in self.coeffs]

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xi = "x" if i == 1 else f"x^{i}"
                body = xi if mag == 1 else f"{mag}*{xi}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"IntPoly({self.to_text()!r})"


def taylor_shift(coeffs: Iterable[int], s: int) -> list[int]:
    """Coefficients of p(x + s), low degree first, for the polynomial p
    with these low-to-high coefficients.

    Repeated synthetic division by x - s: each pass is one ``accumulate``
    over the high-degree-first list, whose last entry is the next
    coefficient, and whose steps are plain sums when s = 1.
    """
    p = list(coeffs)[::-1]
    step = None if s == 1 else lambda acc, c: acc * s + c
    for n in range(len(p), 1, -1):
        p[:n] = accumulate(p[:n], step)
    return p[::-1]
