"""Dense polynomials over the integers with exact arithmetic.

Coefficients are arbitrary-precision Python ints, stored from the constant
term upward with trailing zeros trimmed; the zero polynomial is the empty
tuple. Values are immutable and all operations are pure functions, so
instances can be shared across concurrent workers without synchronization.

The degree of the zero polynomial is ``NEG_INF`` (``float("-inf")``), a
real sentinel rather than -1, so degree arithmetic such as
``deg(f*g) == deg(f) + deg(g)`` stays meaningful for every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

NEG_INF = float("-inf")

Rational = Union[int, Fraction]


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
        """Build a polynomial from low-to-high coefficients, trimming zeros."""
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @staticmethod
    def from_terms(terms: Mapping[int, int]) -> "IntPoly":
        """Build from an exponent -> coefficient mapping."""
        if not terms:
            return IntPoly(())
        cs = [0] * (max(terms) + 1)
        for e, c in terms.items():
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            cs[e] += c
        return IntPoly.from_coeffs(cs)

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @staticmethod
    def monomial(exponent: int, coeff: int = 1) -> "IntPoly":
        """coeff * x**exponent"""
        if coeff == 0:
            return IntPoly(())
        return IntPoly((0,) * exponent + (int(coeff),))

    @staticmethod
    def x_pow_minus_one(n: int) -> "IntPoly":
        """x**n - 1"""
        if n < 1:
            raise ValueError("n must be >= 1")
        return IntPoly((-1,) + (0,) * (n - 1) + (1,))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> Union[int, float]:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def height(self) -> int:
        """Largest absolute coefficient (0 for the zero polynomial)."""
        return max((abs(c) for c in self.coeffs), default=0)

    def length(self) -> int:
        """Number of nonzero coefficients."""
        return sum(1 for c in self.coeffs if c)

    def l1(self) -> int:
        """Sum of absolute coefficient values."""
        return sum(abs(c) for c in self.coeffs)

    def is_reciprocal(self) -> bool:
        """True when the coefficient sequence is a palindrome."""
        return self.coeffs == self.coeffs[::-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

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

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly(())
            return IntPoly.from_coeffs(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        # schoolbook is the right tradeoff at the degrees seen here
        # (a few hundred); skip zero coefficients of the sparser factor
        if a.count(0) < b.count(0):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by x**k."""
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
            raise NotDivisible(f"{self} is not divisible by {g}")
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
        lowest terms.
        """
        if not self.coeffs:
            return 0, 1
        acc = self.coeffs[-1]
        qq = 1
        for c in reversed(self.coeffs[:-1]):
            qq *= q
            acc = acc * p + c * qq
        return acc, qq

    def eval_int(self, v: Rational) -> Rational:
        """Exact value at an integer or Fraction point.

        A Fraction point is evaluated in integers and normalized once at
        the end, not once per Horner step.
        """
        acc, qq = self.scaled_value(v.numerator, v.denominator)
        return acc if isinstance(v, int) else Fraction(acc, qq)

    def sign_at(self, v: Rational) -> int:
        """Exact sign of the value at a rational point (-1, 0 or 1).

        The value is scaled by the (positive) denominator power, which
        preserves the sign.
        """
        x = Fraction(v)
        acc, _ = self.scaled_value(x.numerator, x.denominator)
        return (acc > 0) - (acc < 0)

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self, n: int = 1) -> "IntPoly":
        """Exact n-th derivative."""
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        if n == 0:
            return self
        if n > len(self.coeffs) - 1:
            return IntPoly(())
        out = []
        for i in range(n, len(self.coeffs)):
            fall = 1
            for j in range(n):
                fall *= i - j
            out.append(self.coeffs[i] * fall)
        return IntPoly.from_coeffs(out)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def json_coeffs(self) -> list[str]:
        """Low-to-high coefficients as decimal strings."""
        return [str(c) for c in self.coeffs]

    def to_text(self, var: str = "x") -> str:
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
                xi = var if i == 1 else f"{var}^{i}"
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
