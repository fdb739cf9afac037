"""Exact truncated formal power series over the rationals.

This is the ground-truth layer of the engine: every operation is exact
and nothing ever rounds. Public coefficients are `fractions.Fraction`s;
the arithmetic runs on integer numerators over one common denominator
per operand, and each result coefficient is normalised once. A series
stores a fixed number of coefficients (its *order*); binary operations
require both operands to have the same order, and mismatches raise
instead of silently truncating.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

# All rational constants in the engine are plain `fractions.Fraction`
# values: arbitrary precision, always in lowest terms, denominator > 0.
ExactScalar = Fraction

_ZERO = Fraction(0)


class OrderMismatchError(ValueError):
    """Binary operation on series with different orders."""


class ConstantTermError(ValueError):
    """Division (or resummation) blocked by a bad constant term."""


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Floats are rejected on purpose: the engine is exact end to end.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Kernel(str, Enum):
    """Named exact Taylor kernels, each with a rational scale c.

    EXP            e^(c t)
    BERNOULLI      c t / (e^(c t) - 1)
    EULER          2 / (e^(c t) + 1)
    UNIFORM        (e^(c t) - 1) / (c t)
    SINH           sinh(c t)
    COSH           cosh(c t)
    SECH           sech(c t)
    SINH_OVER_ARG  sinh(c t) / (c t)

    At c = 0 every kind degenerates to the constant series of its
    limiting value at the origin.
    """

    EXP = "exp"
    BERNOULLI = "bernoulli"
    EULER = "euler"
    UNIFORM = "uniform"
    SINH = "sinh"
    COSH = "cosh"
    SECH = "sech"
    SINH_OVER_ARG = "sinh_over_arg"


@dataclass(frozen=True)
class PowerSeries:
    """Order-capped formal power series with exact rational coefficients.

    ``coeffs[n]`` is the coefficient of ``var**n``; ``len(coeffs)`` is the
    order (number of retained coefficients). The variable name is purely
    a label and does not participate in equality.
    """

    coeffs: tuple[Fraction, ...]
    var: str = field(default="t", compare=False)

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series must retain at least one coefficient")
        if not all(isinstance(c, Fraction) for c in self.coeffs):
            object.__setattr__(
                self, "coeffs", tuple(as_scalar(c) for c in self.coeffs)
            )

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: int | Fraction, order: int, var: str = "t") -> "PowerSeries":
        _check_order(order)
        v = as_scalar(value)
        return PowerSeries((v,) + (_ZERO,) * (order - 1), var)

    @staticmethod
    def zero(order: int, var: str = "t") -> "PowerSeries":
        return PowerSeries.constant(0, order, var)

    @staticmethod
    def one(order: int, var: str = "t") -> "PowerSeries":
        return PowerSeries.constant(1, order, var)

    @staticmethod
    def from_coeffs(
        values: list | tuple, order: int, var: str = "t"
    ) -> "PowerSeries":
        """Build a series from explicit low-order coefficients, zero-padded."""
        _check_order(order)
        vals = [as_scalar(v) for v in values]
        if len(vals) > order:
            raise ValueError(f"{len(vals)} coefficients exceed order {order}")
        return PowerSeries(tuple(vals) + (_ZERO,) * (order - len(vals)), var)

    # -- basic accessors -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def coefficient(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _require_same_order(self, other: "PowerSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    # -- ring operations (all exact, truncated at the common order) -------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._require_same_order(other)
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.var
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._require_same_order(other)
        return PowerSeries(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.var
        )

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(tuple(-a for a in self.coeffs), self.var)

    def scale(self, value: int | Fraction) -> "PowerSeries":
        v = as_scalar(value)
        return PowerSeries(tuple(v * a for a in self.coeffs), self.var)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return ps_mul(self, other)

    def __str__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"PowerSeries[{self.var}; order {self.order}]({head}{tail})"


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")


def _numerators(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Coefficients as integer numerators over their least common denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def convolve(a: list[int], b: list[int], start: int, stop: int) -> list[int]:
    """Coefficients start..stop-1 of the product of two integer series.

    Both series need at least `stop` coefficients.
    """
    b_rev = b[stop - 1 :: -1]  # b_{stop-1}, ..., b_0
    return [
        sum(map(mul, a[: j + 1], b_rev[stop - 1 - j :]))
        for j in range(start, stop)
    ]


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the common order."""
    a._require_same_order(b)
    an, ad = _numerators(a.coeffs)
    bn, bd = _numerators(b.coeffs)
    den = ad * bd
    return PowerSeries(
        tuple(Fraction(c, den) for c in convolve(an, bn, 0, a.order)), a.var
    )


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Quotient q with ps_mul(q, b) == a up to the common order.

    Requires a nonzero constant term in the divisor. With a = an/ad,
    b = bn/bd and the quotient so far as numerators Q over the least
    common denominator E of its coefficients, the next coefficient is

      q_k = (an_k bd E - ad sum_{j=1..k} bn_j Q_{k-j}) / (ad E bn_0).
    """
    a._require_same_order(b)
    if b.constant_term == 0:
        raise ConstantTermError("division by a series with zero constant term")
    an, ad = _numerators(a.coeffs)
    bn, bd = _numerators(b.coeffs)
    head = ad * bn[0]
    out: list[Fraction] = []
    Q: list[int] = []
    E = 1
    for k in range(a.order):
        acc = an[k] * bd * E - ad * sum(map(mul, bn[1 : k + 1], reversed(Q)))
        q = Fraction(acc, head * E)
        out.append(q)
        if E % q.denominator:
            grown = lcm(E, q.denominator)
            Q = [x * (grown // E) for x in Q]
            E = grown
        Q.append(q.numerator * (E // q.denominator))
    return PowerSeries(tuple(out), a.var)


def kernel(
    kind: Kernel | str, scale: int | Fraction, order: int, var: str = "t"
) -> PowerSeries:
    """Exact Taylor coefficients of a named kernel with scaled argument."""
    _check_order(order)
    kind = Kernel(kind)
    c = as_scalar(scale)
    if kind is Kernel.EXP:
        coeffs = [c**n / factorial(n) for n in range(order)]
    elif kind is Kernel.SINH:
        coeffs = [
            c**n / factorial(n) if n % 2 else _ZERO for n in range(order)
        ]
    elif kind is Kernel.COSH:
        coeffs = [
            c**n / factorial(n) if n % 2 == 0 else _ZERO for n in range(order)
        ]
    elif kind is Kernel.SINH_OVER_ARG:
        coeffs = [
            c**n / factorial(n + 1) if n % 2 == 0 else _ZERO
            for n in range(order)
        ]
    elif kind is Kernel.UNIFORM:
        coeffs = [c**n / factorial(n + 1) for n in range(order)]
    elif kind is Kernel.SECH:
        return ps_div(
            PowerSeries.one(order, var), kernel(Kernel.COSH, c, order, var)
        )
    elif kind is Kernel.BERNOULLI:
        return ps_div(
            PowerSeries.one(order, var), kernel(Kernel.UNIFORM, c, order, var)
        )
    elif kind is Kernel.EULER:
        exp_plus_one = [c**n / factorial(n) for n in range(order)]
        exp_plus_one[0] += 1
        return ps_div(
            PowerSeries.constant(2, order, var),
            PowerSeries(tuple(exp_plus_one), var),
        )
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown kernel kind {kind!r}")
    return PowerSeries(tuple(coeffs), var)


def geometric_resum(loop_kernel: PowerSeries) -> PowerSeries:
    """Sum of all loop powers: 1 + I + I^2 + ... = 1/(1 - I).

    `I` is one loop: the transform of an excursion that returns to where
    it started. Loops that share a site need a nested resummation (see
    `loopcalc.chain_mgf`), not the sum of their kernels. Requires a
    constant term different from 1.
    """
    if loop_kernel.constant_term == 1:
        raise ConstantTermError(
            "loop kernel has constant term 1; the resummation diverges"
        )
    one = PowerSeries.one(loop_kernel.order, loop_kernel.var)
    return ps_div(one, one - loop_kernel)


# -- shared memo for integer powers of kernels ---------------------------
#
# Higher-order polynomial and moment evaluation repeatedly needs
# kernel(kind, c)**p for consecutive p. The coefficient [t^j] K^p does not
# depend on the truncation order, so one chain of powers is kept per
# (kind, scale), each power as integer numerators over its least common
# denominator. Power q + 1 never holds more coefficients than power q.


class _PowerChain:
    """The powers K^0, K^1, ... of one kernel K, held as integers."""

    __slots__ = ("kind", "scale", "nums", "dens")

    def __init__(self, kind: Kernel, scale: Fraction) -> None:
        self.kind, self.scale = kind, scale
        self.nums: list[list[int]] = [[1]]  # power q: numerators over dens[q]
        self.dens: list[int] = [1]

    def __len__(self) -> int:
        """The number of powers held."""
        return len(self.nums)

    def power(self, p: int, order: int) -> tuple[list[int], int]:
        """The first `order` numerators of K^p, and their denominator."""
        nums = self.nums
        for q in range(min(p, len(nums) - 1) + 1):
            if len(nums[q]) < order:
                self._extend(q, order)
        while len(nums) <= p:
            nums.append([])
            self.dens.append(1)
            self._extend(len(nums) - 1, order)
        return nums[p][:order], self.dens[p]

    def _extend(self, q: int, order: int) -> None:
        """Bring power q to `order` coefficients; power q - 1 already is."""
        nums, dens = self.nums, self.dens
        if q == 0:
            nums[0] += [0] * (order - len(nums[0]))
        elif q == 1:
            nums[1], dens[1] = _numerators(
                kernel(self.kind, self.scale, order).coeffs
            )
        else:
            # K^q = K^(q-1) K over dens[q-1] dens[1], which dens[q] divides
            old = nums[q]
            den = dens[q - 1] * dens[1]
            f = den // dens[q]
            new = [x * f for x in old] + convolve(
                nums[q - 1], nums[1], len(old), order
            )
            g = gcd(den, *new)
            nums[q] = [x // g for x in new]
            dens[q] = den // g


_POWER_CACHE: dict[tuple[Kernel, Fraction], _PowerChain] = {}
_POWER_LOCK = threading.Lock()


def kernel_power_numerators(
    kind: Kernel | str, scale: int | Fraction, p: int, order: int
) -> tuple[list[int], int]:
    """kernel(kind, scale, order) ** p as integer numerators over one denominator.

    Memoized in one chain of powers per (kind, scale): a request at a
    longer order extends the powers up to p by only their new
    coefficients, and a request at a shorter order reads a prefix. Safe
    for concurrent use; the memo is guarded by a lock.
    """
    if not isinstance(p, int) or p < 0:
        raise ValueError(f"power must be a nonnegative integer, got {p!r}")
    _check_order(order)
    kind = Kernel(kind)
    c = as_scalar(scale)
    with _POWER_LOCK:
        chain = _POWER_CACHE.get((kind, c))
        if chain is None:
            chain = _POWER_CACHE[kind, c] = _PowerChain(kind, c)
        return chain.power(p, order)


def kernel_power(
    kind: Kernel | str, scale: int | Fraction, p: int, order: int
) -> PowerSeries:
    """Memoized kernel(kind, scale, order) ** p (see kernel_power_numerators)."""
    nums, den = kernel_power_numerators(kind, scale, p, order)
    return PowerSeries(tuple(Fraction(x, den) for x in nums))


def to_csv(series: PowerSeries) -> str:
    """Serialize a series as CSV rows index,numerator,denominator.

    Rationals only; decimal rendering is deliberately not offered.
    """
    lines = ["index,numerator,denominator"]
    for i, c in enumerate(series.coeffs):
        lines.append(f"{i},{c.numerator},{c.denominator}")
    return "\n".join(lines) + "\n"
