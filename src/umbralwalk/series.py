"""Exact truncated formal power series over the rationals.

This is the ground-truth layer of the engine: every coefficient is a
`fractions.Fraction`, every operation is exact, and nothing ever rounds.
A series stores a fixed number of coefficients (its *order*); binary
operations require both operands to have the same order, and mismatches
raise instead of silently truncating.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import factorial

# All rational constants in the engine are plain `fractions.Fraction`
# values: arbitrary precision, always in lowest terms, denominator > 0.
ExactScalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the common order."""
    a._require_same_order(b)
    n = a.order
    out = [_ZERO] * n
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n - i):
            bj = b.coeffs[j]
            if bj != 0:
                out[i + j] += ai * bj
    return PowerSeries(tuple(out), a.var)


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Quotient q with ps_mul(q, b) == a up to the common order.

    Requires a nonzero constant term in the divisor.
    """
    a._require_same_order(b)
    if b.constant_term == 0:
        raise ConstantTermError("division by a series with zero constant term")
    n = a.order
    inv0 = _ONE / b.constant_term
    out = [_ZERO] * n
    for k in range(n):
        acc = a.coeffs[k]
        for j in range(1, k + 1):
            bj = b.coeffs[j]
            if bj != 0:
                acc -= bj * out[k - j]
        out[k] = acc * inv0
    return PowerSeries(tuple(out), a.var)


def ps_pow(a: PowerSeries, k: int) -> PowerSeries:
    """Integer power by repeated multiplication; a**0 is the unit series."""
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
    result = PowerSeries.one(a.order, a.var)
    base = a
    while k:
        if k & 1:
            result = ps_mul(result, base)
        k >>= 1
        if k:
            base = ps_mul(base, base)
    return result


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

    The caller passes the sum of the individual loop kernels when several
    loops coexist. Requires a constant term different from 1.
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
# kernel(kind, c)**p for consecutive p. Powers are extended one
# multiplication at a time and memoized per (kind, scale, order).

_POWER_CACHE: dict[tuple[Kernel, Fraction, int], list[PowerSeries]] = {}
_POWER_LOCK = threading.Lock()


def kernel_power(
    kind: Kernel | str, scale: int | Fraction, p: int, order: int
) -> PowerSeries:
    """Memoized kernel(kind, scale, order) ** p.

    Safe for concurrent use; the memo is guarded by a lock.
    """
    if not isinstance(p, int) or p < 0:
        raise ValueError(f"power must be a nonnegative integer, got {p!r}")
    kind = Kernel(kind)
    c = as_scalar(scale)
    key = (kind, c, order)
    with _POWER_LOCK:
        powers = _POWER_CACHE.setdefault(key, [PowerSeries.one(order)])
        if len(powers) <= p:
            # powers[1] is the kernel itself, built once per memo key
            if len(powers) == 1:
                powers.append(kernel(kind, c, order))
            base = powers[1]
            while len(powers) <= p:
                powers.append(ps_mul(powers[-1], base))
        return powers[p]


def to_csv(series: PowerSeries) -> str:
    """Serialize a series as CSV rows index,numerator,denominator.

    Rationals only; decimal rendering is deliberately not offered.
    """
    lines = ["index,numerator,denominator"]
    for i, c in enumerate(series.coeffs):
        lines.append(f"{i},{c.numerator},{c.denominator}")
    return "\n".join(lines) + "\n"
