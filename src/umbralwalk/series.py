"""Exact truncated formal power series over the rationals.

This is the ground-truth layer of the engine: every operation is exact
and nothing ever rounds. A series holds one integer form of its
coefficients: numerators over one positive common denominator, with no
factor common to all of them. That form is unique, so equality and
hashing are exact. Every operation runs on the integers and normalises
its result with one gcd; `coeffs` is the read-only `fractions.Fraction`
view. A series stores a fixed number of coefficients (its *order*);
binary operations require both operands to have the same order, and
mismatches raise instead of silently truncating. A kernel at scale c is
its unit kernel with t replaced by c t, so the kernel-power memo keeps
one chain per kind.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import mul

# All rational constants in the engine are plain `fractions.Fraction`
# values: arbitrary precision, always in lowest terms, denominator > 0.
ExactScalar = Fraction


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
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _ratio(value: int | str | Fraction) -> tuple[int, int]:
    """An exact rational as (numerator, denominator > 0) in lowest terms."""
    v = value if isinstance(value, (int, Fraction)) else as_scalar(value)
    return v.numerator, v.denominator


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


@dataclass(frozen=True, init=False)
class PowerSeries:
    """Order-capped formal power series with exact rational coefficients.

    The coefficient of ``var**n`` is ``nums[n] / den``, with ``den > 0``
    and ``gcd(den, *nums) == 1``; ``coeffs`` gives the same values as
    Fractions. The order is the number of retained coefficients. The
    variable name is purely a label and does not participate in equality.
    """

    nums: tuple[int, ...]
    den: int
    var: str = field(default="t", compare=False)

    def __init__(self, coeffs: Iterable[int | str | Fraction], var: str = "t"):
        pairs = [_ratio(c) for c in coeffs]
        if not pairs:
            raise ValueError("a series must retain at least one coefficient")
        # over the least common denominator no factor is left to cancel
        den = lcm(*(d for _, d in pairs))
        _new(tuple(n * (den // d) for n, d in pairs), den, var, self)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: int | Fraction, order: int, var: str = "t") -> "PowerSeries":
        _check_order(order)
        p, q = _ratio(value)
        return _new((p,) + (0,) * (order - 1), q, var)

    @staticmethod
    def zero(order: int, var: str = "t") -> "PowerSeries":
        return PowerSeries.constant(0, order, var)

    @staticmethod
    def one(order: int, var: str = "t") -> "PowerSeries":
        return PowerSeries.constant(1, order, var)

    @staticmethod
    def from_coeffs(values: list | tuple, order: int, var: str = "t") -> "PowerSeries":
        """Build a series from explicit low-order coefficients, zero-padded."""
        _check_order(order)
        if len(values) > order:
            raise ValueError(f"{len(values)} coefficients exceed order {order}")
        return PowerSeries(tuple(values) + (0,) * (order - len(values)), var)

    # -- basic accessors -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def coefficient(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den)

    def prefix(self, order: int) -> "PowerSeries":
        """The first `order` coefficients, at one slice and one gcd.

        Coefficient j of a product or a quotient does not depend on the
        order it is truncated at, so the prefix of a result is the result
        at the shorter order, in the same unique normal form.
        """
        _check_order(order)
        if order > self.order:
            raise OrderMismatchError(
                f"prefix of order {order} from a series of order {self.order}"
            )
        return _normalised(self.nums[:order], self.den, self.var)

    def _require_same_order(self, other: "PowerSeries") -> None:
        if len(self.nums) != len(other.nums):
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    # -- ring operations (all exact, truncated at the common order) -------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._require_same_order(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return _normalised(
            [x * fa + y * fb for x, y in zip(self.nums, other.nums)], den, self.var
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + -other

    def __neg__(self) -> "PowerSeries":
        return _new(tuple(-x for x in self.nums), self.den, self.var)

    def scale(self, value: int | Fraction) -> "PowerSeries":
        p, q = _ratio(value)
        return _normalised([p * x for x in self.nums], q * self.den, self.var)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return ps_mul(self, other)

    def __str__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"PowerSeries[{self.var}; order {self.order}]({head}{tail})"


def _new(nums: tuple[int, ...], den: int, var: str, series=None) -> PowerSeries:
    """A series (or the fields of `series`) from its normal form nums / den."""
    series = object.__new__(PowerSeries) if series is None else series
    object.__setattr__(series, "nums", nums)
    object.__setattr__(series, "den", den)
    object.__setattr__(series, "var", var)
    return series


def _normalised(nums: list[int], den: int, var: str) -> PowerSeries:
    """The series nums / den (den > 0), reduced by one gcd."""
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [x // g for x in nums], den // g
    return _new(tuple(nums), den, var)


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")


def convolve(a: Sequence[int], b: Sequence[int], start: int, stop: int) -> list[int]:
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
    return _normalised(convolve(a.nums, b.nums, 0, a.order), a.den * b.den, a.var)


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Quotient q with ps_mul(q, b) == a up to the common order.

    Requires a nonzero constant term in the divisor. With a = an/ad,
    b = bn/bd and the quotient so far as numerators Q over the least
    common denominator E of its coefficients, the next coefficient is

      q_k = (an_k bd E - ad sum_{j=1..k} bn_j Q_{k-j}) / (ad E bn_0),

    reduced to lowest terms. Q over E is then already in normal form.
    """
    a._require_same_order(b)
    an, ad, bn, bd = a.nums, a.den, b.nums, b.den
    if bn[0] == 0:
        raise ConstantTermError("division by a series with zero constant term")
    head = ad * bn[0]
    Q, E = [], 1
    for k in range(len(an)):
        acc = an[k] * bd * E - ad * sum(map(mul, bn[1 : k + 1], reversed(Q)))
        d = head * E
        g = gcd(acc, d)
        acc, d = acc // g, d // g
        if E % d:
            grown = lcm(E, d)
            Q = [x * (grown // E) for x in Q]
            E = grown
        Q.append(acc * (E // d))
    return _new(tuple(Q), E, a.var)


# kind: (dividend, kind of the divisor, constant added to the divisor)
_QUOTIENTS = {
    Kernel.SECH: (1, Kernel.COSH, 0),
    Kernel.BERNOULLI: (1, Kernel.UNIFORM, 0),
    Kernel.EULER: (2, Kernel.EXP, 1),
}
_SHIFTED = {Kernel.UNIFORM, Kernel.SINH_OVER_ARG}
_ZEROED_FROM = {Kernel.SINH: 0, Kernel.COSH: 1, Kernel.SINH_OVER_ARG: 1}


def kernel(
    kind: Kernel | str, scale: int | Fraction, order: int, var: str = "t"
) -> PowerSeries:
    """Exact Taylor coefficients of a named kernel with scaled argument.

    The kinds that are not quotients are read off 1 / (n + s)!, with
    s = 0 or 1, at scale 1: numerator n is (order-1+s)! / (n+s)! over the
    denominator (order-1+s)!. The scale is then substituted.
    """
    _check_order(order)
    kind = Kernel(kind)
    if kind in _QUOTIENTS:
        top, base, shift = _QUOTIENTS[kind]
        divisor = kernel(base, scale, order, var) + PowerSeries.constant(shift, order)
        return ps_div(PowerSeries.constant(top, order, var), divisor)
    s = 1 if kind in _SHIFTED else 0
    nums = list(accumulate(range(order - 1 + s, s, -1), mul, initial=1))[::-1]
    start = _ZEROED_FROM.get(kind)
    if start is not None:
        nums[start::2] = [0] * len(nums[start::2])
    return _normalised(*_substituted(nums, factorial(order - 1 + s), scale), var)


def _substituted(
    nums: Sequence[int], den: int, c: int | Fraction
) -> tuple[Sequence[int], int]:
    """nums / den with t replaced by c t, unreduced: for c = p/q, numerator
    j becomes nums_j p^j q^(order-1-j), over den q^(order-1)."""
    p, q = _ratio(c)
    if p == q:
        return nums, den
    p_pows = accumulate(repeat(p, len(nums) - 1), mul, initial=1)
    q_pows = list(accumulate(repeat(q, len(nums) - 1), mul, initial=1))
    scaled = [x * a * b for x, a, b in zip(nums, p_pows, reversed(q_pows))]
    return scaled, den * q_pows[-1]


def geometric_resum(loop_kernel: PowerSeries) -> PowerSeries:
    """Sum of all loop powers: 1 + I + I^2 + ... = 1/(1 - I).

    `I` is one loop: the transform of an excursion that returns to where
    it started. Loops that share a site need a nested resummation (see
    `loopcalc.chain_mgf`), not the sum of their kernels. Requires a
    constant term different from 1.
    """
    if loop_kernel.nums[0] == loop_kernel.den:
        raise ConstantTermError(
            "loop kernel has constant term 1; the resummation diverges"
        )
    one = PowerSeries.one(loop_kernel.order, loop_kernel.var)
    return ps_div(one, one - loop_kernel)


# -- shared memo for integer powers of kernels ---------------------------
#
# Higher-order polynomial and moment evaluation repeatedly needs
# kernel(kind, c)**p for consecutive p. That power is the unit kernel's
# power with t replaced by c t, and the coefficient [t^j] K^p does not
# depend on the truncation order, so one chain of powers of the unit
# kernel is kept per kind, each power a series lengthened by its new
# coefficients. Power q + 1 never holds more coefficients than power q.


class _PowerChain:
    """The powers K^0, K^1, ... of one unit kernel K, each held as a series."""

    __slots__ = ("kind", "powers")

    def __init__(self, kind: Kernel) -> None:
        self.kind = kind
        self.powers: list[PowerSeries] = [PowerSeries.one(1)]

    def __len__(self) -> int:
        """The number of powers held."""
        return len(self.powers)

    def power(self, p: int, order: int) -> tuple[tuple[int, ...], int]:
        """The first `order` numerators of K^p, and their denominator."""
        powers = self.powers
        for q in range(p + 1):
            if q == len(powers) or powers[q].order < order:
                # replaces power q, or appends it as the next power
                powers[q : q + 1] = [self._extended(q, order)]
        return powers[p].nums[:order], powers[p].den

    def _extended(self, q: int, order: int) -> PowerSeries:
        """Power q at `order` coefficients; power q - 1 already has them."""
        if q < 2:
            return kernel(self.kind, 1, order) if q else PowerSeries.one(order)
        # K^q = K^(q-1) K over the product of their denominators, which
        # the denominator of the coefficients held so far divides
        powers, prev, base = self.powers, self.powers[q - 1], self.powers[1]
        den = prev.den * base.den
        old = powers[q].nums if q < len(powers) else ()
        f = den // powers[q].den if old else 0
        new = [x * f for x in old] + convolve(prev.nums, base.nums, len(old), order)
        return _normalised(new, den, "t")


# one chain per kind, so the memo never holds more than len(Kernel) chains
_POWER_CACHE: dict[Kernel, _PowerChain] = {}
_POWER_LOCK = threading.Lock()


def kernel_power_numerators(
    kind: Kernel | str, scale: int | Fraction, p: int, order: int
) -> tuple[Sequence[int], int]:
    """kernel(kind, scale, order) ** p as integer numerators over one denominator.

    The unit kernel's powers are memoized in one chain per kind: a
    request at a longer order extends the powers up to p by only their
    new coefficients, and a request at a shorter order reads a prefix.
    The scale is substituted into that prefix. Safe for concurrent use;
    the memo is guarded by a lock.
    """
    if not isinstance(p, int) or p < 0:
        raise ValueError(f"power must be a nonnegative integer, got {p!r}")
    _check_order(order)
    kind = Kernel(kind)
    c = as_scalar(scale)
    with _POWER_LOCK:
        chain = _POWER_CACHE.get(kind)
        if chain is None:
            chain = _POWER_CACHE[kind] = _PowerChain(kind)
        nums, den = chain.power(p, order)
    return _substituted(nums, den, c)


def kernel_power(
    kind: Kernel | str, scale: int | Fraction, p: int, order: int
) -> PowerSeries:
    """Memoized kernel(kind, scale, order) ** p (see kernel_power_numerators)."""
    return _normalised(*kernel_power_numerators(kind, scale, p, order), "t")


def to_csv(series: PowerSeries) -> str:
    """Serialize a series as CSV rows index,numerator,denominator.

    Rationals only; decimal rendering is deliberately not offered.
    """
    lines = ["index,numerator,denominator"]
    for i, c in enumerate(series.coeffs):
        lines.append(f"{i},{c.numerator},{c.denominator}")
    return "\n".join(lines) + "\n"
