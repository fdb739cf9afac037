"""Exact truncated formal power series over the rationals.

This is the ground-truth layer of the engine: every operation is exact
and nothing ever rounds. A series holds one integer form of its
coefficients: numerators over one positive common denominator, with no
factor common to all of them. That form is unique, so equality and
hashing are exact. Every operation runs on the integers and normalises
its result with one gcd; `coeffs` is the read-only `fractions.Fraction`
view. A series stores a fixed number of coefficients (its *order*);
binary operations require both operands to have the same order, and
mismatches raise instead of silently truncating. A series is its
numerators and denominator alone: it carries no variable name, and the
code that reads it knows whether it is in t, w or u = w^2. A kernel at
scale c is its unit kernel with t replaced by c t, so the kernel-power
memo keeps one chain per kind. `Record` is the base of the package's
records that check their fields or build them; a record compares and
hashes by all its fields.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import attrgetter, mul

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


class Record:
    """Base of the frozen records that check or build their fields.

    The fields are the annotated names, in order, and a class attribute
    of the same name is a default. Unless a subclass has its own
    `__init__`, they are taken by position or keyword and handed to
    `__post_init__` to check. Instances refuse assignment, compare, hash,
    print and pickle by all their fields, and have the `_fields`,
    `_replace` and `_asdict` of a namedtuple.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() is missing field {name!r}")
            values[name] = kwargs.pop(name, getattr(cls, name, None))
        if kwargs or len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}, each once")
        self.__dict__.update(values)
        self.__post_init__()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__  # a deletion passes no value and is refused alike

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes) -> "Record":
        return type(self)(**(self._asdict() | changes))


class PowerSeries(Record):
    """Order-capped formal power series with exact rational coefficients.

    Coefficient n is ``nums[n] / den``, with ``den > 0`` and
    ``gcd(den, *nums) == 1``; ``coeffs`` gives the same values as
    Fractions. The order is the number of retained coefficients.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[int | str | Fraction]):
        pairs = [_ratio(c) for c in coeffs]
        if not pairs:
            raise ValueError("a series must retain at least one coefficient")
        # over the least common denominator no factor is left to cancel
        den = lcm(*(d for _, d in pairs))
        _new(tuple(n * (den // d) for n, d in pairs), den, self)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(value: int | Fraction, order: int) -> "PowerSeries":
        _check_order(order)
        p, q = _ratio(value)
        return _new((p,) + (0,) * (order - 1), q)

    @staticmethod
    def zero(order: int) -> "PowerSeries":
        return PowerSeries.constant(0, order)

    @staticmethod
    def one(order: int) -> "PowerSeries":
        return PowerSeries.constant(1, order)

    @staticmethod
    def from_coeffs(values: list | tuple, order: int) -> "PowerSeries":
        """Build a series from explicit low-order coefficients, zero-padded."""
        _check_order(order)
        if len(values) > order:
            raise ValueError(f"{len(values)} coefficients exceed order {order}")
        return PowerSeries(tuple(values) + (0,) * (order - len(values)))

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
        return _normalised(self.nums[:order], self.den)

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
            [x * fa + y * fb for x, y in zip(self.nums, other.nums)], den
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + -other

    def __neg__(self) -> "PowerSeries":
        return _new(tuple(-x for x in self.nums), self.den)

    def scale(self, value: int | Fraction) -> "PowerSeries":
        p, q = _ratio(value)
        return _normalised([p * x for x in self.nums], q * self.den)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return ps_mul(self, other)

    def __str__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"PowerSeries[order {self.order}]({head}{tail})"


def _new(nums: tuple[int, ...], den: int, series=None) -> PowerSeries:
    """A series (or the fields of `series`) from its normal form nums / den."""
    series = object.__new__(PowerSeries) if series is None else series
    object.__setattr__(series, "nums", nums)
    object.__setattr__(series, "den", den)
    return series


def _normalised(nums: list[int], den: int) -> PowerSeries:
    """The series nums / den (den > 0), reduced by one gcd."""
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [x // g for x in nums], den // g
    return _new(tuple(nums), den)


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
    return _normalised(convolve(a.nums, b.nums, 0, a.order), a.den * b.den)


def _check_unit(series: PowerSeries) -> None:
    """Require a divisor: a series with a nonzero constant term."""
    if series.nums[0] == 0:
        raise ConstantTermError("division by a series with zero constant term")


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Quotient q with ps_mul(q, b) == a up to the common order.

    Requires a nonzero constant term in the divisor. With a = an/ad,
    b = bn/bd and the quotient so far as numerators Q over the least
    common denominator E of its coefficients, the next coefficient is

      q_k = (an_k bd E - ad sum_{j=1..k} bn_j Q_{k-j}) / (ad E bn_0),

    reduced to lowest terms. Q over E is then already in normal form.
    """
    a._require_same_order(b)
    _check_unit(b)
    an, ad, bn, bd = a.nums, a.den, b.nums, b.den
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
    return _new(tuple(Q), E)


# kind: (dividend, kind of the divisor, constant added to the divisor)
_QUOTIENTS = {
    Kernel.SECH: (1, Kernel.COSH, 0),
    Kernel.BERNOULLI: (1, Kernel.UNIFORM, 0),
    Kernel.EULER: (2, Kernel.EXP, 1),
}
_SHIFTED = {Kernel.UNIFORM, Kernel.SINH_OVER_ARG}
_ZEROED_FROM = {Kernel.SINH: 0, Kernel.COSH: 1, Kernel.SINH_OVER_ARG: 1}


def kernel(kind: Kernel | str, scale: int | Fraction, order: int) -> PowerSeries:
    """Exact Taylor coefficients of a named kernel with scaled argument.

    The kinds that are not quotients are read off 1 / (n + s)!, with
    s = 0 or 1, at scale 1: numerator n is (order-1+s)! / (n+s)! over the
    denominator (order-1+s)!. The scale is then substituted.
    """
    _check_order(order)
    kind = Kernel(kind)
    if kind in _QUOTIENTS:
        top, base, shift = _QUOTIENTS[kind]
        divisor = kernel(base, scale, order) + PowerSeries.constant(shift, order)
        return ps_div(PowerSeries.constant(top, order), divisor)
    s = 1 if kind in _SHIFTED else 0
    nums = list(accumulate(range(order - 1 + s, s, -1), mul, initial=1))[::-1]
    start = _ZEROED_FROM.get(kind)
    if start is not None:
        nums[start::2] = [0] * len(nums[start::2])
    return _normalised(*_substituted(nums, factorial(order - 1 + s), scale))


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
    one = PowerSeries.one(loop_kernel.order)
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
        """The number of powers held (the benchmark's memo probe,
        `series.memo_series` in perfbench/probes.py, sums it per kind)."""
        return len(self.powers)

    def power(self, p: int, order: int) -> tuple[tuple[int, ...], int]:
        """The first `order` numerators of K^p, and their denominator.

        Power q + 1 never holds more coefficients than power q, so when
        power p holds `order` of them every lower power does too and the
        request is read at once; otherwise powers 0..p are lengthened.
        """
        powers = self.powers
        if p >= len(powers) or powers[p].order < order:
            for q in range(p + 1):
                if q == len(powers) or powers[q].order < order:
                    # replaces power q, or appends it as the next power
                    powers[q : q + 1] = [self._extended(q, order)]
        power = powers[p]
        return power.nums[:order], power.den

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
        return _normalised(new, den)


# one chain per kind, so the memo never holds more than len(Kernel) chains
_POWER_CACHE: dict[Kernel, _PowerChain] = {}
_POWER_LOCK = threading.Lock()


def unit_power_numerators(
    kind: Kernel, p: int, order: int
) -> tuple[tuple[int, ...], int]:
    """kernel(kind, 1, order) ** p as integer numerators over one
    denominator: the one read of the memo.

    The unit kernel's powers are memoized in one chain per kind: a
    request at a longer order extends the powers up to p by only their
    new coefficients, a request at a shorter order reads a prefix, and a
    request the chain already holds is read at once. Nothing is coerced
    or checked: `kind` is a `Kernel`, p an int >= 0 and order an int
    >= 1. Safe for concurrent use; the memo is guarded by a lock.
    """
    with _POWER_LOCK:
        chain = _POWER_CACHE.get(kind)
        if chain is None:
            chain = _POWER_CACHE[kind] = _PowerChain(kind)
        return chain.power(p, order)


def kernel_power_numerators(
    kind: Kernel | str, scale: int | Fraction, p: int, order: int
) -> tuple[Sequence[int], int]:
    """kernel(kind, scale, order) ** p as integer numerators over one denominator.

    The checked form of `unit_power_numerators`, with the scale
    substituted into the unit kernel's power.
    """
    if not isinstance(p, int) or p < 0:
        raise ValueError(f"power must be a nonnegative integer, got {p!r}")
    _check_order(order)
    kind = Kernel(kind)
    c = as_scalar(scale)
    return _substituted(*unit_power_numerators(kind, p, order), c)


def kernel_power(
    kind: Kernel | str, scale: int | Fraction, p: int, order: int
) -> PowerSeries:
    """Memoized kernel(kind, scale, order) ** p (see kernel_power_numerators)."""
    return _normalised(*kernel_power_numerators(kind, scale, p, order))


def to_csv(series: PowerSeries) -> str:
    """Serialize a series as CSV rows index,numerator,denominator.

    Rationals only; decimal rendering is deliberately not offered.
    """
    lines = ["index,numerator,denominator"]
    for i, c in enumerate(series.coeffs):
        lines.append(f"{i},{c.numerator},{c.denominator}")
    return "\n".join(lines) + "\n"
