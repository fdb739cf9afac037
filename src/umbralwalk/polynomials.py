"""Higher-order Bernoulli and Euler polynomials and related exact data.

B_n^(p)(x) and E_n^(p)(x) are the coefficients of t^n/n! in
(t/(e^t-1))^p e^(xt) and (2/(e^t+1))^p e^(xt). The order-p kernel power
is taken from the shared series memo by its unit-scale read, as integer
numerators over one denominator, and the polynomial in x is assembled
from the identity

    n! [t^n] K(t) e^(xt) = sum_j (n!/(n-j)!) K_j x^(n-j),

with the weights n!/(n-j)! built once per degree, so no bivariate series
type is needed. A `Poly` holds integer numerators over one denominator
in a normal form, as a `PowerSeries` does. Also provides Bernoulli/Euler
numbers and the reciprocal-Chebyshev weights p_l^(N) defined by
1/T_N(1/t) = sum_l p_l^(N) t^l, streamed as the integers p_l 2^l over
2^l by one division-free recurrence at every N: its taps are the integer
coefficients of the monic 2 T_N(x/2) (the Vieta-Lucas polynomial), so
the scale grows two bits per step of the weights' lattice l = N % 2 + 2j.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .series import ExactScalar, Kernel, Record, as_scalar, unit_power_numerators

_ZERO = Fraction(0)


class Poly(Record):
    """Dense univariate polynomial with exact rational coefficients.

    The coefficient of ``x**i`` is ``nums[i] / den``, with ``den > 0``,
    ``gcd(den, *nums) == 1`` and no trailing zero numerator, so the zero
    polynomial is ``nums == ()`` over 1. That form is unique, so equality
    and hashing are exact; ``coeffs`` gives the same values as Fractions,
    ascending by degree.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[int | str | Fraction] = ()):
        vals = [as_scalar(c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        # over the least common denominator no factor is left to cancel
        den = lcm(*(v.denominator for v in vals))
        _new(tuple(v.numerator * (den // v.denominator) for v in vals), den, self)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.nums) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self.nums[-1], self.den) if self.nums else _ZERO

    def eval(self, x0: int | Fraction) -> Fraction:
        """Exact value at x0, normalised once from `at`."""
        x0 = as_scalar(x0)
        return Fraction(*self.at(x0.numerator, x0.denominator))

    def at(self, xn: int, xd: int) -> tuple[int, int]:
        """Exact Horner evaluation at xn / xd (xd > 0) on integers.

        The value is sum_i nums_i xn^i xd^(deg-i) over den xd^deg,
        returned as that unreduced pair (0 over 1 for the zero polynomial).
        """
        if not self.nums:
            return 0, 1
        acc, xd_pow = 0, 1
        for c in reversed(self.nums):
            acc = acc * xn + c * xd_pow
            xd_pow *= xd
        return acc, self.den * xd_pow // xd

    def derivative(self) -> "Poly":
        nums = [i * c for i, c in enumerate(self.nums)]
        return poly_from_numerators(nums[1:], self.den)

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        pairs = itertools.zip_longest(self.nums, other.nums, fillvalue=0)
        return poly_from_numerators([x * fa + y * fb for x, y in pairs], den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + _new(tuple(-x for x in other.nums), other.den)

    def scale(self, value: int | Fraction) -> "Poly":
        p, q = as_scalar(value).as_integer_ratio()
        return poly_from_numerators([p * x for x in self.nums], q * self.den)

    def __str__(self) -> str:
        if not self.nums:
            return "0"
        parts = [f"({c})*x^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts)


def _new(nums: tuple[int, ...], den: int, poly: Poly | None = None) -> Poly:
    """A polynomial (or the fields of `poly`) from its normal form nums / den."""
    poly = object.__new__(Poly) if poly is None else poly
    object.__setattr__(poly, "nums", nums)
    object.__setattr__(poly, "den", den)
    return poly


def poly_from_numerators(nums: list[int], den: int) -> Poly:
    """The polynomial nums[i] / den (den > 0) in normal form; trims `nums`."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g > 1:
        nums, den = [x // g for x in nums], den // g
    return _new(tuple(nums), den)


def eval_poly(q: Poly, x0: int | Fraction) -> ExactScalar:
    return q.eval(x0)


@lru_cache(maxsize=256)
def _appell_weights(n: int) -> tuple[int, ...]:
    """n!/(n-j)! for j = n, n-1, ..., 0: the weights of the coefficients
    of x^0, x^1, ..., x^n in an Appell polynomial of degree n."""
    falling = itertools.accumulate(range(n, 0, -1), operator.mul, initial=1)
    return tuple(falling)[::-1]


def appell_polynomial(nums: Sequence[int], den: int, n: int) -> Poly:
    """Polynomial n![t^n] K(t) e^(xt) for the series K = nums / den.

    The coefficient of x^(n-j) is K_j n!/(n-j)!; needs n + 1 numerators.
    """
    # the coefficient of x^i is K_(n-i) times its weight
    products = map(operator.mul, nums[n::-1], _appell_weights(n))
    return poly_from_numerators(list(products), den)


def _appell_from_kernel(kind: Kernel, n: int, p: int) -> Poly:
    """Polynomial n![t^n] of kernel(kind,1)**p * e^(xt), exact in x."""
    if not isinstance(n, int) or not isinstance(p, int):
        raise ValueError(f"degree and order must be integers, got {n!r}, {p!r}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if p < 0:
        raise ValueError(f"order must be nonnegative, got {p}")
    return appell_polynomial(*unit_power_numerators(kind, p, n + 1), n)


# bounded, so a long run keeps at most 1024 polynomials per family; the
# benchmark's hop_sums workload followed by verify-all leaves 29 Bernoulli
# and 284 Euler entries. Typed, since 2.0 and 2 hash alike: a float degree
# or order reaches the integer check even after its int form is cached;
# without the caches hop_sums takes about 35% longer
@lru_cache(maxsize=1024, typed=True)
def hop_bernoulli(n: int, p: int) -> Poly:
    """Higher-order Bernoulli polynomial B_n^(p)(x); p = 0 gives x^n."""
    return _appell_from_kernel(Kernel.BERNOULLI, n, p)


@lru_cache(maxsize=1024, typed=True)
def hop_euler(n: int, p: int) -> Poly:
    """Higher-order Euler polynomial E_n^(p)(x); p = 0 gives x^n."""
    return _appell_from_kernel(Kernel.EULER, n, p)


def bernoulli_number(n: int) -> ExactScalar:
    """B_n = B_n(0)."""
    return hop_bernoulli(n, 1).eval(0)


def euler_number(n: int) -> ExactScalar:
    """E_n = 2^n E_n(1/2); zero for odd n."""
    return Fraction(2) ** n * hop_euler(n, 1).eval(Fraction(1, 2))


def _vieta_lucas_coefficients(N: int) -> list[int]:
    """The coefficients of x^N, x^(N-2), ..., x^(N % 2) in 2 T_N(x/2), N >= 1.

    That polynomial (the Vieta-Lucas one) is monic with integer
    coefficients, and coefficient i + 1 is coefficient i times
    -(N - 2i)(N - 2i - 1) / ((i + 1)(N - i - 1)), from the closed form
    2 T_N(x/2) = N sum_i (-1)^i (N - i - 1)! / (i! (N - 2i)!) x^(N - 2i);
    each quotient is exact.
    """
    c = 1
    coefficients = [c]
    for i in range(N // 2):
        c = -c * (N - 2 * i) * (N - 2 * i - 1) // ((i + 1) * (N - i - 1))
        coefficients.append(c)
    return coefficients


def chebyshev_polynomial(N: int) -> Poly:
    """Chebyshev polynomial of the first kind, exact coefficients."""
    if N < 0:
        raise ValueError(f"index must be nonnegative, got {N}")
    if N == 0:
        return _new((1,), 1)
    nums = [0] * (N + 1)
    # T_N(x) is half of 2 T_N(y/2) at y = 2x: coefficient i scales by
    # 2^(N - 2i) / 2, exact, as the constant term there is +-2 at even N
    nums[N::-2] = [
        c * 2 ** (N - 2 * i) // 2
        for i, c in enumerate(_vieta_lucas_coefficients(N))
    ]
    return _new(tuple(nums), 1)


def chebyshev_lattice_numerators(N: int) -> Iterator[int]:
    """The weights p_l of 1/T_N(1/t) on their lattice l = N % 2 + 2j, as
    integers P_l = p_l 2^l.

    Writing T_N(1/t) = Q(t)/t^N with Q a polynomial of degree N and
    integer coefficients, Q_0 = 2^(N-1), the weights expand t^N / Q(t),
    so they obey the recurrence Q_0 p_l = [l = N] - sum_{j=1..N} Q_j p_{l-j};
    in particular p_l = 0 for l < N. T_N has the parity of N, so Q is
    even: Q_j = 0 at odd j, and p_l = 0 whenever l - N is odd. Multiplied
    by 2^l / Q_0 the recurrence runs on the lattice only:

      P_l = 2 [l = N] - sum_{i=1..N//2} c_i P_(l-2i),  c_i = Q_(2i) 4^i / Q_0,

    and the taps c_i are the integer coefficients of x^(N-2), x^(N-4), ...
    in the monic 2 T_N(x/2) (`_vieta_lucas_coefficients`), so every P_l
    is an integer and no step divides. The stream is the N // 2 lattice
    zeros below N, then P_N = 2 and the rest; each lattice step resumes
    one generator for one dot product of the N // 2 taps with the last
    N // 2 lattice numerators (none for N = 1, whose only nonzero weight
    is p_1 = 1). The numerators grow about one bit per index, as
    2 cos(pi / 2N) < 2, while their scale 2^l grows two bits per lattice
    step at every N.
    """
    if N < 1:
        raise ValueError(f"Chebyshev index must be >= 1, got {N}")
    _, *c = _vieta_lucas_coefficients(N)

    def lattice() -> Iterator[int]:
        P = 2
        yield P
        recent = deque([P, *itertools.repeat(0, len(c) - 1)], maxlen=len(c))
        while True:  # recent holds P_{l-2}, P_{l-4}, ..., P_{l-2 len(c)}
            P = -sum(map(operator.mul, c, recent))
            recent.appendleft(P)
            yield P

    return itertools.chain(itertools.repeat(0, N // 2), lattice())


def chebyshev_recip_weights(N: int, count: int) -> list[ExactScalar]:
    """First `count` coefficients p_0..p_{count-1} of 1/T_N(1/t).

    Weight l = N % 2 + 2j is P_l / 2^l, P_l the lattice numerator j of
    `chebyshev_lattice_numerators`; every weight off that lattice is 0.
    """
    numerators = chebyshev_lattice_numerators(N)
    if count < N:
        raise ValueError(f"need count >= N, got count={count}, N={N}")
    weights = [_ZERO] * count
    lattice = range(N % 2, count, 2)
    weights[N % 2 :: 2] = [
        Fraction(P, 1 << l) for l, P in zip(lattice, numerators)
    ]
    return weights
