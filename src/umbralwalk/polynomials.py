"""Higher-order Bernoulli and Euler polynomials and related exact data.

B_n^(p)(x) and E_n^(p)(x) are the coefficients of t^n/n! in
(t/(e^t-1))^p e^(xt) and (2/(e^t+1))^p e^(xt). The order-p kernel power
is taken from the shared series memo, as integer numerators over one
denominator, and the polynomial in x is assembled from the identity

    n! [t^n] K(t) e^(xt) = sum_j (n!/(n-j)!) K_j x^(n-j),

so no bivariate series type is needed. A `Poly` holds integer numerators
over one denominator in a normal form, as a `PowerSeries` does. Also
provides Bernoulli/Euler numbers and the reciprocal-Chebyshev weights
p_l^(N) defined by 1/T_N(1/t) = sum_l p_l^(N) t^l, streamed by their
linear recurrence.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .series import ExactScalar, Kernel, as_scalar, kernel_power_numerators

_ZERO = Fraction(0)


@dataclass(frozen=True, init=False)
class Poly:
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
        """Exact Horner evaluation on integers.

        With x0 = xn/xd, the value is sum_i nums_i xn^i xd^(deg-i) over
        den xd^deg; only the final `Fraction` is normalised.
        """
        x0 = as_scalar(x0)
        if not self.nums:
            return _ZERO
        xn, xd = x0.numerator, x0.denominator
        acc, xd_pow = 0, 1
        for c in reversed(self.nums):
            acc = acc * xn + c * xd_pow
            xd_pow *= xd
        return Fraction(acc, self.den * xd_pow // xd)

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


def appell_polynomial(nums: Sequence[int], den: int, n: int) -> Poly:
    """Polynomial n![t^n] K(t) e^(xt) for the series K = nums / den.

    The coefficient of x^(n-j) is K_j n!/(n-j)!; needs n + 1 numerators.
    """
    # n!/(n-j)! for j = 0..n
    falling = itertools.accumulate(range(n, 0, -1), operator.mul, initial=1)
    return poly_from_numerators([x * f for x, f in zip(nums, falling)][::-1], den)


def _appell_from_kernel(kind: Kernel, n: int, p: int) -> Poly:
    """Polynomial n![t^n] of kernel(kind,1)**p * e^(xt), exact in x."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if p < 0:
        raise ValueError(f"order must be nonnegative, got {p}")
    return appell_polynomial(*kernel_power_numerators(kind, 1, p, n + 1), n)


# bounded, so a long run keeps at most 1024 polynomials per family; the
# benchmark's hop_sums workload followed by verify-all leaves 38 Bernoulli
# and 504 Euler entries
@lru_cache(maxsize=1024)
def hop_bernoulli(n: int, p: int) -> Poly:
    """Higher-order Bernoulli polynomial B_n^(p)(x); p = 0 gives x^n."""
    return _appell_from_kernel(Kernel.BERNOULLI, n, p)


@lru_cache(maxsize=1024)
def hop_euler(n: int, p: int) -> Poly:
    """Higher-order Euler polynomial E_n^(p)(x); p = 0 gives x^n."""
    return _appell_from_kernel(Kernel.EULER, n, p)


def bernoulli_number(n: int) -> ExactScalar:
    """B_n = B_n(0)."""
    return hop_bernoulli(n, 1).eval(0)


def euler_number(n: int) -> ExactScalar:
    """E_n = 2^n E_n(1/2); zero for odd n."""
    return Fraction(2) ** n * hop_euler(n, 1).eval(Fraction(1, 2))


def chebyshev_polynomial(N: int) -> Poly:
    """Chebyshev polynomial of the first kind, exact coefficients."""
    if N < 0:
        raise ValueError(f"index must be nonnegative, got {N}")
    t_prev, t_cur = [1], [0, 1]
    for _ in range(N - 1):
        # T_(k+1) = 2x T_k - T_(k-1)
        doubled = [0] + [2 * c for c in t_cur]
        t_prev, t_cur = t_cur, [
            a - b for a, b in itertools.zip_longest(doubled, t_prev, fillvalue=0)
        ]
    return _new(tuple(t_cur if N else t_prev), 1)


def chebyshev_recip_weight_numerators(N: int) -> tuple[int, Iterator[int]]:
    """The weights p_l of 1/T_N(1/t) as integers P_l = p_l q0^l, and q0.

    Writing T_N(1/t) = Q(t)/t^N with Q a polynomial of degree N and
    integer coefficients, Q_0 = q0 = 2^(N-1) != 0, the weights expand
    t^N / Q(t), so they obey the N-term recurrence
    Q_0 p_l = [l = N] - sum_{j=1..N} Q_j p_{l-j}; in particular p_l = 0
    for l < N. Multiplied by q0^l it stays on integers:

      P_l = [l = N] q0^(N-1) - sum_{j=1..N} Q_j q0^(j-1) P_{l-j}.

    The stream yields N zeros and q0^(N-1), then one dot product of the
    N multipliers with the last N numerators per weight.
    """
    if N < 1:
        raise ValueError(f"Chebyshev index must be >= 1, got {N}")
    T = chebyshev_polynomial(N).nums
    # Q coefficient of t^j is the x^(N-j) coefficient of T_N
    q0 = T[N]
    q = [T[N - j] * q0 ** (j - 1) for j in range(1, N + 1)]

    def numerators() -> Iterator[int]:
        yield from itertools.repeat(0, N)
        P = q0 ** (N - 1)
        yield P
        recent = deque([P, *itertools.repeat(0, N - 1)], maxlen=N)
        while True:  # recent holds P_{l-1}, ..., P_{l-N}
            P = -sum(map(operator.mul, q, recent))
            recent.appendleft(P)
            yield P

    return q0, numerators()


def chebyshev_recip_weights(N: int, count: int) -> list[ExactScalar]:
    """First `count` coefficients p_0..p_{count-1} of 1/T_N(1/t)."""
    q0, numerators = chebyshev_recip_weight_numerators(N)
    if count < N:
        raise ValueError(f"need count >= N, got count={count}, N={N}")
    scales = itertools.accumulate(itertools.repeat(q0), operator.mul, initial=1)
    return [
        Fraction(P, scale)
        for P, scale in zip(itertools.islice(numerators, count), scales)
    ]
