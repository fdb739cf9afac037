"""Higher-order Bernoulli and Euler polynomials and related exact data.

B_n^(p)(x) and E_n^(p)(x) are the coefficients of t^n/n! in
(t/(e^t-1))^p e^(xt) and (2/(e^t+1))^p e^(xt). The order-p kernel power
is taken from the shared series memo, as integer numerators over one
denominator, and the polynomial in x is assembled from the identity

    n! [t^n] K(t) e^(xt) = sum_j (n!/(n-j)!) K_j x^(n-j),

so no bivariate series type is needed. Also provides Bernoulli/Euler
numbers and the reciprocal-Chebyshev weights p_l^(N) defined by
1/T_N(1/t) = sum_l p_l^(N) t^l, streamed by their linear recurrence.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterator

from .series import ExactScalar, Kernel, as_scalar, kernel_power_numerators

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients ascend by degree, trailing zeros are trimmed, and the
    zero polynomial is the empty tuple.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        vals = [as_scalar(c) for c in self.coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        object.__setattr__(self, "coeffs", tuple(vals))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return _ZERO
        return self.coeffs[-1]

    @cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """Coefficients as integer numerators over their common denominator."""
        den = lcm(*(c.denominator for c in self.coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
        return nums, den

    @classmethod
    def _from_numerators(cls, nums: list[int], den: int) -> "Poly":
        """The polynomial with coefficients nums[i] / den, integer form kept."""
        g = gcd(den, *nums)
        nums = [c // g for c in nums]
        while nums and not nums[-1]:
            nums.pop()
        den //= g
        poly = cls(tuple(Fraction(c, den) for c in nums))
        poly.__dict__["_integer_form"] = (tuple(nums), den)
        return poly

    def eval(self, x0: int | Fraction) -> Fraction:
        """Exact Horner evaluation on integers.

        With D the common denominator of the coefficients c_i and
        x0 = xn/xd, the value is sum_i (D c_i) xn^i xd^(deg-i) over
        D xd^deg; only the final `Fraction` is normalised.
        """
        x0 = as_scalar(x0)
        nums, denom = self._integer_form
        if not nums:
            return _ZERO
        xn, xd = x0.numerator, x0.denominator
        acc, xd_pow = 0, 1
        for c in reversed(nums):
            acc = acc * xn + c * xd_pow
            xd_pow *= xd
        return Fraction(acc, denom * xd_pow // xd)

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (_ZERO,) * (n - len(self.coeffs))
        b = other.coeffs + (_ZERO,) * (n - len(other.coeffs))
        return Poly(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + Poly(tuple(-c for c in other.coeffs))

    def scale(self, value: int | Fraction) -> "Poly":
        v = as_scalar(value)
        return Poly(tuple(v * c for c in self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"({c})*x^{i}" if i else f"({c})" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts)


def eval_poly(q: Poly, x0: int | Fraction) -> ExactScalar:
    return q.eval(x0)


def appell_polynomial(nums: list[int], den: int, n: int) -> Poly:
    """Polynomial n![t^n] K(t) e^(xt) for the series K = nums / den.

    The coefficient of x^(n-j) is K_j n!/(n-j)!; needs n + 1 numerators.
    """
    coeffs = []
    falling = 1  # n!/(n-j)!
    for j in range(n + 1):
        coeffs.append(nums[j] * falling)
        falling *= n - j
    return Poly._from_numerators(coeffs[::-1], den)


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
    t_prev, t_cur = Poly((Fraction(1),)), Poly((_ZERO, Fraction(1)))
    if N == 0:
        return t_prev
    for _ in range(N - 1):
        doubled = Poly((_ZERO,) + tuple(2 * c for c in t_cur.coeffs))
        t_prev, t_cur = t_cur, doubled - t_prev
    return t_cur


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
    T = [int(c) for c in chebyshev_polynomial(N).coeffs]
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


def chebyshev_recip_weight_stream(N: int) -> Iterator[ExactScalar]:
    """The coefficients p_0, p_1, ... of 1/T_N(1/t), without end."""
    q0, numerators = chebyshev_recip_weight_numerators(N)
    scale = 1  # q0^l
    for P in numerators:
        yield Fraction(P, scale)
        scale *= q0


def chebyshev_recip_weights(N: int, count: int) -> list[ExactScalar]:
    """First `count` coefficients p_0..p_{count-1} of 1/T_N(1/t)."""
    if N < 1:
        raise ValueError(f"Chebyshev index must be >= 1, got {N}")
    if count < N:
        raise ValueError(f"need count >= N, got count={count}, N={N}")
    return list(itertools.islice(chebyshev_recip_weight_stream(N), count))
