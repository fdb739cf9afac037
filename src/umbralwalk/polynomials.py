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
1/T_N(1/t) = sum_l p_l^(N) t^l, streamed by their linear recurrence.
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
# and 284 Euler entries
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


def _chebyshev_coefficients(N: int) -> list[int]:
    """The coefficients of x^N, x^(N-2), ..., x^(N % 2) in T_N, N >= 1.

    The leading one is 2^(N-1), and coefficient i + 1 is coefficient i
    times -(N - 2i)(N - 2i - 1) / (4 (i + 1)(N - i - 1)), from the closed
    form T_N(x) = N/2 sum_i (-1)^i (N - i - 1)! / (i! (N - 2i)!) (2x)^(N - 2i);
    each quotient is exact.
    """
    c = 2 ** (N - 1)
    coefficients = [c]
    for i in range(N // 2):
        c = -c * (N - 2 * i) * (N - 2 * i - 1) // (4 * (i + 1) * (N - i - 1))
        coefficients.append(c)
    return coefficients


def chebyshev_polynomial(N: int) -> Poly:
    """Chebyshev polynomial of the first kind, exact coefficients."""
    if N < 0:
        raise ValueError(f"index must be nonnegative, got {N}")
    if N == 0:
        return _new((1,), 1)
    nums = [0] * (N + 1)
    nums[N::-2] = _chebyshev_coefficients(N)
    return _new(tuple(nums), 1)


def chebyshev_lattice_numerators(N: int) -> tuple[int, Iterator[int]]:
    """The weights p_l of 1/T_N(1/t) on their lattice l = N % 2 + 2j, as
    integers P_l = p_l q0^l, and q0.

    Writing T_N(1/t) = Q(t)/t^N with Q a polynomial of degree N and
    integer coefficients, Q_0 = q0 = 2^(N-1) != 0, the weights expand
    t^N / Q(t), so they obey the N-term recurrence
    Q_0 p_l = [l = N] - sum_{j=1..N} Q_j p_{l-j}; in particular p_l = 0
    for l < N. Multiplied by q0^l it stays on integers:

      P_l = [l = N] q0^(N-1) - sum_{j=1..N} Q_j q0^(j-1) P_{l-j}.

    T_N has the parity of N, so Q is even: Q_j = 0 at odd j, and P_l = 0
    whenever l - N is odd. The recurrence therefore runs over the even
    taps Q_2, Q_4, ..., the coefficients of x^(N-2), x^(N-4), ... in T_N
    (`_chebyshev_coefficients`), and the lattice only. The stream is the
    N // 2 lattice zeros below N, then the lattice numerators from
    q0^(N-1) on.
    With at most one even tap (N <= 3) they are geometric,
    P_(l+2) = -Q_2 q0 P_l (for N = 1, with no tap, P_1 = 1 is the only
    nonzero one), and `itertools.accumulate` streams them; otherwise a
    generator resumes once per lattice step, for one dot product of the
    N // 2 even-tap multipliers with the last N // 2 lattice numerators.
    """
    if N < 1:
        raise ValueError(f"Chebyshev index must be >= 1, got {N}")
    q0, *taps = _chebyshev_coefficients(N)
    # the multiplier of tap Q_j, j = 2i + 2, is q0^(j-1)
    q = [tap * q0 ** (2 * i + 1) for i, tap in enumerate(taps)]
    first = q0 ** (N - 1)

    def lattice() -> Iterator[int]:
        P = first
        yield P
        recent = deque([P, *itertools.repeat(0, len(q) - 1)], maxlen=len(q))
        while True:  # recent holds P_{l-2}, P_{l-4}, ..., P_{l-2 len(q)}
            P = -sum(map(operator.mul, q, recent))
            recent.appendleft(P)
            yield P

    if len(q) < 2:
        ratio = -q[0] if q else 0
        nonzero = itertools.accumulate(
            itertools.repeat(ratio), operator.mul, initial=first
        )
    else:
        nonzero = lattice()
    return q0, itertools.chain(itertools.repeat(0, N // 2), nonzero)


def chebyshev_recip_weight_numerators(N: int) -> tuple[int, Iterator[int]]:
    """The weights p_l of 1/T_N(1/t), l = 0, 1, 2, ..., as integers
    P_l = p_l q0^l, and q0.

    The lattice numerators of `chebyshev_lattice_numerators`, each with
    its off-parity 0 from `itertools.repeat` (one 0 first when N is odd),
    so the stream is N zeros, then q0^(N-1), 0, P_(N+2), 0, ...
    """
    q0, lattice = chebyshev_lattice_numerators(N)
    return q0, itertools.chain(
        itertools.repeat(0, N % 2),
        itertools.chain.from_iterable(zip(lattice, itertools.repeat(0))),
    )


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
