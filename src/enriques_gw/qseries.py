"""Truncated formal power and Laurent series over Q, plus the modular-form
style constructions used by the fiber-invariant predictions: Eisenstein
series, the inverse even eta product, the S_g / P_g quasimodular
polynomials and the Laurent coefficient series c_g(n).

All coefficients are exact fractions.Fraction values; nothing here ever
touches floating point.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

# largest truncation order any series is built to; every series and every
# c_g starts from eisenstein or inv_even_eta_product, which check it first
MAX_ORDER = 1000
# largest argument of a divisor sum; its walk takes sqrt(k) steps
MAX_DIVISOR_ARG = 10 ** 12


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % type(x).__name__)


class QSeries:
    """A series sum_{n=offset}^{trunc} c_n q^n, exact and truncation-aware.

    Coefficients below `offset` are exactly zero; coefficients above
    `trunc`, the last exponent of the stored window, are unknown (reading
    one raises).  Arithmetic truncates to the smaller effective order.
    """

    __slots__ = ("offset", "coeffs", "trunc")

    def __init__(self, offset, coeffs):
        coeffs = tuple(_frac(c) for c in coeffs)
        if not coeffs:
            raise ValueError("QSeries needs at least one stored coefficient")
        self.offset = int(offset)
        self.coeffs = coeffs
        self.trunc = self.offset + len(coeffs) - 1

    @classmethod
    def zero(cls, trunc, offset=0):
        return cls(offset, [Fraction(0)] * (trunc - offset + 1))

    @classmethod
    def constant(cls, value, trunc):
        return cls(0, [_frac(value)] + [Fraction(0)] * trunc)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n; exact zero below the offset, error past trunc."""
        if n > self.trunc:
            raise ValueError(
                "coefficient of q^%d is beyond truncation order %d" % (n, self.trunc))
        if n < self.offset:
            return Fraction(0)
        return self.coeffs[n - self.offset]

    def coefficients(self):
        """List of (exponent, coefficient) pairs over the stored window."""
        return [(self.offset + i, c) for i, c in enumerate(self.coeffs)]

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k (shifts both offset and truncation)."""
        return QSeries(self.offset + k, self.coeffs)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.trunc)
        trunc = min(self.trunc, other.trunc)
        offset = min(self.offset, other.offset, trunc)
        coeffs = [Fraction(0)] * (trunc - offset + 1)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                n = s.offset + i
                if n <= trunc:
                    coeffs[n - offset] += c
        return QSeries(offset, coeffs)

    def __neg__(self):
        return QSeries(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.constant(other, self.trunc)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            f = _frac(other)
            return QSeries(self.offset, [c * f for c in self.coeffs])
        offset = self.offset + other.offset
        trunc = min(self.trunc + other.offset, other.trunc + self.offset)
        coeffs = [Fraction(0)] * (trunc - offset + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            na = self.offset + i
            top = trunc - na
            for j, b in enumerate(other.coeffs):
                nb = other.offset + j
                if nb > top:
                    break
                if b:
                    coeffs[na + nb - offset] += a * b
        return QSeries(offset, coeffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        f = _frac(other)
        return self * (Fraction(1) / f)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.trunc != other.trunc:
            return False
        lo = min(self.offset, other.offset)
        for n in range(lo, self.trunc + 1):
            if self.coeff(n) != other.coeff(n):
                return False
        return True

    def __hash__(self):
        lo = min(self.offset, 0)
        return hash((self.trunc, tuple(self.coeff(n) for n in range(lo, self.trunc + 1))))

    def __repr__(self):
        terms = []
        for n, c in self.coefficients():
            if c:
                terms.append("%s*q^%d" % (c, n))
            if len(terms) >= 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return "QSeries(%s; trunc=%d)" % (body, self.trunc)


# ---------------------------------------------------------------------------
# Number-theoretic scalars
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k for even k >= 2 (B_2 = 1/6, B_4 = -1/30).

    Solves sum_{j<=m} C(m+1, j) B_j = 0 for even m = 2..k in turn, using
    B_0 = 1, B_1 = -1/2 and B_j = 0 at odd j >= 3.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("bernoulli is defined here for even indices >= 2")
    even = [Fraction(1)]  # B_0, B_2, ..., B_{m-2}
    for m in range(2, k + 1, 2):
        total = 1 - Fraction(m + 1, 2)
        for i, b in enumerate(even[1:], start=1):
            total += math.comb(m + 1, 2 * i) * b
        even.append(-total / (m + 1))
    return even[-1]


def divisors(k: int) -> list:
    """The divisors of 1 <= k <= MAX_DIVISOR_ARG in increasing order, from
    one walk of d up to sqrt(k); a larger k is refused before the walk."""
    if k > MAX_DIVISOR_ARG:
        raise ValueError("%d exceeds the divisor cap %d" % (k, MAX_DIVISOR_ARG))
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return small + [k // d for d in reversed(small) if d * d != k]


def _divisor_power_sum(n: int, k: int) -> int:
    """sum of d**n over the divisors d of k >= 1, for n >= 0."""
    return sum(d ** n for d in divisors(k))


def sigma_pow(n: int, k: int) -> Fraction:
    """Divisor power sum sigma_n(k) = sum of d^n over d | k, for k >= 1.

    The only regularized value at k = 0 is sigma_1(0) = -B_2/4 = -1/24;
    any other (n, 0) query is an error.  For n < 0 the sum is
    sigma_{-n}(k) / k^(-n), since d -> k/d permutes the divisors.
    """
    if k < 0:
        raise ValueError("sigma_pow needs k >= 0")
    if k == 0:
        if n == 1:
            return Fraction(-1, 24)
        raise ValueError("sigma_%d(0) is unregularized" % n)
    if n >= 0:
        return Fraction(_divisor_power_sum(n, k))
    return Fraction(_divisor_power_sum(-n, k), k ** -n)


# ---------------------------------------------------------------------------
# Modular-form style q-expansions
# ---------------------------------------------------------------------------

def _check_order(trunc: int) -> None:
    """Refuse a truncation order outside 0..MAX_ORDER before any
    coefficient is built."""
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    if trunc > MAX_ORDER:
        raise ValueError("truncation order %d exceeds the cap %d" % (trunc, MAX_ORDER))


def eisenstein(two_n: int, trunc: int) -> QSeries:
    """Eisenstein series E_{2n} normalized to constant term 1.

    E_{2n} = 1 - (4n/B_{2n}) * sum_{k>=1} sigma_{2n-1}(k) q^k, which makes
    E_2 = 1 - 24*sum sigma_1 q^k and E_4 = 1 + 240*sum sigma_3 q^k.
    """
    _check_order(trunc)
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError("Eisenstein index must be an even integer >= 2")
    n = two_n // 2
    factor = Fraction(-4 * n) / bernoulli(two_n)
    coeffs = [Fraction(1)]
    for k in range(1, trunc + 1):
        coeffs.append(factor * sigma_pow(two_n - 1, k))
    return QSeries(0, coeffs)


def inv_even_eta_product(trunc: int) -> QSeries:
    """The product over n >= 1 of (1 - q^(2n))^(-12), expanded to order trunc.

    With x = q^2 its coefficients a_k are integers: the logarithmic
    derivative of prod (1 - x^n)^(-12) gives a_0 = 1 and
    k a_k = 12 sum_{j=1..k} sigma_1(j) a_{k-j}.
    """
    _check_order(trunc)
    half = trunc // 2
    sig = [0] + [_divisor_power_sum(1, j) for j in range(1, half + 1)]
    a = [1]
    for k in range(1, half + 1):
        a.append(12 * sum(sig[j] * a[k - j] for j in range(1, k + 1)) // k)
    coeffs = [0] * (trunc + 1)
    coeffs[::2] = a
    return QSeries(0, coeffs)


def s_polynomial(g: int) -> dict:
    """The polynomial S_g(x_1..x_g): coefficient of z^g in exp(sum_k x_k z^k).

    Returned as a dict mapping exponent tuples (m_1, .., m_g) to rational
    coefficients; each partition of g with multiplicities m_k contributes
    the monomial prod x_k^(m_k) / prod m_k!.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    if g == 0:
        return {(): Fraction(1)}
    out = {}
    for parts in _partitions(g, g):
        mult = Counter(parts)
        expo = tuple(mult.get(k, 0) for k in range(1, g + 1))
        coeff = Fraction(1)
        for m in mult.values():
            coeff /= math.factorial(m)
        out[expo] = coeff
    return out


def _partitions(n: int, largest: int):
    """Partitions of n >= 0 into parts <= largest, as nonincreasing tuples."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def p_series_substituted(g: int, trunc: int) -> QSeries:
    """S_g evaluated at x_k = |B_{2k}|/(2k)! * E_{2k}(q), for any g >= 1."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    xs = {}
    for k in range(1, g + 1):
        xs[k] = eisenstein(2 * k, trunc) * (abs(bernoulli(2 * k)) / math.factorial(2 * k))
    total = QSeries.zero(trunc)
    for expo, coeff in s_polynomial(g).items():
        term = QSeries.constant(coeff, trunc)
        for k, m in enumerate(expo, start=1):
            for _ in range(m):
                term = term * xs[k]
        total = total + term
    return total


def p_series(g: int, trunc: int) -> QSeries:
    """The quasimodular series P_g feeding c_g(n): the S_g substitution, which
    gives the printed P_1 = E_2/12 exactly, except for the printed
    P_2 = (5 E_2^2 + E_4)/1440.  The substitution gives (5 E_2^2 + 2 E_4)/1440
    there (see p2_discrepancy_report); the printed form is treated as
    authoritative for c_2.  For g >= 3 the substitution carries no certification.
    """
    if g == 2:
        e2 = eisenstein(2, trunc)
        e4 = eisenstein(4, trunc)
        return (5 * (e2 * e2) + e4) / 1440
    return p_series_substituted(g, trunc)


def p2_discrepancy_report(trunc: int = 12) -> dict:
    """Compare the printed P_2 against the raw S_2 substitution.

    The two disagree (the printed formula is not the literal substitution
    value); the report lists every exponent where they differ, with both
    exact coefficients, and leaves the choice of which one is the typo
    open.  c_2 uses the printed form.
    """
    printed = p_series(2, trunc)
    substituted = p_series_substituted(2, trunc)
    differences = []
    for n in range(0, trunc + 1):
        a, b = printed.coeff(n), substituted.coeff(n)
        if a != b:
            differences.append({"exponent": n, "printed": str(a), "substituted": str(b)})
    return {
        "order": trunc,
        "printed_formula": "(5*E2^2 + E4)/1440",
        "substituted_formula": "(5*E2^2 + 2*E4)/1440",
        "differences": differences,
        "agree": not differences,
    }


@functools.lru_cache(maxsize=64)
def c_coefficients(g: int, trunc: int) -> QSeries:
    """Laurent series sum_n c_g(n) q^n = -(2/q) * prod(1-q^(2n))^(-12) * P_g(q).

    The result starts at q^(-1); coefficients are certified for g in {1, 2}
    (g >= 3 inherits the uncertified substitution P_g).  Reading c_g(n)
    requires trunc >= n + 1 on input (the 1/q shift costs one order).
    Results are cached; treat them as immutable.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    inner = inv_even_eta_product(trunc) * p_series(g, trunc)
    return (inner * (-2)).shift(-1)

