"""Degrees and correlators as fixed-point sums over roots of z^n = +-1.

The intersection numbers computed combinatorially elsewhere in this
package also arise as sums over m-element subsets of the n roots of
z^n + (-1)^m = 0, with each subset contributing a symmetric function of
its roots.  Everything here is evaluated in configurable-precision
complex arithmetic (mpmath, precision in bits, default 53 = double) with
a deterministic reduction order, then snapped to a nearby integer only
when the residual and imaginary part clear the tolerance and the
last-place noise the sum can carry stays below it.

A root system is one table of zeta^0..zeta^(2n-1), zeta = e^(i pi/n); the
roots are every other entry.  The degree sum indexes each subset by its
roots' exponents, so the Schur determinant is built from integers: each
Leibniz term is one exponent sum mod 2n, and the determinant is an
integer combination of zeta^0..zeta^(n-1) read off by a single dot product.

The power-sum determinant at the bottom of the formulas is computed
exactly over the integers, giving an arithmetic-free consistency anchor
for the floating-point paths.

mpmath and fractions are imported inside the functions that compute with
them, so importing this module (and the package) loads neither; only a
run that reaches a fixed-point sum or the power-sum determinant pays.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from operator import getitem

from .indices import InvalidIndexError, SchubertSymbol, _OwnTypeEquality, symbol_dimension

DEFAULT_PRECISION = 53
DEFAULT_TOLERANCE = 1e-6


class ToleranceError(ArithmeticError):
    """A numeric result failed the residual, reality, or rounding-safety check."""


class DimensionMismatchError(ValueError):
    """Requested exponents match no admissible total dimension."""


class NumericResult(
    _OwnTypeEquality,
    namedtuple("NumericResult", "value raw residual imag precision tolerance"),
):
    """An integer read off a floating-point sum, with its evidence.

    `raw` is the unrounded complex value (downcast to double for
    reporting), `residual` the modulus of raw minus the integer, `imag`
    the size of the imaginary part.  Instances exist only for sums that
    passed the checks; failures raise ToleranceError instead.  An
    immutable named tuple.
    """

    __slots__ = ()


class LGRootSystem(_OwnTypeEquality, namedtuple("LGRootSystem", "m n precision powers")):
    """The n roots of z^n + (-1)^m = 0 at a fixed working precision.

    `powers` is zeta^r for r in range(2n), zeta = e^(i pi/n).  Root k is
    zeta^(2k) for odd m and zeta^(2k+1) for even m, so `roots` is every
    other entry of that one table.  An immutable named tuple.
    """

    __slots__ = ()

    @property
    def roots(self) -> tuple:
        return self.powers[1 - self.m % 2 :: 2]


def lg_roots(m: int, n: int, precision: int = DEFAULT_PRECISION) -> LGRootSystem:
    """Roots of z^n = (-1)^(m+1): the n-th roots of unity for odd m,
    rotated by a half step for even m."""
    from mpmath import mp, mpf, workprec

    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if precision < 4:
        raise ValueError(f"precision must be at least 4 bits, got {precision}")
    with workprec(precision):
        powers = tuple(mp.expjpi(mpf(r) / n) for r in range(2 * n))
    return LGRootSystem(m, n, precision, powers)


def vandermonde(values) -> complex:
    """Product of pairwise differences v_j - v_k over j < k; 1 for a single value."""
    prod = 1
    for a, b in itertools.combinations(tuple(values), 2):
        prod = prod * (a - b)
    return prod


@functools.cache
def _signed_permutations(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(sign, permutation) for every permutation of range(m), computed once per m."""
    out = []
    for perm in itertools.permutations(range(m)):
        inv = sum(
            1 for a in range(m) for b in range(a + 1, m) if perm[a] > perm[b]
        )
        out.append((-1 if inv % 2 else 1, perm))
    return tuple(out)


def _det(rows):
    # Leibniz expansion; exact on ints, fine for the small m used here
    perms = _signed_permutations(len(rows))
    return sum(sign * math.prod(map(getitem, rows, perm)) for sign, perm in perms)


def _exponent_det(exponents, lams, powers: tuple):
    """det[zeta^(e_i * lam_j)] for root exponents e_i and column powers lam_j.

    Each Leibniz term is the single power zeta^(sum_i e_i lam_perm(i)), so
    the determinant is an integer vector over zeta^0..zeta^(2n-1), folded
    onto the first n entries of `powers` by zeta^(r+n) = -zeta^r and
    evaluated with one dot product.
    """
    from mpmath import mp

    two_n = len(powers)
    n = two_n // 2
    rows = [[e * lam % two_n for lam in lams] for e in exponents]
    coeffs = [0] * two_n
    for sign, perm in _signed_permutations(len(rows)):
        coeffs[sum(map(getitem, rows, perm)) % two_n] += sign
    return mp.fdot((coeffs[r] - coeffs[r + n], powers[r]) for r in range(n))


def _parts(mu, m: int) -> tuple[int, ...]:
    # normalize a sequence to exactly m weakly decreasing nonnegative parts
    parts = tuple(int(x) for x in mu)
    if len(parts) > m:
        if any(parts[m:]):
            raise ValueError(f"{parts} has more than {m} nonzero parts")
        parts = parts[:m]
    parts = parts + (0,) * (m - len(parts))
    if any(x < 0 for x in parts):
        raise ValueError(f"parts must be nonnegative: {parts}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must weakly decrease: {parts}")
    return parts


def power_sum(k: int, m: int, n: int) -> int:
    """Exact sum of k-th powers of the roots of z^n = (-1)^(m+1):
    zero unless n divides k = j*n, and then n * (-1)^(j*(m-1))."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    j, r = divmod(k, n)
    if r:
        return 0
    return n * (-1) ** (j * (m - 1))


def powersum_determinant(mu, m: int, n: int) -> Fraction:
    """det[p(mu_j + m + i - j)] / n^m, exactly.

    Equals 1 when mu is the full m x (n - m) rectangle and 0 for every
    other mu of the same weight; this is the closed-form value of the
    subset sum defining the degree of a point, so it anchors the
    floating-point evaluation with integer arithmetic.
    """
    from fractions import Fraction

    parts = _parts(mu, m)
    rows = [
        [power_sum(parts[j] + m + i - j, m, n) for j in range(m)]
        for i in range(m)
    ]
    return Fraction(_det(rows), n**m)


def check_tolerance(tolerance: float) -> float:
    """Return `tolerance` if it is finite and in (0, 0.5); raise ValueError otherwise.

    Rounding is certified by comparing against the tolerance, so NaN (which
    compares false) or infinity would certify anything, and a value of 0.5
    or more no longer pins one integer.
    """
    if not 0 < tolerance < 0.5:
        raise ValueError(f"tolerance must be finite and in (0, 0.5), got {tolerance}")
    return tolerance


def _finalize(
    subset_sum, largest, m: int, n: int, precision: int, tolerance: float
) -> NumericResult:
    """Scale a subset sum by (-1)^(m(m-1)/2) / n^m and round it, or raise
    ToleranceError when the rounding is not certified.

    `largest` is the largest |term| of the sum.  Each term carries an error
    of a few units in its last place, so max|term| * #terms * 2^(1-precision)
    / n^m bounds the noise in the result; above the tolerance, a residual
    that looks small certifies nothing.
    """
    from mpmath import mp, mpf

    scale = mpf(n) ** m
    total = subset_sum * (-1) ** (m * (m - 1) // 2) / scale
    re, im = total.real, total.imag
    rounded = int(mp.nint(re))
    if abs(rounded) >= 2 ** (precision - 1):
        raise ToleranceError(
            f"|{rounded}| is too large to round safely at {precision} bits; "
            "raise the precision"
        )
    noise = mp.ldexp(largest * math.comb(n, m), 1 - precision) / scale
    if noise > tolerance:
        raise ToleranceError(
            f"noise bound max|term| * #terms * 2^(1-{precision}) / n^m = "
            f"{mp.nstr(noise, 3)} exceeds the tolerance {tolerance}; "
            "raise the precision"
        )
    residual = float(abs(total - rounded))
    imag = float(abs(im))
    if residual > tolerance or imag > tolerance:
        raise ToleranceError(
            f"sum {complex(total)} is not within {tolerance} of an integer "
            f"(residual {residual}, imaginary part {imag})"
        )
    return NumericResult(rounded, complex(total), residual, imag, precision, tolerance)


def _kahan_sum(terms):
    """Compensated sum of the terms, and the largest |term|."""
    from mpmath import mpc, mpf

    total = mpc(0)
    comp = mpc(0)
    largest = mpf(0)
    for t in terms:
        largest = max(largest, abs(t))
        y = t - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
    return total, largest


def _root_system(m: int, n: int, precision: int | None, roots: LGRootSystem | None):
    if roots is not None:
        if (roots.m % 2, roots.n) != (m % 2, n):
            raise ValueError("supplied root system does not match m, n")
        if precision is not None and precision != roots.precision:
            raise ValueError("supplied root system has a different precision")
        return roots
    return lg_roots(m, n, DEFAULT_PRECISION if precision is None else precision)


def _degree_term(exponents, lams, exponent: int, powers: tuple):
    """One subset's contribution Delta * det[q_i ^ lam_j] * (sum q)^E, with
    q_i = zeta^(e_i) the subset's roots and lam_j = n + 1 - c_j the column
    powers; degenerate subsets contribute 0 through the Delta factor.
    """
    qs = [powers[e] for e in exponents]
    s = sum(qs[1:], qs[0])
    return vandermonde(qs) * _exponent_det(exponents, lams, powers) * s**exponent


def vi_degree(
    columns,
    d: int,
    m: int,
    p: int,
    precision: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    roots: LGRootSystem | None = None,
) -> NumericResult:
    """Degree of the subvariety named by (columns; d) as a fixed-point sum.

    Sums Delta(q) * det[q_i^(n + 1 - c_j)] * (sum q)^E over m-subsets q of
    the roots, with c_j the columns (a tuple, c_1 < ... < c_m) and
    E = |columns| + n*d the subvariety's dimension, then scales by
    (-1)^(m(m-1)/2) / n^m.
    """
    from mpmath import workprec

    symbol = SchubertSymbol(columns, d)
    n = m + p
    if symbol.m != m or symbol.columns[-1] > n:
        raise InvalidIndexError(f"columns {symbol.columns} name nothing for m={m} p={p}")
    check_tolerance(tolerance)
    exponent = symbol_dimension(symbol, n)
    lams = [n + 1 - c for c in symbol.columns]
    sys = _root_system(m, n, precision, roots)
    with workprec(sys.precision):
        # root k is zeta^(2k) for odd m and zeta^(2k+1) for even m
        terms = (
            _degree_term(es, lams, exponent, sys.powers)
            for es in itertools.combinations(range(1 - m % 2, 2 * n, 2), m)
        )
        return _finalize(*_kahan_sum(terms), m, n, sys.precision, tolerance)


class CorrelatorSpec(_OwnTypeEquality, namedtuple("CorrelatorSpec", "powers m p q")):
    """Exponents a_1..a_m of the generator classes, with the order q they pin.

    q is inferred from the powers, never passed: the weighted total
    sum(l * a_l) must equal m*p + n*q for a nonnegative integer q, or
    construction raises DimensionMismatchError.  An immutable named tuple.
    """

    __slots__ = ()

    def __new__(cls, powers, m, p):
        if m < 1 or p < 1:
            raise ValueError(f"m and p must be positive, got m={m} p={p}")
        powers = tuple(int(a) for a in powers)
        if len(powers) != m:
            raise ValueError(f"expected {m} exponents, got {powers}")
        if any(a < 0 for a in powers):
            raise ValueError(f"exponents must be nonnegative: {powers}")
        n = m + p
        weight = sum(l * a for l, a in enumerate(powers, start=1))
        q, r = divmod(weight - m * p, n)
        if r or q < 0:
            raise DimensionMismatchError(
                f"sum(l * a_l) = {weight} is not {m * p} + {n}*q for any q >= 0"
            )
        return super().__new__(cls, powers, m, p, q)

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which infers q itself
        return self.powers, self.m, self.p

    @classmethod
    def from_powers(cls, powers, m: int, p: int) -> "CorrelatorSpec":
        return cls(powers, m, p)


def _elementary_all(qs):
    # e_0..e_m of the subset via incremental expansion of prod(1 + q_i t)
    from mpmath import mpc
    e = [mpc(1)] + [mpc(0)] * len(qs)
    for idx, q in enumerate(qs, start=1):
        for k in range(idx, 0, -1):
            e[k] = e[k] + q * e[k - 1]
    return e


def _correlator_summand(qs, powers: tuple[int, ...]):
    """One subset's contribution: prod e_l(q)^a_l * (prod q) * Delta^2."""
    e = _elementary_all(qs)
    term = vandermonde(qs) ** 2 * e[len(qs)]
    for l, a in enumerate(powers, start=1):
        if a:
            term = term * e[l] ** a
    return term


def vi_correlator(
    spec: CorrelatorSpec,
    precision: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    roots: LGRootSystem | None = None,
) -> NumericResult:
    """Genus-zero correlator of powers of the generator classes.

    Each critical subset contributes the class values times the inverse
    Hessian (prod q) Delta^2 / n^m; the global sign is (-1)^(m(m-1)/2).
    """
    from mpmath import workprec

    check_tolerance(tolerance)
    m, p = spec.m, spec.p
    n = m + p
    sys = _root_system(m, n, precision, roots)
    with workprec(sys.precision):
        terms = (
            _correlator_summand(subset, spec.powers)
            for subset in itertools.combinations(sys.roots, m)
        )
        return _finalize(*_kahan_sum(terms), m, n, sys.precision, tolerance)
