"""Degrees and correlators as fixed-point sums over roots of z^n = +-1.

The intersection numbers computed combinatorially elsewhere in this
package also arise as sums over m-element subsets of the n roots of
z^n + (-1)^m = 0, with each subset contributing a symmetric function of
its roots.  Everything here is evaluated in configurable-precision
complex arithmetic (mpmath, precision in bits, default 53 = double) with
a deterministic reduction order, then snapped to a nearby integer only
when the residual and imaginary part clear the tolerance and a bound on
the sum's rounding error stays below it.

A root system is one table of zeta^0..zeta^(2n-1), zeta = e^(i pi/n); the
roots are every other entry.  Fixed by n and the precision alone, the table
and its measured errors are cached per (n, precision), and each sum takes
its roots from lg_roots.  The degree sum indexes each subset by its roots'
exponents, so the Schur determinant is built from integers: each entry
zeta^s becomes 2^(width s), one Laplace expansion over column subsets gives
an integer whose signed base-2^width digits are the determinant's
coefficients on the powers of zeta, read off by a single dot product.

Both sums run through one loop, _orbit_terms.  Rotating the roots by
zeta^2 = e^(2 pi i/n) permutes the subsets and fixes every term, since
each term's total degree in the roots is a multiple of n, so the loop
takes one term per rotation orbit, the orbit's least member, times the
orbit's size: 26 terms for the 252 subsets at m = p = 5.  A term is the
Vandermonde product Delta of the subset's root differences (squared for
a correlator) times a summand: the degree's determinant and power of the
root sum, or the correlator's elementary symmetric functions.  One shell,
_fixed_point, checks the tolerance, refuses a sum whose work (known from
m and n before any root is computed) exceeds a fixed limit, and rounds.

The rounding bound follows each term's own error.  A term is a product
of powers of computed factors (root differences, the determinant, the root
sum, the elementary symmetric functions); each factor's error is bounded
from the measured error of the zeta table, and the term's error is
prod (|x~| + delta)^a (1 + 2^-precision)^k - prod |x~|^a for k roundings.
The bounds, times the orbit sizes, plus the compensated loop's own
roundings, bound the distance of the sum from the exact integer.

The power-sum determinant at the bottom of the formulas is computed
exactly over the integers, giving an arithmetic-free consistency anchor
for the floating-point paths.

The arithmetic is mpmath's kernel alone, the mpmath.libmp subpackage, on
its raw numbers: a real is a (sign, mantissa, exponent, bit count) tuple
and a complex number a (real, imag) pair of them.  On the first sum,
_kernel loads five of libmp's modules from mpmath's directory under the
private package quotdeg._libmp, so neither mpmath/__init__ (its contexts,
function library and docs) nor libmp's own __init__ ever runs.  Each
operation calls the kernel function that mpmath's own context calls for
it, with the same precision and round-to-nearest, so every bit is the one
mpmath would compute.  Importing this module loads neither the
kernel nor fractions; only a run that reaches a fixed-point sum or the
power-sum determinant pays.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .indices import InvalidIndexError, SchubertSymbol, _OwnTypeEquality, symbol_dimension

DEFAULT_PRECISION = 53
DEFAULT_TOLERANCE = 1e-6

# Error bounds are evaluated at 53 bits and widened by this factor, which
# covers their own roundings.
_BOUND_SLACK = 1 + 2**-40


@functools.cache
def _kernel():
    """mpmath.libmp's arithmetic, loaded once from mpmath's directory.

    quotdeg._libmp is a bare package whose only content is libmp's
    directory as its __path__, so its submodules' relative imports resolve
    without libmp's __init__ (or mpmath/__init__) ever running.  libmpf,
    libelefun and libmpc, which pull in backend and libintmath, hold every
    function the sums call; their public names are returned as one
    namespace.  There is no other way in: no option and no fallback to
    importing mpmath.
    """
    import importlib.util
    import os
    import sys
    import types

    mpmath = importlib.util.find_spec("mpmath")
    if mpmath is None:
        raise ModuleNotFoundError("the fixed-point sums need mpmath", name="mpmath")
    package = types.ModuleType(f"{__package__}._libmp")
    package.__path__ = [os.path.join(mpmath.submodule_search_locations[0], "libmp")]
    sys.modules[package.__name__] = package
    # from-imports, which -X importtime lists, unlike importlib.import_module
    from ._libmp import libelefun, libmpc, libmpf

    kernel = types.SimpleNamespace()
    for module in (libmpf, libelefun, libmpc):
        vars(kernel).update(
            (name, value) for name, value in vars(module).items() if not name.startswith("_")
        )
    return kernel


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

    `powers` is zeta^r for r in range(2n), zeta = e^(i pi/n), each a raw
    kernel complex number: a (real, imag) pair of (sign, mantissa, exponent,
    bit count) tuples, as in mpmath's mpc._mpc_ (mpmath.mp.make_mpc turns
    one into an mpc).  Root k is zeta^(2k) for odd m and zeta^(2k+1) for
    even m, so `roots` is every other entry of that one table.  An
    immutable named tuple.
    """

    __slots__ = ()

    @property
    def roots(self) -> tuple:
        return self.powers[1 - self.m % 2 :: 2]


@functools.lru_cache(maxsize=32)
def _zeta_table(n: int, prec: int) -> tuple:
    # zeta^r for r in range(2n) as mp.expjpi(mpf(r) / n) computes it at prec bits
    lib = _kernel()
    rnd = lib.round_nearest
    return tuple(
        lib.mpc_expjpi(
            (lib.mpf_div(lib.mpf_pos(lib.from_int(r), prec, rnd), lib.from_int(n), prec, rnd),
             lib.fzero),
            prec, rnd,
        )
        for r in range(2 * n)
    )


def lg_roots(m: int, n: int, precision: int = DEFAULT_PRECISION) -> LGRootSystem:
    """Roots of z^n = (-1)^(m+1): the n-th roots of unity for odd m,
    rotated by a half step for even m."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return LGRootSystem(m, n, precision, _zeta_table(n, check_precision(precision)))


def _det(rows):
    """Determinant by Laplace expansion down the rows, exact on ints.

    After row k, minors[mask] is the minor on rows 0..k and the columns in
    mask; column j joins a mask with the sign (-1)^popcount(mask >> j), the
    number of its columns to the right of j.  Only + and * are used, and an
    m x m matrix costs 2^m * m products instead of Leibniz's m! * m.
    """
    minors = {0: 1}
    for row in rows:
        grown = {}
        for mask, minor in minors.items():
            for j, x in enumerate(row):
                if not mask >> j & 1:
                    term = x * minor if (mask >> j).bit_count() % 2 == 0 else -x * minor
                    grown[mask | 1 << j] = grown.get(mask | 1 << j, 0) + term
        minors = grown
    return minors[(1 << len(rows)) - 1]


def _det_coefficients(exponents, lams, n: int) -> list[int]:
    """Integers c_0..c_(n-1) with det[zeta^(e_i * lam_j)] = sum_r c_r zeta^r.

    Kronecker substitution: the entry zeta^s, s = e_i lam_j mod 2n, becomes
    the integer x^s with x = 2^width, so _det returns the polynomial
    sum_s a_s x^s evaluated at x.  Each a_s is a sum of at most m! Leibniz
    terms of +-1, so |a_s| <= m! < 2^(width - 1), and the signed base-x
    digits of the determinant are exactly the a_s.  Folding s mod 2n and
    then zeta^(r+n) = -zeta^r onto zeta^r gives the c_r.
    """
    two_n = 2 * n
    width = math.factorial(len(lams)).bit_length() + 1
    value = _det([[1 << width * (e * lam % two_n) for lam in lams] for e in exponents])
    half = 1 << width - 1
    coeffs = [0] * two_n
    for s in range(len(lams) * (two_n - 1) + 1):
        # a_s + half is in [0, 2^width), so it is the remainder
        value, digit = divmod(value + half, 2 * half)
        coeffs[s % two_n] += digit - half
    return [coeffs[r] - coeffs[r + n] for r in range(n)]


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


# The largest working precision admitted, twice the most the tests and the
# benchmark use (512 bits).  Single runs on a 2-vCPU VM (Python 3.11): the
# costliest admitted degree, m = p = 8, q = 0, took 2.2 s at 80 bits, 2.9 s
# at 1,024 and 5.3 s at 2,048; the costliest correlator, m = p = 9, powers
# (81, 0, ..., 0), 3.6 s, 8.4 s and 17.1 s.  So 1,024 bits keeps the worst
# sum within about 2.3 times its cost at 80 bits, where _MAX_WORK is set.
_MAX_PRECISION = 1024


def check_precision(precision: int) -> int:
    """Return `precision` if it is in [4, _MAX_PRECISION] bits; raise
    ValueError otherwise, before any root is computed."""
    if precision < 4:
        raise ValueError(f"precision must be at least 4 bits, got {precision}")
    if precision > _MAX_PRECISION:
        raise ValueError(f"precision must be at most {_MAX_PRECISION} bits, got {precision}")
    return precision


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
    subset_sum, bound, m: int, n: int, precision: int, tolerance: float
) -> NumericResult:
    """Scale a subset sum by (-1)^(m(m-1)/2) / n^m and round it, or raise
    ToleranceError when the rounding is not certified.

    `bound` bounds the distance of `subset_sum` from the exact sum.  Divided
    by n^m and widened by the scaling's own rounding it bounds the distance
    of the result from the integer the exact sum equals, so a noise bound
    below the tolerance (and so below 1/2) pins that integer; above it, a
    residual that looks small certifies nothing.
    """
    lib = _kernel()
    rnd = lib.round_nearest
    scale = lib.mpf_pow_int(lib.mpf_pos(lib.from_int(n), precision, rnd), m, precision, rnd)
    signed = lib.mpc_mul_int(subset_sum, (-1) ** (m * (m - 1) // 2), precision, rnd)
    total = lib.mpc_div_mpf(signed, scale, precision, rnd)
    # the division and the rounding of n^m move total by < 2u|total|, so
    # a value of 2^(precision - 1) or more never passes
    two_u = lib.mpf_pow_int(lib.from_int(2), 2 - precision, 53, rnd)
    spread = lib.mpf_mul(two_u, lib.mpc_abs(total, 53, rnd), 53, rnd)
    noise = lib.mpf_add(lib.mpf_div(bound, lib.from_int(n**m), 53, rnd), spread, 53, rnd)
    noise = lib.mpf_mul(noise, lib.from_float(_BOUND_SLACK), 53, rnd)
    if lib.mpf_gt(noise, lib.from_float(tolerance)):
        raise ToleranceError(
            f"noise bound {lib.to_str(noise, 3)} exceeds the tolerance {tolerance}; "
            "raise the precision"
        )
    # rounded only once certified: a total of about 2^precision or more has
    # refused above, before its integer part is built
    rounded = int(lib.to_int(lib.mpf_nint(total[0], precision, rnd)))
    off = lib.mpc_sub_mpf(total, lib.from_int(rounded), precision, rnd)
    residual = lib.to_float(lib.mpc_abs(off, precision, rnd), rnd=rnd)
    raw = lib.mpc_to_complex(total, rnd=rnd)
    imag = lib.to_float(lib.mpf_abs(total[1], 53, rnd), rnd=rnd)
    if residual > tolerance or imag > tolerance:
        raise ToleranceError(
            f"sum {raw} is not within {tolerance} of an integer "
            f"(residual {residual}, imaginary part {imag})"
        )
    return NumericResult(rounded, raw, residual, imag, precision, tolerance)


def _product_error(value, factors, roundings: int, precision: int):
    """Bound |prod x_f^a_f - value| for a product `value` computed from
    inexact factors with `roundings` rounded operations.

    Each factor is (x~, d, a): the computed factor, a bound d on |x~ - x| in
    units of u = 2^(1 - precision), and its power a.  A rounding moves a
    result by at most u/2 times its modulus (round to nearest, part by
    part), and a power x^a counts as a roundings, so the error is at most
    prod (|x~| + d u)^a * (1 + u/2)^k - prod |x~|^a.  When no factor is zero
    that is at most |value| expm1(L), L = u (sum a d / |x~| + 1.05 k), where
    1.05 k also covers |value| >= prod |x~|^a (1 - u/2)^k; so each factor
    keeps its own relative error, and L <= 1 gives expm1(L) <= L(1 + L).
    Otherwise the first product alone is the bound.  Both are evaluated at
    53 bits.
    """
    lib = _kernel()
    rnd = lib.round_nearest
    mul, add, slack = lib.mpf_mul, lib.mpf_add, lib.from_float(_BOUND_SLACK)
    factors = [(x, d, a) for x, d, a in factors if a]
    mags = [abs(lib.mpc_to_complex(x, rnd=rnd)) for x, _, _ in factors]
    if min(mags, default=1) > 1e-300:  # normal floats, so each is within 2^-52
        relative = sum(a * d / mag for mag, (_, d, a) in zip(mags, factors)) * (1 + 2**-50)
        lam = lib.mpf_shift(lib.from_float(relative + 1.05 * roundings), 1 - precision)
        if lib.mpf_le(lam, lib.fone):
            bound = mul(lib.mpc_abs(value, 53, rnd), lam, 53, rnd)
            bound = mul(bound, add(lam, lib.fone, 53, rnd), 53, rnd)
            return mul(bound, slack, 53, rnd)
    u = lib.mpf_shift(lib.fone, 1 - precision)
    half_ku = lib.mpf_div(lib.mpf_mul_int(u, roundings, 53, rnd), lib.from_int(2), 53, rnd)
    bound = lib.mpf_exp(half_ku, 53, rnd)
    widen = lib.from_float(1 + 2**-50)
    for x, d, a in factors:
        modulus = mul(lib.mpc_abs(x, 53, rnd), widen, 53, rnd)
        factor = add(modulus, mul(u, lib.from_float(d), 53, rnd), 53, rnd)
        bound = mul(bound, lib.mpf_pow_int(factor, a, 53, rnd), 53, rnd)
    return mul(bound, slack, 53, rnd)


def _orbit_sum(weighted, precision: int):
    """Compensated sum, at the working precision, of size * term over
    (size, term, error) triples, and a bound on its distance from the sum
    of size * (exact term): a raw kernel complex number and a raw real.

    With y, a and comp each step's corrected input, rounded increment and
    new compensation, total - comp stays the sum of the inputs up to the
    roundings of y, a and comp, so the loop's own error is at most
    |comp| + (u/2) / (1 - u/2) * sum(|size * term| + |y| + |a| + |comp|),
    u = 2^(1 - precision).
    """
    lib = _kernel()
    rnd = lib.round_nearest
    add, sub, mag = lib.mpc_add, lib.mpc_sub, lib.mpc_abs
    total = comp = (lib.fzero, lib.fzero)
    errors, moduli = [], []
    for size, term, error in weighted:
        w = lib.mpc_mul_int(term, size, precision, rnd)
        y = sub(w, comp, precision, rnd)
        tmp = add(total, y, precision, rnd)
        a = sub(tmp, total, precision, rnd)
        comp = sub(a, y, precision, rnd)
        total = tmp
        errors.append(lib.mpf_mul_int(error, size, 53, rnd))
        moduli += (mag(w, precision, rnd), mag(y, precision, rnd),
                   mag(a, precision, rnd), mag(comp, precision, rnd))
    u = lib.mpf_pow_int(lib.from_int(2), 1 - precision, 53, rnd)
    # the moduli were rounded at the working precision, hence 1 + u
    loop = lib.mpf_mul(lib.mpf_mul(u, lib.from_float(0.54), 53, rnd), lib.mpf_sum(moduli, 53, rnd),
                       53, rnd)
    loop = lib.mpf_add(mag(comp, 53, rnd), loop, 53, rnd)
    loop = lib.mpf_mul(loop, lib.mpf_add(u, lib.fone, 53, rnd), 53, rnd)
    bound = lib.mpf_add(lib.mpf_sum(errors, 53, rnd), loop, 53, rnd)
    bound = lib.mpf_mul(bound, lib.from_float(_BOUND_SLACK), 53, rnd)
    return total, bound


def _rotation_orbits(n: int, m: int):
    """(representative, size) for each orbit of the rotation k -> k + 1
    (mod n) on the m-subsets of range(n).

    The representative is the orbit's least rotation as a sorted tuple, so
    it holds 0, and only the rotations that carry one of its members to 0
    can tie with it.  The ties are its stabiliser, so the orbit has
    n / #ties members.
    """
    for rest in itertools.combinations(range(1, n), m - 1):
        rep = (0, *rest)
        ties = 0
        for shift in rep:
            rotated = tuple(sorted((k - shift) % n for k in rep))
            if rotated < rep:
                break
            ties += rotated == rep
        else:
            yield rep, n // ties


@functools.lru_cache(maxsize=32)
def _root_errors(n: int, precision: int) -> tuple[float, ...]:
    """|_zeta_table(n, precision)[r] - zeta^r| for each entry, in units of
    u = 2^(1 - precision).

    Read off the same table built at 2 * precision + 20 bits, whose own
    error is far below the 2^-10 units added for it and for the float.
    """
    lib = _kernel()
    rnd, wp = lib.round_nearest, 2 * precision + 20
    scale = lib.mpf_pow_int(lib.from_int(2), precision - 1, wp, rnd)
    errors = (
        lib.mpf_mul(lib.mpc_abs(lib.mpc_sub(z, exact, wp, rnd), wp, rnd), scale, wp, rnd)
        for z, exact in zip(_zeta_table(n, precision), _zeta_table(n, wp))
    )
    return tuple(lib.to_float(e, rnd=rnd) + 2**-10 for e in errors)


def _orbit_terms(m: int, sys: LGRootSystem, errs: tuple, power: int, summand):
    """(size, term, error bound) for each rotation orbit of the m-subsets
    of the roots, term = Delta^power * (the rest), from its least member;
    errs are the zeta table's errors, from _root_errors.

    Delta is the product of the differences q~_i - q~_j, i < j, each off by
    the two roots' errors d_i + d_j plus its rounding, 2^-precision
    |q~_i - q~_j| <= (1 + (d_i + d_j) u / 2) u.  summand(Delta^power,
    exponents, qs, ds) multiplies in the rest of the term and returns it
    with its other factors (x~, d, a) and roundings; the Vandermonde
    products after the first add len(diffs) roundings.
    """
    lib = _kernel()
    prec, rnd = sys.precision, lib.round_nearest
    half = 2.0**-prec
    for rep, size in _rotation_orbits(sys.n, m):
        # root k is zeta^(2k) for odd m and zeta^(2k+1) for even m
        exponents = [2 * k + 1 - m % 2 for k in rep]
        qs = [sys.powers[e] for e in exponents]
        ds = [errs[e] for e in exponents]
        diffs = [
            (lib.mpc_sub(qs[i], qs[j], prec, rnd), ds[i] + ds[j] + 1 + (ds[i] + ds[j]) * half)
            for i, j in itertools.combinations(range(m), 2)
        ]
        head = lib.mpc_one  # times 1 is exact, so Delta is the product of the diffs
        for x, _ in diffs:
            head = lib.mpc_mul(head, x, prec, rnd)
        term, factors, roundings = summand(
            lib.mpc_pow_int(head, power, prec, rnd), exponents, qs, ds
        )
        factors = [(x, d, power) for x, d in diffs] + factors
        yield size, term, _product_error(term, factors, len(diffs) + roundings, prec)


# The largest fixed-point sum admitted, in orbits times the weight of a term.
# A degree's term weighs 2^m m (its determinant), a correlator's 8 m^2, so
# that a unit costs about the same in both: at 80 bits on a 2-vCPU Xeon VM
# (Python 3.11), 0.6-0.9 us for degrees (m = p = 8: 1.65 million units,
# 1.0 s; m = 12, p = 3: 1.52 million, 1.3 s) and 0.9 us for correlators
# (m = p = 9: 1.75 million, 1.6 s).  The limit admits about 2 s of work.
_MAX_WORK = 2 * 10**6

# The weight of one entry of the 2n-entry zeta table, which every sum pays
# for twice: at the working precision (lg_roots) and at twice that plus 20
# bits to measure its errors (_root_errors).  Together they take 40-80 us
# an entry at 53-80 bits on that VM, about 64 units.  At m = 1 the table is
# the whole cost, so n up to 15,624 is admitted (about 2 s), and n = 10^8,
# whose table ran past 30 s and 600 MB, is not.
_ENTRY_WEIGHT = 64


def _fixed_point(subset_sum, m: int, n: int, weight: int, precision: int, tolerance: float):
    """Check the tolerance and the work, then round subset_sum(lg_roots(m, n,
    precision)).  The work, ceil(C(n, m) / n) orbits times `weight` per term
    plus 2n table entries times _ENTRY_WEIGHT, is known before any root is
    computed."""
    check_tolerance(tolerance)
    orbits = -(-math.comb(n, m) // n)
    table = 2 * n * _ENTRY_WEIGHT
    if orbits * weight + table > _MAX_WORK:
        raise ValueError(
            f"fixed-point sum too large: an estimated {orbits * weight} units of work "
            f"({orbits} rotation orbits times {weight} per term) and {table} for the root "
            f"table ({2 * n} entries times {_ENTRY_WEIGHT}) exceed the limit {_MAX_WORK}"
        )
    total, bound = subset_sum(lg_roots(m, n, precision))
    return _finalize(total, bound, m, n, precision, tolerance)


def _degree_sum(lams, exponent: int, sys: LGRootSystem):
    """The degree's subset sum and its error bound.  The summand is
    det[q_i ^ lam_j] * (sum q)^E, lam_j = n + 1 - c_j; the term's weight
    m(m-1)/2 + sum lam_j + E = mn + nd is a multiple of n."""
    lib = _kernel()
    prec, rnd = sys.precision, lib.round_nearest
    errs = _root_errors(sys.n, prec)

    def summand(head, exponents, qs, ds):
        coeffs = _det_coefficients(exponents, lams, sys.n)
        # the dot product sum_r c_r zeta^r as mp.fdot takes it: exact
        # products, one rounding per part
        det = tuple(
            lib.mpf_sum([lib.mpf_mul(lib.from_int(c), z[part]) for c, z in zip(coeffs, sys.powers)],
                        prec, rnd)
            for part in (0, 1)
        )
        s, s_err = qs[0], ds[0]
        for q, d in zip(qs[1:], ds[1:]):
            s = lib.mpc_add(s, q, prec, rnd)
            # rounding moves the partial sum by 2^-precision of its exact modulus,
            # at most 0.54 u of the computed one
            s_err += d + abs(lib.mpc_to_complex(s, rnd=rnd)) * 0.54
        factors = [(det, sum(abs(c) * d for c, d in zip(coeffs, errs)), 1), (s, s_err, exponent)]
        term = lib.mpc_mul(
            lib.mpc_mul(head, det, prec, rnd), lib.mpc_pow_int(s, exponent, prec, rnd), prec, rnd
        )
        # the dot product, E for the power and the two joining products
        return term, factors, exponent + 2

    return _orbit_sum(_orbit_terms(len(lams), sys, errs, 1, summand), prec)


def vi_degree(
    columns,
    d: int,
    m: int,
    p: int,
    precision: int = DEFAULT_PRECISION,
    tolerance: float = DEFAULT_TOLERANCE,
) -> NumericResult:
    """Degree of the subvariety named by (columns; d) as a fixed-point sum.

    Sums Delta(q) * det[q_i^(n + 1 - c_j)] * (sum q)^E over m-subsets q of
    the roots, with c_j the columns (a tuple, c_1 < ... < c_m) and
    E = |columns| + n*d the subvariety's dimension, then scales by
    (-1)^(m(m-1)/2) / n^m, working at `precision` bits.
    """
    symbol = SchubertSymbol(columns, d)
    n = m + p
    if symbol.m != m or symbol.columns[-1] > n:
        raise InvalidIndexError(f"columns {symbol.columns} name nothing for m={m} p={p}")
    exponent = symbol_dimension(symbol, n)
    lams = [n + 1 - c for c in symbol.columns]
    return _fixed_point(
        lambda sys: _degree_sum(lams, exponent, sys),  # _det takes 2^m m products
        m, n, 2**m * m, precision, tolerance,
    )


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


def _elementary_all(qs, precision: int):
    # e_0..e_m of the subset via incremental expansion of prod(1 + q_i t)
    lib = _kernel()
    rnd = lib.round_nearest
    e = [lib.mpc_one] + [(lib.fzero, lib.fzero)] * len(qs)
    for idx, q in enumerate(qs, start=1):
        for k in range(idx, 0, -1):
            e[k] = lib.mpc_add(e[k], lib.mpc_mul(q, e[k - 1], precision, rnd), precision, rnd)
    return e


def _elementary_errors(m: int, root: float, precision: int) -> list[float]:
    """Bounds on |e~_l - e_l|, l = 0..m, for the e_l that _elementary_all
    computes from m roots, in units of u = 2^(1 - precision).

    Each step e_k += q e_(k-1) adds the input errors (|q~ - q| <= root u,
    |e_l| <= C(j, l) after j roots) and two roundings of half a unit each.
    """
    u = 2.0 ** (1 - precision)
    binom = [1] + [0] * m
    err = [0.0] * (m + 1)
    for j in range(1, m + 1):
        for k in range(j, 0, -1):
            prev = binom[k - 1] + err[k - 1] * u  # bounds |e~_(k-1)|
            prod = (1 + root * u) * prev  # bounds |q~ e~_(k-1)|
            err[k] += (
                root * prev + err[k - 1]
                + (prod + binom[k] + err[k] * u + prod * (1 + u / 2)) / 2
            )
            binom[k] += binom[k - 1]
    return err


def _correlator_sum(spec: CorrelatorSpec, sys: LGRootSystem):
    """The correlator's subset sum and its error bound: one term
    Delta^2 * e_m * prod e_l(q)^a_l per rotation orbit of the roots
    (weight m(m-1) + m + sum l a_l = mn + nq)."""
    lib = _kernel()
    m, prec, rnd = spec.m, sys.precision, lib.round_nearest
    errs = _root_errors(sys.n, prec)
    elementary = _elementary_errors(m, max(errs[1 - m % 2 :: 2]), prec)

    def summand(head, exponents, qs, ds):
        e = _elementary_all(qs, prec)
        term, factors, roundings = lib.mpc_mul(head, e[m], prec, rnd), [(e[m], elementary[m], 1)], 1
        for l, a in enumerate(spec.powers, start=1):
            if a:
                term = lib.mpc_mul(term, lib.mpc_pow_int(e[l], a, prec, rnd), prec, rnd)
                factors.append((e[l], elementary[l], a))
                roundings += a + 1
        return term, factors, roundings

    return _orbit_sum(_orbit_terms(m, sys, errs, 2, summand), prec)


def vi_correlator(
    spec: CorrelatorSpec,
    precision: int = DEFAULT_PRECISION,
    tolerance: float = DEFAULT_TOLERANCE,
) -> NumericResult:
    """Genus-zero correlator of powers of the generator classes, at `precision` bits.

    Each critical subset contributes the class values times the inverse
    Hessian (prod q) Delta^2 / n^m; the global sign is (-1)^(m(m-1)/2).
    """
    return _fixed_point(
        lambda sys: _correlator_sum(spec, sys),  # e_0..e_m, Delta and their bounds
        spec.m, spec.m + spec.p, 8 * spec.m**2, precision, tolerance,
    )
