"""Exact arithmetic in Z[q] and the q-combinatorial functions built on it.

A polynomial is a dense ascending tuple of arbitrary-precision integer
coefficients; the zero polynomial is the empty tuple.  Everything here is
exact: no floats, no modular reduction, no silent overflow.  Every Gaussian
coefficient comes from the one loop in q_multinomial, over the low half of
the palindromic coefficient list, then mirrored: q_binomial and
q_factorial are calls into it.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import NamedTuple

__all__ = [
    "QPoly",
    "NotDivisible",
    "ZERO",
    "ONE",
    "q",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "q_multinomial",
    "cyclotomic",
    "cyclotomic_factor",
    "CyclotomicFactorization",
    "to_json_coeffs",
    "to_latex",
]

# Largest integer JSON consumers can hold losslessly in a double.
_JSON_SAFE_MAX = 2**53 - 1


class NotDivisible(ArithmeticError):
    """Raised when an exact quotient does not exist in Z[q]."""


def _checked_int(value, what: str, least: int | None = None) -> int:
    """The value, after refusing with TypeError one that is not an int (a
    bool is none) and with ValueError one below least, 0 or 1.  Every
    count and integer argument of the package is checked here."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be {'positive' if least else 'nonnegative'}")
    return value


def _checked_type(value, kind, what: str, noun: str):
    """The value, after refusing with TypeError one that is not an instance
    of kind, in the form "<what> must be <noun>, got <type>".  Every
    argument whose type no other check reads is checked here."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be {noun}, got {type(value).__name__}")
    return value


class QPoly:
    """A polynomial in Z[q]; the last stored coefficient is always nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [_checked_int(c, "coefficient") for c in _checked_type(coeffs, Iterable, "coefficients", "iterable")]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _trusted(cls, cs: list[int]) -> "QPoly":
        """A polynomial from a list of int coefficients computed from
        checked ones, for the package's own results: strips trailing zeros,
        in place, and skips the per-coefficient type checks."""
        while cs and cs[-1] == 0:
            cs.pop()
        out = object.__new__(cls)
        out.coeffs = tuple(cs)
        return out

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({str(self)!r})"

    def __str__(self):
        return _render(self, "q^{}")

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._trusted([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) == 1 or len(b) == 1:  # a constant scales the other operand
            poly, (c,) = (self, b) if len(b) == 1 else (other, a)
            return poly if c == 1 else QPoly._trusted([c * x for x in poly.coeffs])
        # Kronecker substitution (_kronecker_mul) in fields that hold the
        # coefficient bound; a bound that fits a machine field is taken here,
        # in the narrowest one, with no helper call
        bits = (max(a) * max(b) * min(len(a), len(b))).bit_length()
        if bits < len(_NARROW_FIELDS):
            size, code = _NARROW_FIELDS[bits]
            order = sys.byteorder
            try:  # the pack is the sign check: an unsigned field holds no negative
                product = int.from_bytes(array(code, a), order) * int.from_bytes(array(code, b), order)
            except OverflowError:
                pass
            else:
                # fields in native order, read back in that order, come out
                # ascending on either byte order; both leading coefficients
                # are nonzero, so the product's is, and its len(a) + len(b) - 1
                # fields need no strip
                out = object.__new__(QPoly)
                out.coeffs = tuple(memoryview(product.to_bytes(size * (len(a) + len(b) - 1), order)).cast(code))
                return out
        elif min(a) >= 0 and min(b) >= 0:
            return _kronecker_mul(a, b, _field_size(bits))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return QPoly._trusted(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k."""
        if _checked_int(k, "shift", 0) == 0 or not self.coeffs:
            return self
        return QPoly._trusted([0] * k + list(self.coeffs))

    def divexact(self, divisor) -> "QPoly":
        """Exact quotient in Z[q]; raises NotDivisible when none exists."""
        divisor = _coerce(divisor)
        if divisor is None:
            raise TypeError("cannot divide by this operand")
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return ZERO
        dcs = divisor.coeffs
        if len(self.coeffs) < len(dcs):
            raise NotDivisible(f"({self}) is not divisible by ({divisor})")
        rem = list(self.coeffs)
        lead = dcs[-1]
        span = len(dcs)
        quot = [0] * (len(rem) - span + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + span - 1]
            if c % lead:
                raise NotDivisible(f"({self}) is not divisible by ({divisor})")
            f = c // lead
            if f:
                quot[i] = f
                for j, d in enumerate(dcs):
                    rem[i + j] -= f * d
        if any(rem):
            raise NotDivisible(f"({self}) is not divisible by ({divisor})")
        return QPoly._trusted(quot)

    def eval_int(self, x: int) -> int:
        """Evaluate at an integer point, exactly."""
        _checked_int(x, "point")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...], size: int) -> QPoly:
    """a * b, both with nonnegative coefficients, by Kronecker substitution
    (Harvey, J. Symbolic Comput. 2009): each operand is packed into one
    int, with fields of size bytes, wide enough for any product coefficient,
    so big-integer products carry every coefficient without a carry
    crossing a field.  QPoly.__mul__ takes a bound that fits a machine
    field itself, in the narrowest of 1, 2, 4 and 8 bytes that holds it,
    with one product; it calls this for a wider bound, size the fewest
    bytes that hold it (_field_size), 9 or more.

    A wide product takes Harvey's two-point variant (KS2): each operand is
    evaluated at q = 2**h and q = -2**h, h = 4 * size bits, half a field.
    With its even and odd coefficients packed as E and O, f(+-2**h) = E +-
    (O << h), so the two products plus and minus are half the length of
    the one-point product and cost about 2/3 of it.  (plus + minus) / 2
    packs the even coefficients of a * b and (plus - minus) / 2**(h + 1)
    the odd ones, each at q**2 = 256**size; every coefficient is below the
    bound, below 256**size, so neither sum carries across a field.  A
    narrow product is small enough that the extra packing and additions
    outweigh the saving, so narrow products keep the one product."""
    half = 4 * size
    a_even, a_odd = _pack(a[0::2], size), _pack(a[1::2], size) << half
    b_even, b_odd = _pack(b[0::2], size), _pack(b[1::2], size) << half
    plus = (a_even + a_odd) * (b_even + b_odd)
    minus = (a_even - a_odd) * (b_even - b_odd)
    # either half may have lost trailing zero coefficients in unpacking
    even = _unpack((plus + minus) >> 1, size).coeffs
    odd = _unpack((plus - minus) >> (half + 1), size).coeffs
    out = [0] * (len(a) + len(b) - 1)
    out[0 : 2 * len(even) : 2] = even
    out[1 : 2 * len(odd) : 2] = odd
    return QPoly._trusted(out)


# -- packed polynomials ------------------------------------------------------------
# A polynomial with nonnegative coefficients below 256**size packs into one int,
# coefficient k in bytes [k * size, (k + 1) * size): its value at q = 256**size.
# Sums and products of packed values stay exact while no coefficient outgrows
# its field.  Every packed value that is unpacked has the fields _field_size
# picks for its coefficient bound.  _fill_memo sums packed values over the
# states of a recursion.

# The array typecode of each machine field size in bytes, read off the platform.
_FIELD_CODES = {array(code).itemsize: code for code in "BHIQ"}
# (size, typecode) of the narrowest machine field that holds a bound of each
# bit length up to the widest field's.
_NARROW_FIELDS = tuple(
    min((size, code) for size, code in _FIELD_CODES.items() if 8 * size >= bits)
    for bits in range(8 * max(_FIELD_CODES) + 1)
)


def _field_size(bits: int) -> int:
    """Bytes per field for a coefficient bound of the given bit length: the
    narrowest machine field of 1, 2, 4 or 8 bytes that holds it, and past
    64 bits the fewest bytes.  Products, the leaf-removal recursion and the
    reduction to the point all size their fields here; each shared memo
    takes one size, for its cap's bound (12! for the recursion, 8 * 8! for
    the reduction), both 4 bytes, and a tree past the cap the size for its
    own bound."""
    return _NARROW_FIELDS[bits][0] if bits < len(_NARROW_FIELDS) else (bits + 7) // 8


def _pack(coeffs: Iterable[int], size: int) -> int:
    """The int holding the given coefficients, `size` bytes each, written
    as _unpack reads them: as an array for a machine field size, one by one
    for a wider size.  Wide products pack here (_kronecker_mul), in fields
    of 9 bytes or more, and the recursion re-packs a shared value in the
    fields of a larger tree's memo (invariant._private_moves); a narrow
    product packs its machine fields in QPoly.__mul__."""
    code = _FIELD_CODES.get(size)
    if code is None:
        return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]), "little")
    fields = array(code, coeffs)
    if sys.byteorder == "big":
        fields.byteswap()
    return int.from_bytes(fields, "little")


def _unpack(packed: int, size: int) -> QPoly:
    """The polynomial whose coefficient of q**k is field k of packed,
    `size` bytes each, read as _pack writes them: as an array for a
    machine field size, one by one for a wider size."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * size)) * size, "little")
    code = _FIELD_CODES.get(size)
    if code is None:
        return QPoly._trusted([int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)])
    fields = array(code, raw)
    if sys.byteorder == "big":
        fields.byteswap()
    return QPoly._trusted(fields.tolist())


def _fill_memo(memo: dict, key, size: int, moves) -> int:
    """Store the packed value of the state with the given key, and of every
    state it reaches, in memo, in fields of `size` bytes, and return the
    key's value.  A state's value is the sum, over the (shift, sub-key)
    pairs of the list moves(key), of the sub-key's value shifted left by
    `shift` fields; the end state is keyed 0 and its value is 1.  A state
    waits on an explicit stack, its moves listed, until every state they
    reach is in memo, so each state's moves are listed once per fill and a
    state already in memo not at all.  Every coefficient of every value
    must fit its field.

    This is the one memo engine: the leaf-removal recursion passes its leaf
    moves (invariant._removal_sum), and the reduction to the point its
    faces, each shifted by its index (presimplicial.reduce_to_point).  A
    moves function may put values of the sub-keys it lists into memo
    itself, which are then not filled: a larger tree's private fill takes
    the values of its 12-edge states from the recursion's shared memo that
    way (invariant._private_moves)."""
    width = 8 * size
    stack = [[key, None]]  # key, moves once listed
    while stack:
        frame = stack[-1]
        key, listed = frame
        if listed is None:
            if key in memo:  # finished meanwhile, reached from another state
                stack.pop()
                continue
            listed = frame[1] = moves(key)
            depth = len(stack)
            for _, sub in listed:
                if sub and sub not in memo:
                    stack.append([sub, None])
            if len(stack) > depth:
                continue
        stack.pop()
        acc = 0
        for shift, sub in listed:
            acc += (memo[sub] if sub else 1) << (shift * width)
        memo[key] = acc
    return memo[key]  # the bottom frame, popped last, holds the given key


def _coerce(value) -> QPoly | None:
    if isinstance(value, QPoly):
        return value
    if isinstance(value, int):
        return QPoly((value,))  # raises TypeError on a bool
    return None


ZERO = QPoly()
ONE = QPoly((1,))
q = QPoly((0, 1))


def q_integer(n: int) -> QPoly:
    """1 + q + ... + q**(n-1); the zero polynomial for n = 0."""
    return QPoly._trusted([1] * _checked_int(n, "n", 0))


def q_factorial(n: int) -> QPoly:
    """Product of the q-integers 1..n; one for n = 0."""
    return q_multinomial((1,) * _checked_int(n, "n", 0))


@lru_cache(maxsize=None, typed=True)
def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial; zero outside 0 <= k <= n.  Cached, because the
    wedge identity reads the same few binomials for many pairs of trees;
    the cache is typed, since True hashes as 1 and would otherwise find
    the entry of the int and skip the checks."""
    _checked_int(n, "n", 0)
    if not 0 <= _checked_int(k, "k") <= n:
        return ZERO
    return q_multinomial((k, n - k))


def q_multinomial(parts: Iterable[int]) -> QPoly:
    """Gaussian multinomial of the parts; symmetric in them, and 1 for
    empty or single-part input.

    With the parts sorted descending, a1 >= a2 >= ..., this is the product
    over each later part a, t the sum of the parts before it, of
    C(t + a, a) = prod_{i=1..a} (1 - q**(t+i)) / (1 - q**i).  Taking the
    largest part first makes the fewest steps.  The result is palindromic,
    of degree D = (n**2 - sum of a**2) / 2, n the sum of the parts, so only
    its coefficients 0..D // 2 are computed, as a power series truncated
    there, and mirrored; every coefficient from 0 to D is positive.  Each
    step multiplies by its numerator factor as one slice difference over
    the old list, then divides by its denominator factor (1 - q**i) as one
    running sum per residue class mod i (itertools.accumulate), both over
    the coefficients up to the degree of the product so far, since every
    partial result is a product of Gaussian binomials, a polynomial.  A
    factor whose exponent is past D // 2 leaves the kept coefficients as
    they are and is skipped.
    """
    parts = _checked_type(parts, Iterable, "parts", "iterable")
    parts = sorted([_checked_int(a, "part", 0) for a in parts], reverse=True)
    if len(parts) < 2 or not parts[1]:  # at most one part is nonzero
        return ONE
    n = sum(parts)
    degree = (n * n - sum(a * a for a in parts)) // 2
    keep = degree // 2 + 1
    out = [1] + [0] * (keep - 1)
    top = 0  # degree of the product so far
    total = parts[0]
    for a in parts[1:]:
        for i in range(1, min(a + 1, keep)):  # by step keep - 1, top is at least keep - 1
            m = total + i
            top += total  # the quotient's degree, top + m - i
            end = top + 1 if top < keep else keep  # the coefficients past end are zero, and stay so
            if m < end:
                out[m:end] = map(sub, out[m:end], out[: end - m])
            for r in range(i if 2 * i < end else end - i):  # a class of one coefficient keeps it
                out[r:end:i] = accumulate(out[r:end:i])
        total += a
    out += out[degree - keep :: -1]  # coefficient degree - k is coefficient k
    return QPoly._trusted(out)


def cyclotomic(d: int) -> QPoly:
    """The d-th cyclotomic polynomial: from phi_1 = q - 1, phi_mp(q) =
    phi_m(q**p) / phi_m(q) for each distinct prime p of d reaches phi_r, r
    the radical of d, and phi_d(q) = phi_r(q**(d/r))."""
    _checked_int(d, "d", 1)
    out, rad = QPoly._trusted([-1, 1]), 1
    for p in _primes(d):
        out = _stretch(out, p).divexact(out)
        rad *= p
    return _stretch(out, d // rad)


def _stretch(poly: QPoly, s: int) -> QPoly:
    """poly(q**s)."""
    out = [0] * (poly.degree * s + 1)
    out[::s] = poly.coeffs
    return QPoly._trusted(out)


def _primes(d: int) -> list[int]:
    """The distinct primes dividing d, ascending."""
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


class CyclotomicFactorization(NamedTuple):
    monomial_exponent: int
    factors: "Counter[int]"
    remainder: QPoly


def _totient(d: int) -> int:
    for p in _primes(d):
        d = d // p * (p - 1)
    return d


def cyclotomic_factor(poly: QPoly) -> CyclotomicFactorization:
    """Strip the maximal monomial q**k and every cyclotomic factor.

    Returns (k, multiset of stripped cyclotomic indices, remaining factor);
    the input is a monomial times a product of cyclotomics exactly when the
    remainder is 1.  Reassembling q**k * prod(phi_d ** mult) * remainder
    always gives back the input.
    """
    if not _checked_type(poly, QPoly, "polynomial", "a QPoly"):
        raise ValueError("zero polynomial")
    k = 0
    while poly.coeffs[k] == 0:
        k += 1
    cur = QPoly._trusted(list(poly.coeffs[k:]))
    factors: Counter[int] = Counter()
    cur_at_2 = cur.eval_int(2)
    d = 1
    # phi(d) >= sqrt(d/2), so indices past 2*deg^2 + 2 can no longer divide.
    while cur.degree > 0 and d <= 2 * cur.degree * cur.degree + 2:
        if _totient(d) <= cur.degree:
            phi = cyclotomic(d)
            phi_at_2 = phi.eval_int(2)
            # Cheap integer prefilter: phi | cur forces phi(2) | cur(2).
            while cur_at_2 % phi_at_2 == 0:
                try:
                    cur = cur.divexact(phi)
                except NotDivisible:
                    break
                factors[d] += 1
                cur_at_2 = cur.eval_int(2)
                if cur.degree <= 0:
                    break
        d += 1
    return CyclotomicFactorization(k, factors, cur)


def to_json_coeffs(poly: QPoly) -> list:
    """Ascending coefficients for JSON; entries outside the 53-bit safe
    integer range are rendered as strings."""
    return [c if abs(c) <= _JSON_SAFE_MAX else str(c) for c in poly.coeffs]


def to_latex(poly: QPoly) -> str:
    """LaTeX rendering with braced exponents, ascending terms."""
    return _render(poly, "q^{{{}}}")


def _render(poly: QPoly, power: str) -> str:
    """Ascending terms with unit coefficients elided; power formats an
    exponent of at least 2."""
    if not poly.coeffs:
        return "0"
    parts: list[str] = []
    for i, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "q" if i == 1 else power.format(i)
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)
