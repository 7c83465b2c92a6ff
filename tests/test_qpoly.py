import inspect
import itertools
import json
import math
import random
from array import array

import pytest
from hypothesis import given, strategies as st

from qtrees import invariant, presimplicial, qpoly, trees, verify
from qtrees.invariant import q_poly_state
from qtrees.presimplicial import CHERRY
from qtrees.qpoly import (
    ONE,
    ZERO,
    NotDivisible,
    QPoly,
    cyclotomic,
    cyclotomic_factor,
    q,
    q_binomial,
    q_factorial,
    q_integer,
    q_multinomial,
    to_json_coeffs,
    to_latex,
)
from qtrees.trees import star


def int_binomial(n, k):
    # independent integer oracle: Pascal recurrence on plain ints
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if 0 <= k <= n else 0


# -- construction ------------------------------------------------------------


def test_normalization_strips_trailing_zeros():
    assert QPoly((1, 0, 0)) == QPoly((1,))
    assert QPoly((0, 0)) == ZERO
    assert QPoly().degree == -1
    assert QPoly((0, 0, 5)).degree == 2


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        QPoly((1.5,))


def test_rejects_bool_coefficients():
    # bool is a subclass of int, but True is no coefficient: it would be
    # stored as True and written to JSON as true
    for coeffs in ([True, 2], (1, False), [False]):
        with pytest.raises(TypeError, match="got bool"):
            QPoly(coeffs)
    for op in (
        lambda: q * True,
        lambda: True * q,
        lambda: q + False,
        lambda: q - True,
        lambda: q.divexact(True),
        lambda: ONE.eval_int(True),
    ):
        with pytest.raises(TypeError):
            op()


# -- arithmetic ---------------------------------------------------------------


def test_add():
    assert QPoly((1, 1)) + ZERO == QPoly((1, 1))
    assert QPoly((1, 1)) + QPoly((0, 1, 1)) == QPoly((1, 2, 1))
    assert q_integer(2) + q_integer(3) == QPoly((2, 2, 1))


def test_mul():
    assert QPoly((1, 1)) * ONE == QPoly((1, 1))
    assert QPoly((1, 1)) * QPoly((1, 1, 1)) == QPoly((1, 2, 2, 1))
    assert QPoly((1, 1)) * QPoly((1, 1, 1)) == q_factorial(3)
    assert QPoly((3, 7, 2)) * ZERO == ZERO


def schoolbook(a, b):
    # independent oracle: the convolution of two coefficient lists
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def check_product(a, b):
    # the product, either way round, against the oracle, and normalised
    want = schoolbook(a, b)
    for x, y in ((a, b), (b, a)):
        got = QPoly(x) * QPoly(y)
        assert got.coeffs == want
        assert not got.coeffs or got.coeffs[-1] != 0


def nonnegative(rng, n, bits):
    out = [rng.getrandbits(bits) for _ in range(n)]
    out[-1] |= 1
    return out


def record_routes(monkeypatch):
    # the routes QPoly products take, recorded: the size in bytes of each
    # machine field a narrow product packs, or tries to pack, an operand
    # into; one entry per narrow product decoded; the field size of each
    # wide (KS2) product; and the length of each operand part it packs
    routes = {"fields": [], "narrow": [], "wide": [], "packed": []}
    kronecker, pack = qpoly._kronecker_mul, qpoly._pack

    def fields(code, init):
        routes["fields"].append(array(code).itemsize)
        return array(code, init)

    def decoding(raw):
        routes["narrow"].append(1)
        return memoryview(raw)

    def wide(a, b, size):
        routes["wide"].append(size)
        return kronecker(a, b, size)

    def packing(coeffs, size):
        routes["packed"].append(len(coeffs))
        return pack(coeffs, size)

    monkeypatch.setattr(qpoly, "array", fields)
    monkeypatch.setattr(qpoly, "memoryview", decoding, raising=False)
    monkeypatch.setattr(qpoly, "_kronecker_mul", wide)
    monkeypatch.setattr(qpoly, "_pack", packing)
    return routes


def clear(routes):
    for seen in routes.values():
        seen.clear()


def test_mul_routing(monkeypatch):
    # every product of two nonnegative operands with 2 or more coefficients
    # goes by Kronecker substitution; a constant or signed operand never does
    routes = record_routes(monkeypatch)
    rng = random.Random(7)
    for la in (1, 2, 3):
        for lb in (1, 2, 3):
            for bits in (1, 20, 70):
                a, b = nonnegative(rng, la, bits), nonnegative(rng, lb, bits)
                clear(routes)
                check_product(a, b)
                assert len(routes["narrow"]) + len(routes["wide"]) == (2 if min(la, lb) >= 2 else 0)
                clear(routes)
                check_product([-c for c in a], b)
                assert not routes["narrow"] and not routes["wide"]
    p = QPoly(nonnegative(rng, 5, 20))
    assert p * ONE is p and ONE * p is p
    assert p * 1 is p and 1 * p is p
    for c in (-1, -(2**70) - 3, 2**64 + 5, 2**200):
        clear(routes)
        check_product([c], nonnegative(rng, 12, 30))
        check_product([c], [-5, 0, 7])
        assert not any(routes.values())
    # the coefficient bound max(a) * max(b) * min(len(a), len(b)) picks the
    # narrowest machine field that holds it, and past 8 bytes KS2 with the
    # fewest bytes; n copies of bound / n times n or more copies of 1 reach
    # the bound in a coefficient, so no narrower field would do
    for bound, size in (
        (2**8 - 1, 1),
        (2**8, 2),
        (2**16 - 1, 2),
        (2**16, 4),
        (2**32 - 1, 4),
        (2**32, 8),
        (2**64 - 1, 8),
        (2**64, 9),
    ):
        n = 3 if bound % 3 == 0 else 2
        top = [bound // n] * n
        for a, b in ((top, [1] * n), (top, [1] * (n + 4)), (top, [0, 1] + [1] * n)):
            assert max(a) * max(b) * min(len(a), len(b)) == bound
            clear(routes)
            check_product(a, b)
            assert max(schoolbook(a, b)) == bound
            if size <= 8:
                assert set(routes["fields"]) == {size} and len(routes["narrow"]) == 2
                assert not routes["wide"]
            else:
                assert routes["wide"] == [size, size] and not routes["fields"] and not routes["narrow"]
            # a negative coefficient in either operand: the pack refuses it at
            # the same width and the product goes to schoolbook
            for x, y in ((a[:-1] + [-a[-1]], b), (a, b[:-1] + [-b[-1]])):
                clear(routes)
                check_product(x, y)
                assert not routes["narrow"] and not routes["wide"]
                assert set(routes["fields"]) == ({size} if size <= 8 else set())
    # all-equal operands reach the field bound 3 * m * m in their middle
    # coefficient: a 64-bit bound takes 8-byte fields and packs the two
    # operands whole; a 65-bit one takes 9 and packs each operand's even and
    # odd coefficients apart, for the products at q = 2**36 and q = -2**36
    for bits, fields, wide, packed in ((64, [8, 8], [], []), (65, [], [9], [2, 1, 2, 1])):
        m = math.isqrt((2**bits - 1) // 3)
        assert (3 * m * m).bit_length() == bits
        clear(routes)
        assert (QPoly([m] * 3) * QPoly([m] * 3)).coeffs == schoolbook([m] * 3, [m] * 3)
        assert (routes["fields"], routes["wide"], routes["packed"]) == (fields, wide, packed)


@pytest.mark.parametrize("size", [1, 2, 4, 8])
def test_mul_in_each_machine_field(monkeypatch, size):
    # operands whose bound needs exactly `size` bytes, against the oracle:
    # equal and unequal lengths, interior zeros, and leading zero
    # coefficients (a factor q**k) on either side or both
    routes = record_routes(monkeypatch)
    rng = random.Random(size)
    for la, lb, zeros_a, zeros_b in (
        (2, 2, 0, 0),
        (2, 9, 0, 3),
        (3, 17, 1, 0),
        (17, 4, 0, 2),
        (12, 12, 4, 3),
        (40, 5, 0, 0),
        (25, 31, 6, 9),
    ):
        n = min(la, lb)
        most = (256**size - 1) // n
        top_a = math.isqrt(most)
        top_b = most // top_a

        def operand(length, zeros, top):
            body = [rng.randint(1, top) if rng.random() < 0.6 else 0 for _ in range(length - zeros)]
            body[rng.randrange(len(body) - 1)] = top
            body[-1] = top
            return [0] * zeros + body

        a, b = operand(la, zeros_a, top_a), operand(lb, zeros_b, top_b)
        clear(routes)
        check_product(a, b)
        assert set(routes["fields"]) == {size} and len(routes["narrow"]) == 2


def test_mul_kronecker_unbalanced():
    rng = random.Random(11)
    check_product(nonnegative(rng, 1, 30), nonnegative(rng, 500, 30))
    check_product(nonnegative(rng, 8, 30), nonnegative(rng, 2000, 30))
    check_product([1] * 8, [1] * 2000)


def test_mul_kronecker_wide_coefficients():
    rng = random.Random(13)
    above_64 = [2**64 + rng.getrandbits(64) for _ in range(20)]
    check_product(above_64, nonnegative(rng, 12, 64))
    check_product(above_64, above_64)
    near_1000 = [2**1000 - 1 - rng.getrandbits(40) for _ in range(16)]
    check_product(near_1000, near_1000)
    check_product(near_1000, nonnegative(rng, 30, 3))
    check_product([2**1000 - 1] * 9, [2**1000 - 1] * 9)
    # wide bounds split each operand into even and odd coefficients, so
    # every parity of length, and halves that unpack short, must come back
    w = 2**70
    for la, lb in ((2, 2), (2, 3), (3, 4), (5, 5)):
        check_product(nonnegative(rng, la, 70), nonnegative(rng, lb, 70))
    check_product([w, 0, w], [w, 0, w])  # no odd coefficient is nonzero
    check_product([w, 1], [w, 0, 0, 0, 1])  # odd coefficients w, 0 and 1
    check_product([0, 0, w, 1], [0, w, 3])  # leading zeros on both sides
    check_product([0, 0, w, 1], [0, 0, w, 1])


def test_mul_kronecker_zero_coefficients():
    rng = random.Random(17)
    sparse = [0, 0, 5, 0, 0, 0, 1, 0, 0, 2**70, 0, 3]
    check_product(sparse, sparse)
    check_product(sparse, nonnegative(rng, 10, 8))
    # leading zeros are a factor q**k; the product carries both shifts
    shifted = [0] * 9 + nonnegative(rng, 10, 16)
    check_product(shifted, [0] * 4 + nonnegative(rng, 9, 16))
    check_product([1] + [0] * 30 + [1], [1] + [0] * 20 + [1])


def test_field_size_is_the_products_rule():
    # the narrowest machine field of 1, 2, 4 or 8 bytes that holds a bound
    # of the given bits, and past 64 bits the fewest bytes
    for bits in range(201):
        want = next(size for size in (1, 2, 4, 8) if 8 * size >= bits) if bits <= 64 else -(-bits // 8)
        assert qpoly._field_size(bits) == want, bits


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8, 9])
def test_pack_and_unpack_round_trip(size):
    top = 256**size - 1
    for coeffs in ([], [top], [1, 0, 3], [0, top, 0, 0, 7], [top] * 5):
        packed = qpoly._pack(coeffs, size)
        assert packed == QPoly(coeffs).eval_int(256**size)
        assert qpoly._unpack(packed, size).coeffs == tuple(coeffs)


def test_mul_signed_operands():
    rng = random.Random(19)
    for la, lb in ((9, 9), (8, 40), (30, 25)):
        a = [rng.randrange(-(2**80), 2**80) for _ in range(la)]
        b = [rng.randrange(-9, 10) for _ in range(lb - 1)] + [-1]
        check_product(a, b)
        check_product(a, [abs(c) for c in b])
    check_product([-1, 1] + [0] * 10, [1] * 12)


@given(
    st.lists(st.integers(0, 2**70), max_size=40),
    st.lists(st.integers(-(2**70), 2**70), max_size=40),
)
def test_mul_matches_schoolbook(a_coeffs, b_coeffs):
    check_product(a_coeffs, [abs(c) for c in b_coeffs])
    check_product(a_coeffs, b_coeffs)


def test_int_coercion_and_sub():
    assert QPoly((1, 1)) * 2 == QPoly((2, 2))
    assert 1 + q == QPoly((1, 1))
    assert (1 + q) - q == ONE
    assert -q == QPoly((0, -1))
    assert 1 - q == QPoly((1, -1))
    for bad in (lambda: q - "x", lambda: "x" - q, lambda: q.divexact("x")):
        with pytest.raises(TypeError):
            bad()


def test_shift():
    assert QPoly((1, 1)).shift(2) == QPoly((0, 0, 1, 1))
    assert ZERO.shift(3) == ZERO
    with pytest.raises(ValueError):
        q.shift(-1)


def test_divexact():
    assert QPoly((1, 2, 1)).divexact(QPoly((1, 1))) == QPoly((1, 1))
    assert q_factorial(3).divexact(q_integer(2)) == QPoly((1, 1, 1))
    with pytest.raises(NotDivisible):
        QPoly((1, 0, 1)).divexact(QPoly((1, 1)))
    with pytest.raises(ZeroDivisionError):
        ONE.divexact(ZERO)
    with pytest.raises(NotDivisible):  # the same length, but 3 does not divide 2
        QPoly((0, 2)).divexact(QPoly((0, 3)))


def test_foreign_operands_a_longer_divisor_and_the_repr():
    poly = QPoly((1, 2, 1))
    for method in (poly.__eq__, poly.__add__, poly.__mul__):
        assert method("q") is NotImplemented
    with pytest.raises(TypeError):
        poly + "q"
    with pytest.raises(TypeError):
        poly * 1.5
    assert poly != "1 + 2q + q^2"
    with pytest.raises(NotDivisible):  # the divisor has more coefficients
        QPoly((1, 1)).divexact(poly)
    assert repr(poly) == "QPoly('1 + 2q + q^2')"


def test_eval_int():
    assert QPoly((1, 1, 1)).eval_int(1) == 3
    assert QPoly((1, 1)).eval_int(-1) == 0
    assert q_factorial(4).eval_int(1) == 24
    with pytest.raises(TypeError):
        ONE.eval_int(0.5)


@given(st.lists(st.integers(-99, 99), max_size=8), st.lists(st.integers(-99, 99), max_size=8))
def test_mul_then_divexact_roundtrips(a_coeffs, b_coeffs):
    a, b = QPoly(a_coeffs), QPoly(b_coeffs)
    if b:
        assert (a * b).divexact(b) == a


@given(
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
    st.integers(-5, 5),
)
def test_eval_is_a_ring_map(a_coeffs, b_coeffs, x):
    a, b = QPoly(a_coeffs), QPoly(b_coeffs)
    assert (a + b).eval_int(x) == a.eval_int(x) + b.eval_int(x)
    assert (a * b).eval_int(x) == a.eval_int(x) * b.eval_int(x)


# -- integer arguments -------------------------------------------------------------

# the second child index of an address, under a first child with two children
ADDRESSED = trees.parse_tree("((..).)")

# Each entry point that takes a count or an integer, as a call with that
# argument in place of n, the argument's name in the messages, and the least
# value it admits (None: any int).
INT_ARGUMENTS = {
    "enumerate_plane_trees": (trees.enumerate_plane_trees, "edge count", 0),
    "random_plane_tree": (lambda n: trees.random_plane_tree(n, random.Random(0)), "edge count", 0),
    "star": (trees.star, "ray count", 0),
    "node_at": (lambda n: trees.node_at(ADDRESSED, (0, n)), "child index", None),
    "remove_leaf": (lambda n: trees.remove_leaf(ADDRESSED, (0, n)), "child index", None),
    "side_edge_counts": (lambda n: trees.side_edge_counts(ADDRESSED, (0, n)), "child index", None),
    "reroot_across_edge": (lambda n: trees.reroot_across_edge(ADDRESSED, (0, n)), "child index", None),
    "check_reroot": (lambda n: invariant.check_reroot(ADDRESSED, (0, n)), "child index", None),
    "enumerate_top_trees": (presimplicial.enumerate_top_trees, "leaf count", 1),
    "face": (lambda n: presimplicial.face(CHERRY, n), "leaf index", None),
    "degeneracy": (lambda n: presimplicial.degeneracy(CHERRY, n), "leaf index", None),
    "q_boundary_at": (lambda n: presimplicial.q_boundary_at({CHERRY: 1}, n), "q_value", None),
    "search_delayed": (lambda n: invariant.search_delayed(ONE, n), "edge bound", 0),
    "verify.identities": (verify.identities, "leaf count", 1),
    "verify.wedge": (verify.wedge, "edge bound", 0),
    "verify.state": (lambda n: verify.state(n, []), "edge bound", 0),
    "verify.reroot": (verify.reroot, "edge bound", 0),
    "verify.double_boundary": (lambda n: verify.double_boundary(n, -1), "leaf bound", 0),
    "verify.double_boundary-q": (lambda n: verify.double_boundary(0, n), "q_value", None),
    "verify.reduction": (verify.reduction, "leaf bound", 0),
    "sample_block_specs-count": (lambda n: invariant.sample_block_specs(n, 3), "spec count", 0),
    "sample_block_specs-edges": (lambda n: invariant.sample_block_specs(0, n), "edge bound", 0),
    "q_integer": (q_integer, "n", 0),
    "q_factorial": (q_factorial, "n", 0),
    "q_binomial-n": (lambda n: q_binomial(n, 0), "n", 0),
    "q_binomial-k": (lambda n: q_binomial(2, n), "k", None),
    "q_multinomial": (lambda n: q_multinomial((2, n)), "part", 0),
    "cyclotomic": (cyclotomic, "d", 1),
    "QPoly": (lambda n: QPoly((1, n)), "coefficient", None),
    "shift": (q.shift, "shift", 0),
    "eval_int": (q.eval_int, "point", None),
}


@pytest.mark.parametrize("call,what,least", INT_ARGUMENTS.values(), ids=INT_ARGUMENTS)
def test_an_integer_argument_is_an_int(call, what, least):
    # a bool is an int to isinstance, but True is no count
    for value in (True, False, 2.0, "3"):
        with pytest.raises(TypeError, match=rf"^{what} must be an int, got {type(value).__name__}$"):
            call(value)
    if least is not None:
        for value in (-1, least - 1):
            with pytest.raises(ValueError, match=rf"^{what} must be {('nonnegative', 'positive')[least]}$"):
                call(value)


# The sweep below puts each bad value into one argument of each public
# callable of the package root at a time, the others taken from this table
# by parameter name.  The values stay small: the library has no size caps,
# and a huge count runs until memory runs out.
SWEPT = trees.parse_tree("((..).)")
VALID_ARGUMENTS = {
    "tree": SWEPT,
    "addr": (0, 0),
    "delays": (1, 1, 1),
    "index": 1,
    "n": 4,
    "k": 2,
    "chain": {SWEPT: 1},
    "q_value": 2,
    "edges": 3,
    "rng": random.Random(0),
    "count": 2,
    "max_total_edges": 4,
    "target": q_integer(2),
    "max_edges": 3,
    "monomial_exponent": 0,
    "factors": {},
    "remainder": ONE,
    "lhs": ONE,
    "rhs": ONE,
    "holds": True,
}
BAD_VALUES = (None, "x", 1.5, True, -1, (), [], object())
# messages the interpreter writes when an argument was never checked
LEAKED = ("not iterable", "has no attribute", "has no len()", "unhashable type", "not supported between")


def test_every_public_argument_is_checked():
    import qtrees

    swept = 0
    for name in sorted(vars(qtrees)):
        call = getattr(qtrees, name)
        if name.startswith("_") or not callable(call) or isinstance(call, type) and issubclass(call, Exception):
            continue
        params = inspect.signature(call).parameters
        required = [p for p, param in params.items() if param.default is inspect.Parameter.empty]
        for param in params:
            for bad in BAD_VALUES:
                if name == "q_binomial" and isinstance(bad, list):
                    # its lru_cache hashes the arguments before the checks
                    # run, and stays on the public name for its statistics
                    continue
                args = {p: VALID_ARGUMENTS[p] for p in required if p != param}
                args[param] = bad
                swept += 1
                try:
                    call(**args)
                except (TypeError, ValueError, IndexError) as error:
                    assert not any(text in str(error) for text in LEAKED), (name, param, bad, error)
    assert swept > 400


def test_q_binomial_refuses_a_bool_whose_int_is_cached():
    # True hashes as 1, so an untyped cache would answer (True, 0) with the
    # entry of (1, 0) before the checks run
    assert q_binomial(1, 0) == ONE
    assert q_binomial(1, 1) == ONE
    for n, k in ((True, 0), (1, True), (True, False)):
        with pytest.raises(TypeError, match="got bool$"):
            q_binomial(n, k)
    assert callable(q_binomial.cache_clear) and q_binomial.cache_info().currsize >= 2


# -- q-combinatorics -----------------------------------------------------------


def test_q_integer():
    assert q_integer(0) == ZERO
    assert q_integer(2) == QPoly((1, 1))
    assert q_integer(4) == QPoly((1, 1, 1, 1))
    with pytest.raises(ValueError):
        q_integer(-1)


def test_q_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(2) == QPoly((1, 1))
    assert q_factorial(3) == QPoly((1, 2, 2, 1))
    with pytest.raises(ValueError):
        q_factorial(-1)


def test_q_factorial_matches_running_product():
    # independent route: [1]_q * [2]_q * ... * [n]_q, one factor at a time;
    # the first two multiply by ONE, every later one by Kronecker substitution
    product = ONE
    for n in range(1, 31):
        product = product * q_integer(n)
        assert q_factorial(n) == product


def test_q_factorial_of_200_and_the_200_leaf_star():
    # at q = 1 each [m]_q is m, at q = 2 it is 2**m - 1
    at_two = math.prod(2**m - 1 for m in range(1, 201))
    for poly in (q_factorial(200), q_poly_state(star(200))):
        assert poly.degree == 200 * 199 // 2
        assert poly.eval_int(1) == math.factorial(200)
        assert poly.eval_int(2) == at_two


def test_q_binomial_values():
    for n in range(6):
        assert q_binomial(n, 0) == ONE
    assert q_binomial(2, 1) == QPoly((1, 1))
    assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))
    assert q_binomial(3, -1) == ZERO
    assert q_binomial(3, 4) == ZERO
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_symmetry_and_palindrome():
    for n in range(13):
        for k in range(n + 1):
            b = q_binomial(n, k)
            assert b == q_binomial(n, n - k)
            assert b.coeffs == b.coeffs[::-1]


def test_q_binomial_is_normalised():
    for n in range(30):
        for k in range(-1, n + 2):
            cs = q_binomial(n, k).coeffs
            assert cs == () if k in (-1, n + 1) else cs[0] == cs[-1] == 1


def test_q_binomial_counts_at_one():
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k).eval_int(1) == int_binomial(n, k)


def test_q_binomial_matches_factorial_quotient():
    # independent route: exact division of q-factorials
    for n in range(11):
        for k in range(n + 1):
            quotient = q_factorial(n).divexact(q_factorial(k) * q_factorial(n - k))
            assert q_binomial(n, k) == quotient


def q_pascal_rows(n_max):
    # independent oracle: the q-Pascal recurrence
    # C(n, k) = C(n-1, k-1) + q**k * C(n-1, k), built row by row;
    # rows[n] is C(n, 0), ..., C(n, n)
    rows = [[ONE]]
    for n in range(1, n_max + 1):
        row = rows[-1]
        rows.append([ONE] + [row[k - 1] + row[k].shift(k) for k in range(1, n)] + [ONE])
    return rows


def test_q_binomial_matches_q_pascal():
    for n, row in enumerate(q_pascal_rows(40)):
        for k in range(-1, n + 2):
            assert q_binomial(n, k) == (row[k] if 0 <= k <= n else ZERO)


def test_q_multinomial_basics():
    assert q_multinomial(()) == ONE
    assert q_multinomial((7,)) == ONE
    assert q_multinomial((1, 1)) == q_binomial(2, 1)
    assert q_multinomial((2, 2)) == q_binomial(4, 2)
    with pytest.raises(ValueError):
        q_multinomial((1, -2))


def test_q_multinomial_with_one_nonzero_part_is_one():
    # no coefficient list is built for these: a deep path's state product
    # asks for one per vertex, with a part as large as the path is long
    for k in (0, 1, 7, 100_000):
        assert q_multinomial((k,)) == ONE
        assert q_multinomial((k, 0, 0)) == ONE
        assert q_multinomial((0, k)) == ONE
    assert q_multinomial((0, 0)) == ONE
    with pytest.raises(ValueError):
        q_multinomial((5, -1))


def test_q_multinomial_matches_binomial_products():
    # independent route: the telescoping product
    # C(a1+a2, a2) * C(a1+a2+a3, a3) * ... of q-Pascal binomials, on every
    # composition of a total up to 12, every list of at most four parts with
    # such a total, zeros included, and a few longer lists; only the
    # coefficients 0..D // 2 are computed and then mirrored, so degrees 0 to
    # 3, where the mirror's slice bounds are edge cases, must be among them
    rows = q_pascal_rows(24)
    pool = {parts for length in range(1, 5) for parts in itertools.product(range(13), repeat=length) if sum(parts) <= 12}
    for total in range(1, 13):
        for count in range(total):
            for cuts in itertools.combinations(range(1, total), count):
                bounds = (0, *cuts, total)
                pool.add(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    pool |= {(7, 5, 3, 2, 1), (0, 9, 0, 4), (1, 2, 3, 4, 5, 6)}
    degrees = set()
    for parts in pool:
        product, total = ONE, parts[0]
        for a in parts[1:]:
            total += a
            product = product * rows[total][a]
        value = q_multinomial(parts)
        assert value == product
        # every coefficient from 0 to the degree is positive, so a low half
        # cut from a product of them never ends in a zero (q_poly_state)
        assert min(value.coeffs) > 0
        degrees.add(value.degree)
    assert set(range(4)) <= degrees


def test_q_multinomial_is_symmetric():
    parts_pool = []
    for length in range(2, 5):
        parts_pool.extend(itertools.combinations_with_replacement(range(5), length))
    for parts in parts_pool:
        base = q_multinomial(parts)
        for perm in itertools.permutations(parts):
            assert q_multinomial(perm) == base


# -- cyclotomic polynomials ------------------------------------------------------


def test_cyclotomic_small():
    assert cyclotomic(1) == QPoly((-1, 1))
    assert cyclotomic(2) == QPoly((1, 1))
    assert cyclotomic(6) == QPoly((1, -1, 1))
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_product_over_divisors():
    # up to 100, so that indices with a repeated prime factor (36, 60, 72,
    # 90) go through the substitution q -> q**(d / radical)
    for n in range(1, 101):
        product = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == QPoly((-1,) + (0,) * (n - 1) + (1,))


def test_cyclotomic_factor_examples():
    k, factors, rem = cyclotomic_factor(QPoly((1, 1)))
    assert (k, sorted(factors.elements()), rem) == (0, [2], ONE)
    k, factors, rem = cyclotomic_factor(QPoly((0, 1, 1)))
    assert (k, sorted(factors.elements()), rem) == (1, [2], ONE)
    assert cyclotomic_factor(QPoly((1, 2, 1, 1))).remainder != ONE
    with pytest.raises(ValueError):
        cyclotomic_factor(ZERO)


def test_cyclotomic_factor_index_can_exceed_degree():
    # [6]_q has degree 5 but contains the index-6 cyclotomic factor
    k, factors, rem = cyclotomic_factor(q_integer(6))
    assert (k, sorted(factors.elements()), rem) == (0, [2, 3, 6], ONE)


@pytest.mark.parametrize(
    "poly",
    [
        q_factorial(6),
        q_binomial(8, 3),
        QPoly((1, 2, 1, 1)),
        QPoly((0, 0, 3, 3)),
        QPoly((2, 2)),
        QPoly((-1, 0, 1)),
        q_integer(12) * q_integer(5),
    ],
)
def test_cyclotomic_factor_reassembles(poly):
    k, factors, rem = cyclotomic_factor(poly)
    product = rem.shift(k)
    for d, mult in factors.items():
        for _ in range(mult):
            product = product * cyclotomic(d)
    assert product == poly


# -- rendering --------------------------------------------------------------------


@pytest.mark.parametrize(
    "poly,text",
    [
        (ZERO, "0"),
        (ONE, "1"),
        (q, "q"),
        (QPoly((5,)), "5"),
        (QPoly((1, 2, 2, 1)), "1 + 2q + 2q^2 + q^3"),
        (QPoly((1, -1, 1)), "1 - q + q^2"),
        (QPoly((-1, 1)), "-1 + q"),
        (QPoly((0, -1, 1)), "-q + q^2"),
        (QPoly((1, 0, 1)), "1 + q^2"),
        (QPoly((2,) + (0,) * 9 + (-1,) + (0,) + (3,)), "2 - q^10 + 3q^12"),
    ],
)
def test_plain_rendering(poly, text):
    assert str(poly) == text


def test_latex_rendering():
    assert to_latex(ZERO) == "0"
    assert to_latex(ONE) == "1"
    assert to_latex(q) == "q"
    assert to_latex(QPoly((5,))) == "5"
    assert to_latex(QPoly((1, 2, 2, 1))) == "1 + 2q + 2q^{2} + q^{3}"
    assert to_latex(QPoly((1, -1, 1))) == "1 - q + q^{2}"
    assert to_latex(QPoly((-1, 1))) == "-1 + q"
    assert to_latex(QPoly((0, -1, 1))) == "-q + q^{2}"
    assert to_latex(QPoly((1, 0, 1))) == "1 + q^{2}"
    assert to_latex(QPoly((2,) + (0,) * 9 + (-1,) + (0,) + (3,))) == "2 - q^{10} + 3q^{12}"


def test_json_coeffs_roundtrip():
    small = QPoly((1, -3, 7))
    assert to_json_coeffs(small) == [1, -3, 7]
    assert QPoly(int(v) for v in to_json_coeffs(small)) == small
    big = q_factorial(25)
    encoded = to_json_coeffs(big)
    assert any(isinstance(c, str) for c in encoded)
    assert json.loads(json.dumps(encoded)) == encoded
    assert QPoly(int(v) for v in encoded) == big
