import math
import operator
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from permotzkin.algebra import (
    EXPONENT_LIMIT,
    VARIABLES,
    MultiPoly,
    P,
    Q,
    S,
    T,
    _classes,
    _text,
    _unpack_q,
    _wrap,
    q_integer,
)
from permotzkin.permutations import image_stats, iter_group

exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)
polys = st.dictionaries(exponents, st.integers(min_value=-5, max_value=5), max_size=6).map(
    MultiPoly
)


def test_additive_inverse_cancels():
    assert not (S * T) + (-(S * T))
    assert (S * T) - (S * T) == MultiPoly()


def test_addition_merges_like_terms():
    assert (1 + Q) + (Q + Q**2) == 1 + 2 * Q + Q**2


def test_addition_of_initial_derangement_polys():
    # the signed derangement polynomials for sizes two and three
    f2 = -(S * T)
    f3 = S * (1 + S) * T**2
    assert f2 + f3 == -(S * T) + S * T**2 + S**2 * T**2


def test_square_of_one_minus_st():
    assert (1 - S * T) * (1 - S * T) == 1 - 2 * S * T + S**2 * T**2


def test_multiplication_by_zero():
    assert (Q + P * T) * MultiPoly() == 0


def test_monomial_product():
    assert (S * T) * Q == MultiPoly({(1, 0, 1, 1): 1})


@pytest.mark.parametrize(
    "k, expected",
    [(0, MultiPoly()), (1, MultiPoly.constant(1)), (3, 1 + Q + Q**2)],
)
def test_q_integer_values(k, expected):
    assert q_integer(k) == expected


def test_q_integer_rejects_negative():
    with pytest.raises(ValueError):
        q_integer(-1)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_q_integer_splitting(a, b):
    assert q_integer(a + b) == q_integer(a) + Q**a * q_integer(b)


def test_substitute_full_evaluation():
    poly = 1 - 2 * S * T + S**2 * T**2
    assert poly.substitute({"s": 1, "t": 1}) == 0


def test_substitute_sign_flip():
    assert (Q**3 * P * S * T**2).substitute({"q": -1}) == -(P * S * T**2)


def test_substitute_depth_distribution_at_minus_one():
    # independent oracle: enumerate S_3 and read off the depth distribution
    dist = MultiPoly()
    for perm in iter_group(3):
        dist = dist + T ** image_stats(perm.images)[3]
    assert dist == 1 + 2 * T + 3 * T**2
    assert dist.substitute({"t": -1}) == 2


@given(polys)
def test_substitute_empty_assignment_is_identity(poly):
    assert poly.substitute({}) == poly


def test_substitute_rejects_unknown_variable():
    with pytest.raises(ValueError):
        MultiPoly.constant(1).substitute({"z": 1})


def test_split_by_exponent_rejects_unknown_variable():
    for poly in (MultiPoly(), S * T):
        with pytest.raises(ValueError, match="^unknown variable 'x'$"):
            poly.split_by_exponent("x")


def test_variable_rejects_unknown_name():
    for poly in (MultiPoly(), S):
        with pytest.raises(ValueError, match="^unknown variable 'x'$"):
            poly.substitute({"x": 1})
    # each name in VARIABLES picks out the variable at its place
    for name, variable in zip(VARIABLES, (Q, P, S, T)):
        assert variable.split_by_exponent(name) == {1: MultiPoly.constant(1)}
        assert variable.substitute({name: 5}) == 5


def test_coefficient_rejects_a_malformed_exponent_tuple():
    for mono in ((1, 0, 0), (0, 0, 1, 0, 0), (0, -1, 0, 0), (0, 0, 1.0, 0)):
        with pytest.raises(ValueError, match="^bad exponent tuple"):
            MultiPoly({mono: 1})
    # each variable is the unit exponent tuple at its place in VARIABLES
    units = [tuple(int(i == j) for j in range(len(VARIABLES))) for i in range(len(VARIABLES))]
    assert [variable.terms() for variable in (Q, P, S, T)] == [{unit: 1} for unit in units]


@pytest.mark.parametrize("n, k, expected", [(4, 2, 6), (0, 0, 1), (3, 1, 3), (2, 5, 0)])
def test_binomial_values(n, k, expected):
    # derangement_series_rhs relies on math.comb being 0 for k > n
    assert math.comb(n, k) == expected


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys)
def test_no_zero_coefficients_survive(poly):
    assert all(coeff != 0 for coeff in poly.terms().values())
    assert poly + (-poly) == MultiPoly()


def test_rendering_canonical_order():
    assert str(S * T**4 - 2 * S**2 * T**3) == "-2*s^2*t^3 + s*t^4"
    assert str(MultiPoly()) == "0"
    assert str(MultiPoly.constant(-3)) == "-3"
    assert str(q_integer(3)) == "q^2 + q + 1"
    assert str(-(S * T)) == "-s*t"


def test_split_by_exponent_layers():
    poly = S * T + 3 * S**2 * T - T**2
    layers = poly.split_by_exponent("t")
    assert layers[1] == S + 3 * S**2
    assert layers[2] == MultiPoly.constant(-1)
    assert set(layers) == {1, 2}


# -- a tuple-keyed reference, sharing no code with the packed kernel ----------

# small exponents collide often; large ones fill the fields, and any two of
# them still multiply below EXPONENT_LIMIT
wide_exponents = st.tuples(
    *[st.integers(min_value=0, max_value=3) | st.integers(0, EXPONENT_LIMIT // 2 - 1)] * 4
)
term_maps = st.dictionaries(wide_exponents, st.integers(min_value=-5, max_value=5), max_size=6)
# values of modulus at most 1 keep q^(EXPONENT_LIMIT // 2) small
assignments = st.dictionaries(st.sampled_from(VARIABLES), st.integers(min_value=-1, max_value=1))


def ref_nonzero(terms):
    return {mono: coeff for mono, coeff in terms.items() if coeff}


def ref_add(a, b):
    total = dict(a)
    for mono, coeff in b.items():
        total[mono] = total.get(mono, 0) + coeff
    return ref_nonzero(total)


def ref_mul(a, b):
    total = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            total[mono] = total.get(mono, 0) + ca * cb
    return ref_nonzero(total)


def ref_substitute(a, assignment):
    total = {}
    for mono, coeff in a.items():
        reduced = list(mono)
        for index, name in enumerate(VARIABLES):
            if name in assignment:
                coeff *= assignment[name] ** mono[index]
                reduced[index] = 0
        total[tuple(reduced)] = total.get(tuple(reduced), 0) + coeff
    return ref_nonzero(total)


def ref_str(a):
    chunks = []
    for mono, coeff in sorted(a.items(), reverse=True):
        factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(VARIABLES, mono) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        if chunks:
            chunks.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
        else:
            chunks.append(("-" if coeff < 0 else "") + "*".join(factors))
    return " ".join(chunks) or "0"


def assert_matches(poly, reference):
    assert poly.terms() == reference
    assert str(poly) == ref_str(reference)


@given(term_maps, term_maps, assignments)
def test_operations_agree_with_a_tuple_keyed_reference(a, b, assignment):
    pa, pb = MultiPoly(a), MultiPoly(b)
    a, b = ref_nonzero(a), ref_nonzero(b)
    assert_matches(pa, a)
    assert_matches(pa + pb, ref_add(a, b))
    assert_matches(pa - pb, ref_add(a, {mono: -coeff for mono, coeff in b.items()}))
    assert_matches(pa * pb, ref_mul(a, b))
    assert_matches(pa.substitute(assignment), ref_substitute(a, assignment))


def test_exponent_bound_is_enforced_in_the_constructor():
    for index in range(4):
        mono = tuple(EXPONENT_LIMIT if i == index else 0 for i in range(4))
        with pytest.raises(ValueError):
            MultiPoly({mono: 1})
    with pytest.raises(ValueError):
        MultiPoly({(-1, 0, 0, 0): 1})


def test_exponent_overflow_in_a_product_raises_instead_of_carrying():
    top = EXPONENT_LIMIT - 1
    for index, variable in enumerate((Q, P, S, T)):
        mono = tuple(top if i == index else 0 for i in range(4))
        full = MultiPoly({mono: 1})
        with pytest.raises(ValueError):
            full * variable
        with pytest.raises(ValueError):
            variable * (full + 1)
        with pytest.raises(ValueError):
            full**2
    # the largest exponent still fits, next to full neighbouring fields
    edge = MultiPoly({(top - 1, top, top - 1, top): 1})
    assert (edge * Q * S).terms() == {(top, top, top, top): 1}


def test_power_takes_no_square_past_its_last_factor():
    # q^e fits for every e below the limit, even where 2e does not
    for e in (EXPONENT_LIMIT // 2, EXPONENT_LIMIT - 1):
        assert (Q**e).terms() == {(e, 0, 0, 0): 1}
        assert (MultiPoly({(0, 0, 0, e): 1}) ** 1).terms() == {(0, 0, 0, e): 1}
    with pytest.raises(ValueError):
        Q**EXPONENT_LIMIT


def test_operations_refuse_what_is_not_an_integer_or_polynomial():
    with pytest.raises(TypeError, match="^coefficient 1.5 is not an integer$"):
        MultiPoly({(0, 0, 0, 0): 1.5})
    for operation in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            operation(Q, "x")
    assert Q.__eq__("x") is NotImplemented and Q != "x"
    for exponent in (-1, 1.5):
        with pytest.raises(ValueError, match="^exponent must be a non-negative integer"):
            Q**exponent
    with pytest.raises(TypeError, match="^substitution value 1.5 is not an integer$"):
        Q.substitute({"q": 1.5})


# -- the multiply-accumulate kernel against the same reference ----------------

pair_lists = st.lists(st.tuples(term_maps, st.none() | term_maps), max_size=5)


def ref_negate(a):
    return {mono: -coeff for mono, coeff in a.items()}


def ref_sum_of_products(pairs):
    total = {}
    for a, b in pairs:
        total = ref_add(total, ref_nonzero(a) if b is None else ref_mul(a, b))
    return total


def kernel_of(pairs):
    return MultiPoly.sum_of_products(
        [(MultiPoly(a), None if b is None else MultiPoly(b)) for a, b in pairs]
    )


@given(pair_lists, st.data())
def test_sum_of_products_agrees_with_the_tuple_keyed_reference(pairs, data):
    # negated copies of some pairs make whole terms cancel to zero
    cancelled = data.draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    pairs = pairs + [(ref_negate(a), b) for a, b in cancelled]
    assert_matches(kernel_of(pairs), ref_sum_of_products(pairs))


@given(term_maps, term_maps, term_maps)
def test_sum_of_products_drops_every_cancelled_term(a, b, c):
    pairs = [(a, b), (c, None), (ref_negate(a), b), (ref_negate(c), None)]
    assert kernel_of(pairs).terms() == {}
    assert kernel_of([(a, b), (c, None), (ref_negate(a), b)]).terms() == ref_nonzero(c)


def test_sum_of_products_of_nothing_is_zero():
    assert MultiPoly.sum_of_products([]) == MultiPoly()
    assert MultiPoly.sum_of_products(iter([])).terms() == {}
    assert not MultiPoly.sum_of_products([(MultiPoly(), None), (S, MultiPoly())])


def test_sum_of_products_leaves_its_operands_alone():
    a, b = 2 * S + T, 3 * Q - T
    before = a.terms(), b.terms()
    assert MultiPoly.sum_of_products([(a, None), (a, b), (b, None)]) == a + a * b + b
    assert (a.terms(), b.terms()) == before


def test_exponent_overflow_in_the_kernel_raises_instead_of_carrying():
    top = EXPONENT_LIMIT - 1
    for index, variable in enumerate((Q, P, S, T)):
        full = MultiPoly({tuple(top if i == index else 0 for i in range(4)): 1})
        # the overflowing term reaches EXPONENT_LIMIT next to terms that fit
        pairs = [(S * T, None), (T, Q + 1), (full + 1, variable), (-full, None)]
        with pytest.raises(ValueError):
            MultiPoly.sum_of_products(pairs)
        with pytest.raises(ValueError):
            MultiPoly.sum_of_products([(variable, 2 * full)])
        # plain operands with full fields only add coefficients
        assert MultiPoly.sum_of_products([(full, None), (full, None)]) == 2 * full


# -- packing the q-polynomial of each (p, s, t) class into one integer ---------

# coefficients up to a slot's sign bit, for one-word and two-word slots
slot_coeffs = st.integers(-(2**63) + 1, 2**63 - 1) | st.integers(-5, 5)
packable_maps = st.dictionaries(
    st.tuples(st.integers(0, 40), *[st.integers(0, 3)] * 3), slot_coeffs, max_size=8
)


@given(packable_maps, st.sampled_from([64, 128, 192]))
def test_unpack_q_inverts_the_packing_substitution(terms, width):
    poly = MultiPoly(terms)
    packed = poly.substitute({"q": 1 << width})
    assert set(packed.split_by_exponent("q")) <= {0}
    assert _unpack_q(packed, width) == poly


def test_unpack_q_reads_multi_word_slots_of_both_signs():
    poly = 2**100 * Q**3 * S - (2**100 - 1) * Q * S + 7 - 3 * Q**9 * P
    width = 192
    assert _unpack_q(poly.substitute({"q": 1 << width}), width) == poly


def renderable(width):
    """A term map whose coefficients fit the slots of ``width`` bits, with
    q-free classes and the class with no p, s or t among its keys."""
    top = 2 ** (width - 1) - 1
    coeffs = st.sampled_from([1, -1]) | st.integers(-5, 5) | st.integers(-top, top)
    keys = st.tuples(st.integers(0, 40), *[st.integers(0, 2)] * 3)
    return st.dictionaries(keys, coeffs, max_size=12)


@given(st.sampled_from([64, 128]).flatmap(lambda w: st.tuples(st.just(w), renderable(w))))
@example((64, {}))
@example((64, {(0, 0, 0, 0): -1, (3, 0, 0, 0): 1, (0, 0, 1, 0): -1, (0, 1, 0, 2): 5}))
@example((64, {(0, 0, 0, 0): 1, (1, 0, 0, 0): -1, (2, 1, 1, 1): 2**63 - 1}))
@example((128, {(0, 0, 0, 0): 2**64, (5, 0, 0, 0): -(2**100), (1, 2, 0, 1): -(2**63)}))
@example((128, {(0, 0, 0, 0): -(2**127 - 1), (40, 2, 2, 2): 2**126, (7, 0, 2, 0): -1}))
def test_unpack_q_text_is_the_text_of_the_unpacked_polynomial(case):
    width, terms = case
    poly = MultiPoly(terms)
    text = _text(_classes(poly.substitute({"q": 1 << width}), width))
    # str runs the same builder, so ref_str, which shares no code with it, is the check
    assert text == ref_str(ref_nonzero(terms))
    assert text == str(poly)


def test_text_stores_nothing_for_the_exponents_it_skips():
    top = EXPONENT_LIMIT - 1  # 8388607
    poly = 5 * Q**top * P * S**2 * T**3 + Q**top - 1
    tracemalloc.start()
    try:
        text = str(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "5*q^8388607*p*s^2*t^3 + q^8388607 - 1"
    assert peak < 1 << 20


def test_unpack_q_text_refuses_what_unpack_q_refuses():
    # the key of t^EXPONENT_LIMIT, which sets the t field's guard bit: no
    # public constructor makes one
    packed = _wrap({EXPONENT_LIMIT: 1, 1: 1})
    for unpack in (_unpack_q, lambda poly, width: _text(_classes(poly, width))):
        with pytest.raises(ValueError, match="does not fit below"):
            unpack(packed, 64)
