"""Ring behavior, rendering grammar, and specialization maps."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeinmod.errors import ParseError
from skeinmod.laurent import (
    AUGMENTATION,
    SPECIALIZE_L,
    SPECIALIZE_S,
    SPECIALIZE_W,
    LaurentPoly1,
    LaurentPoly2,
    SpecializationMap,
)

P2 = LaurentPoly2
P1 = LaurentPoly1


def test_add_frozen_examples():
    assert P2({(2, 0): 1, (0, 0): 1}) + P2({(0, 0): -1}) == P2.monomial(2, 0)
    p = P2({(3, -1): 2, (0, 0): 5})
    assert p + P2.zero() == p
    assert P2.monomial(4, 2) + P2({(0, 0): -1}) == P2({(4, 2): 1, (0, 0): -1})


def test_mul_frozen_examples():
    q1 = P2.monomial(1, 0)
    assert q1 * q1 == P2.monomial(2, 0)
    a = P2.monomial(2, 0) - P2.one()
    b = P2.monomial(2, 0) + P2.one()
    assert a * b == P2.monomial(4, 0) - P2.one()
    assert a * P2.zero() == P2.zero()
    assert 3 * P2.one() == P2({(0, 0): 3})


def test_cancellation_drops_terms():
    p = P2.monomial(1, 1) - P2.monomial(1, 1)
    assert p.is_zero() and not p
    assert p.terms == {}


def test_specialize_frozen_examples():
    rel = P2.monomial(4, 2) - P2.one()
    assert rel.specialize(SPECIALIZE_S) == P1.monomial(6) - P1.one()
    assert rel.specialize(SPECIALIZE_W) == P1.monomial(4) - P1.one()
    assert rel.specialize(SPECIALIZE_L) == P1.monomial(2) - P1.one()
    assert rel.specialize(AUGMENTATION) == P1.zero()
    # distinct exponent pairs may collapse and cancel
    p = P2.monomial(3, 1) - P2.monomial(1, 3)
    assert p.specialize(SPECIALIZE_S) == P1.zero()


def test_specialization_map_validates_targets():
    with pytest.raises(ParseError):
        SpecializationMap("q", "nope")
    assert SPECIALIZE_S.exponent(3, 4) == 7
    assert SPECIALIZE_L.exponent(3, 4) == 4
    assert SPECIALIZE_W.exponent(3, 4) == 3
    assert AUGMENTATION.exponent(3, 4) == 0


def test_render_canonical_strings():
    assert P2({(2, -1): 3, (0, 0): 1}).render() == "3*q1^2*q2^-1 + 1"
    assert P2({(2, -1): 3, (0, 0): 1}).render(" ") == "3 q1^2 q2^-1 + 1"
    assert P2.zero().render() == "0"
    assert P2({(1, 0): -1, (0, 0): 1}).render() == "-q1 + 1"
    assert (P2.monomial(4, 2) - P2.one()).render(" ") == "q1^4 q2^2 - 1"
    assert P1({4: 1, 0: -1}).render(" ") == "q^4 - 1"
    assert P1({-2: 1}).render() == "q^-2"
    assert P1({0: -7}).render() == "-7"


def test_render_orders_terms_descending():
    p = P2({(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 5): 1})
    assert p.render(" ") == "q1^2 + q1 q2^5 + q2^2 + 1"


def test_parse_accepts_both_separators():
    for text in ("3*q1^2*q2^-1 + 1", "3 q1^2 q2^-1 + 1", "3q1^2q2^-1+1"):
        assert P2.parse(text) == P2({(2, -1): 3, (0, 0): 1})
    assert P1.parse("q^4 - 1") == P1({4: 1, 0: -1})
    assert P2.parse("- q1 + 1") == P2({(1, 0): -1, (0, 0): 1})
    assert P2.parse("2 - 2") == P2.zero()
    assert P1.parse("q") == P1.monomial(1)


def test_parse_rejects_malformed_text():
    bad = {
        "": "empty polynomial text ''",
        "   ": "empty polynomial text '   '",
        "q1^": "exponent expected after '^' in 'q1^'",
        "3 +": "dangling sign at end of '3 +'",
        "* q1": "misplaced '*' in '* q1'",
        "q1 q2 ^": "exponent expected after '^' in 'q1 q2 ^'",
        "x + 1": "unexpected character 'x' in polynomial 'x + 1'",
        "q1 *": "incomplete term in polynomial 'q1 *'",
    }
    for text, message in bad.items():
        with pytest.raises(ParseError) as exc:
            P2.parse(text)
        assert str(exc.value) == message
    # the one-variable grammar does not know q1/q2, and vice versa
    with pytest.raises(ParseError) as exc:
        P1.parse("q1^2 - 1")
    assert str(exc.value) == "variable 'q1' is not allowed here (expected q)"
    with pytest.raises(ParseError) as exc:
        P2.parse("q^2 - 1")
    assert str(exc.value) == "variable 'q' is not allowed here (expected q1, q2)"
    with pytest.raises(ParseError) as exc:
        P2.parse("q1^2^3")
    assert str(exc.value) == "expected '+' or '-' before '^' in 'q1^2^3'"
    with pytest.raises(ParseError) as exc:
        P2.parse("q1 -")
    assert str(exc.value) == "dangling sign at end of 'q1 -'"


@pytest.mark.parametrize(
    "ring, text, terms",
    [
        # the grammar's accepted edges: '*' runs, digits after a variable,
        # spaced and repeated signs, and any Unicode blank around tokens
        (P2, "q12", {(1, 0): 2}),
        (P2, "q1 * * q2", {(1, 1): 1}),
        (P2, "q1 ^ - 2", {(-2, 0): 1}),
        (P2, "3 q1 2 q1", {(2, 0): 6}),
        (P2, "q1 + + - q2", {(1, 0): 1, (0, 1): -1}),
        (P2, "+12\n", {(0, 0): 12}),
        (P2, "\u00a0q1\u2003-\u20031\t", {(1, 0): 1, (0, 0): -1}),
        (P1, "q^--2", {2: 1}),
    ],
)
def test_parse_accepts_the_grammars_edges(ring, text, terms):
    assert ring.parse(text).terms == terms


@pytest.mark.parametrize(
    "ring, text, message",
    [
        (P2, "-", "incomplete term in polynomial '-'"),
        (P2, "\x1c", "empty polynomial text '\\x1c'"),
        (P2, "* q1\t", "misplaced '*' in '* q1\\t'"),
        (P1, "q2++  ", "variable 'q2' is not allowed here (expected q)"),
        (P2, "q1^2 x  ", "unexpected character 'x' in polynomial 'q1^2 x  '"),
        (P2, "q1 - ١", "unexpected character '١' in polynomial 'q1 - ١'"),
        (P2, "2^3 ", "expected '+' or '-' before '^' in '2^3 '"),
        (P2, "q1^ -", "exponent expected after '^' in 'q1^ -'"),
    ],
)
def test_parse_names_the_first_fault_exactly(ring, text, message):
    with pytest.raises(ParseError) as exc:
        ring.parse(text)
    assert str(exc.value) == message


_GRAMMAR_CHARS = "q0123456789^*+-"
_stray = st.characters().filter(lambda c: not c.isspace() and c not in _GRAMMAR_CHARS)


@settings(max_examples=100)
@given(
    st.sampled_from([P1, P2]),
    st.text(alphabet=_GRAMMAR_CHARS + "12 \t\n\x1c\u00a0"),
    _stray,
    st.text(),
)
def test_an_unexpected_character_is_reported_before_any_grammar_fault(ring, head, stray, tail):
    # the whole text is tokenized before the grammar reads it, so the first
    # stray character wins over a fault that comes before it
    text = head + stray + tail
    first = next(c for c in text if not c.isspace() and c not in _GRAMMAR_CHARS)
    with pytest.raises(ParseError) as exc:
        ring.parse(text)
    assert str(exc.value) == f"unexpected character {first!r} in polynomial {text!r}"


def test_parse_runs_in_linear_time():
    # 10^5 terms parse in about a second; a reader quadratic in the number
    # of tokens would take minutes
    p = P2({(k % 317 - 158, k // 317 - 158): k % 7 + 1 for k in range(100_000)})
    text = p.render(" ")
    start = time.process_time()
    assert P2.parse(text) == p
    assert time.process_time() - start < 5


_coeffs = st.integers(-99, 99).filter(lambda c: c != 0)
_poly2 = st.dictionaries(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)), _coeffs, max_size=6
).map(P2)
_poly1 = st.dictionaries(st.integers(-9, 9), _coeffs, max_size=6).map(P1)


@given(_poly2)
def test_parse_render_round_trip_two_vars(p):
    assert P2.parse(p.render("*")) == p
    assert P2.parse(p.render(" ")) == p


@given(_poly1)
def test_parse_render_round_trip_one_var(p):
    assert P1.parse(p.render("*")) == p
    assert P1.parse(p.render(" ")) == p


@given(_poly2, _poly2, _poly2)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + P2.zero() == a
    assert a * P2.one() == a
    assert a - a == P2.zero()


@given(_poly2, _poly2)
def test_specialize_is_a_ring_homomorphism(a, b):
    for smap in (SPECIALIZE_S, SPECIALIZE_L, SPECIALIZE_W, AUGMENTATION):
        assert (a + b).specialize(smap) == a.specialize(smap) + b.specialize(smap)
        assert (a * b).specialize(smap) == a.specialize(smap) * b.specialize(smap)
    assert P2.one().specialize(SPECIALIZE_S) == P1.one()


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_monomials_are_units(a, b):
    assert P2.monomial(a, b) * P2.monomial(-a, -b) == P2.one()
    assert P1.monomial(a) * P1.monomial(-a) == P1.one()


@given(_poly1, _poly1, _poly1)
def test_ring_axioms_one_var(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + P1.zero() == a
    assert a * P1.one() == a
    assert a - a == P1.zero()
    assert P1.parse((a * b).render(" ")) == a * b


def test_one_var_mul_frozen_examples():
    a = P1.monomial(2) - P1.one()
    b = P1.monomial(2) + P1.one()
    assert (a * b).terms == {4: 1, 0: -1}
    assert (P1.monomial(-1, 2) * P1.monomial(3, -1)).terms == {2: -2}
    assert a * P1.zero() == P1.zero()


def test_pickle_copy_repr_and_names_of_both_rings():
    import copy
    import pickle

    for cls, p, text in (
        (P1, P1({2: 1, 0: -1}), "LaurentPoly1('q^2 - 1')"),
        (P2, P2({(2, -1): 3, (0, 0): 1}), "LaurentPoly2('3*q1^2*q2^-1 + 1')"),
    ):
        assert cls.__name__ == cls.__qualname__ == text.split("(")[0]
        assert cls.__module__ == "skeinmod.laurent"
        assert repr(p) == text
        for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert type(twin) is cls and twin == p and twin.terms == p.terms
        assert not hasattr(p, "__dict__")
        with pytest.raises(TypeError):
            hash(p)


def test_monomial_takes_coeff_by_position_or_keyword():
    assert P1.monomial(3).terms == {3: 1}
    assert P1.monomial(3, 5).terms == P1.monomial(3, coeff=5).terms == {3: 5}
    assert P2.monomial(1, 2).terms == {(1, 2): 1}
    assert P2.monomial(1, 2, -4).terms == P2.monomial(1, 2, coeff=-4).terms == {(1, 2): -4}
    for make in (
        lambda: P1.monomial(),
        lambda: P1.monomial(1, 2, 3),
        lambda: P1.monomial(1, 2, coeff=3),
        lambda: P2.monomial(1),
        lambda: P2.monomial(1, coeff=3),
        lambda: P2.monomial(1, 2, 3, 4),
    ):
        with pytest.raises(TypeError):
            make()


def test_the_two_rings_stay_apart():
    assert hasattr(P2, "specialize") and not hasattr(P1, "specialize")
    assert not isinstance(P1.one(), P2) and not isinstance(P2.one(), P1)
    assert list(P1.monomial(4, 2).terms) == [4]
    assert list(P2.monomial(4, 2).terms) == [(4, 2)]
    assert P1.one() != P2.one()
    assert not P1.one() == P2.one()


def test_mixed_ring_arithmetic_raises_type_error():
    for make in (
        lambda: P1.one() + P2.one(),
        lambda: P2.one() + P1.one(),
        lambda: P2.one() - P1.one(),
        lambda: P1.one() - P2.one(),
        lambda: P2.one() * P1.one(),
        lambda: P1.one() * P2.one(),
        lambda: P2.one() + 1,
        lambda: 1 + P2.one(),
        lambda: P2.one() - 1,
        lambda: P2.one() * 2.5,
        lambda: 2.5 * P1.one(),
    ):
        with pytest.raises(TypeError, match="unsupported operand"):
            make()
    assert 3 * P2.one() == P2({(0, 0): 3})
    assert P1.one() * 3 == P1({0: 3})


def test_exponent_keys_must_have_the_ring_shape():
    for make in (
        lambda: P2({1: 1}),
        lambda: P2({(1,): 1}),
        lambda: P2({(1, 2, 3): 1}),
        lambda: P2({(1, True): 1}),
        lambda: P2({(1.0, 2): 1}),
        lambda: P2({(0, 0): 1, "q1": 0}),
        lambda: P2.monomial(1, 2.5),
        lambda: P1({(1, 2): 1}),
        lambda: P1({(1,): 1}),
        lambda: P1({True: 1}),
        lambda: P1({1.0: 1}),
        lambda: P1({0: 1, None: 0}),
        lambda: P1.monomial(False),
    ):
        with pytest.raises(TypeError, match="exponent key must be"):
            make()
    assert repr(P2({(1, -2): 3, (0, 0): 0})) == "LaurentPoly2('3*q1*q2^-2')"
    assert repr(P1({-1: 2, 10**40: 1})) == f"LaurentPoly1('q^{10**40} + 2*q^-1')"
    assert P1.parse("q^-3 + 1").terms == {-3: 1, 0: 1}
    assert P2.parse("q1 q2^-1").terms == {(1, -1): 1}


def test_coefficients_must_be_exact_ints():
    for bad in ("x", 1.5, True, 0.0):
        for make in (
            lambda: P1({0: bad}),
            lambda: P2({(0, 0): bad}),
            lambda: P1.monomial(2, coeff=bad),
            lambda: P2.monomial(1, -1, coeff=bad),
        ):
            with pytest.raises(TypeError, match="coefficient must be an int"):
                make()
    assert P1({0: 10**40, 1: -1}).render() == f"-q + {10**40}"
    assert P2.monomial(1, -1, coeff=-3).render() == "-3*q1*q2^-1"
    assert P1.one() * True == P1.one()
