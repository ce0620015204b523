"""Canonical triples, membership, and coset reduction for rank <= 2 lattices.

Membership is cross-checked against two independent oracles: an
invariant-factor comparison (exact for every input) and a literal
bounded-coefficient enumeration (sound one-directionally: a hit proves
membership, a miss proves nothing, since coset representatives can need
coefficients beyond any fixed bound).
"""

from hypothesis import given
from hypothesis import strategies as st

from oracles import member_by_enumeration, member_by_invariants
from skeinmod.lattice import ExponentLattice

L = ExponentLattice


def test_canonical_triple_frozen_examples():
    assert L([(1, 2), (2, 1)]).canon == (2, 1, 3)
    assert L([(2, 4), (4, 2)]).canon == (4, 2, 6)
    assert L([]).canon == (0, 0, 0)
    assert L([(1, 2)]).canon == (1, 2, 0)
    assert L([(-1, -2)]).canon == (1, 2, 0)
    assert L([(1, -2)]).canon == (1, -2, 0)
    assert L([(-1, 2)]).canon == (1, -2, 0)
    assert L([(0, -3)]).canon == (0, 3, 0)
    assert L([(1, 0)]).canon == (0, 0, 1)
    assert L([(-4, 0), (6, 0)]).canon == (0, 0, 2)
    assert L([(0, 0), (0, 0)]).canon == (0, 0, 0)


def test_rank():
    assert L([]).rank() == 0
    assert L([(0, 0)]).rank() == 0
    assert L([(3, 0)]).rank() == 1
    assert L([(1, 2)]).rank() == 1
    assert L([(1, 2), (2, 1)]).rank() == 2


def test_index_triple_presents_axis_lattices_in_first_slot():
    assert L([(1, 0)]).index_triple() == (1, 0, 0)
    assert L([(-4, 0), (6, 0)]).index_triple() == (2, 0, 0)
    assert L([]).index_triple() == (0, 0, 0)
    assert L([(1, 2)]).index_triple() == (1, 2, 0)
    assert L([(1, 2), (2, 1)]).index_triple() == (2, 1, 3)


def test_contains_frozen_examples():
    lat = L([(1, 2), (2, 1)])
    assert lat.contains((0, 0))
    assert lat.contains((3, 0))
    assert lat.contains((3, 3))
    assert not lat.contains((1, 0))
    assert not lat.contains((1, 1))
    single = L([(1, 2)])
    assert single.contains((2, 4))
    assert single.contains((-3, -6))
    assert not single.contains((1, 1))
    assert L([]).contains((0, 0))
    assert not L([]).contains((0, 1))


def test_reduce_frozen_examples():
    lat = L([(2, 4), (4, 2)])
    assert lat.canon == (4, 2, 6)
    assert lat.reduce((7, 3)) == (3, 1)
    assert lat.reduce((5, 4)) == (3, 0)
    assert lat.reduce((4, 2)) == (0, 0)
    assert lat.reduce((0, 0)) == (0, 0)
    # trivial lattice: reduce is the identity
    assert L([]).reduce((5, 7)) == (5, 7)
    # axis lattice: only the first coordinate is folded
    assert L([(3, 0)]).reduce((7, 5)) == (1, 5)


def test_reduce_with_negative_second_slot():
    lat = L([(1, -2)])
    assert lat.canon == (1, -2, 0)
    r = lat.reduce((0, 3))
    assert r == (1, 1)
    assert lat.reduce((2, -1)) == (1, 1)
    assert lat.reduce(r) == r
    assert member_by_invariants(lat.gens, (0 - r[0], 3 - r[1]))


def test_sum_and_first_images():
    assert L([(1, 2), (2, 1)]).sum_image() == 3
    assert L([(1, 2), (2, 1)]).first_image() == 1
    assert L([(1, 3)]).sum_image() == 4
    assert L([(1, 3)]).first_image() == 1
    assert L([(1, 0)]).sum_image() == 1
    assert L([]).sum_image() == 0
    assert L([]).first_image() == 0


def test_doubled():
    assert L([(1, 2), (2, 1)]).doubled().canon == (4, 2, 6)
    assert L([(1, -2)]).doubled().canon == (2, -4, 0)
    assert L([]).doubled().canon == (0, 0, 0)


def test_render():
    assert L([(1, 2), (2, 1)]).render() == "(2,1),(3,0)"
    assert L([]).render() == "(0,0),(0,0)"


def test_equality_is_by_span():
    assert L([(1, 2), (2, 1)]) == L([(2, 1), (1, 2), (3, 3)])
    assert L([(1, 2)]) != L([(2, 4)])
    assert len({L([(1, 2), (2, 1)]), L([(2, 1), (1, 2)])}) == 1
    # a lattice is no other kind of value, though it spans the same pairs
    assert L([(1, 2)]).__eq__([(1, 2)]) is NotImplemented
    assert L([(1, 2)]) != [(1, 2)] and L([]) != (0, 0, 0)


_gen = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
_gens = st.lists(_gen, max_size=4)
_query = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


@given(_gens, _query)
def test_contains_matches_invariant_oracle(gens, v):
    assert L(gens).contains(v) == member_by_invariants(gens, v)


@given(st.lists(_gen, max_size=2), st.integers(-10, 10), st.integers(-10, 10))
def test_bounded_enumeration_hits_are_members(gens, c1, c2):
    coeffs = [c1, c2][: len(gens)]
    v = (
        sum(c * g[0] for c, g in zip(coeffs, gens)),
        sum(c * g[1] for c, g in zip(coeffs, gens)),
    )
    assert member_by_enumeration(gens, v, bound=10)
    assert L(gens).contains(v)


@given(_gens, _query)
def test_reduce_selects_a_sound_coset_representative(gens, v):
    lat = L(gens)
    r = lat.reduce(v)
    assert lat.reduce(r) == r
    # contains is reduce(v) == (0, 0), so only the oracle checks v - r
    assert member_by_invariants(gens, (v[0] - r[0], v[1] - r[1]))
    e1, e2, e3 = lat.canon
    if e3 > 0:
        assert 0 <= r[0] < e3
    if e2 > 0:
        assert 0 <= r[1] < e2


@given(_gens, _query)
def test_reduce_is_translation_invariant(gens, v):
    lat = L(gens)
    for g in gens:
        assert lat.reduce((v[0] + g[0], v[1] + g[1])) == lat.reduce(v)


@given(_gens, st.integers(-3, 3), st.integers(-3, 3))
def test_canon_ignores_redundant_generators(gens, c1, c2):
    extra = (0, 0)
    if gens:
        g1 = gens[0]
        g2 = gens[-1]
        extra = (c1 * g1[0] + c2 * g2[0], c1 * g1[1] + c2 * g2[1])
    assert L(gens + [extra]).canon == L(gens).canon


@given(_gens)
def test_canon_shape_invariants(gens):
    e1, e2, e3 = L(gens).canon
    if e2 == 0:
        # the lattice sits inside the first axis (or is trivial)
        assert e1 == 0 and e3 >= 0
    elif e3 == 0:
        # rank one off-axis: sign-normalized single generator
        assert e1 > 0 or (e1 == 0 and e2 > 0)
    else:
        assert e2 > 0 and 0 <= e1 < e3
