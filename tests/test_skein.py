"""Indices, summands, trace evaluation, element algebra, freeness."""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import literal_pairing, member_by_invariants
from skeinmod import cli, skein
from skeinmod.errors import DimensionError, ParseError
from skeinmod.laurent import LaurentPoly1, LaurentPoly2
from skeinmod.manifold import (
    ClassLabel,
    HomologyClass1,
    HomologyClass2,
    builtin,
    model_from_document,
)
from skeinmod.skein import (
    MODULE_TAGS,
    IndexTriple,
    LinkClass,
    MixedCross,
    MoveTrace,
    SelfCross,
    SkeinElement,
    Slide,
    Twist,
    WrithePair,
    alpha_from_refs,
    epsilon,
    epsilon_prime,
    gamma_prime,
    is_free,
    mu_index,
    sphere_torus_discrepancies,
    summand,
    torsion_annihilator,
    trace_evaluate,
    trace_from_document,
)

P1, P2 = LaurentPoly1, LaurentPoly2
M = builtin("S2xS1")


def cl(k):
    return ClassLabel(str(k), HomologyClass1((k,)))


def alpha_of(*ks):
    return LinkClass(tuple(cl(k) for k in ks))


def rel2(a, b):
    return P2.monomial(a, b) - P2.one()


def test_link_class_is_a_canonical_multiset():
    assert LinkClass((cl(2), cl(1))) == LinkClass((cl(1), cl(2)))
    assert LinkClass((cl(2), cl(1))).components == (cl(1), cl(2))
    assert alpha_of(10, 2).render() == "[2,10]"
    assert alpha_of(-1, -2).render() == "[-2,-1]"
    assert alpha_of().render() == "[]"
    assert alpha_of(1, 1) != alpha_of(1)
    assert len({alpha_of(1, 2), alpha_of(2, 1)}) == 1


def test_gamma_prime_frozen_generators():
    assert sorted(gamma_prime(M, alpha_of(1, 2)).gens) == [(1, 2), (2, 1)]
    for r in range(1, 7):
        gens = gamma_prime(M, alpha_of(*([1] * r))).gens
        assert set(gens) == {(1, r - 1)} and len(gens) == r
    assert gamma_prime(M, alpha_of()).gens == ()


def test_epsilon_prime_frozen_values():
    assert epsilon_prime(M, alpha_of(1, 2)) == IndexTriple(2, 1, 3)
    assert epsilon_prime(M, alpha_of(1, 1, 1)) == (1, 2, 0)
    assert epsilon_prime(M, alpha_of(1)) == (1, 0, 0)
    assert epsilon_prime(builtin("S3"), LinkClass(())) == (0, 0, 0)
    s3_alpha = LinkClass((ClassLabel("a", HomologyClass1(())),))
    assert epsilon_prime(builtin("S3"), s3_alpha) == (0, 0, 0)


def test_epsilon_and_mu_frozen_values():
    assert epsilon(M, alpha_of(1, 2)) == 3
    assert epsilon(M, alpha_of(1, 1, 1, 1)) == 4
    assert epsilon(M, alpha_of()) == 0
    assert mu_index(M, alpha_of(1, 2)) == 1
    assert mu_index(M, alpha_of(3)) == 3
    assert mu_index(M, alpha_of(-4)) == 4
    assert mu_index(builtin("T3"), LinkClass((ClassLabel("a", HomologyClass1((1, 2, 3))),))) == 0


def test_summand_frozen_relations():
    s = summand(M, alpha_of(1, 2), "sprime")
    assert s.relations == (rel2(4, 2), rel2(6, 0))
    assert s.render(" ") == "R'/(q1^4 q2^2 - 1, q1^6 - 1)"
    for r in range(1, 7):
        s = summand(M, alpha_of(*([1] * r)), "sprime")
        assert s.relations == (rel2(2, 2 * (r - 1)),)
    assert summand(builtin("S3"), LinkClass(()), "s").is_free
    assert summand(M, alpha_of(1, 2), "s").relations == (P1.monomial(6) - P1.one(),)
    assert summand(M, alpha_of(1, 2), "l").relations == (P1.monomial(2) - P1.one(),)
    assert summand(M, alpha_of(1, 2), "w").relations == (P1.monomial(2) - P1.one(),)
    assert summand(M, alpha_of(0), "sprime").render() == "R' (free)"
    with pytest.raises(ParseError):
        summand(M, alpha_of(1), "bogus")


def test_trace_three_moves_frozen():
    a = alpha_of(1, 2)
    tr = MoveTrace(a, (Twist(1, 1), MixedCross(1, 2, 1), Slide(2, HomologyClass2((1,)))))
    raw, el = trace_evaluate(M, tr)
    assert raw == WrithePair(5, 4)
    assert el.terms[a].terms == {(3, 0): 1}
    # the dropped part of the writhe is a doubled lattice element
    assert member_by_invariants([(2, 4), (4, 2)], (5 - 3, 4 - 0))
    assert gamma_prime(M, a).doubled().contains((2, 4))


def test_trace_slide_only_is_neutral():
    a = alpha_of(1)
    raw, el = trace_evaluate(M, MoveTrace(a, (Slide(1, HomologyClass2((1,))),)))
    assert raw == (2, 0)
    assert el == SkeinElement.standard(M, a)
    assert el.render() == "1 [x_[1]]"


def test_trace_empty_is_identity():
    a = alpha_of(1, 2)
    raw, el = trace_evaluate(M, MoveTrace(a, ()))
    assert raw == (0, 0)
    assert el == SkeinElement.standard(M, a)


def test_trace_move_semantics():
    a = alpha_of(1, 2)
    raw, _ = trace_evaluate(
        M, MoveTrace(a, (Twist(1, -1), SelfCross(2, 1), MixedCross(2, 1, -1)))
    )
    assert raw == (-1 + 2, -2)
    # slide of component 1 (class [1]): pairs 1 with itself, 2 with the rest
    raw, _ = trace_evaluate(M, MoveTrace(a, (Slide(1, HomologyClass2((1,))),)))
    assert raw == (2, 4)


def test_trace_validation_errors():
    a = alpha_of(1, 2)
    out_of_range = "move 1: component index {} out of range for 2 component(s)"
    faults = [
        (Twist(3, 1), DimensionError, out_of_range.format(3)),
        (Twist(0, 1), DimensionError, out_of_range.format(0)),
        (MixedCross(1, 3, 1), DimensionError, out_of_range.format(3)),
        (MixedCross(3, 1, 1), DimensionError, out_of_range.format(3)),
        (MixedCross(1, 1, 1), ParseError, "move 1: mixed crossing needs two distinct components"),
        (Twist(1, 2), ParseError, "move 1: sign must be +1 or -1, got 2"),
        (Slide(1, HomologyClass2((1, 0))), DimensionError,
         "move 1: slide vector has length 2, expected h2_rank = 1"),
    ]
    for move, error, message in faults:
        with pytest.raises(error) as exc:
            trace_evaluate(M, MoveTrace(a, (Twist(1, 1), move)))
        assert str(exc.value) == message
    # every move is checked before a malformed alpha is reported, also past a slide
    bad = LinkClass((ClassLabel("b", HomologyClass1((1, 2))),))
    t = HomologyClass2((1,))
    with pytest.raises(DimensionError, match="^move 1: component index 9 out of range"):
        trace_evaluate(M, MoveTrace(bad, (Slide(1, t), Twist(9, 1))))
    for moves in ((), (Slide(1, t),), (Twist(1, 1), Slide(1, t))):
        with pytest.raises(DimensionError, match="^class 'b' has homology vector of length 2"):
            trace_evaluate(M, MoveTrace(bad, moves))


def test_element_algebra():
    a, b = alpha_of(1), alpha_of(2)
    x = SkeinElement.standard(M, a)
    y = SkeinElement.standard(M, b)
    assert (x + (-x)).is_zero()
    assert x - x == SkeinElement.zero(M)
    two_terms = x + y
    assert set(two_terms.terms) == {a, b}
    assert x.scale(P2.one()) == x
    assert x.scale(P2.zero()).is_zero()
    # the relation monomial acts as the identity on its own class
    x12 = SkeinElement.standard(M, alpha_of(1, 2))
    assert x12.scale(P2.monomial(4, 2)) == x12
    assert x12.scale(P2.monomial(6, 0)) == x12
    # q1^2 - 1 annihilates [x_[1]]
    assert x.scale(rel2(2, 0)).is_zero()
    # an element is true when some class keeps a coefficient
    assert bool(x) and bool(two_terms)
    assert not x.scale(rel2(2, 0)) and not SkeinElement.zero(M)
    # a sum with what is no element is left to the other operand, so it fails
    assert x.__add__(P2.one()) is NotImplemented
    with pytest.raises(TypeError):
        x + P2.one()


def test_element_reduction_happens_on_construction():
    a = alpha_of(1, 2)
    el = SkeinElement("sprime", M, {a: P2.monomial(5, 4)})
    assert el.terms[a].terms == {(3, 0): 1}
    el1 = SkeinElement("s", M, {a: P1.monomial(9)})
    assert el1.terms[a].terms == {3: 1}


def test_element_mismatch_errors():
    x = SkeinElement.standard(M, alpha_of(1))
    y = SkeinElement.standard(builtin("S3"), LinkClass(()))
    with pytest.raises(ParseError) as exc:
        x + y
    assert str(exc.value) == "cannot add elements over different manifold models"
    with pytest.raises(ParseError) as exc:
        x + x.specialize("s")
    assert str(exc.value) == "cannot add elements of modules 'sprime' and 's'"
    with pytest.raises(ParseError) as exc:
        x.scale(P1.one())
    assert str(exc.value) == "scaling a sprime element needs a LaurentPoly2 coefficient"
    for target in ("sprime", "q"):
        with pytest.raises(ParseError) as exc:
            x.specialize(target)
        assert str(exc.value) == f"specialization target must be one of s, l, w, got {target!r}"
    with pytest.raises(ParseError) as exc:
        x.specialize("s").specialize("w")
    assert str(exc.value) == "can only specialize from sprime, not 's'"
    with pytest.raises(ParseError) as exc:
        SkeinElement("sprime", M, {alpha_of(1): P1.one()})
    assert str(exc.value) == "sprime coefficients use the two-variable ring"
    with pytest.raises(ParseError) as exc:
        SkeinElement("s", M, {alpha_of(1): P2.one()})
    assert str(exc.value) == "s coefficients use the one-variable ring"


def test_element_is_immutable():
    x = SkeinElement.standard(M, alpha_of(1))
    with pytest.raises(AttributeError):
        x.module_tag = "s"


def test_element_specialize_frozen_examples():
    a = alpha_of(1, 2)
    el = SkeinElement("sprime", M, {a: P2.monomial(1, 1)})
    assert el.specialize("s").terms[a].terms == {2: 1}
    lifted = SkeinElement.standard(M, a).scale(P2.monomial(4, 2))
    assert lifted.specialize("w") == SkeinElement.standard(M, a, "w")
    assert SkeinElement.zero(M).specialize("l").is_zero()


def test_element_render():
    a = alpha_of(1)
    assert SkeinElement.zero(M).render() == "0"
    el = SkeinElement("sprime", M, {a: P2.monomial(1, 0) + P2.one()})
    assert el.render() == "(q1 + 1) [x_[1]]"
    both = SkeinElement.standard(M, alpha_of(1)) + SkeinElement.standard(M, alpha_of(2))
    assert both.render() == "1 [x_[1]] + 1 [x_[2]]"


def test_torsion_annihilator_frozen():
    for k in range(-6, 7):
        if k == 0:
            continue
        p = torsion_annihilator(M, alpha_of(k), "s")
        assert p == P1.monomial(2 * abs(k)) - P1.one()
        assert SkeinElement.standard(M, alpha_of(k), "s").scale(p).is_zero()
    assert torsion_annihilator(builtin("S3"), LinkClass(()), "s").is_zero()
    assert torsion_annihilator(builtin("S3"), LinkClass(()), "sprime") == ()
    assert torsion_annihilator(M, alpha_of(1, 2), "sprime") == (rel2(4, 2), rel2(6, 0))


def test_torsion_annihilator_exception_table():
    # a knot-with-torus setup: one class pairs 2 with an exceptional torus,
    # the other keeps the default; the multiset then has epsilon = 2
    doc = {
        "name": "X",
        "h1_rank": 1,
        "h2_rank": 1,
        "pairing": [[1]],
        "torus_default": [[1]],
        "torus_exceptions": {"beta": [[2]]},
        "sphere_gens": [[1]],
        "classes": [{"id": "beta", "h": [1]}, {"id": "gamma", "h": [1]}],
    }
    model = model_from_document(doc)
    a = alpha_from_refs([{"id": "beta"}, {"id": "gamma"}], model)
    assert epsilon(model, a) == 2
    assert torsion_annihilator(model, a, "s") == P1.monomial(4) - P1.one()
    assert SkeinElement.standard(model, a, "s").scale(
        torsion_annihilator(model, a, "s")
    ).is_zero()


def test_annihilation_across_tags():
    rng = random.Random(7)
    for _ in range(25):
        a = alpha_of(*(rng.randint(-4, 4) for _ in range(rng.randint(0, 3))))
        for tag in MODULE_TAGS:
            x = SkeinElement.standard(M, a, tag)
            ann = torsion_annihilator(M, a, tag)
            rels = ann if tag == "sprime" else [ann]
            for p in rels:
                assert x.scale(p).is_zero()


def test_is_free_verdicts():
    for name, params in (("S3", ()), ("lens", (5, 1)), ("handlebody", (2,))):
        m = builtin(name, *params)
        for tag in MODULE_TAGS:
            free, witness = is_free(m, tag)
            assert free and witness is None
    for tag in MODULE_TAGS:
        free, witness = is_free(M, tag)
        assert not free
        t, e = witness
        assert M.pairing_eval(t, e) != 0
    t3 = builtin("T3")
    for tag in ("sprime", "s", "l"):
        free, witness = is_free(t3, tag)
        assert not free and t3.pairing_eval(*witness) != 0
    assert is_free(t3, "w") == (True, None)


def test_sphere_torus_consistency_and_discrepancy_report():
    alphas = [alpha_of(*ks) for ks in [(1,), (2, 3), (0,), (-5, 5), (1, 2, 3)]]
    assert sphere_torus_discrepancies(M, alphas) == []
    skew = model_from_document(
        {
            "name": "skew",
            "h1_rank": 1,
            "h2_rank": 1,
            "pairing": [[1]],
            "torus_default": [[1]],
            "sphere_gens": [[2]],
        }
    )
    a = LinkClass((ClassLabel("1", HomologyClass1((1,))),))
    report = sphere_torus_discrepancies(skew, [a])
    assert report == [(a, 1, 2)]


@given(st.lists(st.integers(-5, 5), max_size=4), st.randoms(use_true_random=False))
def test_indices_are_permutation_invariant(ks, rng):
    base = list(ks)
    shuffled = list(ks)
    rng.shuffle(shuffled)
    a, b = alpha_of(*base), alpha_of(*shuffled)
    assert a == b
    assert gamma_prime(M, a).canon == gamma_prime(M, b).canon
    assert epsilon_prime(M, a) == epsilon_prime(M, b)
    assert mu_index(M, a) == mu_index(M, b)


@given(st.randoms(use_true_random=False))
def test_writhe_well_defined_modulo_doubled_lattice(rng):
    ks = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
    a = alpha_of(*ks)
    moves = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(3)
        i = rng.randint(1, len(ks))
        s = rng.choice((1, -1))
        if kind == 0:
            moves.append(Twist(i, s))
        elif kind == 1:
            moves.append(SelfCross(i, s))
        elif len(ks) >= 2:
            j = rng.choice([x for x in range(1, len(ks) + 1) if x != i])
            moves.append(MixedCross(i, j, s))
    shuffled = moves[:]
    rng.shuffle(shuffled)
    slides = [
        Slide(rng.randint(1, len(ks)), HomologyClass2((rng.randint(-2, 2),)))
        for _ in range(rng.randint(0, 3))
    ]
    tr1 = MoveTrace(a, tuple(moves))
    tr2 = MoveTrace(a, tuple(shuffled) + tuple(slides))
    raw1, el1 = trace_evaluate(M, tr1)
    raw2, el2 = trace_evaluate(M, tr2)
    delta = (raw2.w1 - raw1.w1, raw2.w2 - raw1.w2)
    assert gamma_prime(M, a).doubled().contains(delta)
    assert el1 == el2


def test_trace_from_document_resolution():
    doc = {
        "alpha": [{"id": "k1", "h": [1]}, {"id": "k2", "h": [2]}],
        "moves": [
            {"type": "twist", "i": 1, "s": 1},
            {"type": "mixed_cross", "i": 1, "j": 2, "s": -1},
            {"type": "slide", "i": 2, "t": [1]},
        ],
    }
    tr = trace_from_document(doc, M)
    assert tr.alpha.size == 2
    assert tr.moves[0] == Twist(1, 1)
    assert tr.moves[1] == MixedCross(1, 2, -1)
    assert tr.moves[2] == Slide(2, HomologyClass2((1,)))


def test_trace_from_document_uses_class_table():
    model = model_from_document(
        {
            "name": "X",
            "h1_rank": 1,
            "h2_rank": 1,
            "pairing": [[1]],
            "torus_default": [[1]],
            "classes": [{"id": "beta", "h": [3]}],
        }
    )
    tr = trace_from_document({"alpha": [{"id": "beta"}], "moves": []}, model)
    assert tr.alpha.components[0].h.free == (3,)
    with pytest.raises(ParseError, match="unknown class id"):
        trace_from_document({"alpha": [{"id": "nope"}], "moves": []}, model)
    # in a model with no homology every id is a legitimate label
    s3 = builtin("S3")
    tr = trace_from_document({"alpha": [{"id": "anything"}], "moves": []}, s3)
    assert tr.alpha.components[0].h.free == ()


def test_trace_from_document_aggregates_problems():
    doc = {
        "alpha": [{"id": 5}],
        "moves": [
            {"type": "hop", "i": 1},
            {"type": "twist", "i": 1, "s": 3},
            {"type": "slide", "i": 1},
        ],
        "extra": 1,
    }
    with pytest.raises(ParseError) as exc:
        trace_from_document(doc, M)
    msg = str(exc.value)
    for needle in ("'id'", "hop", "moves[1].s", "missing field 't'", "extra"):
        assert needle in msg


def test_trace_document_messages_keep_their_order():
    expected = "(expected twist, self_cross, mixed_cross, or slide)"
    for doc, message in (
        (
            {"alpha": [{"id": "1"}], "moves": [{"type": ["twist"], "i": 1, "s": 1}, {"type": {}}]},
            f"moves[0] has unknown type ['twist'] {expected}; "
            f"moves[1] has unknown type {{}} {expected}",
        ),
        (
            {
                "alpha": 3,
                "moves": [
                    5,
                    {"type": "slide", "i": 1, "t": "x", "q": 1},
                    {"type": "mixed_cross", "i": True, "j": 2, "s": 3},
                ],
            },
            "field 'alpha' must be an array of class refs; moves[0] must be an object; "
            "moves[1] has unknown field 'q'; moves[1].t must be an array of integers; "
            "moves[2].i must be an integer; moves[2].s must be +1 or -1, got 3",
        ),
        (
            {
                "alpha": [{"id": "1"}, {"id": "zz"}],
                "moves": [{"type": "slide", "i": 1, "t": [1, 1.0]}, {"type": "self_cross", "s": 2}],
                "extra": 1,
            },
            "unknown field 'extra'; alpha[1]: unknown class id 'zz' (not in the model's class "
            "table); moves[0].t must be an array of integers; moves[1] is missing field 'i'; "
            "moves[1].s must be +1 or -1, got 2",
        ),
        ({"alpha": [], "moves": {}}, "field 'moves' must be an array"),
    ):
        with pytest.raises(ParseError) as exc:
            trace_from_document(doc, M)
        assert str(exc.value) == message


def test_alpha_from_refs_rejects_bad_shapes():
    with pytest.raises(ParseError):
        alpha_from_refs({"id": "x"}, M)
    with pytest.raises(ParseError, match="torsion_tag"):
        alpha_from_refs([{"id": "x", "torsion_tag": "t"}], M)


# -- the command line's block tally against parse-then-evaluate ------------------

P22 = model_from_document(
    {
        "name": "P22",
        "h1_rank": 2,
        "h2_rank": 2,
        "pairing": [[1, 2], [-1, 3]],
        "torus_default": [[1, 0]],
        "classes": [{"id": "b", "h": [2, -1]}],
    }
)
MOVE_FAULTS = (
    "not_int", "t_not_ints", "s2", "i0", "i_past_r", "j_is_i", "extra_key", "missing_key",
    "t_length", "t_not_list", "not_dict", "unknown_type",
)


def _ints(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


@st.composite
def move_entries(draw, r, h2_rank, faulty):
    """A well-formed entry for r components; if faulty, maybe with faults from MOVE_FAULTS."""
    kind = draw(st.sampled_from(["twist", "self_cross", "mixed_cross", "slide"]))
    entry = {"type": kind, "i": draw(st.integers(1, max(r, 1)))}
    if kind == "mixed_cross":
        others = [j for j in range(1, r + 1) if j != entry["i"]]
        entry["j"] = draw(st.sampled_from(others)) if others else entry["i"]
    if kind == "slide":
        entry["t"] = draw(_ints(h2_rank))
    else:
        entry["s"] = draw(st.sampled_from([1, -1]))
    for fault in draw(st.lists(st.sampled_from(MOVE_FAULTS), max_size=2)) if faulty else ():
        keys = [key for key in entry if key != "type"]
        if fault in ("not_int", "t_not_ints"):
            # what JSON true, false and 1.0 read as: no integers, though they
            # may equal the valid value
            if fault == "not_int":
                held, places = entry, [k for k in keys if k != "t"]
            else:
                held = entry.get("t")
                places = range(len(held)) if type(held) is list else ()
            if places:
                at = draw(st.sampled_from(places))
                disguised = st.sampled_from([float(held[at]), True, False])
                held[at] = draw(disguised | st.floats(-2, 3))
        elif fault == "s2" and "s" in entry:
            entry["s"] = 2
        elif fault == "i0":
            entry["i"] = 0
        elif fault == "i_past_r":
            entry["i"] = r + 1
        elif fault == "j_is_i" and {"i", "j"} <= entry.keys():
            entry["j"] = entry["i"]
        elif fault in ("extra_key", "missing_key"):
            del entry[draw(st.sampled_from(keys))]
            if fault == "extra_key":
                entry["q"] = 1
        elif fault == "t_length" and "t" in entry:
            entry["t"] = draw(_ints(h2_rank + 1))
        elif fault == "t_not_list" and "t" in entry:
            entry["t"] = draw(st.sampled_from(["x", 1, None, [1.0] * h2_rank]))
        elif fault == "not_dict":
            entry = draw(st.sampled_from([5, "twist", [entry]]))
            break
        elif fault == "unknown_type":
            entry["type"] = draw(st.sampled_from(["hop", "Twist", 3, ["twist"]]))
    return entry


@st.composite
def trace_documents(draw):
    """(model, document): about half are valid traces, the others may have
    faults in the moves, a bad alpha ref, an alpha class of the wrong length
    or an unknown field."""
    M = draw(st.sampled_from([builtin("S2xS1"), P22]))
    named = ["1"] if M.h1_rank == 1 else ["b", "1,0"]
    good = st.sampled_from(named).map(lambda cid: {"id": cid}) | st.fixed_dictionaries(
        {"id": st.sampled_from(["k", "m"]), "h": _ints(M.h1_rank)}
    )
    bad = st.sampled_from([{"id": "ghost"}, {"id": "w", "h": [1] * (M.h1_rank + 1)}, 7])
    faulty = draw(st.booleans())
    alpha = draw(st.lists(good, min_size=int(not faulty), max_size=3))
    if faulty:
        alpha += draw(st.lists(bad, max_size=1))
    moves = draw(st.lists(move_entries(len(alpha), M.h2_rank, faulty), max_size=6))
    doc = {"alpha": alpha, "moves": moves}
    if faulty and draw(st.booleans()) and draw(st.booleans()):
        doc["extra"] = 1
    return M, doc


def _outcome(call):
    try:
        return call()
    except (ParseError, DimensionError) as exc:
        return type(exc), str(exc)


def _parse_then_evaluate(doc, M):
    tr = trace_from_document(doc, M)
    return (tr.alpha, *trace_evaluate(M, tr))


def _streamed(doc, M):
    """What reduce's block reader makes of doc's JSON text: None when reduce
    falls back to parse-then-evaluate."""
    return skein._streamed_trace(io.BytesIO(json.dumps(doc).encode()), M)


TWO = [{"id": "1"}, {"id": "2"}]
WRONG_LENGTH = [{"id": "b", "h": [1, 2]}]
SLIDE = {"type": "slide", "i": 1, "t": [1]}


@settings(max_examples=150)
@given(case=trace_documents())
# test_trace_validation_errors, as documents
@example(case=(M, {"alpha": TWO, "moves": [{"type": "twist", "i": 3, "s": 1}]}))
@example(case=(M, {"alpha": TWO, "moves": [{"type": "twist", "i": 0, "s": 1}]}))
@example(case=(M, {"alpha": TWO, "moves": [{"type": "mixed_cross", "i": 1, "j": 1, "s": 1}]}))
@example(case=(M, {"alpha": TWO, "moves": [{"type": "twist", "i": 1, "s": 2}]}))
@example(case=(M, {"alpha": TWO, "moves": [{"type": "slide", "i": 1, "t": [1, 0]}]}))
@example(case=(M, {"alpha": WRONG_LENGTH, "moves": [SLIDE, {"type": "twist", "i": 9, "s": 1}]}))
@example(case=(M, {"alpha": WRONG_LENGTH, "moves": []}))
@example(case=(M, {"alpha": WRONG_LENGTH, "moves": [SLIDE]}))
@example(case=(M, {"alpha": WRONG_LENGTH, "moves": [{"type": "twist", "i": 1, "s": 1}, SLIDE]}))
# a bool is no integer, though True == 1
@example(case=(M, {"alpha": TWO, "moves": [{"type": "twist", "i": True, "s": 1}]}))
@example(case=(M, {"alpha": TWO, "moves": [{"type": "mixed_cross", "i": 2, "j": True, "s": 1}]}))
@example(case=(M, {"alpha": TWO, "moves": [{"type": "mixed_cross", "i": 1, "j": 2, "s": True}]}))
@example(case=(M, {"alpha": TWO, "moves": [{"type": "slide", "i": 1, "t": [True]}]}))
# test_trace_document_messages_keep_their_order
@example(case=(M, {
    "alpha": [{"id": "1"}], "moves": [{"type": ["twist"], "i": 1, "s": 1}, {"type": {}}]
}))
@example(case=(M, {
    "alpha": 3,
    "moves": [
        5,
        {"type": "slide", "i": 1, "t": "x", "q": 1},
        {"type": "mixed_cross", "i": True, "j": 2, "s": 3},
    ],
}))
@example(case=(M, {
    "alpha": [{"id": "1"}, {"id": "zz"}],
    "moves": [{"type": "slide", "i": 1, "t": [1, 1.0]}, {"type": "self_cross", "s": 2}],
    "extra": 1,
}))
def test_one_pass_walk_equals_parse_then_evaluate(case):
    # the reader gives up (None) on what it does not take, and reduce then
    # parses the text whole; what it does give, a result or an error from
    # alpha's resolution, is parse-then-evaluate's
    model, doc = case
    streamed = _outcome(lambda: _streamed(doc, model))
    assert streamed is None or streamed == _outcome(lambda: _parse_then_evaluate(doc, model))


# -- the tally against a literal per-move sum ---------------------------------------

BIG = 10**40


def _big_ints(n):
    return st.lists(st.integers(-BIG, BIG) | st.integers(-3, 3), min_size=n, max_size=n)


@st.composite
def tallied_traces(draw):
    """(model, document): a well-formed trace of up to about 300 moves on a
    document model, with class coordinates and slide entries up to 10^40."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    model = model_from_document({
        "name": "tally",
        "h1_rank": n,
        "h2_rank": m,
        "pairing": draw(st.lists(_ints(n), min_size=m, max_size=m)),
        "torus_default": draw(st.lists(_ints(m), max_size=2)),
    })
    r = draw(st.integers(1, 4))
    alpha = [{"id": f"c{k}", "h": draw(_big_ints(n))} for k in range(r)]
    index = st.integers(1, r)
    sign = st.sampled_from([1, -1])
    kinds = ["twist", "self_cross", "slide"] + ["mixed_cross"] * (r > 1)
    moves = []
    for _ in range(draw(st.integers(0, 300))):
        kind = draw(st.sampled_from(kinds))
        entry = {"type": kind, "i": draw(index)}
        if kind == "slide":
            entry["t"] = draw(_big_ints(m))
        else:
            if kind == "mixed_cross":
                entry["j"] = draw(index.filter(lambda j, i=entry["i"]: j != i))
            entry["s"] = draw(sign)
        moves.append(entry)
    return model, {"alpha": alpha, "moves": moves}


def _literal_writhe(model, alpha, moves):
    """The writhe pair as a sum of each move's share, with literal pairings."""
    hs = [c.h.free for c in alpha.components]
    total = [sum(col) for col in zip(*hs)]
    w1 = w2 = 0
    for mv in moves:
        if mv["type"] == "slide":
            h = hs[mv["i"] - 1]
            w1 += 2 * literal_pairing(model.pairing, mv["t"], h)
            w2 += 2 * literal_pairing(model.pairing, mv["t"], [x - y for x, y in zip(total, h)])
        elif mv["type"] == "mixed_cross":
            w2 += 2 * mv["s"]
        else:
            w1 += (1 if mv["type"] == "twist" else 2) * mv["s"]
    return WrithePair(w1, w2)


@settings(max_examples=150, deadline=None)
@given(case=tallied_traces())
def test_tally_equals_parse_then_evaluate_and_literal_sum(case):
    model, doc = case
    expected = _parse_then_evaluate(doc, model)
    alpha, raw, _element = expected
    assert raw == _literal_writhe(model, alpha, doc["moves"])
    # a block of 7 bytes cuts most moves and big entries; 65,536 is reduce's own
    for block in (7, skein._READ_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(skein, "_READ_BLOCK", block)
            assert _streamed(doc, model) == expected, block


# one faulty entry for two components and h2_rank 1, for each fault of
# move_entries and for a field added to a complete entry
FAULTY_LAST = {
    "not_int": {"type": "twist", "i": 1.0, "s": 1},
    "t_not_ints": {"type": "slide", "i": 1, "t": [True]},
    "s2": {"type": "self_cross", "i": 1, "s": 2},
    "i0": {"type": "twist", "i": 0, "s": 1},
    "i_past_r": {"type": "mixed_cross", "i": 3, "j": 1, "s": -1},
    "j_is_i": {"type": "mixed_cross", "i": 2, "j": 2, "s": 1},
    "extra_key": {"type": "twist", "i": 1, "q": 1},
    "missing_key": {"type": "slide", "i": 1},
    "t_length": {"type": "slide", "i": 2, "t": [1, 2]},
    "t_not_list": {"type": "slide", "i": 1, "t": "x"},
    "not_dict": 5,
    "unknown_type": {"type": "hop", "i": 1, "s": 1},
    "added_key": {"type": "slide", "i": 1, "t": [1], "s": 1},
    "added_j": {"type": "twist", "i": 1, "j": 2, "s": 1},
}


def _reduce(path):
    """(exit code, stdout, stderr) of reduce on the S2xS1 trace at path."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["reduce", "--manifold", "S2xS1", "--trace", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_a_faulty_last_entry_gets_the_parse_then_evaluate_error(tmp_path):
    assert FAULTY_LAST.keys() >= set(MOVE_FAULTS)
    rng = random.Random(12)
    moves = []
    for _ in range(10**4):
        kind = rng.choice(["twist", "self_cross", "mixed_cross", "slide"])
        i = rng.randint(1, 2)
        if kind == "slide":
            moves.append({"type": kind, "i": i, "t": [rng.randint(-50, 50)]})
        elif kind == "mixed_cross":
            moves.append({"type": kind, "i": i, "j": 3 - i, "s": rng.choice((1, -1))})
        else:
            moves.append({"type": kind, "i": i, "s": rng.choice((1, -1))})
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"alpha": TWO, "moves": moves}), encoding="utf-8")
    assert _reduce(path)[0] == 0
    for fault, entry in FAULTY_LAST.items():
        doc = {"alpha": TWO, "moves": moves + [entry]}
        kind, message = _outcome(lambda: _parse_then_evaluate(doc, M))
        assert kind in (ParseError, DimensionError), fault
        assert "moves[10000]" in message or "move 10000" in message, fault
        category, code = ("parse", 2) if kind is ParseError else ("dimension", 3)
        path.write_text(json.dumps(doc), encoding="utf-8")
        expected = code, "", f"error:{category}:{' '.join(message.split())}\n"
        assert _reduce(path) == expected, fault


def _two_component_moves(n, seed):
    """n well-formed S2xS1 moves on two components, all four kinds."""
    rng = random.Random(seed)
    moves = []
    for _ in range(n):
        kind = rng.choice(["twist", "self_cross", "mixed_cross", "slide"])
        i = rng.randint(1, 2)
        if kind == "slide":
            moves.append({"type": kind, "i": i, "t": [rng.randint(-50, 50)]})
        elif kind == "mixed_cross":
            moves.append({"type": kind, "i": i, "j": 3 - i, "s": rng.choice((1, -1))})
        else:
            moves.append({"type": kind, "i": i, "s": rng.choice((1, -1))})
    return moves


def _spy_whole_text(monkeypatch):
    """The names of the whole-text read, its decode and its parse, as they run."""
    calls = []
    for name in ("read_text", "decode_json", "trace_from_document"):
        def spy(*args, real=getattr(skein, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(skein, name, spy)
    return calls


def test_a_faulty_entry_is_found_in_the_blocks(tmp_path, monkeypatch):
    # each fault of FAULTY_LAST, after 10^4 moves, gets its error from the
    # block reader: the whole text is neither read, decoded nor parsed
    moves = _two_component_moves(10**4, 12)
    path = tmp_path / "trace.json"
    for fault, entry in FAULTY_LAST.items():
        doc = {"alpha": TWO, "moves": moves + [entry]}
        kind, message = _outcome(lambda: _parse_then_evaluate(doc, M))
        category, code = ("parse", 2) if kind is ParseError else ("dimension", 3)
        path.write_text(json.dumps(doc), encoding="utf-8")
        calls = _spy_whole_text(monkeypatch)
        assert _reduce(path) == (code, "", f"error:{category}:{message}\n"), fault
        assert calls == [], fault
        monkeypatch.undo()


def test_many_rejected_moves_give_the_whole_aggregated_line(tmp_path, monkeypatch):
    # 41 faulty entries spread over a 10^4-move trace of several read blocks:
    # the one line lists alpha's problem, then each entry's in move order, as
    # trace_from_document does, whichever key comes first. A move fault (a
    # mixed crossing on one component, an index past r) is no parse problem,
    # so the line leaves it out
    unknown = "(expected twist, self_cross, mixed_cross, or slide)"
    faults = [
        ({"type": "twist", "i": 1, "s": 2}, "moves[{}].s must be +1 or -1, got 2"),
        ({"type": "hop", "i": 1}, f"moves[{{}}] has unknown type 'hop' {unknown}"),
        ({"type": "slide", "i": 1}, "moves[{}] is missing field 't'"),
        ({"type": "mixed_cross", "i": 1, "j": 1.5, "s": 1}, "moves[{}].j must be an integer"),
        (5, "moves[{}] must be an object"),
        ({"type": "mixed_cross", "i": 2, "j": 2, "s": 1}, None),
        ({"type": "twist", "i": 3, "s": 1}, None),
    ]
    moves = _two_component_moves(10**4, 7)
    problems = ["alpha[1]: unknown class id 'ghost' (not in the model's class table)"]
    for k in range(41):
        entry, message = faults[k % len(faults)]
        moves[243 * k + 5] = entry
        if message:
            problems.append(message.format(243 * k + 5))
    alpha = [{"id": "1"}, {"id": "ghost"}]
    path = tmp_path / "trace.json"
    for doc in ({"alpha": alpha, "moves": moves}, {"moves": moves, "alpha": alpha}):
        assert _outcome(lambda: _parse_then_evaluate(doc, M)) == (ParseError, "; ".join(problems))
        text = json.dumps(doc)
        assert len(text) > 4 * skein._READ_BLOCK
        path.write_text(text, encoding="utf-8")
        calls = _spy_whole_text(monkeypatch)
        assert _reduce(path) == (2, "", f"error:parse:{'; '.join(problems)}\n")
        assert calls == []
        monkeypatch.undo()
