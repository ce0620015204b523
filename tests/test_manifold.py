"""Builtin models, pairing evaluation, subgroup dispatch, document round trips."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skeinmod.errors import DimensionError, ParseError
from skeinmod.manifold import (
    ClassLabel,
    HomologyClass1,
    HomologyClass2,
    ManifoldModel,
    _has_lone_surrogate,
    builtin,
    load_model,
    model_from_document,
    model_to_document,
)
from skeinmod.skein import alpha_from_refs


def _label(cid, coords, tag=None):
    return ClassLabel(cid, HomologyClass1(tuple(coords), tag))


def test_builtin_fields():
    s3 = builtin("S3")
    assert (s3.h1_rank, s3.h2_rank, s3.pairing) == (0, 0, ())
    m = builtin("S2xS1")
    assert (m.h1_rank, m.h2_rank) == (1, 1)
    assert m.pairing == ((1,),)
    assert m.torus_default == (HomologyClass2((1,)),)
    assert m.sphere_gens == (HomologyClass2((1,)),)
    t = builtin("T3")
    assert (t.h1_rank, t.h2_rank) == (3, 3)
    assert t.pairing == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert t.torus_rule == "sweep"
    assert t.sphere_gens == ()
    lens = builtin("lens", 7, 2)
    assert (lens.h1_rank, lens.h2_rank, lens.name) == (0, 0, "lens(7,2)")
    hb = builtin("handlebody", 3)
    assert (hb.h1_rank, hb.h2_rank) == (3, 0)
    assert hb.torus_default == () and hb.sphere_gens == ()


def test_builtin_parameter_errors():
    with pytest.raises(ParseError):
        builtin("lens", 0, 1)
    with pytest.raises(ParseError):
        builtin("lens", -5, 1)
    with pytest.raises(ParseError):
        builtin("lens", 5)
    with pytest.raises(ParseError):
        builtin("handlebody", -1)
    with pytest.raises(ParseError):
        builtin("handlebody")
    with pytest.raises(ParseError):
        builtin("S3", 1)
    with pytest.raises(ParseError):
        builtin("poincare-sphere")
    with pytest.raises(ParseError) as exc:
        builtin("K3")
    assert str(exc.value) == (
        "unknown builtin manifold 'K3' (known: S3, S2xS1, T3, lens, handlebody)"
    )


def test_s2xs1_pairing_values():
    m = builtin("S2xS1")
    s = HomologyClass2((1,))
    for k in range(-10, 11):
        assert m.pairing_eval(s, HomologyClass1((k,))) == k
    assert m.pairing_eval(HomologyClass2((0,)), HomologyClass1((5,))) == 0


def _det3(u, v, w):
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def test_t3_sweep_generators_frozen():
    t = builtin("T3")
    gens = t.rule_generators(HomologyClass1((1, 0, 0)))
    assert [g.vec for g in gens] == [(0, 0, 0), (0, 0, 1), (0, -1, 0)]
    # dispatch goes through the rule since there is no default list
    c = _label("a", (1, 0, 0))
    assert t.torus_subgroup(c) == gens


def test_rule_generators_without_a_rule_are_empty():
    for M in (builtin("S3"), builtin("S2xS1"), builtin("handlebody", 2)):
        assert M.torus_rule is None
        assert M.rule_generators(HomologyClass1((1,) * M.h1_rank)) == ()


def test_t3_sweep_pairing_is_determinant():
    t = builtin("T3")
    rng = random.Random(1723)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for _ in range(100):
        h = tuple(rng.randint(-6, 6) for _ in range(3))
        hp = tuple(rng.randint(-6, 6) for _ in range(3))
        gens = t.rule_generators(HomologyClass1(h))
        for k, ek in enumerate(basis):
            got = t.pairing_eval(gens[k], HomologyClass1(hp))
            assert got == _det3(h, ek, hp)
        # pairing a swept class against its own loop class vanishes
        for g in gens:
            assert t.pairing_eval(g, HomologyClass1(h)) == 0


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.data(),
)
def test_pairing_bilinearity(n, m, data):
    rows = tuple(
        tuple(data.draw(st.integers(-5, 5)) for _ in range(n)) for _ in range(m)
    )
    model = ManifoldModel(name="X", h1_rank=n, h2_rank=m, pairing=rows)
    vec2 = st.tuples(*(st.integers(-7, 7) for _ in range(m)))
    vec1 = st.tuples(*(st.integers(-7, 7) for _ in range(n)))
    s, sp = data.draw(vec2), data.draw(vec2)
    h, hp = data.draw(vec1), data.draw(vec1)
    add2 = tuple(a + b for a, b in zip(s, sp))
    add1 = tuple(a + b for a, b in zip(h, hp))
    pe = model.pairing_eval
    H2, H1 = HomologyClass2, HomologyClass1
    assert pe(H2(add2), H1(h)) == pe(H2(s), H1(h)) + pe(H2(sp), H1(h))
    assert pe(H2(s), H1(add1)) == pe(H2(s), H1(h)) + pe(H2(s), H1(hp))


def test_pairing_eval_dimension_errors_name_the_vector():
    m = builtin("S2xS1")
    with pytest.raises(DimensionError, match=r"\[1,2\]"):
        m.pairing_eval(HomologyClass2((1, 2)), HomologyClass1((1,)))
    with pytest.raises(DimensionError, match=r"\[3,4,5\]"):
        m.pairing_eval(HomologyClass2((1,)), HomologyClass1((3, 4, 5)))



def test_torus_subgroup_refuses_a_wrong_length_class():
    with pytest.raises(DimensionError) as exc:
        builtin("S2xS1").torus_subgroup(ClassLabel.coordinate((1, 2)))
    assert str(exc.value) == "1-class [1,2] has length 2, expected h1_rank = 1"

def test_torus_exception_dispatch():
    model = ManifoldModel(
        name="X",
        h1_rank=1,
        h2_rank=1,
        pairing=((1,),),
        torus_default=(HomologyClass2((1,)),),
        torus_exceptions=(("beta", (HomologyClass2((2,)),)),),
        classes=(_label("beta", (1,)), _label("gamma", (1,))),
    )
    assert model.torus_subgroup(_label("beta", (1,))) == (HomologyClass2((2,)),)
    assert model.torus_subgroup(_label("gamma", (1,))) == (HomologyClass2((1,)),)
    # exceptions key on the id, not the homology vector
    assert model.torus_subgroup(_label("delta", (1,))) == (HomologyClass2((1,)),)


def test_model_shape_validation_aggregates():
    with pytest.raises(DimensionError) as exc:
        ManifoldModel(
            name="bad",
            h1_rank=3,
            h2_rank=2,
            pairing=((1, 2, 3),),
            sphere_gens=(HomologyClass2((1, 2, 3)),),
        )
    msg = str(exc.value)
    assert "pairing has 1 rows" in msg
    assert "sphere_gens[0] has length 3" in msg
    with pytest.raises(DimensionError) as exc:
        ManifoldModel("bad", 2, 0, (), classes=(ClassLabel("a", HomologyClass1((1,))),))
    assert str(exc.value) == "class 'a' h has length 1, expected h1_rank = 2"
    with pytest.raises(DimensionError) as exc:
        model_from_document({"name": "x", "h1_rank": 2, "h2_rank": 1, "pairing": [[1]]})
    assert str(exc.value) == "pairing row 0 has length 1, expected h1_rank = 2"


def test_sweep_rule_needs_rank_three():
    with pytest.raises(ParseError):
        ManifoldModel(name="bad", h1_rank=1, h2_rank=1, pairing=((1,),), torus_rule="sweep")
    with pytest.raises(ParseError):
        ManifoldModel(name="bad", h1_rank=0, h2_rank=0, pairing=(), torus_rule="slide")


def test_document_round_trip_on_builtins():
    models = [
        builtin("S3"),
        builtin("S2xS1"),
        builtin("T3"),
        builtin("lens", 5, 1),
        builtin("handlebody", 2),
    ]
    for m in models:
        assert model_from_document(model_to_document(m)) == m


def test_handwritten_document_equals_builtin():
    doc = {
        "name": "S2xS1",
        "h1_rank": 1,
        "h2_rank": 1,
        "pairing": [[1]],
        "torus_default": [[1]],
        "sphere_gens": [[1]],
    }
    assert model_from_document(doc) == builtin("S2xS1")


def test_document_with_classes_and_exceptions():
    doc = {
        "name": "X",
        "h1_rank": 1,
        "h2_rank": 1,
        "pairing": [[1]],
        "torus_default": [[1]],
        "torus_exceptions": {"beta": [[2]]},
        "classes": [
            {"id": "beta", "h": [1]},
            {"id": "gamma", "h": [1], "torsion_tag": "t"},
            {"id": "7", "h": [5]},
        ],
    }
    m = model_from_document(doc)
    assert m.class_by_id("beta") == _label("beta", (1,))
    assert m.class_by_id("gamma") == _label("gamma", (1,), "t")
    assert m.class_by_id("nope") is None
    # a table entry wins over the coordinate label its id spells
    assert m.class_by_id("7") == _label("7", (5,))
    # any other id that is exactly a coordinate label names that class
    assert m.class_by_id("-3") == ClassLabel.coordinate((-3,)) == _label("-3", (-3,))
    for cid in ("01", "+1", " 1", "1 ", "-0", "1_0", "1,2", "", ","):
        assert m.class_by_id(cid) is None, cid
    hb = builtin("handlebody", 2)
    assert hb.class_by_id("1,-2") == _label("1,-2", (1, -2))
    for cid in ("1", "1,-2,0", "1, -2", "1,-02"):
        assert hb.class_by_id(cid) is None, cid
    assert m.torus_subgroup(m.class_by_id("beta")) == (HomologyClass2((2,)),)
    assert model_from_document(model_to_document(m)) == m


def test_class_by_id_keeps_the_first_of_duplicate_ids():
    # a directly built model is not checked for duplicate ids
    first, second = _label("a", (1, 0)), _label("a", (0, 1))
    m = ManifoldModel(
        "dup", 2, 1, ((1, 0),), classes=(first, _label("0,1", (2, 2)), second)
    )
    assert m.class_by_id("a") is first
    # a table entry wins over the coordinate label its id spells; other ids
    # that spell a coordinate label still name that class
    assert m.class_by_id("0,1") == _label("0,1", (2, 2))
    assert m.class_by_id("1,-2") == _label("1,-2", (1, -2))
    assert m.class_by_id("b") is None and m.class_by_id("1") is None
    trivial = ManifoldModel("pt", 0, 0, (), classes=(_label("x", ()),))
    assert trivial.class_by_id("x") is trivial.classes[0]
    assert trivial.class_by_id("any") == _label("any", ())


def test_document_rejects_unknown_fields():
    doc = {"name": "X", "h1_rank": 0, "h2_rank": 0, "pairing": [], "frobnicate": 1}
    with pytest.raises(ParseError, match="frobnicate"):
        model_from_document(doc)


def test_document_rejects_non_integer_entries():
    doc = {"name": "X", "h1_rank": 1, "h2_rank": 1, "pairing": [["1"]]}
    with pytest.raises(ParseError, match=r"pairing\[0\]"):
        model_from_document(doc)
    doc = {"name": "X", "h1_rank": 1, "h2_rank": 1, "pairing": [[1.5]]}
    with pytest.raises(ParseError):
        model_from_document(doc)
    doc = {"name": "X", "h1_rank": True, "h2_rank": 1, "pairing": [[1]]}
    with pytest.raises(ParseError, match="h1_rank"):
        model_from_document(doc)


def test_document_length_mismatch_is_dimension_error():
    doc = {
        "name": "X",
        "h1_rank": 3,
        "h2_rank": 2,
        "pairing": [[1, 2, 3], [4, 5, 6]],
        "sphere_gens": [[1, 2, 3]],
    }
    with pytest.raises(DimensionError, match=r"sphere_gens\[0\]"):
        model_from_document(doc)


def test_document_aggregates_parse_problems():
    doc = {
        "name": 7,
        "h1_rank": -1,
        "h2_rank": 0,
        "pairing": [],
        "mystery": True,
    }
    with pytest.raises(ParseError) as exc:
        model_from_document(doc)
    msg = str(exc.value)
    assert "'name'" in msg and "h1_rank" in msg and "mystery" in msg
    doc = {
        "name": "X",
        "h1_rank": 1,
        "h2_rank": 1,
        "pairing": "rows",
        "torus_exceptions": [],
        "torus_rule": "slide",
        "classes": {},
        "boundary_note": 5,
    }
    with pytest.raises(ParseError) as exc:
        model_from_document(doc)
    assert str(exc.value) == (
        "field 'pairing' must be an array of rows; field 'torus_exceptions' must be an object "
        "keyed by class id; field 'torus_rule' must be absent or 'sweep', got 'slide'; "
        "field 'classes' must be an array; field 'boundary_note' must be a string"
    )
    with pytest.raises(ParseError) as exc:
        model_from_document([doc])
    assert str(exc.value) == "manifold document must be a JSON object"


def test_generator_list_faults_keep_their_order():
    # torus_default, sphere_gens and each torus_exceptions list share one reader
    # and one length check; faults stay in document-field order
    base = {"name": "X", "h1_rank": 1, "h2_rank": 1, "pairing": [[1]]}
    for doc, error, message in (
        (
            {**base, "torus_default": 5, "sphere_gens": [[1], "x", [1.5]]},
            ParseError,
            "field 'torus_default' must be an array of vectors; "
            "sphere_gens[1] must be an array of integers; "
            "sphere_gens[2] must be an array of integers",
        ),
        (
            {
                **base,
                "torus_default": [[1], [True]],
                "sphere_gens": 7,
                "torus_exceptions": {"a": 3, "b": [[1], "z"], "c": [[2]]},
            },
            ParseError,
            "torus_default[1] must be an array of integers; "
            "field 'sphere_gens' must be an array of vectors; "
            "torus_exceptions['a'] must be an array of vectors; "
            "torus_exceptions['b'][1] must be an array of integers",
        ),
        (
            {
                **base,
                "torus_default": [[1, 2]],
                "sphere_gens": [[1], [2, 3]],
                "torus_exceptions": {"a": [[1, 1]], "b": [[1]]},
            },
            DimensionError,
            "torus_default[0] has length 2, expected h2_rank = 1; "
            "sphere_gens[1] has length 2, expected h2_rank = 1; "
            "torus_exceptions['a'][0] has length 2, expected h2_rank = 1",
        ),
    ):
        with pytest.raises(error) as exc:
            model_from_document(doc)
        assert str(exc.value) == message


def test_vectors_are_plain_lists_of_plain_ints():
    # a document's vectors are what json.load gives: a subclass of list or of
    # int is refused like a bool, with the same message
    class Row(list):
        pass

    class Flag(int):
        pass

    base = {"name": "X", "h1_rank": 1, "h2_rank": 1, "pairing": [[1]]}
    assert model_from_document({**base, "torus_default": [[1]]}).torus_default == (
        HomologyClass2((1,)),
    )
    for bad in (Row([1]), [Flag(1)], [True], (1,)):
        with pytest.raises(ParseError) as exc:
            model_from_document({**base, "torus_default": [bad]})
        assert str(exc.value) == "torus_default[0] must be an array of integers"


def test_class_entry_single_fault_messages():
    # the class table and class refs read entries through one reader; each
    # lone fault keeps its exact message under either prefix
    base = {"name": "X", "h1_rank": 1, "h2_rank": 0, "pairing": []}
    for entry, message in (
        ("nope", "classes[0] must be an object"),
        ({"id": "a", "h": [1], "zz": 1}, "classes[0] has unknown field 'zz'"),
        ({"h": [1]}, "classes[0] field 'id' must be a string"),
        ({"id": "a"}, "classes[0].h must be an array of integers"),
        ({"id": "a", "h": [1.5]}, "classes[0].h must be an array of integers"),
        (
            {"id": "a", "h": [1], "torsion_tag": 4},
            "classes[0] field 'torsion_tag' must be a string",
        ),
    ):
        with pytest.raises(ParseError) as exc:
            model_from_document({**base, "classes": [entry]})
        assert str(exc.value) == message
    M = builtin("S2xS1")
    for ref, message in (
        ("x", "alpha[0] must be an object"),
        ({"id": "a", "h": [1], "zz": 1}, "alpha[0] has unknown field 'zz'"),
        ({"id": 3}, "alpha[0] field 'id' must be a string"),
        ({"id": "a", "h": "x"}, "alpha[0].h must be an array of integers"),
        ({"id": "a", "h": [1], "torsion_tag": 5}, "alpha[0] field 'torsion_tag' must be a string"),
        ({"id": "1", "torsion_tag": "t"}, "alpha[0]: 'torsion_tag' needs an inline 'h'"),
        ({"id": "ghost"}, "alpha[0]: unknown class id 'ghost' (not in the model's class table)"),
    ):
        with pytest.raises(ParseError) as exc:
            alpha_from_refs([ref], M)
        assert str(exc.value) == message


def test_document_rejects_duplicate_class_ids():
    doc = {
        "name": "X",
        "h1_rank": 1,
        "h2_rank": 0,
        "pairing": [],
        "classes": [{"id": "a", "h": [1]}, {"id": "a", "h": [2]}],
    }
    with pytest.raises(ParseError, match="duplicate"):
        model_from_document(doc)


def test_boundary_note_round_trips(tmp_path):
    m = builtin("handlebody", 2)
    assert m.boundary_note
    doc = model_to_document(m)
    assert doc["boundary_note"] == m.boundary_note
    path = tmp_path / "hb2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(str(path)) == m


def test_load_model_errors(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_model(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError, match="not valid JSON"):
        load_model(str(bad))


@pytest.mark.parametrize("doc, lone", [
    # a lone low surrogate used as a key, inside a list
    ({"a": ["x", {"\udc80": 1}]}, True),
    (["ok", "lone high \ud800"], True),
    ({"k": "lone low \udfff"}, True),
    ("\ud800", True),
    # a joined pair is one code point, not a surrogate
    ("\U0001F600", False),
    ({"n": [1, None, 2.5, True, False]}, False),
])
def test_has_lone_surrogate_reads_every_string(doc, lone):
    assert _has_lone_surrogate(doc) is lone
