"""The package's immutable value classes, and what start-up may load."""

import copy
import gc
import io
import pickle
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import skeinmod
import skeinmod.__main__ as entry
from oracles import literal_id_collation, literal_render
from skeinmod import cli
from skeinmod.lattice import ExponentLattice
from skeinmod.laurent import LaurentPoly1, LaurentPoly2, SpecializationMap
from skeinmod.manifold import (
    ClassLabel,
    HomologyClass1,
    HomologyClass2,
    ManifoldModel,
    _id_collation,
    builtin,
)
from skeinmod.skein import (
    LinkClass,
    MixedCross,
    MoveTrace,
    SelfCross,
    SkeinElement,
    Slide,
    SummandRelations,
    Twist,
    summand,
)
from skeinmod.value import Value

SRC = Path(__file__).parent.parent / "src"

H1 = HomologyClass1((1, -2), "t")
H2 = HomologyClass2((1, 0))
LABEL = ClassLabel("beta", HomologyClass1((1,)))
ALPHA = LinkClass((ClassLabel.coordinate((2,)), ClassLabel.coordinate((1,))))

# one instance of each value class, with its field names in constructor order
SAMPLES = [
    (H1, ("free", "torsion_tag")),
    (H2, ("vec",)),
    (LABEL, ("id", "h")),
    (builtin("T3"), (
        "name", "h1_rank", "h2_rank", "pairing", "torus_default", "torus_exceptions",
        "torus_rule", "sphere_gens", "classes", "boundary_note",
    )),
    (ALPHA, ("components",)),
    (SummandRelations("s", ()), ("module_tag", "relations")),
    (SpecializationMap("q", "1"), ("target_of_q1", "target_of_q2")),
    (MoveTrace(ALPHA, (Twist(1, 1), Slide(2, HomologyClass2((1,))))), ("alpha", "moves")),
    (Twist(1, -1), ("i", "s")),
    (SelfCross(1, 1), ("i", "s")),
    (MixedCross(1, 2, -1), ("i", "j", "s")),
    (Slide(1, HomologyClass2((3,))), ("i", "t")),
]
IDS = [type(x).__name__ for x, _names in SAMPLES]

# values whose equality or hash is not the tuple of their fields: the
# coefficient maps are dicts, and a lattice compares by its canonical form
OTHER_VALUES = [
    (SkeinElement.standard(builtin("S2xS1"), LinkClass((ClassLabel.coordinate((1,)),))),
     ("module_tag", "manifold", "terms")),
    (LaurentPoly1.parse("q^4 - 1"), ("terms",)),
    (LaurentPoly2.parse("q1^2 q2^-1 - 3"), ("terms",)),
    (ExponentLattice(((2, 4), (6, 0))), ("gens",)),
]
ALL_VALUES = SAMPLES + OTHER_VALUES
ALL_IDS = IDS + [type(x).__name__ for x, _names in OTHER_VALUES]


def _fields(x):
    return tuple(getattr(x, name) for name in type(x)._fields)


@pytest.mark.parametrize("x, names", SAMPLES, ids=IDS)
def test_fields_equality_and_hash(x, names):
    assert type(x)._fields == names
    if type(x) is ManifoldModel:  # its cached properties keep a __dict__
        assert list(vars(type(x)(*_fields(x)))) == list(names)  # __init__ sets each, in order
    else:  # each field is a slot, in order, and nothing else is kept
        assert type(x).__slots__ == names
        assert not hasattr(x, "__dict__")
    assert x == copy.copy(x) and not x != copy.copy(x)
    assert hash(x) == hash(_fields(x))
    assert type(x)(*_fields(x)) == x
    assert type(x)(**dict(zip(names, _fields(x)))) == x
    assert x != _fields(x)


def test_instances_of_different_classes_are_never_equal():
    assert Twist(1, 1) != SelfCross(1, 1)
    assert not Twist(1, 1) == SelfCross(1, 1)
    for a, _ in SAMPLES:
        for b, _ in SAMPLES:
            assert (a == b) == (a is b)


def test_repr_names_each_field():
    assert repr(H1) == "HomologyClass1(free=(1, -2), torsion_tag='t')"
    assert repr(LABEL) == "ClassLabel(id='beta', h=HomologyClass1(free=(1,), torsion_tag=None))"
    assert repr(MixedCross(1, 2, -1)) == "MixedCross(i=1, j=2, s=-1)"
    assert repr(SpecializationMap("q", "1")) == (
        "SpecializationMap(target_of_q1='q', target_of_q2='1')"
    )
    assert repr(builtin("S3")) == (
        "ManifoldModel(name='S3', h1_rank=0, h2_rank=0, pairing=(), torus_default=(), "
        "torus_exceptions=(), torus_rule=None, sphere_gens=(), classes=(), boundary_note='')"
    )
    for x, names in SAMPLES:
        inner = ", ".join(f"{n}={getattr(x, n)!r}" for n in names)
        assert repr(x) == f"{type(x).__name__}({inner})"


@pytest.mark.parametrize("x, names", ALL_VALUES, ids=ALL_IDS)
def test_assignment_and_deletion_raise(x, names):
    for name in (*names, *type(x).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _fields(x) == _fields(copy.copy(x))


@pytest.mark.parametrize("x, names", ALL_VALUES, ids=ALL_IDS)
def test_pickle_and_copy_round_trips(x, names):
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(twin) is type(x) and twin == x and repr(twin) == repr(x)
        if type(x).__hash__ is not None:
            assert hash(twin) == hash(x)


def test_every_public_class_is_a_value_a_tuple_or_an_error():
    classes = [obj for obj in map(vars(skeinmod).get, skeinmod.__all__) if isinstance(obj, type)]
    for x, names in OTHER_VALUES:
        assert type(x) in classes and type(x)._fields == names
    for cls in classes:
        assert issubclass(cls, (Value, tuple, Exception)), cls


def test_summand_relations_with_polynomials_round_trip():
    rel = summand(builtin("S2xS1"), ALPHA, "sprime")
    assert rel.relations
    for twin in (pickle.loads(pickle.dumps(rel)), copy.deepcopy(rel)):
        assert twin == rel and twin.render() == rel.render()


def test_manifold_model_keeps_cached_properties_through_copies():
    m = ManifoldModel("dup", 1, 1, ((1,),), classes=(LABEL,))
    assert m.class_by_id("beta") is LABEL
    assert m._classes_by_id is m._classes_by_id
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert twin == m and twin.class_by_id("beta") == LABEL


def test_manifold_model_by_keyword_and_by_position():
    rows = ((1, 0),)
    by_keyword = ManifoldModel(
        name="X", h1_rank=2, h2_rank=1, pairing=rows, torus_default=(HomologyClass2((1,)),)
    )
    by_position = ManifoldModel("X", 2, 1, rows, (HomologyClass2((1,)),))
    assert by_keyword == by_position
    assert (by_position.torus_exceptions, by_position.torus_rule) == ((), None)
    assert (by_position.sphere_gens, by_position.classes, by_position.boundary_note) == ((), (), "")
    assert by_keyword != ManifoldModel("X", 2, 1, rows, boundary_note="x")


def test_link_class_sorts_its_components():
    assert ALPHA.components == (ClassLabel.coordinate((1,)), ClassLabel.coordinate((2,)))
    assert ALPHA == LinkClass(ALPHA.components[::-1])
    assert LinkClass() == LinkClass(()) and LinkClass().components == ()


def test_only_ascii_integer_ids_collate_as_coordinates():
    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1, but the
    # command line and class_by_id take both for names, which follow every
    # coordinate id
    labels = {"1_0": 10, "2": 2, "١": 1}
    alpha = LinkClass(tuple(ClassLabel(cid, HomologyClass1((x,))) for cid, x in labels.items()))
    assert [c.id for c in alpha.components] == ["2", "1_0", "١"]
    assert alpha.render() == "[2; id:1_0; id:١]"


# ASCII ids around the integers: leading spaces int() strips ("\t", " ") and
# ones it does not ("\x1c"), signs, "_" and commas, plus a non-ASCII digit
id_texts = st.text(alphabet="\t\x1c +-_,0123456789ac\u0661", max_size=8) | st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " ", "\t", "\x1c", "+", "-", "_", "a", ","]),
    st.lists(st.integers(-20, 20).map(str), min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", " ", "_", ",", "a"]),
)


@given(id_texts)
@example("\x1c1")
@example("+1")
@example("\t-1, +2")
@example("1,,2")
@example("")
def test_id_collation_is_the_literal_definition(cid):
    assert _id_collation(cid) == literal_id_collation(cid)


coordinates = st.lists(st.integers(-12, 12), max_size=3).map(tuple)
labels = st.builds(ClassLabel.coordinate, coordinates) | st.builds(
    ClassLabel,
    id_texts,
    st.builds(HomologyClass1, coordinates, st.none() | st.sampled_from(["t", ""])),
)


@given(st.lists(labels, max_size=4))
@example([ClassLabel("", HomologyClass1(()))])
@example([ClassLabel.coordinate((-1, 10)), ClassLabel("c1", HomologyClass1((1, 2)))])
@example([ClassLabel.coordinate((3,)), ClassLabel.coordinate((-2,))])
@example([ClassLabel("1", HomologyClass1((1,), "t"))])
def test_render_is_the_literal_definition(components):
    alpha = LinkClass(tuple(components))
    assert alpha.render() == literal_render(alpha)


def test_cli_imports_no_dataclasses_chain():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import skeinmod.cli, skeinmod.__main__; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert (res.returncode, res.stderr, res.stdout) == (0, "", "[]\n")


def test_in_process_main_leaves_the_collector_alone():
    before = gc.get_freeze_count()
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["freeness", "--manifold", "S3"]) == 0
    assert out.getvalue() and gc.get_freeze_count() == before


def test_the_process_entry_freezes_once_then_runs_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["skeinmod", "freeness", "--manifold", "S3"])
    with redirect_stdout(io.StringIO()) as out:
        assert entry.run() == 0
    assert calls == ["freeze"]
    assert out.getvalue().startswith("manifold: S3")
