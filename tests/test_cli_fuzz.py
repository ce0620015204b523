"""Contract fuzz of cli.main: any argv and any document bytes exit with 0, 2
or 3, write at most one stderr line, and write nothing to stdout on error."""

import io
import itertools
import json
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skeinmod import builtin, cli, skein
from skeinmod.errors import DimensionError, ParseError
from skeinmod.manifold import (
    ClassLabel,
    class_from_entry,
    int_digit_limit,
    model_from_document,
    read_json,
)
from skeinmod.skein import (
    _check_class,
    alpha_from_refs,
    link_index,
    trace_evaluate,
    trace_from_document,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
# argv placeholders for the three documents each example writes
DOCS = ("@manifold", "@trace", "@alphas")

small = st.integers(-3, 3)
vec = st.lists(small, max_size=3)
class_ids = st.sampled_from(["1", "-1", "0", "2", "1,0,0", "a", "ghost", "-0", "01"])
refs = st.fixed_dictionaries(
    {"id": class_ids | st.integers(0, 2)},
    optional={"h": vec, "torsion_tag": st.sampled_from(["t", 3])},
)
manifold_docs = st.fixed_dictionaries(
    {
        "name": st.text(max_size=4),
        "h1_rank": st.integers(0, 3),
        "h2_rank": st.integers(0, 3),
        "pairing": st.lists(vec, max_size=3),
    },
    optional={
        "torus_default": st.lists(vec, max_size=2),
        "sphere_gens": st.lists(vec, max_size=2) | st.integers(),
        "torus_exceptions": st.dictionaries(class_ids, st.lists(vec, max_size=2), max_size=2),
        "torus_rule": st.sampled_from(["sweep", "spin"]),
        "classes": st.lists(refs, max_size=3),
    },
)
move_types = ["twist", "self_cross", "mixed_cross", "slide", "hop", ["twist"], {}, 3]
# JSON true, false and 1.0 read as bool and float: no integers, though equal to some
not_ints = st.booleans() | st.floats(-2, 3)
moves = st.fixed_dictionaries(
    {"type": st.sampled_from(move_types)},
    optional={
        "i": st.integers(-1, 3) | not_ints,
        "j": st.integers(0, 3) | not_ints,
        "s": st.integers(-2, 2) | not_ints,
        "t": vec,
    },
)
trace_docs = st.fixed_dictionaries(
    {"alpha": st.lists(refs, max_size=3), "moves": st.lists(moves, max_size=5)}
)
alphas_docs = st.lists(st.lists(refs, max_size=3), max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=10,
)


def documents(shaped):
    """Bytes of a near-valid document, of any JSON value, or arbitrary bytes."""
    as_json = (shaped | json_values).map(lambda d: json.dumps(d).encode("utf-8"))
    return as_json | st.binary(max_size=40)


@st.composite
def argvs(draw):
    verbs = ["index", "decompose", "reduce", "freeness", "specialize", "table"]
    verb = draw(st.sampled_from(verbs))
    manifold = draw(
        st.sampled_from(
            ["S3", "S2xS1", "T3", "lens(5,1)", "lens(0,1)", "handlebody(2)", "handlebody(-1)",
             "nosuch", str(GOLDEN_DIR / "fixture_manifold.json"), "@manifold"]
        )
    )
    module = draw(st.sampled_from(["sprime", "s", "l", "w", "zz"]))
    if verb == "index":
        alpha = draw(st.text(alphabet="[]0123456789,;-: idabgx", max_size=16))
        argv = ["--manifold", manifold, "--alpha", alpha]
    elif verb == "decompose":
        # T3 and documents (h1_rank up to 3) stay at bound 1: bound 2 is 8,000 rows
        top = 1 if manifold in ("T3", "@manifold") else 2
        bound = str(draw(st.integers(0, top)))
        argv = ["--manifold", manifold, "--bound", bound, "--module", module]
    elif verb == "reduce":
        argv = ["--manifold", manifold, "--trace", "@trace", "--module", module]
    elif verb == "freeness":
        argv = ["--manifold", manifold, "--module", module]
    elif verb == "specialize":
        element = draw(st.text(alphabet="q12^-+*[]x 03\udcff", max_size=16))
        argv = [element, "--module", draw(st.sampled_from(["s", "l", "w", "sprime"]))]
    else:
        argv = ["--manifold", manifold, "--alphas", "@alphas"]
    return [verb, *argv] + (["--json"] if draw(st.booleans()) else [])


def _call(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(
    argv=argvs(),
    manifold=documents(manifold_docs),
    trace=documents(trace_docs),
    alphas=documents(alphas_docs),
)
# (2*bound+1)^h1_rank past sys.maxsize, and h1_rank 0 with a huge bound
@example(argv=["decompose", "--manifold", "handlebody(100000000000000000000)", "--bound", "1"],
         manifold=b"", trace=b"", alphas=b"")
@example(argv=["decompose", "--manifold", "S2xS1", "--bound", "99999999999999999999"],
         manifold=b"", trace=b"", alphas=b"")
@example(argv=["decompose", "--manifold", "S3", "--bound", "99999999999999999999"],
         manifold=b"", trace=b"", alphas=b"")
# faulty rows 1 and 2 of a table
@example(argv=["table", "--manifold", "S2xS1", "--alphas", "@alphas"], manifold=b"", trace=b"",
         alphas=b'[[{"id": "1"}], [{"id": "-0"}], [{"id": "ghost"}], [{"id": "2"}]]')
# one id ref naming a rank-3 coordinate label
@example(argv=["index", "--manifold", "T3", "--alpha", "[id:1,0,-2]"], manifold=b"", trace=b"",
         alphas=b"")
# a lone surrogate escape in a document, and a command-line byte that is not UTF-8
@example(argv=["freeness", "--manifold", "@manifold"], trace=b"", alphas=b"",
         manifold=b'{"name": "X\\ud800", "h1_rank": 0, "h2_rank": 0, "pairing": []}')
@example(argv=["freeness", "--manifold", "@manifold"], trace=b"", alphas=b"",
         manifold=b'{"name": "X\\udc80", "h1_rank": 0, "h2_rank": 0, "pairing": []}')
@example(argv=["specialize", "q1 [\udcff]", "--module", "s"], manifold=b"", trace=b"", alphas=b"")
# a move type that cannot be a dict key
@example(argv=["reduce", "--manifold", "S2xS1", "--trace", "@trace"], manifold=b"", alphas=b"",
         trace=b'{"alpha": [{"id": "1"}], '
               b'"moves": [{"type": ["twist"], "i": 1, "s": 1}, {"type": {}}]}')
# a bool component index, which equals 1 but is no integer
@example(argv=["reduce", "--manifold", "S2xS1", "--trace", "@trace"], manifold=b"", alphas=b"",
         trace=b'{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": true, "s": 1}]}')
def test_cli_contract_holds_for_any_input(argv, manifold, trace, alphas):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in zip(DOCS, (manifold, trace, alphas)):
            paths[name] = str(Path(tmp) / f"{name[1:]}.json")
            Path(paths[name]).write_bytes(data)
        code, out, err = _call([paths.get(a, a) for a in argv])
    assert code in (0, 2, 3), (argv, err)
    assert len(err.splitlines()) <= 1, err
    if code:
        assert out == b"" and err.startswith("error:"), (argv, err)
    else:
        assert out.endswith(b"\n") and err == ""


# -- reduce, which tallies each move object as the decoder builds it -------------


class Obj(tuple):
    """A JSON object as its (key, value) pairs, so that a key may repeat."""


def _json_text(value, raw=False, gap=" ") -> str:
    """The JSON text of value; with raw, a string without a lone surrogate
    keeps its non-ASCII characters unescaped. gap follows each "," and ":",
    and gap without its spaces also comes before them and inside brackets."""
    pad = gap.replace(" ", "")
    if isinstance(value, Obj):
        members = (f"{_json_text(k, raw, gap)}{pad}:{gap}{_json_text(v, raw, gap)}"
                   for k, v in value)
        return "{" + pad + f"{pad},{gap}".join(members) + pad + "}"
    if isinstance(value, list):
        items = (_json_text(v, raw, gap) for v in value)
        return "[" + pad + f"{pad},{gap}".join(items) + pad + "]"
    if raw and isinstance(value, str) and not any("\ud800" <= ch <= "\udfff" for ch in value):
        return json.dumps(value, ensure_ascii=False)
    return json.dumps(value)


REDUCE_MODELS = {"S2xS1": builtin("S2xS1"), "T3": builtin("T3")}
REDUCE_IDS = {"S2xS1": ["1", "2", "-1"], "T3": ["1,0,0", "0,1,-1", "2,0,1"]}


RARELY = st.sampled_from([False] * 5 + [True])  # True about once in six


def _mostly(good, bad):
    """good about five times in six, else bad."""
    return RARELY.flatmap(lambda rare: bad if rare else good)


@st.composite
def move_objects(draw, r, h2_rank, planted=st.nothing()):
    """A move object for r components and h2_rank, mostly well formed; its
    indices may be 0, negative, past r or bools, its signs 0, 2 or bools, a
    slide vector may hold a bool or a planted object, and a key may repeat."""
    index = _mostly(st.integers(1, max(r, 1)), st.sampled_from([0, -1, r + 1, True, False]))
    sign = _mostly(st.sampled_from([1, -1]), st.sampled_from([0, 2, True]))
    kind = draw(st.sampled_from(["twist", "self_cross", "mixed_cross", "slide"]))
    pairs = [("type", kind), ("i", draw(index))]
    if kind == "mixed_cross":
        pairs.append(("j", draw(index)))
    if kind == "slide":
        entry = _mostly(st.integers(-3, 3), st.just(True) | planted)
        pairs.append(("t", draw(st.lists(entry, min_size=h2_rank, max_size=h2_rank))))
    else:
        pairs.append(("s", draw(sign)))
    if draw(RARELY):
        key = draw(st.sampled_from([k for k, _ in pairs]))
        pairs.append((key, draw(index | sign)))
    return Obj(pairs)


@st.composite
def planted_traces(draw):
    """(model name, JSON text) of a trace whose move objects may also sit in an
    alpha entry, inside a slide's t, under an unknown key or as the whole
    document, and whose top-level keys may repeat or come in any order; its
    blanks may be none, spaces, newlines or tabs."""
    name = draw(st.sampled_from(sorted(REDUCE_MODELS)))
    r = draw(st.integers(0, 3))
    h2_rank = REDUCE_MODELS[name].h2_rank
    plain = move_objects(r, h2_rank)
    # a move text may come again, so a run's distinct texts count more than once
    moves = st.lists(move_objects(r, h2_rank, plain), max_size=6).flatmap(
        lambda objs: st.just(objs) | st.lists(st.sampled_from(objs), max_size=12)
        if objs else st.just(objs)
    )
    if draw(RARELY):
        return name, _json_text(draw(plain))
    ids = REDUCE_IDS[name]
    alpha = [Obj([("id", draw(st.sampled_from(ids)))]) for _ in range(r)]
    if draw(RARELY):
        alpha.insert(draw(st.integers(0, r)), draw(plain))
    pairs = [("alpha", alpha), ("moves", draw(moves))]
    if draw(RARELY):
        pairs.append((draw(st.sampled_from(["moves", "alpha"])), draw(moves)))
    if draw(RARELY):
        pairs.append(("extra", draw(plain)))
    gap = draw(st.sampled_from([" ", "", "\n", "\t", " \r\n\t"]))
    return name, _json_text(Obj(draw(st.permutations(pairs))), gap=gap)


def _parse_then_evaluate_lines(path, M):
    """What reduce prints for the trace at path, through trace_from_document and
    trace_evaluate: (exit code, stdout lines, stderr)."""
    try:
        tr = trace_from_document(read_json(path, "trace"), M)
        raw, element = trace_evaluate(M, tr)
    except ParseError as exc:
        return 2, [], f"error:parse:{' '.join(str(exc).split())}\n"
    except DimensionError as exc:
        return 3, [], f"error:dimension:{' '.join(str(exc).split())}\n"
    reduced = next(iter(element.terms[tr.alpha].terms))
    lines = [f"manifold: {M.name}", f"alpha: {tr.alpha.render()}", "module: sprime",
             f"raw: ({raw.w1},{raw.w2})", f"reduced: ({reduced[0]},{reduced[1]})",
             f"element: {element.render(' ')}"]
    return 0, lines, ""


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(case=planted_traces())
# a move list that a later "moves" key replaces: its moves were tallied, then dropped
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1}], '
                        '"moves": []}'))
# the whole document is a move object
@example(case=("S2xS1", '{"type": "twist", "i": 1, "s": 1}'))
# moves before alpha, and an index past r that only alpha shows
@example(case=("S2xS1", '{"moves": [{"type": "twist", "i": 2, "s": 1}], "alpha": [{"id": "1"}]}'))
# moves before alpha, where a run's cut must not reach into alpha
@example(case=("S2xS1", '{"moves": [{"type": "twist", "i": 1, "s": 1}, {"type": "slide", '
                        '"i": 2, "t": [2]}], "alpha": [{"id": "1"}, {"id": "2"}]}'))
# a "}" then "," inside a string, which is no cut
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1}, '
                        '{"type": "x},{", "i": 1, "s": 1}]}'))
# a UTF-8 byte order mark, and data after the closing brace
@example(case=("S2xS1", '\ufeff{"alpha": [{"id": "1"}], "moves": []}'))
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": []} {}'))
# a slide entry of 4301 digits, past the decoder's int/str limit
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "slide", "i": 1, '
                        '"t": [1%s]}]}' % ("0" * 4300)))
# an escaped key, and a non-ASCII key
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"\\u0074ype": "twist", "i": 1, '
                        '"s": 1}]}'))
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [], "\u00e9": 1}'))
# a lone surrogate escape in an inline class's id, which alpha resolves
@example(case=("S2xS1", '{"alpha": [{"id": "\\ud800", "h": [1]}], "moves": []}'))
# "},{" and "}, {" in a move type and in an unknown key, and "},{" in a type
# that a repeated key drops, so the accepted move's text holds two braces more
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1}, '
                        '{"type": "twist}, {", "i": 1, "s": 1}, {"type": "twist", "i": 1, "s": 1}]}'))
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1}, '
                        '{"type": "twist", "i": 1, "s": 1, "},{": 1}]}'))
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1},'
                        '{"type": "x},{", "type": "twist", "i": 1, "s": 1},'
                        '{"type": "twist", "i": 1, "s": 1}]}'))
# no JSON, though its distinct texts split at "},{" join to as many accepted
# moves: the second text holds the "}, {" of the run's other separator
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "s": 1, "i": "},'
                        '{", "i": 1}, {"type": "twist", "i": 1, "s": -1},{", "i": 1}, '
                        '{"type": "twist", "i": 1, "s": -1}]}'))
# a "}" in a string that a repeated key drops, before the run's first separator
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"i": "}", "type": "twist", "i": 1, '
                        '"s": 1}, {"type": "twist", "i": 1, "s": 1}]}'))
# separators of two spellings in one run, each text twice
@example(case=("S2xS1", '{"alpha": [{"id": "1"}, {"id": "2"}], "moves": [{"type": "slide", "i": 1, '
                        '"t": [2]},{"type": "twist", "i": 2, "s": -1}, {"type": "slide", "i": 1, '
                        '"t": [2]},\n{"type": "twist", "i": 2, "s": -1}]}'))
# two equal twists parted by ",,", by nothing and by " ,": the first two are no
# JSON, though a cut at each "}" reads two twists from either
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1},,'
                        '{"type": "twist", "i": 1, "s": 1}]}'))
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1}'
                        '{"type": "twist", "i": 1, "s": 1}]}'))
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 1, "s": 1} ,'
                        '{"type": "twist", "i": 1, "s": 1}]}'))
# a run of one object, a slide and a move past r
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "slide", "i": 1, "t": [3]}]}'))
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 2, "s": 1}]}'))
# json.dumps(..., indent=2), whose texts come three and two times
@example(case=("T3", json.dumps({"alpha": [{"id": "1,0,0"}, {"id": "0,1,-1"}], "moves": [
    {"type": "slide", "i": 2, "t": [1, -2, 3]}, {"type": "mixed_cross", "i": 2, "j": 1, "s": -1},
] * 2 + [{"type": "slide", "i": 2, "t": [1, -2, 3]}]}, indent=2)))
# moves before alpha, with an index past r among them: its first move is the fault
@example(case=("S2xS1", '{"moves": [{"type": "twist", "i": 1, "s": 1}, {"type": "self_cross", '
                        '"i": 2, "s": -1}, {"type": "slide", "i": 2, "t": [1]}, {"type": "twist", '
                        '"i": 1, "s": 1}], "alpha": [{"id": "1"}]}'))
# a mixed crossing on one component, then a later index past r: the first is the fault
@example(case=("S2xS1", '{"alpha": [{"id": "1"}, {"id": "2"}], "moves": [{"type": "twist", '
                        '"i": 1, "s": 1}, {"type": "mixed_cross", "i": 2, "j": 2, "s": 1}, '
                        '{"type": "twist", "i": 3, "s": 1}]}'))
# a slide of the wrong length, then a parse fault, which comes first
@example(case=("S2xS1", '{"alpha": [{"id": "1"}], "moves": [{"type": "slide", "i": 1, '
                        '"t": [1, 2]}, {"type": "twist", "i": 1, "s": 1}, {"type": "twist", '
                        '"i": 1, "s": 2}]}'))
@pytest.mark.parametrize("block", [1, 7, 64, skein._READ_BLOCK])
def test_reduce_gives_what_parse_then_evaluate_gives(block, case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(skein, "_READ_BLOCK", block)
        path = str(Path(tmp) / "trace.json")
        Path(path).write_text(text, encoding="utf-8")
        expected = _parse_then_evaluate_lines(path, REDUCE_MODELS[name])
        code, out, err = _call(["reduce", "--manifold", name, "--trace", path])
    assert (code, out.decode().splitlines(), err) == expected, text


def test_a_decode_that_fails_only_with_the_checker_falls_back(monkeypatch, tmp_path):
    # calling the checker from the decoder adds a frame, so a document nested
    # near the recursion limit can fail with it and not without it
    def checker(h2_rank, entry):
        raise RecursionError("maximum recursion depth exceeded")

    path = tmp_path / "trace.json"
    path.write_text(json.dumps({
        "alpha": [{"id": "1"}, {"id": "2"}],
        "moves": [{"type": "twist", "i": 1, "s": 1}, {"type": "slide", "i": 2, "t": [1]}],
    }), encoding="utf-8")
    argv = ["reduce", "--manifold", "S2xS1", "--trace", str(path)]
    expected = _call(argv)
    assert expected[0] == 0
    monkeypatch.setattr(skein, "_move_token", checker)
    assert _call(argv) == expected


def _long_trace(n):
    """A well-formed S2xS1 trace of n moves on two components, all four kinds."""
    kinds = [{"type": "twist", "i": 1, "s": 1}, {"type": "slide", "i": 2, "t": [3]},
             {"type": "mixed_cross", "i": 2, "j": 1, "s": -1}, {"type": "slide", "i": 1, "t": [-1]},
             {"type": "self_cross", "i": 2, "s": -1}]
    return {"alpha": [{"id": "1"}, {"id": "2"}], "moves": [kinds[k % 5] for k in range(n)]}


@pytest.mark.parametrize(("first", "escaped", "indent"), [
    ("alpha", False, None), ("moves", False, None), ("alpha", True, None),
    ("moves", True, None), ("moves", False, 2),
], ids=["alpha", "moves", "escaped-alpha", "escaped-moves", "indented"])
def test_a_valid_trace_file_is_read_in_blocks_not_whole(monkeypatch, tmp_path, first, escaped,
                                                         indent):
    # neither the whole-text read nor its decode runs on a well-formed trace
    # of unique keys, in either order, also when \u escapes spell an alpha id
    # (as json.dump writes a non-ASCII one) and a move type, or when blanks
    # part a run's last object from its closing bracket; a reader that
    # always gave up on the blocks would pass every equality test
    calls = []
    for name in ("read_text", "decode_json"):
        def spy(*args, real=getattr(skein, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(skein, name, spy)
    doc = _long_trace(10**4)
    if escaped:
        doc["alpha"][0] = {"id": "caf\u00e9", "h": [1]}
    text = json.dumps({first: doc[first], **doc}, indent=indent)
    if escaped:
        text = text.replace('"twist"', '"\\u0074wist"')
        assert "caf\\u00e9" in text
    path = tmp_path / "trace.json"
    path.write_text(text, encoding="utf-8")
    expected = _parse_then_evaluate_lines(str(path), REDUCE_MODELS["S2xS1"])
    code, out, err = _call(["reduce", "--manifold", "S2xS1", "--trace", str(path)])
    assert (code, out.decode().splitlines(), err) == expected and expected[0] == 0
    assert calls == []
    # the spies see the whole text of a trace the reader gives up on
    path.write_text(json.dumps({**doc, "extra": 1}), encoding="utf-8")
    assert _call(["reduce", "--manifold", "S2xS1", "--trace", str(path)])[0] == 2
    assert calls == ["read_text", "decode_json"]


def _mixed_dumps(doc):
    """The JSON text of a trace whose moves are parted by ",", ", " and ",\n"
    in turn."""
    seps = itertools.cycle([",", ", ", ",\n"])
    moves = "".join(next(seps) + json.dumps(mv) for mv in doc["moves"])[1:]
    return '{"alpha": %s, "moves": [%s]}' % (json.dumps(doc["alpha"]), moves)


@pytest.mark.parametrize(("dump", "texts"), [
    (json.dumps, 5), (partial(json.dumps, separators=(",", ":")), 5),
    (partial(json.dumps, indent=2), 5), (_mixed_dumps, 15),
], ids=["default", "compact", "indent", "mixed"])
def test_a_run_decodes_each_distinct_move_text_once(monkeypatch, tmp_path, dump, texts):
    # _long_trace's 10^4 moves have 5 texts, 15 with a separator of three
    # spellings before each, so each run of objects calls check at most that
    # many times; a reader that fell back to decoding every move would pass
    # every equality test
    checks, runs = [], []

    def counted(h2_rank, entry, real=skein._move_token):
        checks.append(None)
        return real(h2_rank, entry)

    def run_end(self, real=skein._Blocks.run_end):
        runs.append(None)
        return real(self)

    monkeypatch.setattr(skein, "_move_token", counted)
    monkeypatch.setattr(skein._Blocks, "run_end", run_end)
    path = tmp_path / "trace.json"
    path.write_text(dump(_long_trace(10**4)), encoding="utf-8")
    expected = _parse_then_evaluate_lines(str(path), REDUCE_MODELS["S2xS1"])
    code, out, err = _call(["reduce", "--manifold", "S2xS1", "--trace", str(path)])
    assert (code, out.decode().splitlines(), err) == expected and expected[0] == 0
    assert 0 < len(checks) <= texts * len(runs) < 10**3, (len(checks), len(runs))


# trace texts whose top-level keys repeat, where json keeps each key's last
# value. A dropped value is a valid one, one past a read block, an alpha that
# is never resolved, or a faulty one: a move no tally takes, or a lone
# surrogate escape
_DROPPED_MOVES = [{"type": "twist", "i": 1, "s": 1}, {"type": "slide", "i": 1, "t": [4]}]
REPEATED_KEYS = {
    "moves_valid_dropped": {"moves": _DROPPED_MOVES, "alpha": [{"id": "1"}],
                            "moves!": [{"type": "slide", "i": 1, "t": [-1]}]},
    "moves_faulty_dropped": {"moves": [{"type": "twist", "i": 1, "s": 2}], "alpha": [{"id": "1"}],
                             "moves!": _DROPPED_MOVES},
    "moves_long_dropped": {"alpha": [{"id": "1"}], "moves": _DROPPED_MOVES * 3000,
                           "moves!": _DROPPED_MOVES},
    "alpha_valid_dropped": {"alpha": [{"id": "1"}], "moves": _DROPPED_MOVES,
                            "alpha!": [{"id": "2"}, {"id": "-1"}]},
    "alpha_unknown_id_dropped": {"alpha": [{"id": "ghost"}], "moves": _DROPPED_MOVES,
                                 "alpha!": [{"id": "2"}]},
    "alpha_faulty_dropped": {"alpha": [{"id": "\ud800", "h": [1]}], "moves": _DROPPED_MOVES,
                             "alpha!": [{"id": "2"}]},
    "both_dropped": {"alpha": [{"id": "1"}], "moves": [], "alpha!": [{"id": "2"}],
                     "moves!": _DROPPED_MOVES * 3000},
}


def repeated_key_text(name) -> str:
    """REPEATED_KEYS[name] as JSON text, each key's "!" taken off."""
    return json.dumps(REPEATED_KEYS[name]).replace('!"', '"')


@pytest.mark.parametrize("name", sorted(REPEATED_KEYS))
def test_a_repeated_key_keeps_its_last_value(monkeypatch, tmp_path, name):
    # a repeated moves starts a fresh tally and a repeated alpha replaces the
    # last; only a lone surrogate in a dropped value sends the text to the
    # whole-text read, which gives the same answer: a dropped faulty move is
    # tallied as a rejected one, and dropped with its tally
    calls = []

    def spy(*args, real=skein.read_text):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(skein, "read_text", spy)
    path = tmp_path / "trace.json"
    path.write_text(repeated_key_text(name), encoding="utf-8")
    expected = _parse_then_evaluate_lines(str(path), REDUCE_MODELS["S2xS1"])
    code, out, err = _call(["reduce", "--manifold", "S2xS1", "--trace", str(path)])
    assert (code, out.decode().splitlines(), err) == expected and expected[0] == 0
    assert len(calls) == (name == "alpha_faulty_dropped")


def _distinct_slides(n):
    """A well-formed S2xS1 trace of n slides on two components, no two alike."""
    moves = [{"type": "slide", "i": k % 2 + 1, "t": [k]} for k in range(n)]
    return {"alpha": [{"id": "1"}, {"id": "2"}], "moves": moves}


def _faulty_last(n):
    """_long_trace(n) whose last move names component 3 of 2."""
    doc = _long_trace(n)
    doc["moves"][-1] = {"type": "twist", "i": 3, "s": 1}
    return doc


def test_reduce_memory_does_not_follow_the_trace_length(tmp_path):
    # the reader holds one block, alpha and one slide sum per component, so
    # ten times the moves may not raise the traced peak by a megabyte; with
    # no two slides alike, only the sum after each run keeps the vectors few.
    # A faulty move is found in the same pass, so it costs no more
    for trace in (_long_trace, _distinct_slides, _faulty_last):
        peaks = []
        for n in (10**4, 10**5):
            path = tmp_path / f"{trace.__name__}{n}.json"
            path.write_text(json.dumps(trace(n)), encoding="utf-8")
            tracemalloc.start()
            try:
                code = _call(["reduce", "--manifold", "S2xS1", "--trace", str(path)])[0]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == (3 if trace is _faulty_last else 0)
        assert abs(peaks[1] - peaks[0]) < 2**20, (trace.__name__, peaks)


# -- table, which resolves each class ref as the decoder builds it ---------------

# a document model whose class table holds a non-ASCII id and a non-ASCII tag
NAMED_MODEL = {
    "name": "named", "h1_rank": 2, "h2_rank": 1, "pairing": [[1, 2]],
    "torus_default": [[1]], "sphere_gens": [[1]],
    "classes": [{"id": "c1", "h": [1, 0]}, {"id": "\u00e9", "h": [0, 3]},
                {"id": "c2", "h": [2, 1], "torsion_tag": "\u00fc"}],
}
TABLE_MODELS = {"S2xS1": None, "T3": None, "named": NAMED_MODEL}
TABLE_RANKS = {"S2xS1": 1, "T3": 3, "named": 2}
TABLE_IDS = {
    "S2xS1": ["1", "-2", "0", "-0", "ghost"],
    "T3": ["1,0,0", "0,1,-1", "1,0", "ghost"],
    "named": ["c1", "c2", "\u00e9", "1,2", "ghost"],
}
# ids and tags that are no ASCII text: a non-ASCII letter and a lone surrogate
ODD_TEXTS = ["\u00e9", "\udc80"]


@st.composite
def ref_objects(draw, name, planted=st.nothing()):
    """A class ref for model name, mostly well formed: its id may be unknown,
    no string or no ASCII, h may have the wrong length or hold a bool or a
    planted object, a torsion_tag or an unknown key may come, and a key may
    repeat."""
    rank = TABLE_RANKS[name]
    values = {
        "id": _mostly(st.sampled_from(TABLE_IDS[name]), st.sampled_from([*ODD_TEXTS, 3])),
        "h": _mostly(st.just(rank), st.integers(0, rank + 1)).flatmap(
            lambda n: st.lists(_mostly(st.integers(-3, 3), st.just(True) | planted),
                               min_size=n, max_size=n)
        ),
        "torsion_tag": st.sampled_from(["t", *ODD_TEXTS, 3]),
        "x": planted | st.just(1),
    }
    pairs = [("id", draw(values["id"]))]
    if draw(st.booleans()):
        pairs.append(("h", draw(values["h"])))
    for key in ("torsion_tag", "x"):
        if draw(RARELY):
            pairs.append((key, draw(values[key])))
    if draw(RARELY):
        key = draw(st.sampled_from([k for k, _ in pairs]))
        pairs.append((key, draw(values[key])))
    return Obj(pairs)


@st.composite
def hook_entries(draw):
    """(model name, a ref object as json hands it to the label hook): an id
    that may be no string or no ASCII, an h that may hold bools or floats or
    have the wrong length, and maybe a torsion_tag or an unknown key."""
    name = draw(st.sampled_from(sorted(TABLE_MODELS)))
    rank = TABLE_RANKS[name]
    coordinate = st.integers(-3, 3) | st.booleans() | st.floats(-2, 3)
    return name, draw(st.fixed_dictionaries(
        {"id": st.sampled_from([*TABLE_IDS[name], *ODD_TEXTS, 3])},
        optional={
            "h": st.lists(coordinate, min_size=rank - 1, max_size=rank + 1) | st.just("x"),
            "torsion_tag": st.sampled_from(["t", *ODD_TEXTS, 3]),
            "x": st.just(1),
        },
    ))


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(case=hook_entries())
# an id ref to a class-table entry whose tag, read from the model, is no ASCII
@example(case=("named", {"id": "c2"}))
@example(case=("S2xS1", {"id": "x", "h": [True]}))
@example(case=("S2xS1", {"id": "x", "h": [1], "torsion_tag": "\u00e9"}))
def test_the_label_hook_gives_the_class_from_entry_label_or_the_entry(case):
    # the hook returns class_from_entry's label exactly when it reports no
    # problem and the ref's own id and tag are ASCII, else the ref itself
    name, entry = case
    M = builtin(name) if TABLE_MODELS[name] is None else model_from_document(TABLE_MODELS[name])
    problems = []
    found = class_from_entry(entry, "", problems, M)
    got = cli._label_hook(M)(entry)
    if not problems and found.id.isascii() and (entry.get("torsion_tag") or "").isascii():
        assert type(got) is ClassLabel and got == found, entry
    else:
        assert got is entry


@st.composite
def planted_tables(draw):
    """(model name, JSON text) of an alphas file whose class refs may also sit
    inside a ref's h, under an unknown key, as a row or as the whole document."""
    name = draw(st.sampled_from(sorted(TABLE_MODELS)))
    plain = ref_objects(name)
    raw = draw(st.booleans())
    if draw(RARELY):
        return name, _json_text(draw(plain), raw)
    rows = draw(st.lists(st.lists(ref_objects(name, plain), max_size=3), max_size=4))
    if draw(RARELY):
        rows.insert(draw(st.integers(0, len(rows))), draw(plain))
    return name, _json_text(rows, raw)


def _resolve_then_index_lines(spec, path):
    """What table prints for the alphas file at path, through read_json and
    each row's alpha_from_refs, _check_class and link_index: (exit code,
    stdout lines, stderr)."""
    try:
        with int_digit_limit(0):  # as cli.main runs a verb
            M = cli.resolve_manifold(spec)
            doc = read_json(path, "alphas")
            if not isinstance(doc, list):
                raise ParseError("alphas file must hold a JSON array of class-ref arrays")
            alphas, problems = [], []
            for row, refs in enumerate(doc):
                try:
                    alphas.append(alpha_from_refs(refs, M, f"alphas[{row}]: "))
                except ParseError as exc:
                    problems.append(str(exc))
            if problems:
                raise ParseError("; ".join(problems))
            for alpha in alphas:
                for c in alpha.components:
                    _check_class(c, M.h1_rank)
            lines = [f"manifold: {M.name}"]
            for alpha in alphas:
                idx = link_index(M, alpha)
                e = idx.eps_prime
                lines.append(
                    f"alpha={alpha.render()} eps'=({e.e1},{e.e2},{e.e3}) eps={idx.eps} "
                    f"mu={idx.mu} eps2={idx.eps2} S'={idx.summand('sprime').render(' ')}"
                )
    except ParseError as exc:
        return 2, [], f"error:parse:{' '.join(str(exc).split())}\n"
    except DimensionError as exc:
        return 3, [], f"error:dimension:{' '.join(str(exc).split())}\n"
    return 0, lines, ""


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(case=planted_tables())
# a resolved ref beside a faulty one in the same row: no extra fault for the first
@example(case=("S2xS1", '[[{"id": "1"}, {"id": "ghost"}]]'))
# a lone surrogate in an inline ref's torsion_tag: the surrogate error, no row
@example(case=("S2xS1", '[[{"id": "a", "h": [1], "torsion_tag": "\\udc80"}]]'))
# a ref as a row, inside h and under an unknown key
@example(case=("T3", '[{"id": "1,0,0"}, [{"id": "a", "h": [{"id": "1,0,0"}, 1, 2]}], '
                     '[{"id": "b", "h": [1, 2, 3], "x": {"id": "0,1,-1"}}]]'))
# rows of wrong-length classes: the first in its link class's order is named
@example(case=("named", '[[{"id": "c1"}], [{"id": "z", "h": [1]}, {"id": "a", "h": [1, 2, 3]}]]'))
def test_table_gives_what_resolve_then_index_gives(case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "alphas.json")
        Path(path).write_text(text, encoding="utf-8")
        spec = name
        if TABLE_MODELS[name] is not None:
            spec = str(Path(tmp) / "manifold.json")
            Path(spec).write_text(json.dumps(TABLE_MODELS[name]), encoding="utf-8")
        expected = _resolve_then_index_lines(spec, path)
        code, out, err = _call(["table", "--manifold", spec, "--alphas", path])
    assert (code, out.decode().splitlines(), err) == expected, text


def test_a_table_decode_that_fails_only_with_the_hook_falls_back(monkeypatch, tmp_path):
    # calling the hook from the decoder adds a frame, so a document nested near
    # the recursion limit can fail with it and not without it
    def hook(M):
        def label(entry):
            raise RecursionError("maximum recursion depth exceeded")

        return label

    path = tmp_path / "alphas.json"
    path.write_text(json.dumps([[{"id": "1"}, {"id": "2"}], [], [{"id": "a", "h": [3]}]]),
                    encoding="utf-8")
    argv = ["table", "--manifold", "S2xS1", "--alphas", str(path)]
    expected = _call(argv)
    assert expected[0] == 0 and expected[1].count(b"\n") == 4
    monkeypatch.setattr(cli, "_label_hook", hook)
    assert _call(argv) == expected
