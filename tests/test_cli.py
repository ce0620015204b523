"""End-to-end command-line behavior: output strings, determinism, exit codes."""

import io
import itertools
import json
import os
import re
import selectors
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from skeinmod import builtin, cli, lattice, skein
from skeinmod.laurent import LaurentPoly2
from skeinmod.skein import LinkClass, alpha_from_refs

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "decompose_s2xs1_b2.txt"
FIXTURE_MANIFOLD = GOLDEN_DIR / "fixture_manifold.json"
FIXTURE_ALPHAS = GOLDEN_DIR / "fixture_alphas.json"

THREE_MOVE_TRACE = {
    "alpha": [{"id": "1", "h": [1]}, {"id": "2", "h": [2]}],
    "moves": [
        {"type": "twist", "i": 1, "s": 1},
        {"type": "mixed_cross", "i": 1, "j": 2, "s": 1},
        {"type": "slide", "i": 2, "t": [1]},
    ],
}


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "skeinmod", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_index_worked_example():
    res = run("index", "--manifold", "S2xS1", "--alpha", "[1,2]")
    assert res.returncode == 0
    assert "eps'=(2,1,3) eps=3 mu=1" in res.stdout
    assert "R'/(q1^4 q2^2 - 1, q1^6 - 1)" in res.stdout
    assert "S: R/(q^6 - 1)" in res.stdout
    assert "L: R/(q^2 - 1)" in res.stdout
    assert "W: R/(q^2 - 1)" in res.stdout


def test_index_free_manifold():
    res = run("index", "--manifold", "S3", "--alpha", "[id:a, id:b]")
    assert res.returncode == 0
    assert "free in all four modules" in res.stdout
    res = run("index", "--manifold", "S2xS1", "--alpha", "[1,1,1]")
    assert "eps'=(1,2,0)" in res.stdout
    assert "free in all four modules" not in res.stdout


def test_index_json_fields():
    res = run("index", "--manifold", "S2xS1", "--alpha", "[1,2]", "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["eps_prime"] == [2, 1, 3]
    assert payload["eps"] == 3 and payload["mu"] == 1 and payload["eps2"] == 1
    assert payload["summands"]["sprime"]["relations"] == ["q1^4 q2^2 - 1", "q1^6 - 1"]
    assert payload["summands"]["s"]["free"] is False
    assert payload["free_all"] is False


def test_index_gives_eps2_as_the_absolute_value_of_a_negative_e2():
    # Gamma' of [1,-1] over S2xS1 is Z(1, -1), with canonical triple (1, -1, 0)
    res = run("index", "--manifold", "S2xS1", "--alpha", "[1,-1]")
    assert res.returncode == 0
    assert "eps'=(1,-1,0) eps=0 mu=1 eps2=1" in res.stdout
    assert "L: R/(q^2 - 1)" in res.stdout
    res = run("index", "--manifold", "S2xS1", "--alpha", "[1,-1]", "--json")
    assert res.returncode == 0 and json.loads(res.stdout)["eps2"] == 1


def test_decompose_matches_golden_file():
    res = run("decompose", "--manifold", "S2xS1", "--bound", "2")
    assert res.returncode == 0
    assert res.stdout == GOLDEN.read_text(encoding="utf-8")


def test_json_output_matches_golden_files():
    # entry key order and the torsion_tag key of every alpha entry are
    # guarded only here; the other JSON tests compare field by field
    for args, golden in (
        (("decompose", "--manifold", "S2xS1", "--bound", "2"), "decompose_s2xs1_b2.json"),
        (
            ("table", "--manifold", str(FIXTURE_MANIFOLD), "--alphas", str(FIXTURE_ALPHAS)),
            "table_fixture.json",
        ),
    ):
        res = run(*args, "--json")
        assert res.returncode == 0, res.stderr
        assert res.stdout == (GOLDEN_DIR / golden).read_text(encoding="utf-8"), golden


def test_goldens_hold_when_each_kept_memo_is_full(monkeypatch, capsys):
    # at the one bound these runs keep every entry; with room for one entry,
    # every new key empties a _kept memo first
    for kept in (cli._KEPT, 1):
        monkeypatch.setattr(cli, "_KEPT", kept)
        for argv, golden in (
            (["decompose", "--manifold", "S2xS1", "--bound", "2"], GOLDEN),
            (
                ["decompose", "--manifold", "S2xS1", "--bound", "2", "--json"],
                GOLDEN_DIR / "decompose_s2xs1_b2.json",
            ),
            (
                ["table", "--manifold", str(FIXTURE_MANIFOLD), "--alphas", str(FIXTURE_ALPHAS),
                 "--json"],
                GOLDEN_DIR / "table_fixture.json",
            ),
        ):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == golden.read_text(encoding="utf-8"), (kept, golden)


def test_decompose_is_deterministic():
    a = run("decompose", "--manifold", "S2xS1", "--bound", "2")
    b = run("decompose", "--manifold", "S2xS1", "--bound", "2")
    assert a.stdout == b.stdout and a.stdout


def test_decompose_bound_zero_and_free_rows():
    res = run("decompose", "--manifold", "S2xS1", "--bound", "0")
    body = [l for l in res.stdout.splitlines() if l.startswith("alpha=")]
    assert body == ["alpha=[] eps'=(0,0,0) R' (free)"]
    res = run("decompose", "--manifold", "handlebody(1)", "--bound", "2")
    rows = [l for l in res.stdout.splitlines() if l.startswith("alpha=")]
    assert rows and all(l.endswith("R' (free)") for l in rows)
    # with h1_rank 0 the empty link is the only class, whatever the bound
    res = run("decompose", "--manifold", "S3", "--bound", "99999999999999999999")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[2:] == [
        "bound: 99999999999999999999", "alpha=[] eps'=(0,0,0) R' (free)"
    ]


def test_decompose_bound_zero_on_a_huge_genus():
    # bound 0 gives the empty link alone: no single class of length h1_rank is built
    genus = "handlebody(100000000000000000000)"
    res = run("decompose", "--manifold", genus, "--bound", "0")
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == [
        f"manifold: {genus}", "module: sprime", "bound: 0", "alpha=[] eps'=(0,0,0) R' (free)"
    ]
    res = run("decompose", "--manifold", genus, "--bound", "0", "--json")
    assert (res.returncode, res.stderr) == (0, "")
    assert json.loads(res.stdout) == {
        "manifold": genus, "module": "sprime", "bound": 0,
        "rows": [{"alpha": [], "eps_prime": [0, 0, 0], "relations": [], "free": True}],
    }


def test_decompose_prints_one_row_per_multiset_of_singles(capsys):
    # C(n + B, B) multisets of at most B of the n = (2B+1)^h1_rank single
    # classes; with h1_rank 0 there is no single, only the empty link
    cases = [("S3", b) for b in range(3)] + [("S2xS1", b) for b in range(5)]
    cases += [("T3", b) for b in range(3)] + [(str(FIXTURE_MANIFOLD), b) for b in range(3)]
    cases += [(f"handlebody({g})", b) for g in range(4) for b in range(3)]
    for name, bound in cases:
        rank = cli.resolve_manifold(name).h1_rank
        singles = (2 * bound + 1) ** rank if rank else 0
        expected = comb(singles + bound, bound)
        argv = ("decompose", "--manifold", name, "--bound", str(bound))
        text = _main_out(capsys, *argv)
        assert sum(line.startswith("alpha=") for line in text.splitlines()) == expected, argv
        assert len(json.loads(_main_out(capsys, *argv, "--json"))["rows"]) == expected, argv


def test_decompose_on_genus_39_yields_rows_at_once():
    # 3^39 single classes: no list of them may come before the first row
    ones = ["-1"] * 39
    singles = [",".join(ones), ",".join(ones[:-1] + ["0"])]
    for extra in ((), ("--json",)):
        args = cli._build_parser().parse_args(
            ["decompose", "--manifold", "handlebody(39)", "--bound", "1", *extra]
        )
        start = time.process_time()
        lines = list(itertools.islice(cli.cmd_decompose(args), 4 if extra else 6))
        assert time.process_time() - start < 1
        if extra:
            rows = [json.loads(row.rstrip(",")) for row in lines[1:]]
            ids = [[c["id"] for c in row["alpha"]] for row in rows]
            assert ids == [[], *([s] for s in singles)]
        else:
            assert lines[3:] == [f"alpha=[{s}] eps'=(0,0,0) R' (free)" for s in ("", *singles)]


def test_decompose_rows_increase_by_sort_key(capsys):
    # the singles are enumerated in ClassLabel.sort_key order without a sort
    for name, bound in (("handlebody(4)", 1), ("handlebody(3)", 2), ("T3", 1)):
        M = cli.resolve_manifold(name)
        out = _main_out(capsys, "decompose", "--manifold", name, "--bound", str(bound))
        keys = [
            LinkClass.parse(re.match(r"alpha=(\[[^\]]*\])", line).group(1), M).sort_key()
            for line in out.splitlines()[3:]
        ]
        assert len(keys) > 1 and all(a < b for a, b in zip(keys, keys[1:])), name


def test_decompose_other_modules():
    res = run("decompose", "--manifold", "S2xS1", "--bound", "1", "--module", "s")
    rows = [l for l in res.stdout.splitlines() if l.startswith("alpha=")]
    assert "alpha=[1] eps'=(1,0,0) R/(q^2 - 1)" in rows


def test_reduce_three_move_trace(tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(THREE_MOVE_TRACE), encoding="utf-8")
    res = run("reduce", "--manifold", "S2xS1", "--trace", str(trace))
    assert res.returncode == 0
    assert "raw: (5,4)" in res.stdout
    assert "reduced: (3,0)" in res.stdout
    assert "element: q1^3 [x_[1,2]]" in res.stdout
    res = run("reduce", "--manifold", "S2xS1", "--trace", str(trace), "--module", "s")
    assert "reduced: 3" in res.stdout
    assert "element: q^3 [x_[1,2]]" in res.stdout


def test_reduce_slide_only_and_empty(tmp_path):
    trace = tmp_path / "slide.json"
    trace.write_text(
        json.dumps(
            {
                "alpha": [{"id": "1", "h": [1]}],
                "moves": [{"type": "slide", "i": 1, "t": [1]}],
            }
        ),
        encoding="utf-8",
    )
    res = run("reduce", "--manifold", "S2xS1", "--trace", str(trace))
    assert "raw: (2,0)" in res.stdout
    assert "reduced: (0,0)" in res.stdout
    assert "element: 1 [x_[1]]" in res.stdout
    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps({"alpha": [{"id": "1", "h": [1]}], "moves": []}), encoding="utf-8"
    )
    res = run("reduce", "--manifold", "S2xS1", "--trace", str(empty))
    assert "raw: (0,0)" in res.stdout
    assert "element: 1 [x_[1]]" in res.stdout
    # w1 = 2 * t * h has 5999 digits, past CPython's default int/str limit
    big = "1" + "0" * 2999
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"alpha": [{"id": "a", "h": [%s]}], '
        '"moves": [{"type": "slide", "i": 1, "t": [%s]}]}' % (big, big),
        encoding="utf-8",
    )
    for module in ("sprime", "s"):
        res = run("reduce", "--manifold", "S2xS1", "--trace", str(huge), "--module", module)
        assert res.returncode == 0, res.stderr
        assert f"raw: (2{'0' * 5998},0)" in res.stdout.splitlines()
        assert "element: 1 [x_[id:a]]" in res.stdout


def test_reduce_json(tmp_path):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(THREE_MOVE_TRACE), encoding="utf-8")
    res = run("reduce", "--manifold", "S2xS1", "--trace", str(trace), "--json")
    payload = json.loads(res.stdout)
    assert payload["raw"] == [5, 4]
    assert payload["reduced"] == [3, 0]
    assert payload["element"] == "q1^3 [x_[1,2]]"


# a trace document for S2xS1 that reduce accepts, and one for each kind of fault
STDIN_TRACES = {
    "valid": json.dumps(THREE_MOVE_TRACE).encode(),
    "not_utf8": b'{"alpha": [], "moves": []}\xff',
    "not_json": b'{"alpha": [',
    "lone_surrogate": b'{"alpha": [{"id": "\\ud800"}], "moves": []}',
    "not_an_object": b'[{"type": "twist", "i": 1, "s": 1}]',
    "parse_problem": b'{"alpha": [{"id": "1"}], "moves": [{"type": "hop", "i": 1, "s": 1}]}',
    "index_past_r": b'{"alpha": [{"id": "1"}], "moves": [{"type": "twist", "i": 2, "s": 1}]}',
    "same_component": b'{"alpha": [{"id": "1"}, {"id": "2"}], '
                      b'"moves": [{"type": "mixed_cross", "i": 2, "j": 2, "s": 1}]}',
    "class_length": b'{"alpha": [{"id": "a", "h": [1, 2]}], "moves": []}',
}
# traces longer than one read block (64 KiB), two of them faulty only past the first
STDIN_TRACES["long_valid"] = json.dumps({**THREE_MOVE_TRACE,
                                         "moves": THREE_MOVE_TRACE["moves"] * 1000}).encode()
STDIN_TRACES["long_index_past_r"] = json.dumps({
    "alpha": [{"id": "1"}],
    "moves": [{"type": "twist", "i": 1, "s": 1}, {"type": "slide", "i": 1, "t": [1]}] * 1500
    + [{"type": "twist", "i": 2, "s": 1}],
}).encode()
STDIN_TRACES["long_not_utf8"] = (
    STDIN_TRACES["long_valid"][:-20] + b"\xff" + STDIN_TRACES["long_valid"][-20:]
)
# \u escapes in an alpha id (as json.dump writes "caf\u00e9") and in each move type
STDIN_TRACES["long_escaped"] = json.dumps({
    "alpha": [{"id": "caf\u00e9", "h": [1]}, {"id": "2"}],
    "moves": THREE_MOVE_TRACE["moves"] * 1000,
}).replace('"twist"', '"\\u0074wist"').encode()
# top-level keys that repeat, each "!" taken off: json keeps a key's last
# value, so these drop a moves past a read block, a faulty move and an alpha
# with a lone surrogate escape
STDIN_TRACES.update({name: json.dumps(doc).replace('!"', '"').encode() for name, doc in {
    "repeated_long_moves": {"moves": THREE_MOVE_TRACE["moves"] * 1000, **THREE_MOVE_TRACE,
                            "moves!": THREE_MOVE_TRACE["moves"][:1]},
    "repeated_faulty_moves": {"moves": [{"type": "hop"}], **THREE_MOVE_TRACE,
                              "moves!": THREE_MOVE_TRACE["moves"] * 1000},
    "repeated_faulty_alpha": {"alpha": [{"id": "\ud800", "h": [1]}],
                              "moves": THREE_MOVE_TRACE["moves"] * 1000,
                              "alpha!": THREE_MOVE_TRACE["alpha"]},
}.items()})


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("name", STDIN_TRACES)
def test_reduce_reads_stdin_as_it_reads_a_file(tmp_path, name):
    # the file is opened once: a pipe is read into memory, and the whole text
    # of a trace the block reader gives up on is read again from offset 0
    data = STDIN_TRACES[name]
    path = tmp_path / "trace.json"
    path.write_bytes(data)
    argv = [sys.executable, "-m", "skeinmod", "reduce", "--manifold", "S2xS1", "--trace"]
    from_file = subprocess.run([*argv, str(path)], capture_output=True, timeout=120)
    from_stdin = subprocess.run([*argv, "/dev/stdin"], input=data, capture_output=True,
                                timeout=120)
    expected_code = {"valid": 0, "index_past_r": 3, "class_length": 3, "long_valid": 0,
                     "long_index_past_r": 3, "long_escaped": 0, "repeated_long_moves": 0,
                     "repeated_faulty_moves": 0, "repeated_faulty_alpha": 0}.get(name, 2)
    assert from_file.returncode == expected_code, from_file.stderr
    assert len(from_file.stderr.splitlines()) == (expected_code != 0)
    assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (
        from_file.returncode,
        from_file.stdout,
        from_file.stderr.replace(str(path).encode(), b"/dev/stdin"),
    )
    if name.startswith("repeated_"):
        # json keeps each key's last value: the document it reads prints the same
        path.write_text(json.dumps(json.loads(data)), encoding="utf-8")
        assert subprocess.run([*argv, str(path)], capture_output=True, timeout=120).stdout == (
            from_file.stdout
        )


def test_a_whole_text_read_leaves_no_unclosed_file(tmp_path):
    # read_text wraps the open file to decode it and must not leave the
    # wrapper to the garbage collector, which -X dev reports as an unclosed
    # file beside the one error line; so would the temporary file a piped
    # trace is copied to
    trace = tmp_path / "trace.json"
    trace.write_bytes(STDIN_TRACES["index_past_r"])
    alphas = tmp_path / "alphas.json"
    alphas.write_text('[[{"id": "ghost"}]]', encoding="utf-8")
    for verb, flag, path, data in (
        ("reduce", "--trace", trace, None),
        ("table", "--alphas", alphas, None),
        ("reduce", "--trace", "/dev/stdin", STDIN_TRACES["index_past_r"].decode()),
    ):
        res = subprocess.run([sys.executable, "-X", "dev", "-m", "skeinmod", verb, "--manifold",
                              "S2xS1", flag, str(path)], input=data, capture_output=True,
                             text=True, timeout=120)
        assert res.returncode in (2, 3) and len(res.stderr.splitlines()) == 1, res.stderr


def test_freeness_reports(tmp_path):
    res = run("freeness", "--manifold", "S2xS1", "--module", "s")
    assert res.returncode == 0
    assert "NOT free; witness torus [1] pairs 1 with class [1]" in res.stdout
    res = run("freeness", "--manifold", "T3", "--module", "w")
    assert "free (no sphere classes)" in res.stdout
    res = run("freeness", "--manifold", "T3", "--module", "s")
    assert "NOT free; witness torus" in res.stdout
    res = run("freeness", "--manifold", "S3", "--module", "sprime")
    assert "free (no torus classes)" in res.stdout
    # an exception list with no generators is still no torus class
    empty_exc = tmp_path / "empty_exc.json"
    empty_exc.write_text(
        json.dumps(
            {"name": "X", "h1_rank": 1, "h2_rank": 1, "pairing": [[1]],
             "torus_exceptions": {"a": []}}
        ),
        encoding="utf-8",
    )
    res = run("freeness", "--manifold", str(empty_exc), "--module", "s")
    assert res.stdout.splitlines()[-1] == "free (no torus classes)"
    res = run("freeness", "--manifold", "S2xS1", "--module", "w", "--json")
    payload = json.loads(res.stdout)
    assert payload["free"] is False
    assert payload["witness"] == {"generator": [1], "class": [1], "pairing": 1}


def test_specialize_examples():
    res = run("specialize", "q1^3 q2^1 [x]", "--module", "s")
    assert res.returncode == 0
    assert res.stdout == "q^4 [x]\n"
    res = run("specialize", "q1^3 q2^1 [x]", "--module", "l")
    assert res.stdout == "q [x]\n"
    res = run("specialize", "q1^4 q2^2 - 1", "--module", "w")
    assert res.stdout == "q^4 - 1\n"
    res = run("specialize", "q1^3 q2^1", "--module", "s", "--json")
    assert json.loads(res.stdout)["result"] == "q^4"


def test_specialize_carrier_is_one_trailing_bracket_group():
    for element in ("q1 [x] + q2 [y]", "q1 [x", "q1 [x] q2"):
        res = run("specialize", element, "--module", "s")
        assert (res.returncode, res.stdout) == (2, ""), element
        assert res.stderr.startswith("error:parse:") and len(res.stderr.splitlines()) == 1
    res = run("specialize", "q1^2 q2 [x_[1,2]]", "--module", "s")
    assert (res.returncode, res.stdout, res.stderr) == (0, "q^3 [x_[1,2]]\n", "")


def test_table(tmp_path):
    alphas = tmp_path / "alphas.json"
    alphas.write_text(
        json.dumps(
            [
                [{"id": "1", "h": [1]}, {"id": "2", "h": [2]}],
                [{"id": "k", "h": [3]}],
            ]
        ),
        encoding="utf-8",
    )
    res = run("table", "--manifold", "S2xS1", "--alphas", str(alphas))
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "alpha=[1,2] eps'=(2,1,3) eps=3 mu=1 eps2=1 S'=R'/(q1^4 q2^2 - 1, q1^6 - 1)" in lines
    assert "alpha=[id:k] eps'=(3,0,0) eps=3 mu=3 eps2=0 S'=R'/(q1^6 - 1)" in lines


def _main_out(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_class_refs_agree_across_verbs(tmp_path, capsys):
    # every decompose row: its text alpha is the render of its JSON alpha,
    # the bracket reader gives that class back, and table agrees on eps'
    for name, bound in (("S2xS1", 2), ("T3", 1)):
        M = builtin(name)
        args = ("decompose", "--manifold", name, "--bound", str(bound))
        text_rows = [l for l in _main_out(capsys, *args).splitlines() if l.startswith("alpha=")]
        rows = json.loads(_main_out(capsys, *args, "--json"))["rows"]
        assert len(rows) == len(text_rows)
        for row, line in zip(rows, text_rows):
            alpha = alpha_from_refs(row["alpha"], M)
            assert line.startswith(f"alpha={alpha.render()} ")
            assert LinkClass.parse(alpha.render(), M) == alpha
        alphas = tmp_path / f"{name}.json"
        alphas.write_text(json.dumps([row["alpha"] for row in rows]), encoding="utf-8")
        table = json.loads(_main_out(capsys, "table", "--manifold", name, "--alphas", str(alphas),
                                     "--json"))["rows"]
        assert [t["eps_prime"] for t in table] == [row["eps_prime"] for row in rows]
    # on S2xS1 the coordinate label "1" needs no class-table entry
    index = _main_out(capsys, "index", "--manifold", "S2xS1", "--alpha", "[1]")
    assert _main_out(capsys, "index", "--manifold", "S2xS1", "--alpha", "[id:1]") == index
    # one id ref naming a rank-3 coordinate label keeps its commas
    t3 = _main_out(capsys, "index", "--manifold", "T3", "--alpha", "[1,0,-2]")
    assert _main_out(capsys, "index", "--manifold", "T3", "--alpha", "[id:1,0,-2]") == t3
    T3 = builtin("T3")
    assert LinkClass.parse("[id:1,0,-2]", T3) == LinkClass.parse("[1,0,-2]", T3)
    outputs = []  # table and reduce, text and JSON, for an inline and a bare ref
    for ref in ({"id": "1", "h": [1]}, {"id": "1"}):
        alphas = tmp_path / "one.json"
        alphas.write_text(json.dumps([[ref]]), encoding="utf-8")
        trace = tmp_path / "one_trace.json"
        trace.write_text(
            json.dumps({"alpha": [ref], "moves": [{"type": "twist", "i": 1, "s": 1}]}),
            encoding="utf-8",
        )
        outputs.append([
            _main_out(capsys, "table", "--manifold", "S2xS1", "--alphas", str(alphas), *flag)
            for flag in ((), ("--json",))
        ] + [
            _main_out(capsys, "reduce", "--manifold", "S2xS1", "--trace", str(trace), *flag)
            for flag in ((), ("--json",))
        ])
    assert outputs[0] == outputs[1]
    table_text, _, reduce_text, _ = outputs[1]
    assert table_text.splitlines()[1].startswith(f"alpha=[1] {index.splitlines()[2]} ")
    assert "alpha: [1]" in reduce_text.splitlines()


def test_gamma_prime_is_built_once_per_link_class(tmp_path, monkeypatch, capsys):
    # table and index build Gamma' once per link class, decompose once per
    # distinct generator set its walk meets (its memo is not filled here, not
    # even by T3's 1,746 sets). Each build canonicalizes once
    calls, canonicalized = [], []
    real = skein.gamma_prime
    real_canonicalize = lattice.ExponentLattice._canonicalize

    def counting(M, alpha, *args, **kwargs):
        calls.append(alpha)
        return real(M, alpha, *args, **kwargs)

    def counting_canonicalize(self):
        canonicalized.append(self)
        return real_canonicalize(self)

    monkeypatch.setattr(skein, "gamma_prime", counting)
    monkeypatch.setattr(lattice.ExponentLattice, "_canonicalize", counting_canonicalize)
    refs = [[{"id": "1", "h": [1]}, {"id": "2", "h": [2]}], [{"id": "k", "h": [3]}], []]
    alphas = tmp_path / "alphas.json"
    alphas.write_text(json.dumps(refs), encoding="utf-8")
    for argv, builds, rows in (
        (["table", "--manifold", "S2xS1", "--alphas", str(alphas)], len(refs), len(refs)),
        (["index", "--manifold", "S2xS1", "--alpha", "[1,2]"], 1, 1),
        # fewer builds than rows: row [0,0] has row [0]'s data, a_t = g_t =
        # t.H = mu = 0
        (["decompose", "--manifold", "S2xS1", "--bound", "2"], 20, 21),
        (["decompose", "--manifold", "T3", "--bound", "2"], 1746, 8001),
    ):
        calls.clear()
        canonicalized.clear()
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] != "index":
            assert sum(line.startswith("alpha=") for line in out.splitlines()) == rows, argv
        assert len(calls) == builds, argv
        assert len(canonicalized) == builds, argv


def test_table_renders_the_sprime_relations_once_per_canonical_triple(
    tmp_path, monkeypatch, capsys
):
    # the torus generator pairs with the first coordinate and the sphere
    # generator with the second, so rows that differ in the second share
    # Gamma' and eps' but not mu: six link indices over three triples
    model = {"name": "split", "h1_rank": 2, "h2_rank": 2, "pairing": [[1, 0], [0, 1]],
             "torus_default": [[1, 0]], "sphere_gens": [[0, 1]]}
    manifold = tmp_path / "split.json"
    manifold.write_text(json.dumps(model), encoding="utf-8")
    pair = [[{"id": "a", "h": [1, m]}, {"id": "b", "h": [2, 3 * m]}] for m in (1, 2)]
    refs = [[{"id": "a", "h": [1, m]}] for m in (2, 3, 4)] + pair + [[]]
    alphas = tmp_path / "alphas.json"
    alphas.write_text(json.dumps(refs), encoding="utf-8")
    renders = []
    real = LaurentPoly2.render

    def counting(self, *args):
        renders.append(self)
        return real(self, *args)

    monkeypatch.setattr(LaurentPoly2, "render", counting)
    argv = ["table", "--manifold", str(manifold), "--alphas", str(alphas)]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len({row.split(" S'=")[0].split(" ", 1)[1] for row in rows}) == 6
    assert {re.search(r"eps'=\S+", row)[0] for row in rows} == {
        "eps'=(1,0,0)", "eps'=(2,1,3)", "eps'=(0,0,0)"
    }
    # one relation for (1,0,0), two for (2,1,3) and none for the free row
    assert len(renders) == 3
    renders.clear()
    assert cli.main(argv + ["--json"]) == 0
    assert [row["mu"] for row in json.loads(capsys.readouterr().out)["rows"]] == [2, 3, 4, 1, 2, 0]
    assert len(renders) == 3


def test_manifold_document_input(tmp_path):
    doc = {
        "name": "custom",
        "h1_rank": 1,
        "h2_rank": 1,
        "pairing": [[2]],
        "torus_default": [[1]],
        "sphere_gens": [[1]],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    res = run("index", "--manifold", str(path), "--alpha", "[1]")
    assert res.returncode == 0
    assert "eps'=(2,0,0)" in res.stdout


def test_parse_errors_exit_2(tmp_path):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "caf\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    huge = tmp_path / "huge.json"
    huge.write_text('[[{"id": "1", "h": [' + "7" * 5000 + "]}]]", encoding="utf-8")
    # ids that read as coordinates but are not the canonical coordinate label
    odd_refs = [{"id": cid} for cid in ("01", "+1", " 1", "-0", "1,2")]
    odd_ids = tmp_path / "odd_ids.json"
    odd_ids.write_text(json.dumps([odd_refs]), encoding="utf-8")
    odd_trace = tmp_path / "odd_trace.json"
    odd_trace.write_text(json.dumps({"alpha": odd_refs, "moves": []}), encoding="utf-8")
    surrogate = tmp_path / "surrogate.json"
    surrogate.write_text(
        '{"name": "X\\ud800", "h1_rank": 0, "h2_rank": 0, "pairing": []}', encoding="utf-8"
    )
    low_surrogate = tmp_path / "low_surrogate.json"
    low_surrogate.write_text('[[{"id": "\\udc80"}]]', encoding="utf-8")
    unhashable = tmp_path / "unhashable.json"
    unhashable.write_text(
        json.dumps({"alpha": [{"id": "1"}], "moves": [{"type": ["twist"], "i": 1, "s": 1}]}),
        encoding="utf-8",
    )
    # rows 1 and 2 are faulty; both are reported, each under its row
    rows = tmp_path / "rows.json"
    rows.write_text(
        json.dumps([[{"id": "1"}], [{"id": "-0"}], [{"id": "ghost"}, 5], [{"id": "2"}]]),
        encoding="utf-8",
    )
    unknown_ids = [
        ("index", "--manifold", "S2xS1", "--alpha", "[id:01]"),
        ("index", "--manifold", "S2xS1", "--alpha", "[id:-0]"),
        ("index", "--manifold", "T3", "--alpha", "[id:1,0]"),
        ("table", "--manifold", "S2xS1", "--alphas", str(odd_ids)),
        ("reduce", "--manifold", "S2xS1", "--trace", str(odd_trace)),
    ]
    cases = [
        ("index", "--manifold", "S2xS1", "--alpha", "oops"),
        ("index", "--manifold", "nosuchfile.json", "--alpha", "[1]"),
        ("index", "--manifold", "lens(0,1)", "--alpha", "[]"),
        ("reduce", "--manifold", "S2xS1", "--trace", "missing.json"),
        ("specialize", "wat + ", "--module", "s"),
        ("decompose", "--manifold", "S2xS1", "--bound", "-1"),
        ("index", "--manifold", "S2xS1", "--alpha", "[id:ghost]"),
        ("index", "--manifold", str(not_utf8), "--alpha", "[]"),
        ("reduce", "--manifold", "S2xS1", "--trace", str(not_utf8)),
        ("table", "--manifold", "S2xS1", "--alphas", str(not_utf8)),
        ("table", "--manifold", "S2xS1", "--alphas", str(deep)),
        ("table", "--manifold", "S2xS1", "--alphas", str(huge)),
        ("freeness", "--manifold", str(surrogate)),
        ("table", "--manifold", "S2xS1", "--alphas", str(low_surrogate)),
        ("reduce", "--manifold", "S2xS1", "--trace", str(unhashable)),
        # (2*bound+1)^h1_rank single classes past sys.maxsize
        ("decompose", "--manifold", "handlebody(100000000000000000000)", "--bound", "1"),
        ("decompose", "--manifold", "S2xS1", "--bound", "99999999999999999999"),
        *unknown_ids,
    ]
    for args in cases:
        res = run(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("error:parse:"), res.stderr
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1
        if args in unknown_ids or "[id:ghost]" in args:
            assert "unknown class id" in res.stderr, args
        if str(odd_ids) in args or str(odd_trace) in args:
            for pos, ref in enumerate(odd_refs):
                assert f"alpha[{pos}]: unknown class id {ref['id']!r}" in res.stderr
    res = run("table", "--manifold", "S2xS1", "--alphas", str(rows))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == (
        "error:parse:alphas[1]: alpha[0]: unknown class id '-0' (not in the model's class "
        "table); alphas[2]: alpha[0]: unknown class id 'ghost' (not in the model's class "
        "table); alphas[2]: alpha[1] must be an object\n"
    )
    res = run("index", "--manifold", "T3", "--alpha", "[id:a, 1,0,0]")
    assert res.stderr == (
        "error:parse:unknown class id 'a, 1,0,0' (not in the model's class table)\n"
    )


def test_command_line_bytes_are_echoed_unchanged():
    # \xff is not UTF-8; it reaches Python as a surrogate escape and must come
    # back as the same byte under a strict UTF-8 stdout and the POSIX locale
    argv = [sys.executable, "-m", "skeinmod", "specialize", b"q1 [\xff]", "--module", "s"]
    for env in ({"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}):
        res = subprocess.run(argv, capture_output=True, env={**os.environ, **env})
        assert (res.returncode, res.stdout, res.stderr) == (0, b"q [\xff]\n", b""), env


def test_unencodable_text_is_escaped(tmp_path):
    # characters stdout's encoding cannot hold are written as backslash escapes
    doc = tmp_path / "cafe.json"
    doc.write_text(
        json.dumps({"name": "caf\u00e9", "h1_rank": 1, "h2_rank": 1, "pairing": [[1]],
                    "torus_default": [[1]]}),
        encoding="utf-8",
    )
    alphas = tmp_path / "alphas.json"
    alphas.write_text(json.dumps([[{"id": "\u00e9", "h": [1]}]]), encoding="utf-8")
    cases = (
        (["specialize", "q1 [\u00e9]", "--module", "s"], b"q [\\xe9]\n"),
        (["index", "--manifold", str(doc), "--alpha", "[]"], b"manifold: caf\\xe9\n"),
        (
            ["table", "--manifold", "S2xS1", "--alphas", str(alphas)],
            b"manifold: S2xS1\nalpha=[id:\\xe9] eps'=(1,0,0) eps=1 mu=1 eps2=0 "
            b"S'=R'/(q1^2 - 1)\n",
        ),
    )
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    for argv, want in cases:
        res = subprocess.run(
            [sys.executable, "-m", "skeinmod", *argv], capture_output=True, env=env, timeout=120
        )
        assert (res.returncode, res.stderr) == (0, b""), argv
        assert res.stdout.startswith(want), argv


def test_json_rows_are_written_as_json_dumps_writes_them(tmp_path, capsys):
    # the rows are formatted one at a time; the document must not show it
    for args in (
        ("S3", "3"),
        ("S2xS1", "0"),
        ("lens(5,1)", "2"),
        ("T3", "1", "--module", "l"),
        ("S2xS1", "2", "--module", "w"),
    ):
        out = _main_out(capsys, "decompose", "--manifold", args[0], "--bound", *args[1:], "--json")
        assert out == json.dumps(json.loads(out), indent=2) + "\n", args
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    out = _main_out(capsys, "table", "--manifold", "S2xS1", "--alphas", str(empty), "--json")
    assert out == json.dumps({"manifold": "S2xS1", "rows": []}, indent=2) + "\n"


def test_decompose_streams_its_rows():
    # about 10^8 rows: the first lines arrive in time only if rows are
    # written while the enumeration runs
    argv = [sys.executable, "-m", "skeinmod", "decompose", "--manifold", "handlebody(6)",
            "--bound", "2"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = b""
    try:
        deadline = time.monotonic() + 120
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while out.count(b"\n") < 10 and sel.select(deadline - time.monotonic()):
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.split(b"\n")
    assert len(lines) > 10
    assert lines[:5] == [
        b"manifold: handlebody(6)", b"module: sprime", b"bound: 2",
        b"alpha=[] eps'=(0,0,0) R' (free)", b"alpha=[-2,-2,-2,-2,-2,-2] eps'=(0,0,0) R' (free)",
    ]


def test_the_first_line_is_out_before_the_second_is_made(monkeypatch):
    # the reader sees the first line while the second is still being built;
    # the rest still goes out in blocks, and the bytes are the lines joined
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", out)
    seen = []

    def lines():
        yield "manifold: S2xS1"
        seen.append(out.buffer.getvalue())
        yield from (f"row {k}" for k in range(20000))

    cli._write_lines(lines())
    out.flush()
    assert seen == [b"manifold: S2xS1\n"]
    expected = "\n".join(["manifold: S2xS1"] + [f"row {k}" for k in range(20000)]) + "\n"
    assert out.buffer.getvalue() == expected.encode()


def test_closed_stdout_exits_141_with_nothing_on_stderr():
    # the reader takes two lines and closes the pipe, as `| head -2` does;
    # about 1 MB of rows is still to come
    argv = [sys.executable, "-m", "skeinmod", "decompose", "--manifold", "S2xS1", "--bound", "6"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert lines == [b"manifold: S2xS1\n", b"module: sprime\n"]
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_write_exits_74_with_one_error_line():
    for args in (
        ("index", "--manifold", "S2xS1", "--alpha", "[1,2]"),
        ("decompose", "--manifold", "S2xS1", "--bound", "6"),
    ):
        with open("/dev/full", "w") as full:
            res = subprocess.run([sys.executable, "-m", "skeinmod", *args], stdout=full,
                                 stderr=subprocess.PIPE, text=True, timeout=120)
        assert res.returncode == 74, args
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:io:cannot write stdout: "), args


def test_running_out_of_memory_exits_71_with_one_error_line(monkeypatch, capsys):
    # a MemoryError inside a verb is one error line with EX_OSERR, no traceback
    def cmd_table(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_table", cmd_table)
    code = cli.main(["table", "--manifold", "S2xS1", "--alphas", "alphas.json"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (71, "", "error:resource:out of memory\n")


def test_the_stdout_error_handler_reraises_what_is_no_encode_error():
    # only an encode error has a character to escape; a decode error that
    # names the handler is raised again as it is
    with pytest.raises(UnicodeDecodeError):
        b"\xff".decode("ascii", cli._STDOUT_ERRORS)


def test_values_past_the_digit_limit_print_while_streaming(tmp_path):
    # t P h = 10^6000 for h = [1]: 6001 digits, formatted as rows are written
    big = "1" + "0" * 3000
    doc = tmp_path / "huge.json"
    doc.write_text(
        '{"name": "huge", "h1_rank": 1, "h2_rank": 1, "pairing": [[%s]], '
        '"torus_default": [[%s]]}' % (big, big),
        encoding="utf-8",
    )
    alphas = tmp_path / "alphas.json"
    alphas.write_text('[[{"id": "1"}]]', encoding="utf-8")
    value = "1" + "0" * 6000
    for args in (
        ("decompose", "--manifold", str(doc), "--bound", "1"),
        ("decompose", "--manifold", str(doc), "--bound", "1", "--json"),
        ("table", "--manifold", str(doc), "--alphas", str(alphas)),
        ("table", "--manifold", str(doc), "--alphas", str(alphas), "--json"),
        ("index", "--manifold", str(doc), "--alpha", "[1]"),
    ):
        res = run(*args)
        assert (res.returncode, res.stderr) == (0, ""), args
        assert re.search(rf"[^0-9]{value}[^0-9]", res.stdout), args
        if "--json" not in args:
            assert f"eps'=({value},0,0)" in res.stdout, args


def test_dimension_errors_exit_3(tmp_path):
    bad_trace = tmp_path / "bad.json"
    bad_trace.write_text(
        json.dumps(
            {"alpha": [{"id": "1", "h": [1]}], "moves": [{"type": "twist", "i": 9, "s": 1}]}
        ),
        encoding="utf-8",
    )
    res = run("reduce", "--manifold", "S2xS1", "--trace", str(bad_trace))
    assert res.returncode == 3
    assert res.stderr.startswith("error:dimension:")
    slide_trace = tmp_path / "slide.json"
    slide_trace.write_text(
        json.dumps(
            {
                "alpha": [{"id": "1", "h": [1]}],
                "moves": [{"type": "slide", "i": 1, "t": [1, 0]}],
            }
        ),
        encoding="utf-8",
    )
    res = run("reduce", "--manifold", "S2xS1", "--trace", str(slide_trace))
    assert res.returncode == 3
    assert res.stderr.startswith("error:dimension:")
    res = run("index", "--manifold", "T3", "--alpha", "[1,0]")
    assert res.returncode == 3
    assert res.stderr.startswith("error:dimension:")


def test_command_line_integers_are_ascii_digits(capsys):
    # int() and re's \d also read "_" separators and non-ASCII digits such
    # as the Arabic-Indic one, U+0661
    for argv in (
        ("index", "--manifold", "S2xS1", "--alpha", "[1_0]"),
        ("index", "--manifold", "S2xS1", "--alpha", "[\u0661]"),
        ("index", "--manifold", "T3", "--alpha", "[1,\u0660,0]"),
        ("specialize", "q1^\u0662 q2", "--module", "s"),
        ("specialize", "\u0663 q1 [x]", "--module", "l"),
        ("decompose", "--manifold", "S2xS1", "--bound", "1_0"),
        ("decompose", "--manifold", "S2xS1", "--bound", "\u0661"),
    ):
        assert cli.main(list(argv)) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, argv
        assert re.match(r"error:(parse|usage):", err), argv
    # the ASCII forms int() reads stay accepted: a sign, spaces, leading zeros
    one = _main_out(capsys, "index", "--manifold", "S2xS1", "--alpha", "[1]")
    rows = _main_out(capsys, "decompose", "--manifold", "S2xS1", "--bound", "1")
    for text in ("+1", " 1", "01"):
        assert _main_out(capsys, "index", "--manifold", "S2xS1", "--alpha", f"[{text}]") == one
        assert _main_out(capsys, "decompose", "--manifold", "S2xS1", "--bound", text) == rows
    assert _main_out(capsys, "specialize", "q1^02 q2", "--module", "s") == "q^3\n"


def test_table_rows_reusing_a_table_id_print_what_index_prints(tmp_path, capsys):
    # the record of the class-table entry "beta" is kept on the model; inline
    # refs that reuse its id, with another h or a torsion tag, get their own
    base = json.loads(FIXTURE_MANIFOLD.read_text(encoding="utf-8"))
    refs = [
        {"id": "beta"}, {"id": "beta", "h": [3, -1]}, {"id": "beta"},
        {"id": "beta", "h": [1, 0], "torsion_tag": "z"}, {"id": "beta", "h": [1, 0]},
        {"id": "beta"},
    ]
    rows = [[ref] for ref in refs] + [[{"id": "gamma"}, ref] for ref in refs]
    alphas = tmp_path / "alphas.json"
    alphas.write_text(json.dumps(rows), encoding="utf-8")
    table = _main_out(capsys, "table", "--manifold", str(FIXTURE_MANIFOLD),
                      "--alphas", str(alphas)).splitlines()
    assert len(table) == 1 + len(rows)
    for row, line in zip(rows, table[1:]):
        # index reads each ref as the entry of a class table that holds it
        doc = dict(base, classes=[
            next((ref for ref in row if ref["id"] == entry["id"] and "h" in ref), entry)
            for entry in base["classes"]
        ])
        manifold = tmp_path / "row_manifold.json"
        manifold.write_text(json.dumps(doc), encoding="utf-8")
        spec = "[" + ", ".join(f"id:{ref['id']}" for ref in row) + "]"
        index = _main_out(capsys, "index", "--manifold", str(manifold), "--alpha", spec)
        _, alpha, indices, sprime, *_ = index.splitlines()
        sprime = sprime.removeprefix("S': ")
        assert line == f"alpha={alpha.removeprefix('alpha: ')} {indices} S'={sprime}", row


def test_the_label_hook_shares_one_label_per_coordinate_id(tmp_path, capsys):
    # a ref that is only an id is looked up once while the hook's memo holds it
    label = cli._label_hook(builtin("S2xS1"))
    first = label({"id": "1"})
    assert label({"id": "1"}) is first and first.h.free == (1,)
    # ids that name no class come back as the object, and table names them
    ghost = {"id": "ghost"}
    assert label(ghost) is ghost and label({"id": "1,0"}) == {"id": "1,0"}
    alphas = tmp_path / "alphas.json"
    alphas.write_text('[[{"id": "1"}], [{"id": "1"}, {"id": "ghost"}, {"id": "1,0"}]]',
                      encoding="utf-8")
    assert cli.main(["table", "--manifold", "S2xS1", "--alphas", str(alphas)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error:parse:alphas[1]: alpha[1]: unknown class id 'ghost' (not in the model's class "
        "table); alphas[1]: alpha[2]: unknown class id '1,0' (not in the model's class table)\n"
    )


def test_a_bool_in_an_inline_h_is_named_by_table(tmp_path, capsys):
    # true equals 1 but is no integer: the hook keeps the ref, and table names it
    alphas = tmp_path / "alphas.json"
    alphas.write_text('[[{"id": "x", "h": [true]}]]', encoding="utf-8")
    assert cli.main(["table", "--manifold", "S2xS1", "--alphas", str(alphas)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error:parse:alphas[0]: alpha[0].h must be an array of integers\n"


def test_usage_errors_exit_2():
    for args in (
        ("bogusverb",),
        ("index", "--manifold", "S2xS1"),
        ("decompose", "--manifold", "S2xS1", "--bound", "2", "--module", "zz"),
        (),
    ):
        res = run(*args)
        assert res.returncode == 2, args
        assert res.stderr.startswith("error:usage:"), res.stderr


def test_error_lines_are_single_line_even_for_aggregates(tmp_path):
    doc = {"name": 7, "h1_rank": -1, "h2_rank": 0, "pairing": [], "mystery": 1}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    res = run("index", "--manifold", str(path), "--alpha", "[]")
    assert res.returncode == 2
    assert res.stderr.startswith("error:parse:")
    assert len(res.stderr.strip().splitlines()) == 1


def test_empty_builtin_parameters_are_parse_errors():
    for argv in (
        ("index", "--manifold", "lens(5,,1)", "--alpha", "[]"),
        ("freeness", "--manifold", "handlebody(2,)"),
    ):
        res = run(*argv)
        assert res.returncode == 2, argv
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error:parse:"), argv
    for manifold in ("S3()", "lens( 5 , 1 )"):
        assert run("index", "--manifold", manifold, "--alpha", "[]").returncode == 0, manifold


def test_freeness_json_carries_the_reason(tmp_path):
    no_homology, vanishing = tmp_path / "no_homology.json", tmp_path / "vanishing.json"
    for path, h1_rank, pairing in ((no_homology, 0, [[]]), (vanishing, 1, [[0]])):
        doc = {"name": "X", "h1_rank": h1_rank, "h2_rank": 1, "pairing": pairing,
               "torus_default": [[1]]}
        path.write_text(json.dumps(doc), encoding="utf-8")
    cases = (
        ("S3", "free (no torus classes)", "no torus classes"),
        (str(no_homology), "free (no homology to pair against)", "no homology to pair against"),
        (str(vanishing), "free (all torus pairings vanish)", "all torus pairings vanish"),
        ("S2xS1", "NOT free; witness torus [1] pairs 1 with class [1]", None),
    )
    for manifold, text, reason in cases:
        assert run("freeness", "--manifold", manifold).stdout.splitlines()[-1] == text
        payload = json.loads(run("freeness", "--manifold", manifold, "--json").stdout)
        assert payload["free"] is (reason is not None)
        assert payload.get("reason") == reason
        assert ("witness" in payload) is (reason is None)


def test_freeness_skips_zero_generators_on_a_huge_h1(tmp_path, capsys):
    # a zero generator pairs to 0 with every class, so no h1_rank-long
    # covector is built for it
    doc = {"name": "x", "h1_rank": 10**15, "h2_rank": 0, "pairing": [],
           "torus_default": [[]], "sphere_gens": [[]]}
    path = tmp_path / "zero_h2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for module, kind in (("sprime", "torus"), ("s", "torus"), ("l", "torus"), ("w", "sphere")):
        start = time.process_time()
        out = _main_out(capsys, "freeness", "--manifold", str(path), "--module", module)
        assert time.process_time() - start < 1.0, module
        assert out.splitlines()[-1] == f"free (all {kind} pairings vanish)", module
