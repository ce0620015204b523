"""Digests of what index, freeness, specialize and reduce print.

A seeded generator (not Hypothesis, so the cases are the same on every run)
makes 30 manifold documents of rank <= 3: the default torus path, the sweep
rule, exception lists, torsion tags, models whose sphere pairings all vanish
(mu = 0) and link classes with e2 < 0. It pairs them with the builtins, with
faulty documents, link classes and traces, and with element texts for
specialize. Each case is one command line in text and in --json form, and
golden/verb_digests.json holds the sha256 of its (stdout, stderr, exit code).

The digests were written once from these cases, by verb_digests() run in a
directory that holds the corpus files. A change that means to alter some
output updates those entries alone and names them in CHANGES.md; the file is
never regenerated whole to make a change pass.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from skeinmod import DimensionError, ParseError, cli, link_index
from skeinmod.manifold import model_from_document
from skeinmod.skein import LinkClass

DIGESTS = Path(__file__).parent / "golden" / "verb_digests.json"
SRC = Path(__file__).parent.parent / "src"

SEED = 14
MODULES = ("sprime", "s", "l", "w")
BUILTINS = ("S3", "S2xS1", "T3", "lens(5,2)", "handlebody(2)")
# model k is of kind KINDS[k % 6], so a third are plain default-path models
KINDS = ("default", "sweep", "exceptions", "torsion", "no_sphere", "default")


def _vec(rng, n, span=2):
    return [rng.randint(-span, span) for _ in range(n)]


def _coordinate_id(h):
    return ",".join(map(str, h))


def _document(rng, k):
    """The k-th generated model: its kind picks the torus path and whether it
    has sphere classes, torsion tags or exception lists."""
    kind = KINDS[k % len(KINDS)]
    h1, h2 = (3, 3) if kind == "sweep" else (rng.randint(0, 3), rng.randint(0, 3))
    doc = {
        "name": f"m{k:02d}",
        "h1_rank": h1,
        "h2_rank": h2,
        "pairing": [_vec(rng, h1) for _ in range(h2)],
        "torus_default": [_vec(rng, h2) for _ in range(rng.randint(0, 2))],
    }
    if kind == "sweep":
        doc["torus_rule"] = "sweep"
    if kind != "no_sphere":
        doc["sphere_gens"] = [_vec(rng, h2) for _ in range(rng.randint(1, 2))]
    classes = [{"id": cid, "h": _vec(rng, h1)} for cid in "abc"[: rng.randint(1, 3)]]
    if kind == "torsion":
        for entry in classes[::2]:
            entry["torsion_tag"] = f"Z/{rng.randint(2, 5)}"
    doc["classes"] = classes
    if kind in ("exceptions", "sweep") and h2:
        keyed = [classes[0]["id"], _coordinate_id(_vec(rng, h1, 1))]
        doc["torus_exceptions"] = {
            cid: [_vec(rng, h2) for _ in range(rng.randint(0, 2))] for cid in keyed
        }
    if k % 5 == 0:
        doc["boundary_note"] = f"note {k}"
    return doc


def _alphas(rng, doc):
    """--alpha texts over a generated model: the empty link, coordinate
    classes, id refs, and a component of the wrong length."""
    h1, ids = doc["h1_rank"], [entry["id"] for entry in doc["classes"]]
    coords = [_coordinate_id(_vec(rng, h1)) for _ in range(3)]
    # for h1_rank <= 1 a comma also separates components
    sep = "," if h1 <= 1 else "; "
    return [
        "[]",
        f"[{coords[0]}]",
        f"[{sep.join(coords)}]",
        f"[id:{ids[0]}; {coords[1]}]",
        f"[{sep.join(f'id:{cid}' for cid in ids)}]",
        f"[{_coordinate_id(_vec(rng, h1 + 1))}]",
        "[id:ghost]",
    ]


def _moves(rng, size, h2, count):
    moves = []
    for _ in range(count):
        kind = rng.choice(("twist", "self_cross", "mixed_cross", "slide"))
        i = rng.randint(1, size)
        if kind == "mixed_cross" and size >= 2:
            j = rng.choice([c for c in range(1, size + 1) if c != i])
            moves.append({"type": kind, "i": i, "j": j, "s": rng.choice((1, -1))})
        elif kind == "slide":
            moves.append({"type": kind, "i": i, "t": _vec(rng, h2)})
        else:
            moves.append({"type": rng.choice(("twist", "self_cross")), "i": i,
                          "s": rng.choice((1, -1))})
    return moves


def _traces(rng, doc):
    """(name, trace document) pairs over a generated model: one valid trace,
    then a component out of range, a slide vector of the wrong length and a
    malformed move."""
    h1, h2, ids = doc["h1_rank"], doc["h2_rank"], [entry["id"] for entry in doc["classes"]]
    alpha = [{"id": ids[0]}, {"id": "x", "h": _vec(rng, h1)}, {"id": _coordinate_id(_vec(rng, h1))}]
    moves = _moves(rng, len(alpha), h2, 8)
    return [
        ("trace", {"alpha": alpha, "moves": moves}),
        ("out_of_range", {"alpha": alpha, "moves": moves + [{"type": "twist", "i": 4, "s": 1}]}),
        ("short_slide", {"alpha": alpha, "moves": [{"type": "slide", "i": 1, "t": _vec(rng, h2 + 1)}]}),
        ("bad_move", {"alpha": alpha, "moves": [{"type": "hop", "i": 1, "s": 1},
                                                 {"type": "twist", "i": 1, "s": 2}]}),
    ]


def _elements(rng):
    """Element texts for specialize: generated polynomials with and without a
    carrier, then faulty ones."""
    texts = []
    for k in range(10):
        terms = []
        for _ in range(rng.randint(1, 4)):
            coeff = rng.choice(("", "2 ", "-3 ", "7*"))
            factors = [f"q{v}^{rng.randint(-4, 4)}" for v in (1, 2) if rng.random() < 0.7]
            terms.append(coeff + (" ".join(factors) or "1"))
        carrier = ("", " [x]", " [x_[1,2]]", " [id:a; 1,0]")[k % 4]
        texts.append(" + ".join(terms) + carrier)
    return texts + ["0", "q1 [x] + q2 [y]", "q1 [x", "q1 x", "q1^ [x]", "3 q1 2 q1 [z]"]


FAULTY_MODELS = {
    "bad_field.json": {"name": "f", "h1_rank": 0, "h2_rank": 0, "pairing": [], "genus": 1},
    "bad_row.json": {"name": "f", "h1_rank": 2, "h2_rank": 1, "pairing": [[1]]},
    "bad_sweep.json": {"name": "f", "h1_rank": 2, "h2_rank": 2, "pairing": [[1, 0], [0, 1]],
                       "torus_rule": "sweep"},
}


def corpus():
    """(files, cases): the documents to write, by name, and each case's argv.
    Each valid model (generated or builtin) gets its alphas for index, its
    traces for reduce and every module for freeness; the faulty models, a
    missing file, a file that is no JSON and a bad builtin get freeness,
    index and reduce once each."""
    rng = random.Random(SEED)
    files = {}
    cases = []

    def both(*argv):
        # an h1_rank 0 model may give one alpha text twice
        if list(argv) not in cases:
            cases.append(list(argv))
            cases.append([*argv, "--json"])

    models = []
    for k in range(30):
        doc = _document(rng, k)
        files[f"m{k:02d}.json"] = doc
        models.append((f"m{k:02d}.json", doc))
    for name in BUILTINS:
        # a builtin has no class table; its origin's coordinate id names a class
        M = cli.resolve_manifold(name)
        origin = {"id": _coordinate_id([0] * M.h1_rank) or "a", "h": [0] * M.h1_rank}
        models.append((name, {"h1_rank": M.h1_rank, "h2_rank": M.h2_rank, "classes": [origin]}))
    for spec, doc in models:
        for module in MODULES:
            both("freeness", "--manifold", spec, "--module", module)
        for alpha in _alphas(rng, doc):
            both("index", "--manifold", spec, "--alpha", alpha)
        stem = spec.removesuffix(".json").replace("(", "_").replace(",", "_").rstrip(")")
        for name, trace in _traces(rng, doc):
            path = f"{stem}_{name}.json"
            files[path] = trace
            for module in MODULES if name == "trace" else ("sprime",):
                both("reduce", "--manifold", spec, "--trace", path, "--module", module)
    files.update(FAULTY_MODELS)
    files["not_json.json"] = '{"name": '
    for spec in (*FAULTY_MODELS, "not_json.json", "missing.json", "lens(0,1)", "T3(1)"):
        both("freeness", "--manifold", spec)
        both("index", "--manifold", spec, "--alpha", "[]")
        both("reduce", "--manifold", spec, "--trace", "S2xS1_trace.json")
    both("reduce", "--manifold", "S2xS1", "--trace", "missing.json")
    for text in _elements(rng):
        for module in ("s", "l", "w"):
            both("specialize", text, "--module", module)
    return files, cases


def write_files(files, where: Path):
    for name, doc in files.items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (where / name).write_text(text, encoding="utf-8")


def run(argv):
    """(stdout bytes, stderr, exit code) of cli.main(argv), run in process."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    return out.buffer.getvalue(), err.getvalue(), code


def digest(out: bytes, err: str, code: int) -> str:
    return hashlib.sha256(repr((out, err, code)).encode("utf-8")).hexdigest()


def case_name(argv) -> str:
    return " ".join(argv)


def verb_digests() -> dict:
    """Each case's name and digest, in corpus order, from cli.main run in
    process in the current directory, where the corpus files are."""
    return {case_name(argv): digest(*run(argv)) for argv in corpus()[1]}


def test_verb_digests_hold(tmp_path, monkeypatch):
    # the documents are read by relative name, so no message holds tmp_path
    files, cases = corpus()
    write_files(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert list(pinned) == [case_name(argv) for argv in cases]
    codes = Counter()
    for argv in cases:
        out, err, code = run(argv)
        assert digest(out, err, code) == pinned[case_name(argv)], (
            f"first differing case: {case_name(argv)}"
        )
        codes[code] += 1
    # every exit a verb can give on these inputs, each on many cases
    assert set(codes) == {0, 2, 3} and min(codes.values()) >= 50, codes


def test_the_corpus_covers_what_it_is_for():
    files, cases = corpus()
    generated = {f"m{k:02d}.json": files[f"m{k:02d}.json"] for k in range(30)}
    docs = list(generated.values())
    assert max(max(d["h1_rank"], d["h2_rank"]) for d in docs) == 3
    assert sum("torus_rule" in d for d in docs) == 5
    assert sum("torus_exceptions" in d for d in docs) >= 8
    assert sum(any("torsion_tag" in c for c in d["classes"]) for d in docs) == 5
    assert Counter(argv[0] for argv in cases) == {
        "freeness": 294, "index": 492, "reduce": 506, "specialize": 96,
    }
    # mu = 0 and e2 < 0 both come up among the index cases
    indices = []
    for argv in cases:
        if argv[0] != "index" or argv[-1] == "--json" or argv[2] not in generated:
            continue
        M = model_from_document(generated[argv[2]])
        try:
            indices.append(link_index(M, LinkClass.parse(argv[4], M)))
        except (DimensionError, ParseError):
            pass
    assert sum(idx.mu == 0 for idx in indices) >= 10
    assert sum(idx.eps_prime[1] < 0 for idx in indices) >= 3


def test_a_few_cases_print_the_same_under_two_hash_seeds(tmp_path):
    files, _ = corpus()
    write_files(files, tmp_path)
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    picked = [
        ["index", "--manifold", "m01.json", "--alpha", "[id:a; 1,0,0]", "--json"],
        ["index", "--manifold", "T3", "--alpha", "[0,-1,0; -1,1,-1; 1,-1,-2]"],
        ["index", "--manifold", "m01.json", "--alpha", "[id:ghost]"],
        ["freeness", "--manifold", "m02.json", "--module", "sprime", "--json"],
        ["reduce", "--manifold", "m04.json", "--trace", "m04_trace.json", "--module", "l"],
        ["specialize", "0", "--module", "w", "--json"],
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in picked:
        assert case_name(argv) in pinned, argv
        for seed in ("0", "1"):
            res = subprocess.run(
                [sys.executable, "-m", "skeinmod", *argv], cwd=tmp_path, capture_output=True,
                env={**env, "PYTHONHASHSEED": seed}, timeout=60,
            )
            got = digest(res.stdout, res.stderr.decode("utf-8"), res.returncode)
            assert got == pinned[case_name(argv)], (seed, argv)
