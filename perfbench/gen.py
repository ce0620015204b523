"""Seeded input documents for the table and reduce workloads.

Everything here is a pure function of the seed: the same seed gives the
same bytes. The generated manifold has h1 = h2 = 3, a random nonsingular
pairing with entries in [-3, 3], two default torus generators, exception
lists on 16 of 64 named classes and one sphere generator.
"""

from __future__ import annotations

import json
import random

TABLE_CLASSES = 5000
TRACE_MOVES = 100_000
TRACE_COMPONENTS = 5
NAMED_CLASSES = 64
EXCEPTION_CLASSES = 16
SMALL = 10**4
BIG = 10**40


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"skeinmod-perfbench-{kind}-{seed}")


def _vec(rng, lo, hi, n=3):
    return [rng.randint(lo, hi) for _ in range(n)]


def _gen(rng):
    # no zero entries, so every generator costs the same to pair
    return [rng.choice((-2, -1, 1, 2)) for _ in range(3)]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def manifold_doc(rng: random.Random, name: str) -> dict:
    """A model whose cost per link class hardly depends on the seed.

    The pairing is nonsingular and the exception lists have fixed lengths
    (16 lists, 40 generators in all), so seeds differ in values, not in
    the amount of work.
    """
    pairing = [_vec(rng, -3, 3) for _ in range(3)]
    while _det3(pairing) == 0:
        pairing = [_vec(rng, -3, 3) for _ in range(3)]
    classes = [{"id": f"c{k}", "h": _vec(rng, -SMALL, SMALL)} for k in range(NAMED_CLASSES)]
    lengths = [1, 2, 3, 4] * (EXCEPTION_CLASSES // 4)
    rng.shuffle(lengths)
    keys = sorted(rng.sample(range(NAMED_CLASSES), EXCEPTION_CLASSES))
    exceptions = {f"c{k}": [_gen(rng) for _ in range(n)] for k, n in zip(keys, lengths)}
    return {
        "name": name,
        "h1_rank": 3,
        "h2_rank": 3,
        "pairing": pairing,
        "torus_default": [_gen(rng) for _ in range(2)],
        "torus_exceptions": exceptions,
        "sphere_gens": [_gen(rng)],
        "classes": classes,
    }


def id_collation(cid: str):
    """The CLI's component order: numeric ids first, numerically, then the rest."""
    try:
        return (0, tuple(int(p) for p in cid.split(",")))
    except ValueError:
        return (1, (cid,))


def component_key(cid: str, h) -> tuple:
    """The CLI's order of the components of a link class."""
    return (id_collation(cid), tuple(h))


def _inline(rng, lo, hi) -> dict:
    h = _vec(rng, lo, hi)
    return {"id": ",".join(str(x) for x in h), "h": h}


def _big_inline(rng) -> dict:
    h = [rng.choice((-1, 1)) * rng.randrange(BIG // 10, BIG * 10) for _ in range(3)]
    return {"id": ",".join(str(x) for x in h), "h": h}


def table_alphas(rng: random.Random) -> list:
    """Link classes of 1-6 components; every 50th has coordinates near 10**40."""
    out = []
    for n in range(TABLE_CLASSES):
        size = rng.randint(1, 6)
        if n % 50 == 49:
            out.append([_big_inline(rng) for _ in range(size)])
            continue
        refs = []
        for _ in range(size):
            if rng.random() < 0.5:
                refs.append({"id": f"c{rng.randrange(NAMED_CLASSES)}"})
            else:
                refs.append(_inline(rng, -SMALL, SMALL))
        out.append(refs)
    return out


def trace_doc(rng: random.Random, classes: dict) -> dict:
    """A 5-component class and 10**5 moves, a quarter of each kind.

    Components are written in the CLI's sorted order, so the 1-based move
    indices name the same component in the document and in the program.
    """
    refs = [{"id": f"c{k}"} for k in rng.sample(range(NAMED_CLASSES), 2)]
    refs += [_inline(rng, -SMALL, SMALL) for _ in range(TRACE_COMPONENTS - 2)]
    refs.sort(key=lambda r: component_key(r["id"], r["h"] if "h" in r else classes[r["id"]]))
    kinds = ["twist", "self_cross", "mixed_cross", "slide"] * (TRACE_MOVES // 4)
    rng.shuffle(kinds)
    moves = []
    for kind in kinds:
        i = rng.randint(1, TRACE_COMPONENTS)
        if kind == "slide":
            moves.append({"type": kind, "i": i, "t": _vec(rng, -50, 50)})
        elif kind == "mixed_cross":
            j = rng.choice([k for k in range(1, TRACE_COMPONENTS + 1) if k != i])
            moves.append({"type": kind, "i": i, "j": j, "s": rng.choice((-1, 1))})
        else:
            moves.append({"type": kind, "i": i, "s": rng.choice((-1, 1))})
    return {"alpha": refs, "moves": moves}


def encode(doc) -> bytes:
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("ascii")


def generate(workload: str, seed: int) -> dict[str, bytes]:
    """The input files of one workload, by file name."""
    if workload not in ("table", "reduce"):
        return {}
    rng = _rng(workload, seed)
    model = manifold_doc(rng, f"gen-{workload}-{seed}")
    if workload == "table":
        second = ("table-alphas.json", table_alphas(rng))
    else:
        classes = {c["id"]: c["h"] for c in model["classes"]}
        second = ("reduce-trace.json", trace_doc(rng, classes))
    return {f"{workload}-manifold.json": encode(model), second[0]: encode(second[1])}
