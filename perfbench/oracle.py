"""Output checks that share no arithmetic with skeinmod.

The exponent lattice of a link class is rebuilt here from its definition
(torus pairings of each component against itself and against the rest),
with pairings computed as covector dot products. A printed triple is
accepted when it is in canonical form and generates the same subgroup of
Z^2, judged by invariant profiles (rank, gcd of entries, gcd of 2x2
minors): nested lattices with equal profiles are equal. Every check
rebuilds the expected bytes of a line or document and compares them to
the program's output, so a change to any character is caught.
"""

from __future__ import annotations

import json
import re
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from gen import component_key, id_collation


class CheckError(Exception):
    pass


class Model:
    """The parts of a manifold document the checks need."""

    def __init__(self, doc: dict):
        self.name = doc["name"]
        self.h1 = doc["h1_rank"]
        self.pairing = doc["pairing"]
        self.default = [tuple(t) for t in doc.get("torus_default", [])]
        self.exceptions = {
            cid: [tuple(t) for t in ts] for cid, ts in doc.get("torus_exceptions", {}).items()
        }
        self.sweep = doc.get("torus_rule") == "sweep"
        self.spheres = [tuple(s) for s in doc.get("sphere_gens", [])]
        self.classes = {c["id"]: tuple(c["h"]) for c in doc.get("classes", [])}
        self._cov: dict = {}

    def covector(self, t):
        """t^T P as a tuple of h1 entries."""
        c = self._cov.get(t)
        if c is None:
            c = tuple(
                sum(t[i] * self.pairing[i][j] for i in range(len(t))) for j in range(self.h1)
            )
            self._cov[t] = c
        return c

    def torus(self, cid, h):
        if cid in self.exceptions:
            return self.exceptions[cid]
        if self.sweep:
            # h x e_k for the three axes
            x, y, z = h
            return [(0, z, -y), (-z, 0, x), (y, -x, 0)]
        return self.default


BUILTINS = {
    "S2xS1": {
        "name": "S2xS1", "h1_rank": 1, "h2_rank": 1, "pairing": [[1]],
        "torus_default": [[1]], "sphere_gens": [[1]],
    },
    "T3": {
        "name": "T3", "h1_rank": 3, "h2_rank": 3,
        "pairing": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "torus_rule": "sweep",
    },
    "handlebody(2)": {"name": "handlebody(2)", "h1_rank": 2, "h2_rank": 0, "pairing": []},
}


def _dot(c, h):
    return sum(a * b for a, b in zip(c, h))


def gamma_gens(M: Model, comps) -> list:
    """Generators (t.h_i, t.(H - h_i)) of the exponent lattice; comps are (id, h)."""
    total = [sum(col) for col in zip(*(h for _, h in comps))] if comps else []
    gens = []
    for cid, h in comps:
        for t in M.torus(cid, h):
            c = M.covector(t)
            a = _dot(c, h)
            gens.append((a, _dot(c, total) - a))
    return gens


def profile(rows):
    """(rank, gcd of entries, gcd of 2x2 minors) of a two-column matrix."""
    d1 = 0
    for a, b in rows:
        d1 = gcd(d1, a, b)
    d2 = 0
    for (a, b), (c, d) in combinations(rows, 2):
        d2 = gcd(d2, a * d - b * c)
        if d2 == 1:
            break
    return (2 if d2 else 1 if d1 else 0, d1, d2)


def is_canonical(e1, e2, e3) -> bool:
    if e3 > 0:
        return e2 > 0 and 0 <= e1 < e3
    if e3 < 0:
        return False
    if e2 == 0:
        return e1 >= 0
    return e1 > 0 or (e1 == 0 and e2 > 0)


def check_triple(gens, triple):
    e1, e2, e3 = triple
    if not is_canonical(e1, e2, e3):
        raise CheckError(f"triple {triple} is not in canonical form")
    basis = [(e1, e2), (e3, 0)]
    p = profile(gens)
    if profile(basis) != p or profile(gens + basis) != p:
        raise CheckError(f"triple {triple} does not generate the lattice of {gens[:4]}...")


def indices(M: Model, comps, gens):
    """(eps, mu, eps2) from gcds over the raw generators and sphere pairings."""
    eps = 0
    eps2 = 0
    for a, b in gens:
        eps = gcd(eps, a + b)
        eps2 = gcd(eps2, b)
    mu = 0
    for _, h in comps:
        for s in M.spheres:
            mu = gcd(mu, _dot(M.covector(s), h))
    return eps, mu, eps2


# -- rendering, from the README's output grammar -------------------------------


def monomial(exps, names) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e != 0]
    return " ".join(factors) if factors else "1"


def binomial(exps, names) -> str:
    """The relation q^exps - 1, highest exponent first."""
    mono = monomial(exps, names)
    return f"{mono} - 1" if tuple(exps) > (0,) * len(exps) else f"-1 + {mono}"


def relations(tag, triple, eps, mu) -> list:
    """The relation polynomials of a summand; none when it is free."""
    if tag == "sprime":
        e1, e2, e3 = triple
        rels = []
        if (e1, e2) != (0, 0):
            rels.append(binomial((2 * e1, 2 * e2), ("q1", "q2")))
        if e3:
            rels.append(binomial((2 * e3, 0), ("q1", "q2")))
        return rels
    pe = {"s": eps, "l": abs(triple[1]), "w": mu}[tag]
    return [binomial((2 * pe,), ("q",))] if pe else []


def summand_text(tag, triple, eps, mu) -> str:
    ring = "R'" if tag == "sprime" else "R"
    rels = relations(tag, triple, eps, mu)
    return f"{ring}/({', '.join(rels)})" if rels else f"{ring} (free)"


def alpha_text(comps) -> str:
    parts = []
    vectors_only = True
    for cid, h in comps:
        coord = ",".join(str(x) for x in h)
        if cid == coord:
            parts.append(coord)
        else:
            parts.append(f"id:{cid}")
            vectors_only = False
    if parts and vectors_only and all(len(h) == 1 for _, h in comps):
        return "[" + ",".join(parts) + "]"
    return "[" + "; ".join(parts) + "]"


def alpha_json(comps) -> list:
    return [{"id": cid, "h": list(h)} for cid, h in comps]


def _lines(data: bytes) -> list:
    text = data.decode("ascii")
    if not text.endswith("\n"):
        raise CheckError("output does not end with a newline")
    return text[:-1].split("\n")


def _expect(lines, pos, want):
    if pos >= len(lines) or lines[pos] != want:
        got = lines[pos] if pos < len(lines) else "<end of output>"
        raise CheckError(f"line {pos + 1}: expected {want!r}, got {got!r}")


_TRIPLE = re.compile(r"eps'=\((-?\d+),(-?\d+),(-?\d+)\)")


def _printed_triple(line: str):
    m = _TRIPLE.search(line)
    if m is None:
        raise CheckError(f"no eps' triple in {line!r}")
    return tuple(int(g) for g in m.groups())


# -- decompose -----------------------------------------------------------------


def enumerate_classes(h1: int, bound: int):
    singles = sorted(
        ((",".join(str(x) for x in v), v) for v in product(range(-bound, bound + 1), repeat=h1))
        if h1
        else (),
        key=lambda c: id_collation(c[0]),
    )
    yield []
    for size in range(1, bound + 1):
        for combo in combinations_with_replacement(singles, size):
            yield list(combo)


def check_decompose(data: bytes, manifold: str, bound: int, tag: str, as_json: bool):
    """Check a whole decompose output, every row in enumeration order."""
    M = Model(BUILTINS[manifold])
    rows = []
    for comps in enumerate_classes(M.h1, bound):
        rows.append((comps, gamma_gens(M, comps)))
    if as_json:
        doc = json.loads(data)
        got = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(got, list) or len(got) != len(rows):
            raise CheckError("JSON rows missing or of the wrong count")
        out_rows = []
        for (comps, gens), row in zip(rows, got):
            triple = tuple(row["eps_prime"]) if isinstance(row, dict) else None
            if triple is None or len(triple) != 3:
                raise CheckError(f"bad JSON row {row!r}")
            check_triple(gens, triple)
            eps, mu, _ = indices(M, comps, gens)
            rels = relations(tag, triple, eps, mu)
            out_rows.append(
                {"alpha": alpha_json(comps), "eps_prime": list(triple),
                 "relations": rels, "free": not rels}
            )
        want = {"manifold": M.name, "module": tag, "bound": bound, "rows": out_rows}
        if data != (json.dumps(want, indent=2) + "\n").encode("ascii"):
            raise CheckError("JSON document differs from the expected bytes")
        return
    lines = _lines(data)
    for pos, head in enumerate((f"manifold: {M.name}", f"module: {tag}", f"bound: {bound}")):
        _expect(lines, pos, head)
    if len(lines) != 3 + len(rows):
        raise CheckError(f"{len(lines) - 3} rows, expected {len(rows)}")
    for pos, (comps, gens) in enumerate(rows, start=3):
        triple = _printed_triple(lines[pos])
        check_triple(gens, triple)
        eps, mu, _ = indices(M, comps, gens)
        e1, e2, e3 = triple
        _expect(
            lines, pos,
            f"alpha={alpha_text(comps)} eps'=({e1},{e2},{e3}) "
            f"{summand_text(tag, triple, eps, mu)}",
        )


# -- table ---------------------------------------------------------------------


def resolve(M: Model, refs) -> list:
    """Class refs as (id, h) components in the CLI's order."""
    comps = [(r["id"], tuple(r["h"]) if "h" in r else M.classes[r["id"]]) for r in refs]
    return sorted(comps, key=lambda c: component_key(*c))


def check_table(data: bytes, model_doc: dict, alphas: list):
    M = Model(model_doc)
    lines = _lines(data)
    _expect(lines, 0, f"manifold: {M.name}")
    if len(lines) != 1 + len(alphas):
        raise CheckError(f"{len(lines) - 1} rows, expected {len(alphas)}")
    for pos, refs in enumerate(alphas, start=1):
        comps = resolve(M, refs)
        gens = gamma_gens(M, comps)
        triple = _printed_triple(lines[pos])
        check_triple(gens, triple)
        eps, mu, eps2 = indices(M, comps, gens)
        e1, e2, e3 = triple
        _expect(
            lines, pos,
            f"alpha={alpha_text(comps)} eps'=({e1},{e2},{e3}) eps={eps} mu={mu} eps2={eps2} "
            f"S'={summand_text('sprime', triple, eps, mu)}",
        )


# -- reduce --------------------------------------------------------------------


def writhe(M: Model, comps, moves):
    """The raw writhe pair, summed move by move from the README's semantics."""
    total = [sum(col) for col in zip(*(h for _, h in comps))]
    w1 = w2 = 0
    for mv in moves:
        kind = mv["type"]
        if kind == "twist":
            w1 += mv["s"]
        elif kind == "self_cross":
            w1 += 2 * mv["s"]
        elif kind == "mixed_cross":
            w2 += 2 * mv["s"]
        else:
            c = M.covector(tuple(mv["t"]))
            own = _dot(c, comps[mv["i"] - 1][1])
            w1 += 2 * own
            w2 += 2 * (_dot(c, total) - own)
    return w1, w2


def check_reduce(data: bytes, M: Model, comps, raw, tag: str, as_json: bool, sprime=None):
    """Check one reduce output; returns the reduced exponent it printed.

    A one-variable module reduces the two-variable normal form, so its
    check takes the already-checked sprime pair; the sprime output is read
    as text.
    """
    w1, w2 = raw
    gens = [(2 * a, 2 * b) for a, b in gamma_gens(M, comps)]
    if tag == "sprime":
        m = re.search(r"^reduced: \((-?\d+),(-?\d+)\)$", data.decode("ascii"), re.M)
        if m is None:
            raise CheckError("no reduced pair in output")
        r1, r2 = reduced = (int(m.group(1)), int(m.group(2)))
        p = profile(gens)
        if profile(gens + [(w1 - r1, w2 - r2)]) != p:
            raise CheckError(f"raw {raw} minus reduced {reduced} is not in 2*Gamma'")
        # the doubled lattice's second-coordinate generator, and its Z x {0} part
        g2 = 0
        for _, b in gens:
            g2 = gcd(g2, b)
        g3 = p[2] // g2 if g2 else p[1]
        if (g2 and not 0 <= r2 < g2) or (g3 and not 0 <= r1 < g3):
            raise CheckError(f"reduced {reduced} is not the canonical coset representative")
        reduced_text = f"({r1},{r2})"
        element = monomial(reduced, ("q1", "q2"))
    else:
        eps, mu, eps2 = indices(M, comps, gamma_gens(M, comps))
        pe = {"s": eps, "l": eps2, "w": mu}[tag]
        r = {"s": sprime[0] + sprime[1], "l": sprime[1], "w": sprime[0]}[tag]
        reduced = r % (2 * pe) if pe else r
        reduced_text = str(reduced)
        element = monomial((reduced,), ("q",))
    atext = alpha_text(comps)
    element = f"{element} [x_{atext}]"
    if as_json:
        want = {
            "manifold": M.name, "alpha": alpha_json(comps), "module": tag,
            "raw": [w1, w2], "reduced": list(reduced) if tag == "sprime" else reduced,
            "element": element,
        }
        expected = json.dumps(want, indent=2) + "\n"
    else:
        expected = (
            f"manifold: {M.name}\nalpha: {atext}\nmodule: {tag}\nraw: ({w1},{w2})\n"
            f"reduced: {reduced_text}\nelement: {element}\n"
        )
    if data != expected.encode("ascii"):
        raise CheckError("reduce output differs from the expected bytes")
    return reduced
