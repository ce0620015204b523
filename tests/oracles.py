"""Independent oracles used by the test suite.

Membership in a subgroup of Z^2 is decided here by two methods, neither of
which shares any code with the package's Euclidean canonicalization:

* invariant-factor comparison: v lies in the row lattice of G iff stacking
  v onto G changes neither the rank, nor the gcd of the entries, nor the
  gcd of the 2x2 minors (nested lattices with equal invariant factors are
  equal);
* literal enumeration of integer combinations with bounded coefficients,
  for small generator sets, done meet-in-the-middle.

Gamma' and mu of a link class are rebuilt here from a model's raw data with
the literal sums sum_i sum_j t_i P_ij h_j, without the package's covectors.

How a class id collates, and how a link class renders, are kept here as
they were first written, before their fast paths.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

__all__ = [
    "invariant_profile",
    "member_by_invariants",
    "member_by_enumeration",
    "combination_span",
    "literal_pairing",
    "literal_gamma_mu",
    "sweep_wedges",
    "literal_id_collation",
    "literal_render",
]


def invariant_profile(rows):
    """(rank, gcd of entries, gcd of 2x2 minors) for a matrix with 2 columns."""
    d1 = 0
    for a, b in rows:
        d1 = gcd(d1, gcd(a, b))
    d2 = 0
    for (a, b), (c, d) in combinations(rows, 2):
        d2 = gcd(d2, abs(a * d - b * c))
    rank = 2 if d2 else (1 if d1 else 0)
    return (rank, d1, d2)


def member_by_invariants(gens, v) -> bool:
    rows = [tuple(g) for g in gens]
    return invariant_profile(rows + [tuple(v)]) == invariant_profile(rows)


def combination_span(gens, bound):
    """All integer combinations of gens with coefficients in [-bound, bound]."""
    pts = {(0, 0)}
    for gx, gy in gens:
        pts = {
            (x + c * gx, y + c * gy)
            for (x, y) in pts
            for c in range(-bound, bound + 1)
        }
    return pts


def member_by_enumeration(gens, v, bound=50) -> bool:
    gens = [tuple(g) for g in gens]
    half, rest = gens[: len(gens) // 2], gens[len(gens) // 2 :]
    left = combination_span(half, bound)
    right = combination_span(rest, bound)
    vx, vy = v
    return any((vx - x, vy - y) in right for (x, y) in left)


def literal_pairing(P, t, h) -> int:
    """sum_i sum_j t_i P_ij h_j, written out."""
    return sum(t[i] * P[i][j] * h[j] for i in range(len(t)) for j in range(len(h)))


def torus_vectors(M, cid, h):
    # the exception list keyed by the class id, else the sweep wedges h ^ e_k
    # in the (e2^e3, e3^e1, e1^e2) basis, else the default list
    for key, gens in M.torus_exceptions:
        if key == cid:
            return [g.vec for g in gens]
    if M.torus_rule == "sweep":
        return sweep_wedges(h)
    return [g.vec for g in M.torus_default]


def sweep_wedges(h):
    """The wedges h ^ e_k, k = 1, 2, 3, in the (e2^e3, e3^e1, e1^e2) basis."""
    return [(0, h[2], -h[1]), (-h[2], 0, h[0]), (h[1], -h[0], 0)]


def literal_gamma_mu(M, comps):
    """(Gamma' generators, mu) of the classes comps, a list of (id, h) pairs.

    Component i gives (t.h_i, t.(sum of the other h_j)) for each of its
    torus generators t; mu is the gcd of |s.h_i| over sphere generators s.
    """
    P = M.pairing
    gens = []
    for i, (cid, h) in enumerate(comps):
        rest = [sum(o[k] for j, (_, o) in enumerate(comps) if j != i) for k in range(len(h))]
        for t in torus_vectors(M, cid, h):
            gens.append((literal_pairing(P, t, h), literal_pairing(P, t, rest)))
    mu = 0
    for _, h in comps:
        for s in M.sphere_gens:
            mu = gcd(mu, abs(literal_pairing(P, s.vec, h)))
    return gens, mu


def literal_id_collation(cid):
    """(0, integers) for an ASCII id without "_" that int() reads as
    comma-separated integers, else (1, (cid,))."""
    if cid.isascii() and "_" not in cid:
        try:
            return (0, tuple(map(int, cid.split(","))))
        except ValueError:
            pass
    return (1, (cid,))


def literal_render(alpha):
    """LinkClass.render, comparing every component's id with its coordinate id."""
    parts = []
    vectors_only = True
    for c in alpha.components:
        coord = ",".join(str(x) for x in c.h.free)
        if c.id == coord and c.h.torsion_tag is None:
            parts.append(coord)
        else:
            parts.append(f"id:{c.id}")
            vectors_only = False
    if parts and vectors_only and all(len(c.h.free) == 1 for c in alpha.components):
        return "[" + ",".join(parts) + "]"
    return "[" + "; ".join(parts) + "]"
