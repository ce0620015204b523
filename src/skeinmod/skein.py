"""Link-class indices, summand relations, move traces, and skein elements.

Each multiset of classes alpha gets an exponent lattice built from torus
pairings; its canonical triple drives everything else: the relation ideal
of alpha's cyclic summand in each of the four modules, the reduction of
trace exponents, annihilators, and freeness certificates. Skein elements
are finitely supported sums coeff * [x_alpha] with coefficients stored
reduced modulo the relation ideal of their class. Trace documents are
parsed here, and read in blocks for reduce, with the parser as fallback.
"""

from __future__ import annotations

import codecs
import json
import re
from collections import Counter, defaultdict
from contextlib import ExitStack, suppress
from functools import partial
from math import gcd
from typing import NamedTuple, Union, get_args

from .errors import DimensionError, ParseError
from .lattice import ExponentLattice
from .laurent import (
    SPECIALIZE_L,
    SPECIALIZE_S,
    SPECIALIZE_W,
    LaurentPoly1,
    LaurentPoly2,
    _collect,
)
from .manifold import (
    ClassLabel,
    HomologyClass1,
    HomologyClass2,
    ManifoldModel,
    _INT_TYPE,
    _check_vector,
    _dot,
    _has_lone_surrogate,
    _is_int,
    _unit,
    class_from_entry,
    decode_json,
    int_digit_limit,
    integer,
    opened,
    read_json,
    read_text,
)
from .value import Value

__all__ = [
    "MODULE_TAGS",
    "LinkClass",
    "IndexTriple",
    "LinkIndex",
    "WrithePair",
    "Twist",
    "SelfCross",
    "MixedCross",
    "Slide",
    "MoveTrace",
    "SummandRelations",
    "SkeinElement",
    "class_pairings",
    "gamma_prime",
    "link_index",
    "epsilon_prime",
    "epsilon",
    "mu_index",
    "summand",
    "trace_evaluate",
    "torsion_annihilator",
    "is_free",
    "sphere_torus_discrepancies",
    "alpha_from_refs",
    "trace_from_document",
    "evaluate_trace_document",
    "load_trace",
]

MODULE_TAGS = ("sprime", "s", "l", "w")

_SPECIALIZE_BY_TAG = {"s": SPECIALIZE_S, "l": SPECIALIZE_L, "w": SPECIALIZE_W}


def _check_tag(tag: str) -> str:
    if tag not in MODULE_TAGS:
        raise ParseError(f"unknown module tag {tag!r} (expected one of {', '.join(MODULE_TAGS)})")
    return tag


class LinkClass(Value):
    """An unordered multiset of class labels, stored canonically sorted.

    Equal multisets compare equal regardless of construction order. The
    empty multiset is the empty link.
    """

    __slots__ = ("components",)

    def __init__(self, components: tuple[ClassLabel, ...] = ()):
        ordered = tuple(sorted(components, key=ClassLabel.sort_key))
        object.__setattr__(self, "components", ordered)

    @property
    def size(self) -> int:
        return len(self.components)

    def sort_key(self):
        return (len(self.components), tuple(c.sort_key() for c in self.components))

    def render(self) -> str:
        parts = []
        vectors_only = True
        for c in self.components:
            # a coordinate id is empty or starts with "-" or a digit
            if (
                c.id[:1] in "-0123456789"
                and c.h.torsion_tag is None
                and c.id == ClassLabel.coordinate_id(c.h.free)
            ):
                parts.append(c.id)
            else:
                parts.append(f"id:{c.id}")
                vectors_only = False
        if parts and vectors_only and all(len(c.h.free) == 1 for c in self.components):
            return "[" + ",".join(parts) + "]"
        return "[" + "; ".join(parts) + "]"

    @classmethod
    def parse(cls, text: str, M: ManifoldModel) -> "LinkClass":
        """Read a bracketed multiset: "[1,2]", "[id:beta, id:gamma]", "[1,0,0; 0,1,0]".

        Semicolons separate components; so do commas when h1_rank <= 1 or every
        comma-separated item is an id:<name> ref, resolved by M.class_by_id.
        """
        t = text.strip()
        if not (t.startswith("[") and t.endswith("]")):
            raise ParseError(f"alpha spec must be bracketed like [1,2], got {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            return cls(())
        items = [p.strip() for p in inner.split(",")]
        if ";" in inner or not (M.h1_rank <= 1 or all(it.startswith("id:") for it in items)):
            items = inner.split(";")
        labels = []
        for item in items:
            part = item.strip()
            if part.startswith("id:"):
                cid = part[3:].strip()
                found = M.class_by_id(cid)
                if found is None:
                    raise ParseError(f"unknown class id {cid!r} (not in the model's class table)")
                labels.append(found)
                continue
            try:
                coords = tuple(map(integer, part.split(",")))
            except ValueError:
                raise ParseError(f"bad alpha component {item!r}: expected integers or id:<name>")
            if len(coords) != M.h1_rank:
                raise DimensionError(
                    f"alpha component {part!r} has {len(coords)} coordinate(s), "
                    f"expected h1_rank = {M.h1_rank}"
                )
            labels.append(ClassLabel.coordinate(coords))
        return cls(tuple(labels))


class IndexTriple(NamedTuple):
    e1: int
    e2: int
    e3: int


class WrithePair(NamedTuple):
    w1: int
    w2: int


# -- moves; component indices are 1-based, kind is the trace-document type ---


class Twist(Value):
    kind = "twist"
    __slots__ = ("i", "s")

    def __init__(self, i: int, s: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "s", s)


class SelfCross(Value):
    kind = "self_cross"
    __slots__ = ("i", "s")

    def __init__(self, i: int, s: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "s", s)


class MixedCross(Value):
    kind = "mixed_cross"
    __slots__ = ("i", "j", "s")

    def __init__(self, i: int, j: int, s: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "s", s)


class Slide(Value):
    kind = "slide"
    __slots__ = ("i", "t")

    def __init__(self, i: int, t: HomologyClass2):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "t", t)


Move = Union[Twist, SelfCross, MixedCross, Slide]


class MoveTrace(Value):
    __slots__ = ("alpha", "moves")

    def __init__(self, alpha: LinkClass, moves: tuple[Move, ...] = ()):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "moves", moves)


# -- indices ------------------------------------------------------------------


def _check_class(c: ClassLabel, n: int) -> None:
    if len(c.h.free) != n:
        raise DimensionError(
            f"class {c.id!r} has homology vector of length {len(c.h.free)}, "
            f"expected h1_rank = {n}"
        )


def class_pairings(M: ManifoldModel, c: ClassLabel):
    """One class's pairing record (covectors, values, mu): the covectors t^T P of
    its torus generators, their pairings t.h with its class, and the gcd of its
    sphere pairings (0 if all vanish). It depends on the class alone, so a
    caller indexing many link classes over the same classes computes it once;
    the model keeps a class-table entry's record from its second use on, for
    that label object alone, so an entry used once costs no kept record."""
    # None: an entry not yet paired, False: an entry paired once
    kept = M._table_records.get(id(c), ())
    if kept:
        return kept
    _check_class(c, M.h1_rank)
    h = c.h.free
    covectors = M.covectors(M.torus_subgroup(c))
    mu = gcd(*(_dot(s, h) for s in M.covectors(M.sphere_gens)))
    record = covectors, tuple([_dot(t, h) for t in covectors]), mu
    if kept is None:
        M._table_records[id(c)] = False
    elif kept is False:
        M._table_records[id(c)] = record
    return record


def gamma_prime(
    M: ManifoldModel, alpha: LinkClass | None, pairings=None, total=None
) -> ExponentLattice:
    """Exponent lattice generated by (t.h_i, t.(H - h_i)) over components i and
    torus generators t of component i's class, H the sum of all h_i.

    pairings, the class_pairings of alpha's components in order, is computed
    when not given; so is total, H as a vector. Any records whose (t, a) pairs
    give generators (a, t.H - a) that span Gamma' will do, such as a walk's
    folded ones: given both pairings and total, alpha is not read.
    """
    if pairings is None:
        pairings = [class_pairings(M, c) for c in alpha.components]
    if total is None:
        total = [sum(col) for col in zip(*(c.h.free for c in alpha.components))]
    on_total: dict = {}  # t.H, once per distinct covector
    gens = []
    for covectors, values, _mu in pairings:
        for t, a in zip(covectors, values):
            t_total = on_total.get(t)
            if t_total is None:
                t_total = on_total[t] = _dot(t, total)
            gens.append((a, t_total - a))
    return ExponentLattice(gens)


def mu_index(M: ManifoldModel, alpha: LinkClass) -> int:
    """gcd over components and sphere generators of |pairing|, 0 if all vanish."""
    return link_index(M, alpha).mu


class SummandRelations(Value):
    """Generators of the relation ideal cutting out one class's cyclic summand.

    Empty relations mean the summand is the full free ring.
    """

    __slots__ = ("module_tag", "relations")

    def __init__(self, module_tag: str, relations: tuple):
        object.__setattr__(self, "module_tag", module_tag)
        object.__setattr__(self, "relations", relations)

    @property
    def is_free(self) -> bool:
        return not self.relations

    def render(self, sep: str = " ") -> str:
        ring = "R'" if self.module_tag == "sprime" else "R"
        if not self.relations:
            return f"{ring} (free)"
        inner = ", ".join(p.render(sep) for p in self.relations)
        return f"{ring}/({inner})"


class LinkIndex(NamedTuple):
    """Every index of one link class, as integers.

    eps_prime is the canonical triple of Gamma', eps = gcd(|e1+e2|, e3) the
    generator of its image under (a, b) -> a + b, mu the sphere index and
    eps2 = |e2|. The summand relations of each module follow from these.
    """

    eps_prime: IndexTriple
    eps: int
    mu: int
    eps2: int

    def exponent(self, module_tag: str) -> int:
        """The p of the one-variable summand R/(q^(2p) - 1) for s, l or w."""
        return {"s": self.eps, "l": self.eps2, "w": self.mu}[module_tag]

    def summand(self, module_tag: str) -> SummandRelations:
        tag = _check_tag(module_tag)
        if tag == "sprime":
            e1, e2, e3 = self.eps_prime
            rels = []
            if (e1, e2) != (0, 0):
                rels.append(LaurentPoly2({(2 * e1, 2 * e2): 1, (0, 0): -1}))
            if e3 != 0:
                rels.append(LaurentPoly2({(2 * e3, 0): 1, (0, 0): -1}))
            return SummandRelations("sprime", tuple(rels))
        pe = self.exponent(tag)
        if pe == 0:
            return SummandRelations(tag, ())
        return SummandRelations(tag, (LaurentPoly1({2 * pe: 1, 0: -1}),))


def link_index(
    M: ManifoldModel, alpha: LinkClass | None, pairings=None, total=None
) -> LinkIndex:
    """All indices of alpha from one build of Gamma'; mu is the gcd of the
    records' sphere gcds. pairings and total are as for gamma_prime."""
    if pairings is None:
        pairings = [class_pairings(M, c) for c in alpha.components]
    lat = gamma_prime(M, alpha, pairings, total)
    e1, e2, e3 = lat.index_triple()
    mu = gcd(*[record[2] for record in pairings])
    return LinkIndex(IndexTriple(e1, e2, e3), lat.sum_image(), mu, abs(e2))


def epsilon_prime(M: ManifoldModel, alpha: LinkClass) -> IndexTriple:
    return link_index(M, alpha).eps_prime


def epsilon(M: ManifoldModel, alpha: LinkClass) -> int:
    return link_index(M, alpha).eps


def summand(M: ManifoldModel, alpha: LinkClass, module_tag: str) -> SummandRelations:
    return link_index(M, alpha).summand(module_tag)


def torsion_annihilator(M: ManifoldModel, alpha: LinkClass, module_tag: str):
    """The relation polynomial annihilating [x_alpha], or its ideal generators.

    For s/l/w returns one single-variable polynomial (the zero polynomial
    when the summand is free); for sprime returns the tuple of ideal
    generators (empty when free).
    """
    relations = link_index(M, alpha).summand(module_tag).relations
    if module_tag == "sprime":
        return relations
    return relations[0] if relations else LaurentPoly1.zero()


# -- skein elements ------------------------------------------------------------


def _reduce_coeff(M: ManifoldModel, alpha: LinkClass, tag: str, coeff):
    if tag == "sprime":
        if not isinstance(coeff, LaurentPoly2):
            raise ParseError("sprime coefficients use the two-variable ring")
        e1, e2, e3 = link_index(M, alpha).eps_prime
        lat = ExponentLattice(((2 * e1, 2 * e2), (2 * e3, 0)))
        return LaurentPoly2(_collect((lat.reduce(e), c) for e, c in coeff.terms.items()))
    if not isinstance(coeff, LaurentPoly1):
        raise ParseError(f"{tag} coefficients use the one-variable ring")
    pe = link_index(M, alpha).exponent(tag)
    if pe == 0:
        return coeff
    return LaurentPoly1(_collect((a % (2 * pe), c) for a, c in coeff.terms.items()))


class SkeinElement(Value):
    """A finitely supported sum of coefficients against classes [x_alpha].

    terms is a dict from each LinkClass alpha to its coefficient, in the
    two-variable ring for sprime and the one-variable ring otherwise.
    Coefficients are reduced on construction modulo each class's relation
    ideal and zero coefficients are dropped, so equal values have equal
    term maps.
    """

    __slots__ = ("module_tag", "manifold", "terms")

    def __init__(self, module_tag: str, manifold: ManifoldModel, terms):
        tag = _check_tag(module_tag)
        reduced = {}
        for alpha, coeff in terms.items():
            r = _reduce_coeff(manifold, alpha, tag, coeff)
            if r:
                reduced[alpha] = r
        object.__setattr__(self, "module_tag", tag)
        object.__setattr__(self, "manifold", manifold)
        object.__setattr__(self, "terms", reduced)

    @classmethod
    def zero(cls, manifold: ManifoldModel, module_tag: str = "sprime") -> "SkeinElement":
        return cls(module_tag, manifold, {})

    @classmethod
    def standard(
        cls, manifold: ManifoldModel, alpha: LinkClass, module_tag: str = "sprime"
    ) -> "SkeinElement":
        """The class [x_alpha] with coefficient 1."""
        one = LaurentPoly2.one() if module_tag == "sprime" else LaurentPoly1.one()
        return cls(module_tag, manifold, {alpha: one})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    __hash__ = None  # the terms are a dict

    def __add__(self, other: "SkeinElement") -> "SkeinElement":
        if not isinstance(other, SkeinElement):
            return NotImplemented
        if self.module_tag != other.module_tag:
            raise ParseError(
                f"cannot add elements of modules {self.module_tag!r} and {other.module_tag!r}"
            )
        if self.manifold != other.manifold:
            raise ParseError("cannot add elements over different manifold models")
        merged = dict(self.terms)
        for alpha, coeff in other.terms.items():
            merged[alpha] = merged[alpha] + coeff if alpha in merged else coeff
        return SkeinElement(self.module_tag, self.manifold, merged)

    def __neg__(self) -> "SkeinElement":
        return SkeinElement(
            self.module_tag, self.manifold, {a: -c for a, c in self.terms.items()}
        )

    def __sub__(self, other: "SkeinElement") -> "SkeinElement":
        return self + (-other)

    def scale(self, coeff) -> "SkeinElement":
        """Multiply every class coefficient by a ring element, then re-reduce."""
        expected = LaurentPoly2 if self.module_tag == "sprime" else LaurentPoly1
        if not isinstance(coeff, expected):
            raise ParseError(
                f"scaling a {self.module_tag} element needs a {expected.__name__} coefficient"
            )
        return SkeinElement(
            self.module_tag, self.manifold, {a: c * coeff for a, c in self.terms.items()}
        )

    def specialize(self, target: str) -> "SkeinElement":
        """Push a two-variable element to one of the one-variable modules."""
        if self.module_tag != "sprime":
            raise ParseError(f"can only specialize from sprime, not {self.module_tag!r}")
        if target not in _SPECIALIZE_BY_TAG:
            raise ParseError(f"specialization target must be one of s, l, w, got {target!r}")
        smap = _SPECIALIZE_BY_TAG[target]
        return SkeinElement(
            target, self.manifold, {a: c.specialize(smap) for a, c in self.terms.items()}
        )

    def render(self, sep: str = " ") -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=lambda a: a.sort_key()):
            coeff = self.terms[alpha]
            cs = coeff.render(sep)
            if len(coeff.terms) > 1:
                cs = f"({cs})"
            parts.append(f"{cs} [x_{alpha.render()}]")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SkeinElement({self.module_tag}, {self.render()})"


# -- move traces ---------------------------------------------------------------


def _tally(items, tally=None, order=(), base=0):
    """Add (token, key, count) items, tokens as _move_token gives them, in
    the order of their first moves, to tally, a fresh one if None, and
    return it: the sign sum of each sign-move type, each slid component's
    summed slide vector (a one-vector list, folded after each call), each
    index's first move as (base + its key's place in order, token), and the
    (position, object) of each rejected move, which _tally_run puts in."""
    signs, slid, seen, rejected = tally or (
        {"twist": 0, "self_cross": 0, "mixed_cross": 0}, defaultdict(list), {}, [])
    for (kind, i, j, value), key, k in items:
        if kind == "slide":
            slid[i].append(value if k == 1 else [k * x for x in value])
        else:
            signs[kind] += k * value
        if i not in seen or j not in seen:
            first = base + order.index(key), (kind, i, j, value)
            seen.setdefault(i, first)
            seen.setdefault(j, first)
    for i, vecs in slid.items():
        if len(vecs) > 1:
            slid[i] = [[sum(col) for col in zip(*vecs)]]
    return signs, slid, seen, rejected


def _token(mv: Move) -> tuple:
    """The token _move_token gives for mv's move object."""
    return mv.kind, mv.i, getattr(mv, "j", mv.i), tuple(mv.t.vec) if isinstance(mv, Slide) else mv.s


def _move_fault(token, pos: int, r: int, h2_rank: int) -> None:
    """Raise the first fault of move pos, given as its token, against r
    components and h2_rank: an index out of range, i before j, a mixed
    crossing on one component, then a slide's length or a sign."""
    kind, i, j, value = token
    at = f"move {pos}: "
    for index in (i, j):  # j is i but for a mixed crossing
        if not 1 <= index <= r:
            raise DimensionError(f"{at}component index {index} out of range for {r} component(s)")
    if i == j and kind == "mixed_cross":
        raise ParseError(f"{at}mixed crossing needs two distinct components")
    if kind == "slide":
        if len(value) != h2_rank:
            raise DimensionError(
                f"{at}slide vector has length {len(value)}, expected h2_rank = {h2_rank}"
            )
    elif value not in (1, -1):
        raise ParseError(f"{at}sign must be +1 or -1, got {value}")


def _trace_result(M: ManifoldModel, alpha: LinkClass, tally):
    """The writhe pair of a _tally and the element q1^w1 q2^w2 [x_alpha],
    reduced modulo the doubled lattice. A twist adds s to w1, a self crossing
    2s to w1, a mixed crossing 2s to w2, and a slide of component i along t
    twice t's pairing with component i to w1 and with the others to w2. Each
    share is linear, so the slides of i add those of their sum. A component
    class of the wrong length pairs truncated; the element build reports it."""
    signs, slid = tally[:2]
    w1 = signs["twist"] + 2 * signs["self_cross"]
    w2 = 2 * signs["mixed_cross"]
    hs = [c.h.free for c in alpha.components]
    total = [sum(col) for col in zip(*hs)]
    for i, [t] in slid.items():
        covector = M._covector(t)
        own = _dot(covector, hs[i - 1])
        w1 += 2 * own
        w2 += 2 * (_dot(covector, total) - own)
    w = WrithePair(w1, w2)
    return w, SkeinElement("sprime", M, {alpha: LaurentPoly2.monomial(*w)})


def trace_evaluate(M: ManifoldModel, tr: MoveTrace) -> tuple[WrithePair, SkeinElement]:
    """Accumulate the writhe pair of a move sequence over [x_alpha]: each
    move's token is checked in order by _move_fault and tallied by _tally, as
    the block reader does, and _trace_result gives the raw pair and the
    element q1^w1 q2^w2 [x_alpha] reduced modulo the doubled lattice. Every
    move is checked before a malformed alpha is reported."""
    tokens = [_token(mv) for mv in tr.moves]
    for pos, token in enumerate(tokens):
        _move_fault(token, pos, tr.alpha.size, M.h2_rank)
    counts = Counter(tokens)
    return _trace_result(M, tr.alpha, _tally(zip(counts, counts, counts.values()), None, tokens))


# -- freeness and consistency ----------------------------------------------------


def _freeness_generators(M: ManifoldModel, module_tag: str) -> list:
    """The generators is_free scans: sphere ones for w, else every torus one."""
    if _check_tag(module_tag) == "w":
        return list(M.sphere_gens)
    gens = list(M.torus_default)
    for _cid, vecs in M.torus_exceptions:
        gens.extend(vecs)
    if M.torus_rule is not None:
        for k in range(M.h1_rank):
            gens.extend(M.rule_generators(HomologyClass1(_unit(M.h1_rank, k))))
    return gens


def is_free(M: ManifoldModel, module_tag: str):
    """Whether the whole module is free over the base ring.

    True iff every relevant subgroup generator (torus generators for
    sprime/s/l, sphere generators for w) pairs to zero with every basis
    vector of H1. On failure returns (False, (t, e_k)) with a nonzero
    pairing as witness.
    """
    for t in _freeness_generators(M, module_tag):
        if not any(t.vec):  # pairs to 0 with every class: never a witness
            continue
        for k, x in enumerate(M._covector(t.vec)):
            if x != 0:
                return False, (t, HomologyClass1(_unit(M.h1_rank, k)))
    return True, None


def sphere_torus_discrepancies(M: ManifoldModel, alphas) -> list:
    """Classes where gcd(e1, e3) differs from the sphere index mu.

    The two agree on models coming from actual manifolds whose torus
    subgroups contain the sphere subgroup; on arbitrary tables they may
    not, so mismatches are reported rather than asserted.
    """
    out = []
    for alpha in alphas:
        idx = link_index(M, alpha)
        lhs = gcd(idx.eps_prime.e1, idx.eps_prime.e3)
        if lhs != idx.mu:
            out.append((alpha, lhs, idx.mu))
    return out


# -- trace documents -------------------------------------------------------------


# trace-document type -> (move class, its fields in constructor order)
_MOVES = {cls.kind: (cls, cls._fields) for cls in get_args(Move)}


def _parse_move(entry, pos: int, problems: list) -> Move | None:
    if not isinstance(entry, dict):
        problems.append(f"moves[{pos}] must be an object")
        return None
    kind = entry.get("type")
    move = _MOVES.get(kind) if isinstance(kind, str) else None
    if move is None:
        problems.append(
            f"moves[{pos}] has unknown type {kind!r} "
            "(expected twist, self_cross, mixed_cross, or slide)"
        )
        return None
    cls, names = move
    for key in entry:
        if key != "type" and key not in names:
            problems.append(f"moves[{pos}] has unknown field {key!r}")
    vals = []
    for key in names:
        if key not in entry:
            problems.append(f"moves[{pos}] is missing field {key!r}")
        elif key == "t":
            t = _check_vector(entry[key], problems, "moves[{}].t", pos)
            if t is not None:
                vals.append(HomologyClass2(t))
        else:
            v = entry[key]
            if not _is_int(v):
                problems.append(f"moves[{pos}].{key} must be an integer")
            elif key == "s" and v not in (1, -1):
                problems.append(f"moves[{pos}].s must be +1 or -1, got {v}")
            else:
                vals.append(v)
    return cls(*vals) if len(vals) == len(names) else None


def _resolve_refs(M: ManifoldModel, refs, where: str, problems: list, prefix="") -> LinkClass:
    if not isinstance(refs, list):
        problems.append(f"{prefix}{where} must be an array of class refs")
        return LinkClass(())
    labels = (
        r if isinstance(r, ClassLabel)
        else class_from_entry(r, f"{prefix}alpha[{pos}]", problems, M)
        for pos, r in enumerate(refs)
    )
    return LinkClass(tuple(label for label in labels if label is not None))


def alpha_from_refs(refs, M: ManifoldModel, prefix: str = "") -> LinkClass:
    """Resolve an array of class refs ({id} from the table, or inline {id, h});
    a ClassLabel is a ref already resolved, and an array of labels alone is
    their LinkClass. prefix leads each fault ("alphas[3]: " for a table row)."""
    if type(refs) is list and all(type(r) is ClassLabel for r in refs):
        return LinkClass(refs)
    problems: list[str] = []
    alpha = _resolve_refs(M, refs, "alpha", problems, prefix)
    if problems:
        raise ParseError("; ".join(problems))
    return alpha


def _trace_parts(doc, M: ManifoldModel, problems: list):
    """A trace document's alpha and its raw move array; faults go to problems."""
    if not isinstance(doc, dict):
        raise ParseError("trace document must be a JSON object")
    problems.extend(f"unknown field {key!r}" for key in doc if key not in ("alpha", "moves"))
    alpha = _resolve_refs(M, doc.get("alpha"), "field 'alpha'", problems)
    raw_moves = doc.get("moves", [])
    if not isinstance(raw_moves, list):
        problems.append("field 'moves' must be an array")
        raw_moves = []
    return alpha, raw_moves


def trace_from_document(doc, M: ManifoldModel) -> MoveTrace:
    """Build a trace from parsed JSON, aggregating every structural problem."""
    problems: list[str] = []
    alpha, raw_moves = _trace_parts(doc, M, problems)
    moves = [_parse_move(entry, pos, problems) for pos, entry in enumerate(raw_moves)]
    if problems:
        raise ParseError("; ".join(problems))
    return MoveTrace(alpha, tuple(moves))


def evaluate_trace_document(doc, M: ManifoldModel) -> tuple[LinkClass, WrithePair, SkeinElement]:
    """The trace's alpha and trace_evaluate(M, trace_from_document(doc, M))."""
    tr = trace_from_document(doc, M)
    return (tr.alpha, *trace_evaluate(M, tr))


def load_trace(path: str, M: ManifoldModel) -> MoveTrace:
    return trace_from_document(read_json(path, "trace"), M)


def _move_token(h2_rank: int, entry):
    """A token for a move object that _parse_move and _move_fault pass but
    for its component indices, which alpha checks, else entry unchanged: a
    tuple, which json never builds, (type, i, j, s) of a sign move, j = i but
    for a mixed crossing, or (type, i, i, t) of a slide. It never raises, so
    json can call it as object_hook; partial binds h2_rank positionally."""
    kind, i = entry.get("type"), entry.get("i")
    if type(kind) is not str or type(i) is not int:
        return entry
    if kind == "slide":
        t = entry.get("t")
        ok = len(entry) == 3 and type(t) is list and len(t) == h2_rank
        return (kind, i, i, t) if ok and _INT_TYPE.issuperset(map(type, t)) else entry
    j = i
    if kind == "mixed_cross":
        j = entry.get("j")
        if len(entry) != 4 or type(j) is not int or j == i:
            return entry
    elif len(entry) != 3 or (kind != "twist" and kind != "self_cross"):
        return entry
    s = entry.get("s")
    if type(s) is not int or (s != 1 and s != -1):
        return entry
    return kind, i, j, s


_READ_BLOCK = 1 << 16  # the bytes a trace is read in at a time
_BLANK = json.decoder.WHITESPACE  # the blanks json skips between tokens
# a move array's last run ends at the first "}" that blanks and "]" follow
_LAST_RUN_END = re.compile(r"\}[ \t\n\r]*\]")


class _GiveUp(ValueError):
    """The block reader met text that it leaves to the whole-text decode."""


class _Blocks:
    """The text of a binary file, read on as needed: text[pos:] is not yet taken."""

    def __init__(self, fh):
        self.fh = fh
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.text, self.pos, self.eof = "", 0, False

    def more(self) -> None:
        """Read a block, or as many bytes as are not yet taken if more, so a
        value that outruns the blocks is decoded O(log) times over."""
        if self.eof:
            raise _GiveUp
        raw = self.fh.read(max(_READ_BLOCK, len(self.text) - self.pos))
        self.eof = not raw
        self.text = self.text[self.pos:] + self.decode(raw, self.eof)
        self.pos = 0

    def peek(self) -> str:
        """The character after the blanks at pos, which pos moves to; "" at the end."""
        while True:
            self.pos = _BLANK.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos:self.pos + 1]
            self.more()

    def expect(self, mark: str) -> None:
        if self.peek() != mark:
            raise _GiveUp
        self.pos += 1

    def value_end(self) -> tuple:
        """(value, end) of the JSON value after the blanks at pos, read on until it ends."""
        self.peek()
        decoder = json.JSONDecoder()
        while True:
            try:
                return decoder.raw_decode(self.text, self.pos)
            except (ValueError, RecursionError):
                self.more()

    def value(self):
        """value_end's value, which pos moves past; one with a lone surrogate gives up."""
        value, self.pos = self.value_end()
        if _has_lone_surrogate(value):
            raise _GiveUp
        return value

    def run_end(self) -> int:
        """Where the run of move objects at pos ends: past the first "}" that
        blanks and "]" follow, else past the last that blanks and "," follow.
        The cut is an object's end if the run is JSON, as _tally_run checks: a
        "}" in a string or a nested value leaves it open."""
        while True:
            last = _LAST_RUN_END.search(self.text, self.pos)
            if last:
                return last.start() + 1
            brace = len(self.text)
            while (brace := self.text.rfind("}", self.pos, brace)) >= 0:
                if self.text.startswith(",", _BLANK.match(self.text, brace + 1).end()):
                    return brace + 1
            self.more()

    def runs(self):
        """The texts of the move array's runs at pos, each taken once the next is asked for."""
        self.expect("[")
        comma = self.peek() != "]"  # an entry follows
        while comma:  # an entry that is no object is a run of its own
            end = self.run_end() if self.peek() == "{" else self.value_end()[1]
            yield self.text[self.pos:end]
            self.pos = end
            comma = self.peek() == ","
            self.pos += comma
        self.expect("]")


def _tally_run(run: str, hook, tally, base: int) -> int:
    """Put run, values of the move array parted by commas, in tally, base the
    position of its first value, and return its number of values, else
    raise. A run of objects, its first separator lead put before it, is cut
    at each "}" into texts, each distinct one decoded once with hook. If lead
    is "," with blanks and the texts join to one object each, each "}" ends
    an object, so these are the run's objects; else the run is decoded whole.
    A token is tallied with its text's count, any other value kept as a
    rejected move at each place of its text."""
    first = run.find("}")
    following = run.find("{", first)
    lead = run[first + 1:following] if following >= 0 else ","
    texts = (lead + run).split("}")[:-1]
    counts = Counter(texts)
    joined = "[" + "}".join(counts)[len(lead):] + "}]"
    tokens = ()
    if lead.strip(" \t\n\r") == ",":
        with suppress(ValueError):  # a "}" in a string cuts where no object ends
            tokens = json.loads(joined, object_hook=hook)
    if not tokens or len(tokens) != len(counts) or not {tuple, dict}.issuperset(map(type, tokens)):
        # the run whole, as json decodes it: hook takes its entries, not what they nest
        tokens = [hook(v) if type(v) is dict else v for v in json.loads("[" + run + "]")]
        counts = Counter(texts := range(len(tokens)))  # each value its own text
    items = zip(tokens, counts, counts.values())
    if not {tuple}.issuperset(map(type, tokens)):
        rejected = {text: t for t, text in zip(tokens, counts) if type(t) is not tuple}
        if _has_lone_surrogate(list(rejected.values())):
            raise _GiveUp  # which the whole text reports
        tally[3].extend((base + p, rejected[t]) for p, t in enumerate(texts) if t in rejected)
        items = [item for item in items if item[1] not in rejected]
    _tally(items, tally, texts, base)
    return len(texts)


def _streamed_trace(fh, M: ManifoldModel):
    """(alpha, raw, element) of the trace document in the binary file fh, or
    the error, as evaluate_trace_document gives them, read in blocks: alpha
    decoded whole and moves put in one _tally a run at a time, the keys in
    any order, a repeated one's last value kept, as json does. The rejected
    moves are parsed, then the first move to name each index out of range
    and each rejected move checked by _move_fault. None for a key not alpha
    or moves, or what json reads only from the whole text, also in a value a
    repeated key drops: a lone surrogate, an int past 4300 digits, bytes
    that are not UTF-8, too deep a nesting, a run that is no JSON."""
    hook = partial(_move_token, M.h2_rank)
    src = _Blocks(fh)
    doc = {}
    tally = _tally(())  # of a trace with no moves
    try:
        with int_digit_limit(4300):
            src.expect("{")
            mark = ","
            while mark == ",":
                key = src.value()
                if key not in ("alpha", "moves"):
                    raise _GiveUp
                src.expect(":")
                if key == "alpha":
                    doc["alpha"] = src.value()
                else:
                    tally, base = _tally(()), 0  # a fresh one, as a later moves drops this one
                    for run in src.runs():
                        base += _tally_run(run, hook, tally, base)
                        del run  # nothing of a run is held while the next block is read
                mark = src.peek()
                src.pos += 1
            if mark != "}" or src.peek():
                raise _GiveUp
    except (ValueError, RecursionError):  # a UnicodeDecodeError is a ValueError
        return None
    problems: list[str] = []
    alpha, _ = _trace_parts(doc, M, problems)
    parsed = [(pos, _parse_move(entry, pos, problems)) for pos, entry in tally[3]]
    if problems:
        raise ParseError("; ".join(problems))
    faults = [first for i, first in tally[2].items() if not 1 <= i <= alpha.size]
    faults += [(pos, _token(mv)) for pos, mv in parsed]
    if faults:
        pos, token = min(faults)
        _move_fault(token, pos, alpha.size, M.h2_rank)
    return (alpha, *_trace_result(M, alpha, tally))


def _read_trace(path: str, M: ManifoldModel) -> tuple[LinkClass, WrithePair, SkeinElement]:
    """evaluate_trace_document of the trace document at path, by
    _streamed_trace. The file is opened once, so /dev/stdin works: a pipe is
    first copied to a temporary file, so that a trace the block reader gives
    up on can be read again from offset 0 and parsed whole."""
    with ExitStack() as stack:
        fh = stack.enter_context(opened(path, "trace"))
        if not fh.seekable():
            import shutil
            import tempfile

            pipe, fh = fh, stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(pipe, fh)
            fh.seek(0)
        done = _streamed_trace(fh, M)
        if done is None:
            fh.seek(0)
            doc = decode_json(read_text(path, "trace", fh), path, "trace")
            done = evaluate_trace_document(doc, M)
    return done
