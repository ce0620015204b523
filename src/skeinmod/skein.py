"""Link-class indices, summand relations, move traces, and skein elements.

Each multiset of classes alpha gets an exponent lattice built from torus
pairings; its canonical triple drives everything else: the relation ideal
of alpha's cyclic summand in each of the four modules, the reduction of
trace exponents, annihilators, and freeness certificates. Skein elements
are finitely supported sums coeff * [x_alpha] with coefficients stored
reduced modulo the relation ideal of their class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Union

from .errors import DimensionError, ParseError
from .lattice import ExponentLattice
from .laurent import (
    SPECIALIZE_L,
    SPECIALIZE_S,
    SPECIALIZE_W,
    LaurentPoly1,
    LaurentPoly2,
)
from .manifold import (
    ClassLabel,
    HomologyClass1,
    HomologyClass2,
    ManifoldModel,
    _is_int,
    read_json,
)

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
    "load_trace",
]

MODULE_TAGS = ("sprime", "s", "l", "w")

_SPECIALIZE_BY_TAG = {"s": SPECIALIZE_S, "l": SPECIALIZE_L, "w": SPECIALIZE_W}


def _check_tag(tag: str) -> str:
    if tag not in MODULE_TAGS:
        raise ParseError(f"unknown module tag {tag!r} (expected one of {', '.join(MODULE_TAGS)})")
    return tag


@dataclass(frozen=True)
class LinkClass:
    """An unordered multiset of class labels, stored canonically sorted.

    Equal multisets compare equal regardless of construction order. The
    empty multiset is the empty link.
    """

    components: tuple[ClassLabel, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.components, key=lambda c: c.sort_key()))
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
            coord = ",".join(str(x) for x in c.h.free)
            if c.id == coord and c.h.torsion_tag is None:
                parts.append(coord)
            else:
                parts.append(f"id:{c.id}")
                vectors_only = False
        if parts and vectors_only and all(len(c.h.free) == 1 for c in self.components):
            return "[" + ",".join(parts) + "]"
        return "[" + "; ".join(parts) + "]"


class IndexTriple(NamedTuple):
    e1: int
    e2: int
    e3: int


class WrithePair(NamedTuple):
    w1: int
    w2: int


# -- moves; component indices are 1-based ------------------------------------


@dataclass(frozen=True)
class Twist:
    i: int
    s: int


@dataclass(frozen=True)
class SelfCross:
    i: int
    s: int


@dataclass(frozen=True)
class MixedCross:
    i: int
    j: int
    s: int


@dataclass(frozen=True)
class Slide:
    i: int
    t: HomologyClass2


Move = Union[Twist, SelfCross, MixedCross, Slide]


@dataclass(frozen=True)
class MoveTrace:
    alpha: LinkClass
    moves: tuple[Move, ...] = ()


# -- indices ------------------------------------------------------------------


def _component_rest(alpha: LinkClass, n: int):
    """For each component: (its class, the coordinate sum of all the others)."""
    total = [0] * n
    for c in alpha.components:
        if len(c.h.free) != n:
            raise DimensionError(
                f"class {c.id!r} has homology vector of length {len(c.h.free)}, "
                f"expected h1_rank = {n}"
            )
        for k in range(n):
            total[k] += c.h.free[k]
    out = []
    for c in alpha.components:
        rest = tuple(total[k] - c.h.free[k] for k in range(n))
        out.append((c, HomologyClass1(rest)))
    return out


def gamma_prime(M: ManifoldModel, alpha: LinkClass) -> ExponentLattice:
    """Exponent lattice generated by (pairing(t, h_i), pairing(t, sum of others))
    over components i and torus generators t of component i's class."""
    gens = []
    for c, rest in _component_rest(alpha, M.h1_rank):
        for t in M.torus_subgroup(c):
            gens.append((M.pairing_eval(t, c.h), M.pairing_eval(t, rest)))
    return ExponentLattice(gens)


def mu_index(M: ManifoldModel, alpha: LinkClass) -> int:
    """gcd over components and sphere generators of |pairing|, 0 if all vanish."""
    g = 0
    for c in alpha.components:
        for s in M.sphere_subgroup():
            g = gcd(g, abs(M.pairing_eval(s, c.h)))
    return g


@dataclass(frozen=True)
class SummandRelations:
    """Generators of the relation ideal cutting out one class's cyclic summand.

    Empty relations mean the summand is the full free ring.
    """

    module_tag: str
    relations: tuple

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
                rels.append(LaurentPoly2.monomial(2 * e1, 2 * e2) - LaurentPoly2.one())
            if e3 != 0:
                rels.append(LaurentPoly2.monomial(2 * e3, 0) - LaurentPoly2.one())
            return SummandRelations("sprime", tuple(rels))
        pe = self.exponent(tag)
        if pe == 0:
            return SummandRelations(tag, ())
        return SummandRelations(tag, (LaurentPoly1.monomial(2 * pe) - LaurentPoly1.one(),))


def link_index(M: ManifoldModel, alpha: LinkClass) -> LinkIndex:
    """All indices of alpha from one build of Gamma' and one sphere gcd."""
    lat = gamma_prime(M, alpha)
    t = IndexTriple(*lat.index_triple())
    return LinkIndex(t, lat.sum_image(), mu_index(M, alpha), abs(t.e2))


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
    tag = _check_tag(module_tag)
    idx = link_index(M, alpha)
    if tag == "sprime":
        return idx.summand(tag).relations
    return LaurentPoly1.monomial(2 * idx.exponent(tag)) - LaurentPoly1.one()


# -- skein elements ------------------------------------------------------------


def _reduce_coeff(M: ManifoldModel, alpha: LinkClass, tag: str, coeff):
    if tag == "sprime":
        if not isinstance(coeff, LaurentPoly2):
            raise ParseError("sprime coefficients use the two-variable ring")
        e1, e2, e3 = link_index(M, alpha).eps_prime
        lat = ExponentLattice(((2 * e1, 2 * e2), (2 * e3, 0)))
        acc: dict = {}
        for e, c in coeff.terms.items():
            r = lat.reduce(e)
            acc[r] = acc.get(r, 0) + c
        return LaurentPoly2(acc)
    if not isinstance(coeff, LaurentPoly1):
        raise ParseError(f"{tag} coefficients use the one-variable ring")
    pe = link_index(M, alpha).exponent(tag)
    if pe == 0:
        return coeff
    mod = 2 * pe
    acc = {}
    for a, c in coeff.terms.items():
        acc[a % mod] = acc.get(a % mod, 0) + c
    return LaurentPoly1(acc)


class SkeinElement:
    """A finitely supported sum of coefficients against classes [x_alpha].

    Coefficients are reduced on construction modulo each class's relation
    ideal and zero coefficients are dropped, so equal values have equal
    term maps.
    """

    __slots__ = ("module_tag", "manifold", "terms")

    def __init__(self, module_tag: str, manifold: ManifoldModel, terms):
        tag = _check_tag(module_tag)
        reduced = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for alpha, coeff in items:
            r = _reduce_coeff(manifold, alpha, tag, coeff)
            if alpha in reduced:
                r = reduced[alpha] + r
            if r:
                reduced[alpha] = r
            else:
                reduced.pop(alpha, None)
        object.__setattr__(self, "module_tag", tag)
        object.__setattr__(self, "manifold", manifold)
        object.__setattr__(self, "terms", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("SkeinElement is immutable")

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeinElement):
            return NotImplemented
        return (
            self.module_tag == other.module_tag
            and self.manifold == other.manifold
            and self.terms == other.terms
        )

    __hash__ = None

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


def _validate_trace(M: ManifoldModel, tr: MoveTrace) -> None:
    r = tr.alpha.size
    for pos, mv in enumerate(tr.moves):
        where = f"move {pos}"
        idxs = (mv.i, mv.j) if isinstance(mv, MixedCross) else (mv.i,)
        for i in idxs:
            if not 1 <= i <= r:
                raise DimensionError(
                    f"{where}: component index {i} out of range for {r} component(s)"
                )
        if isinstance(mv, MixedCross) and mv.i == mv.j:
            raise ParseError(f"{where}: mixed crossing needs two distinct components")
        if isinstance(mv, (Twist, SelfCross, MixedCross)) and mv.s not in (1, -1):
            raise ParseError(f"{where}: sign must be +1 or -1, got {mv.s}")
        if isinstance(mv, Slide) and len(mv.t.vec) != M.h2_rank:
            raise DimensionError(
                f"{where}: slide vector has length {len(mv.t.vec)}, "
                f"expected h2_rank = {M.h2_rank}"
            )


def trace_evaluate(M: ManifoldModel, tr: MoveTrace) -> tuple[WrithePair, SkeinElement]:
    """Accumulate the writhe pair of a move sequence over [x_alpha].

    Twist adds its sign to w1, a self-crossing adds twice its sign to w1, a
    mixed crossing adds twice its sign to w2, and a slide of component i
    along t adds twice its pairing with component i to w1 and twice its
    pairing with the remaining components to w2. Returns the raw pair and
    the element q1^w1 q2^w2 [x_alpha] with exponents reduced modulo the
    doubled lattice.
    """
    _validate_trace(M, tr)
    rests = _component_rest(tr.alpha, M.h1_rank)
    w1 = w2 = 0
    for mv in tr.moves:
        if isinstance(mv, Twist):
            w1 += mv.s
        elif isinstance(mv, SelfCross):
            w1 += 2 * mv.s
        elif isinstance(mv, MixedCross):
            w2 += 2 * mv.s
        else:
            c, rest = rests[mv.i - 1]
            w1 += 2 * M.pairing_eval(mv.t, c.h)
            w2 += 2 * M.pairing_eval(mv.t, rest)
    element = SkeinElement(
        "sprime", M, {tr.alpha: LaurentPoly2.monomial(w1, w2)}
    )
    return WrithePair(w1, w2), element


# -- freeness and consistency ----------------------------------------------------


def _all_torus_generators(M: ManifoldModel):
    gens = list(M.torus_default)
    for _cid, vecs in M.torus_exceptions:
        gens.extend(vecs)
    if M.torus_rule is not None:
        for k in range(M.h1_rank):
            basis = HomologyClass1(tuple(1 if j == k else 0 for j in range(M.h1_rank)))
            gens.extend(M.rule_generators(basis))
    return gens


def is_free(M: ManifoldModel, module_tag: str):
    """Whether the whole module is free over the base ring.

    True iff every relevant subgroup generator (torus generators for
    sprime/s/l, sphere generators for w) pairs to zero with every basis
    vector of H1. On failure returns (False, (t, e_k)) with a nonzero
    pairing as witness.
    """
    tag = _check_tag(module_tag)
    gens = list(M.sphere_subgroup()) if tag == "w" else _all_torus_generators(M)
    for t in gens:
        for k in range(M.h1_rank):
            e = HomologyClass1(tuple(1 if j == k else 0 for j in range(M.h1_rank)))
            if M.pairing_eval(t, e) != 0:
                return False, (t, e)
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


def _resolve_ref(M: ManifoldModel, ref, pos: int, problems: list) -> ClassLabel | None:
    if not isinstance(ref, dict):
        problems.append(f"alpha[{pos}] must be an object")
        return None
    for key in ref:
        if key not in ("id", "h", "torsion_tag"):
            problems.append(f"alpha[{pos}] has unknown field {key!r}")
    cid = ref.get("id")
    if not isinstance(cid, str):
        problems.append(f"alpha[{pos}] field 'id' must be a string")
        return None
    tag = ref.get("torsion_tag")
    if tag is not None and not isinstance(tag, str):
        problems.append(f"alpha[{pos}] field 'torsion_tag' must be a string")
        tag = None
    if "h" in ref:
        h = ref["h"]
        if not isinstance(h, list) or not all(_is_int(x) for x in h):
            problems.append(f"alpha[{pos}].h must be an array of integers")
            return None
        return ClassLabel(cid, HomologyClass1(tuple(h), tag))
    if tag is not None:
        problems.append(f"alpha[{pos}]: 'torsion_tag' needs an inline 'h'")
    found = M.class_by_id(cid)
    if found is not None:
        return found
    problems.append(f"alpha[{pos}]: unknown class id {cid!r} (not in the model's class table)")
    return None


_MOVE_FIELDS = {
    "twist": ("i", "s"),
    "self_cross": ("i", "s"),
    "mixed_cross": ("i", "j", "s"),
    "slide": ("i", "t"),
}


def _parse_move(entry, pos: int, problems: list) -> Move | None:
    if not isinstance(entry, dict):
        problems.append(f"moves[{pos}] must be an object")
        return None
    kind = entry.get("type")
    if kind not in _MOVE_FIELDS:
        problems.append(
            f"moves[{pos}] has unknown type {kind!r} "
            "(expected twist, self_cross, mixed_cross, or slide)"
        )
        return None
    fields = _MOVE_FIELDS[kind]
    for key in entry:
        if key != "type" and key not in fields:
            problems.append(f"moves[{pos}] has unknown field {key!r}")
    vals = {}
    ok = True
    for key in fields:
        if key not in entry:
            problems.append(f"moves[{pos}] is missing field {key!r}")
            ok = False
        elif key == "t":
            t = entry[key]
            if not isinstance(t, list) or not all(_is_int(x) for x in t):
                problems.append(f"moves[{pos}].t must be an array of integers")
                ok = False
            else:
                vals[key] = HomologyClass2(tuple(t))
        else:
            v = entry[key]
            if not _is_int(v):
                problems.append(f"moves[{pos}].{key} must be an integer")
                ok = False
            elif key == "s" and v not in (1, -1):
                problems.append(f"moves[{pos}].s must be +1 or -1, got {v}")
                ok = False
            else:
                vals[key] = v
    if not ok:
        return None
    if kind == "twist":
        return Twist(vals["i"], vals["s"])
    if kind == "self_cross":
        return SelfCross(vals["i"], vals["s"])
    if kind == "mixed_cross":
        return MixedCross(vals["i"], vals["j"], vals["s"])
    return Slide(vals["i"], vals["t"])


def _resolve_refs(M: ManifoldModel, refs, where: str, problems: list) -> LinkClass:
    if not isinstance(refs, list):
        problems.append(f"{where} must be an array of class refs")
        return LinkClass(())
    labels = (_resolve_ref(M, ref, pos, problems) for pos, ref in enumerate(refs))
    return LinkClass(tuple(label for label in labels if label is not None))


def alpha_from_refs(refs, M: ManifoldModel) -> LinkClass:
    """Resolve an array of class refs ({id} from the table, or inline {id, h})."""
    problems: list[str] = []
    alpha = _resolve_refs(M, refs, "alpha", problems)
    if problems:
        raise ParseError("; ".join(problems))
    return alpha


def trace_from_document(doc, M: ManifoldModel) -> MoveTrace:
    """Build a trace from parsed JSON, aggregating every structural problem."""
    if not isinstance(doc, dict):
        raise ParseError("trace document must be a JSON object")
    problems: list[str] = []
    for key in doc:
        if key not in ("alpha", "moves"):
            problems.append(f"unknown field {key!r}")
    alpha = _resolve_refs(M, doc.get("alpha"), "field 'alpha'", problems)
    raw_moves = doc.get("moves", [])
    moves = []
    if not isinstance(raw_moves, list):
        problems.append("field 'moves' must be an array")
    else:
        for pos, entry in enumerate(raw_moves):
            mv = _parse_move(entry, pos, problems)
            if mv is not None:
                moves.append(mv)
    if problems:
        raise ParseError("; ".join(problems))
    return MoveTrace(alpha, tuple(moves))


def load_trace(path: str, M: ManifoldModel) -> MoveTrace:
    return trace_from_document(read_json(path, "trace"), M)
