"""Homological models of oriented 3-manifolds.

A model carries the ranks of H1 and H2 modulo torsion, the integer
intersection pairing between them, per-class torus subgroup generators
(default list, per-id exception lists, or a structured rule), and the
sphere subgroup generators. Everything downstream consumes only this data.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import contextmanager
from functools import cached_property
from operator import mul

from .errors import DimensionError, ParseError
from .value import Value

__all__ = [
    "HomologyClass1",
    "HomologyClass2",
    "ClassLabel",
    "ManifoldModel",
    "builtin",
    "model_from_document",
    "model_to_document",
    "load_model",
    "BUILTIN_NAMES",
]


class HomologyClass1(Value):
    """A first-homology class: coordinates in a fixed basis of H1/torsion.

    torsion_tag distinguishes labels with equal free part; it never feeds
    into pairing values (torsion pairs to zero with everything).
    """

    __slots__ = ("free", "torsion_tag")

    def __init__(self, free: tuple[int, ...], torsion_tag: str | None = None):
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "torsion_tag", torsion_tag)


class HomologyClass2(Value):
    """A second-homology class: coordinates in a fixed basis of H2/torsion."""

    __slots__ = ("vec",)

    def __init__(self, vec: tuple[int, ...]):
        object.__setattr__(self, "vec", vec)


def _id_collation(cid: str):
    # ids that read as comma-separated integers sort numerically, the rest
    # lexicographically after them; keeps [-2,-1] ahead of [-1,-2] etc. The
    # integers are the ASCII ones integer() reads, so "1_0" and "\u0661" are names.
    # int() reads no id whose first non-space character is no sign or digit
    if cid.isascii() and "_" not in cid and cid.lstrip()[:1] in "+-0123456789":
        try:
            return (0, tuple(map(int, cid.split(","))))
        except ValueError:
            pass
    return (1, (cid,))


class ClassLabel(Value):
    """A named conjugacy-class stand-in with its homology class.

    Distinct ids may share the same h (distinct classes with equal homology).
    """

    __slots__ = ("id", "h")

    def __init__(self, id: str, h: HomologyClass1):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "h", h)

    def sort_key(self):
        return (_id_collation(self.id), self.h.free, self.h.torsion_tag or "")

    @staticmethod
    def coordinate_id(free) -> str:
        """The id of a class's coordinate label: its coordinates joined by commas."""
        return ",".join(str(x) for x in free)

    @classmethod
    def coordinate(cls, free) -> "ClassLabel":
        """The class with these coordinates, labelled by them: (1,-2) gets id "1,-2"."""
        return cls(cls.coordinate_id(free), HomologyClass1(tuple(free)))


def _vec_str(v) -> str:
    return "[" + ",".join(str(x) for x in v) + "]"


def _unit(n: int, k: int) -> tuple[int, ...]:
    return (0,) * k + (1,) + (0,) * (n - k - 1)


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


class ManifoldModel(Value):
    def __init__(
        self,
        name: str,
        h1_rank: int,
        h2_rank: int,
        # h2_rank rows of h1_rank entries each
        pairing: tuple[tuple[int, ...], ...],
        torus_default: tuple[HomologyClass2, ...] = (),
        # (class id, generator list) pairs; order follows the source document
        torus_exceptions: tuple[tuple[str, tuple[HomologyClass2, ...]], ...] = (),
        torus_rule: str | None = None,
        sphere_gens: tuple[HomologyClass2, ...] = (),
        classes: tuple[ClassLabel, ...] = (),
        boundary_note: str = "",
    ):
        # the cached properties below keep this dict anyway
        self.__dict__.update(
            name=name, h1_rank=h1_rank, h2_rank=h2_rank, pairing=pairing,
            torus_default=torus_default, torus_exceptions=torus_exceptions,
            torus_rule=torus_rule, sphere_gens=sphere_gens, classes=classes,
            boundary_note=boundary_note,
        )
        problems = []
        if self.torus_rule not in (None, "sweep"):
            raise ParseError(f"unknown torus_rule {self.torus_rule!r} (only 'sweep' exists)")
        if self.torus_rule == "sweep" and (self.h1_rank != 3 or self.h2_rank != 3):
            raise ParseError(
                "torus_rule 'sweep' needs h1_rank = 3 and h2_rank = 3, "
                f"got {self.h1_rank} and {self.h2_rank}"
            )
        if len(self.pairing) != self.h2_rank:
            problems.append(
                f"pairing has {len(self.pairing)} rows, expected h2_rank = {self.h2_rank}"
            )
        for i, row in enumerate(self.pairing):
            if len(row) != self.h1_rank:
                problems.append(
                    f"pairing row {i} has length {len(row)}, expected h1_rank = {self.h1_rank}"
                )
        for label, vecs in (
            ("torus_default", self.torus_default),
            ("sphere_gens", self.sphere_gens),
            *((f"torus_exceptions[{cid!r}]", vecs) for cid, vecs in self.torus_exceptions),
        ):
            for i, s in enumerate(vecs):
                if len(s.vec) != self.h2_rank:
                    problems.append(
                        f"{label}[{i}] has length {len(s.vec)}, expected h2_rank = {self.h2_rank}"
                    )
        for c in self.classes:
            if len(c.h.free) != self.h1_rank:
                problems.append(
                    f"class {c.id!r} h has length {len(c.h.free)}, expected h1_rank = {self.h1_rank}"
                )
        if problems:
            raise DimensionError("; ".join(problems))

    # -- pairing ------------------------------------------------------------

    def pairing_eval(self, s: HomologyClass2, h: HomologyClass1) -> int:
        """Oriented intersection number: s transposed, times the pairing, times h."""
        covector = self._covector(s.vec)
        self._check_h1(h.free)
        return _dot(covector, h.free)

    def _check_h1(self, free) -> None:
        if len(free) != self.h1_rank:
            raise DimensionError(
                f"1-class {_vec_str(free)} has length {len(free)}, "
                f"expected h1_rank = {self.h1_rank}"
            )

    def _covector(self, t) -> tuple[int, ...]:
        """t^T P, the pairing rows weighted by t's nonzero entries: t pairs
        with a 1-class h as the dot product of this covector with h."""
        if len(t) != self.h2_rank:
            raise DimensionError(
                f"2-class {_vec_str(t)} has length {len(t)}, expected h2_rank = {self.h2_rank}"
            )
        weighted = [(ti, row) for ti, row in zip(t, self.pairing) if ti]
        return tuple(sum(ti * row[j] for ti, row in weighted) for j in range(self.h1_rank))

    def covectors(self, gens: tuple[HomologyClass2, ...]) -> tuple[tuple[int, ...], ...]:
        """The covector t^T P of each generator t, so t pairs with h as their
        dot product. Kept for each listed generator list (torus_default, each
        torus_exceptions list, sphere_gens) from its first use and found by its
        identity; computed for any other list, such as the sweep rule's."""
        kept = self._kept_covectors.get(id(gens))
        if kept is None:
            kept = tuple(self._covector(t.vec) for t in gens)
            # the model holds its listed lists, so no other list has their ids;
            # the exception lists' ids are read only once such a list comes in
            listed = gens is self.torus_default or gens is self.sphere_gens
            if listed or id(gens) in self._exception_list_ids:
                self._kept_covectors[id(gens)] = kept
        return kept

    @cached_property
    def _exception_list_ids(self) -> set:
        return {id(vecs) for _cid, vecs in self.torus_exceptions}

    @cached_property
    def _kept_covectors(self) -> dict:
        return {}

    @cached_property
    def _table_records(self) -> dict:
        return dict.fromkeys(map(id, self.classes))  # ids of labels the model holds, so unique

    # -- torus and sphere subgroups ------------------------------------------

    def rule_generators(self, h: HomologyClass1) -> tuple[HomologyClass2, ...]:
        """Generators produced by the structured rule for a class, () if no rule.

        The sweep rule translates a loop of class h around the three basis
        directions; the swept torus classes are the wedges h ^ e_k, stored
        in the (e2^e3, e3^e1, e1^e2) basis, where they are the cross
        products h x e_k.
        """
        if self.torus_rule != "sweep":
            return ()
        return tuple(HomologyClass2(_cross(h.free, _unit(3, k))) for k in range(3))

    def torus_subgroup(self, c: ClassLabel) -> tuple[HomologyClass2, ...]:
        """Exception list if one is keyed by c.id, else rule output, else default."""
        self._check_h1(c.h.free)
        listed = self._exceptions_by_id.get(c.id)
        if listed is not None:
            return listed
        if self.torus_rule is not None:
            return self.rule_generators(c.h)
        return self.torus_default

    @cached_property
    def _exceptions_by_id(self) -> dict:
        # read backwards, so the first list keyed by an id is the one kept
        return dict(reversed(self.torus_exceptions))

    @cached_property
    def _classes_by_id(self) -> dict:
        # read backwards, so the first entry with an id is the one kept
        return {c.id: c for c in reversed(self.classes)}

    def sphere_subgroup(self) -> tuple[HomologyClass2, ...]:
        return self.sphere_gens

    def class_by_id(self, cid: str) -> ClassLabel | None:
        """The class-table entry for cid, else the class cid spells, else None.

        With h1_rank 0 every class has the trivial homology vector, so any id
        names it. Otherwise an id that is exactly a coordinate label with
        h1_rank entries ("1,-2", not "01" or "+1") names that class.
        """
        found = self._classes_by_id.get(cid)
        if found is not None:
            return found
        if self.h1_rank == 0:
            return ClassLabel(cid, HomologyClass1(()))
        try:
            label = ClassLabel.coordinate([int(x) for x in cid.split(",")])
        except ValueError:
            return None
        return label if label.id == cid and len(label.h.free) == self.h1_rank else None


# ---------------------------------------------------------------------------
# built-in models

BUILTIN_NAMES = ("S3", "S2xS1", "T3", "lens", "handlebody")


def builtin(name: str, *params: int) -> ManifoldModel:
    """Construct a built-in model. lens takes (p, q), handlebody takes g."""
    if name == "S3":
        _expect_params(name, params, 0)
        return ManifoldModel(name="S3", h1_rank=0, h2_rank=0, pairing=())
    if name == "S2xS1":
        _expect_params(name, params, 0)
        return ManifoldModel(
            name="S2xS1",
            h1_rank=1,
            h2_rank=1,
            pairing=((1,),),
            torus_default=(HomologyClass2((1,)),),
            sphere_gens=(HomologyClass2((1,)),),
        )
    if name == "T3":
        _expect_params(name, params, 0)
        return ManifoldModel(
            name="T3",
            h1_rank=3,
            h2_rank=3,
            pairing=tuple(_unit(3, k) for k in range(3)),
            torus_rule="sweep",
        )
    if name == "lens":
        _expect_params(name, params, 2)
        p, q = params
        if p <= 0:
            raise ParseError(f"lens parameter p must be positive, got {p}")
        return ManifoldModel(name=f"lens({p},{q})", h1_rank=0, h2_rank=0, pairing=())
    if name == "handlebody":
        _expect_params(name, params, 1)
        (g,) = params
        if g < 0:
            raise ParseError(f"handlebody genus must be non-negative, got {g}")
        return ManifoldModel(
            name=f"handlebody({g})",
            h1_rank=g,
            h2_rank=0,
            pairing=(),
            boundary_note=f"genus-{g} boundary surface",
        )
    raise ParseError(f"unknown builtin manifold {name!r} (known: {', '.join(BUILTIN_NAMES)})")


def _expect_params(name, params, count):
    if len(params) != count:
        raise ParseError(f"builtin {name!r} takes {count} parameter(s), got {len(params)}")


# ---------------------------------------------------------------------------
# document round trip

_INT_TYPE = frozenset({int})  # exact ints: no bools, no int subclasses


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def integer(text: str) -> int:
    """int(text), but "1_0" and non-ASCII digits, which int() reads, raise ValueError."""
    digits = text.strip().lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _check_vector(v, problems, path, *args):
    """v as a tuple of ints, else None and a fault named path.format(*args). As
    in a parsed JSON document, v must be a list of ints: subclasses of either fail."""
    if type(v) is not list or not _INT_TYPE.issuperset(map(type, v)):
        problems.append(f"{path.format(*args)} must be an array of integers")
        return None
    return tuple(v)


def _vector_list(raw, problems, path, name=None):
    """The 2-classes of raw, or None if it is no array; faults say name or path[i]."""
    if not isinstance(raw, list):
        problems.append(f"{name or path} must be an array of vectors")
        return None
    vecs = (_check_vector(v, problems, "{}[{}]", path, i) for i, v in enumerate(raw))
    return tuple(HomologyClass2(t) for t in vecs if t is not None)


def class_from_entry(entry, where: str, problems: list, model=None) -> ClassLabel | None:
    """Read one {id, h, torsion_tag} object; None when it has a fault.

    Faults go to problems, named by where ("classes[0]", "alpha[2]"). Without
    a model h is required (a class-table entry); with one, an entry without h
    is the class model.class_by_id(id) names.
    """
    if not isinstance(entry, dict):
        problems.append(f"{where} must be an object")
        return None
    for key in entry:
        if key not in ("id", "h", "torsion_tag"):
            problems.append(f"{where} has unknown field {key!r}")
    cid = entry.get("id")
    if not isinstance(cid, str):
        problems.append(f"{where} field 'id' must be a string")
        return None
    tag = entry.get("torsion_tag")
    if tag is not None and not isinstance(tag, str):
        problems.append(f"{where} field 'torsion_tag' must be a string")
        tag = None
    if model is None or "h" in entry:
        h = _check_vector(entry.get("h"), problems, "{}.h", where)
        return None if h is None else ClassLabel(cid, HomologyClass1(h, tag))
    if tag is not None:
        problems.append(f"{where}: 'torsion_tag' needs an inline 'h'")
    found = model.class_by_id(cid)
    if found is None:
        problems.append(f"{where}: unknown class id {cid!r} (not in the model's class table)")
    return found


def class_to_entry(c: ClassLabel) -> dict:
    """The {id, h, torsion_tag} object class_from_entry reads back as c."""
    entry = {"id": c.id, "h": list(c.h.free)}
    if c.h.torsion_tag is not None:
        entry["torsion_tag"] = c.h.torsion_tag
    return entry


def model_from_document(doc) -> ManifoldModel:
    """Build a model from a parsed JSON document, aggregating all problems.

    Schema and type violations raise ParseError; length mismatches alone
    raise DimensionError. Either way the message lists every problem found.
    """
    parse_msgs: list[str] = []
    if not isinstance(doc, dict):
        raise ParseError("manifold document must be a JSON object")
    for key in doc:
        if key not in ManifoldModel._fields:
            parse_msgs.append(f"unknown field {key!r}")

    name = doc.get("name")
    if not isinstance(name, str):
        parse_msgs.append("field 'name' must be a string")
        name = ""
    ranks = {}
    for key in ("h1_rank", "h2_rank"):
        v = doc.get(key)
        if not _is_int(v) or v < 0:
            parse_msgs.append(f"field {key!r} must be a non-negative integer")
            v = 0
        ranks[key] = v

    pairing = doc.get("pairing")
    if not isinstance(pairing, list):
        parse_msgs.append("field 'pairing' must be an array of rows")
        pairing = []
    pairing_rows = [
        _check_vector(row, parse_msgs, "pairing[{}]", i) or () for i, row in enumerate(pairing)
    ]

    torus_default, sphere_gens = (
        _vector_list(doc.get(key, []), parse_msgs, key, f"field {key!r}") or ()
        for key in ("torus_default", "sphere_gens")
    )

    exceptions = []
    raw_exc = doc.get("torus_exceptions", {})
    if not isinstance(raw_exc, dict):
        parse_msgs.append("field 'torus_exceptions' must be an object keyed by class id")
    else:
        for cid, raw in raw_exc.items():
            vecs = _vector_list(raw, parse_msgs, f"torus_exceptions[{cid!r}]")
            if vecs is not None:
                exceptions.append((cid, vecs))

    torus_rule = doc.get("torus_rule")
    if torus_rule is not None and torus_rule != "sweep":
        parse_msgs.append(f"field 'torus_rule' must be absent or 'sweep', got {torus_rule!r}")
        torus_rule = None

    classes: dict[str, ClassLabel] = {}
    raw_classes = doc.get("classes", [])
    if not isinstance(raw_classes, list):
        parse_msgs.append("field 'classes' must be an array")
        raw_classes = []
    for i, entry in enumerate(raw_classes):
        c = class_from_entry(entry, f"classes[{i}]", parse_msgs)
        if c is not None and c.id in classes:
            parse_msgs.append(f"duplicate class id {c.id!r}")
        elif c is not None:
            classes[c.id] = c

    boundary_note = doc.get("boundary_note", "")
    if not isinstance(boundary_note, str):
        parse_msgs.append("field 'boundary_note' must be a string")
        boundary_note = ""

    if parse_msgs:
        raise ParseError("; ".join(parse_msgs))
    # shape checks live in the constructor; it raises an aggregated DimensionError
    return ManifoldModel(
        name=name,
        h1_rank=ranks["h1_rank"],
        h2_rank=ranks["h2_rank"],
        pairing=tuple(pairing_rows),
        torus_default=torus_default,
        torus_exceptions=tuple(exceptions),
        torus_rule=torus_rule,
        sphere_gens=sphere_gens,
        classes=tuple(classes.values()),
        boundary_note=boundary_note,
    )


def model_to_document(m: ManifoldModel) -> dict:
    """Render a model to the document form; loading it back gives an equal model."""
    doc: dict = {
        "name": m.name,
        "h1_rank": m.h1_rank,
        "h2_rank": m.h2_rank,
        "pairing": [list(row) for row in m.pairing],
    }
    if m.torus_default:
        doc["torus_default"] = [list(s.vec) for s in m.torus_default]
    if m.torus_exceptions:
        doc["torus_exceptions"] = {
            cid: [list(s.vec) for s in vecs] for cid, vecs in m.torus_exceptions
        }
    if m.torus_rule is not None:
        doc["torus_rule"] = m.torus_rule
    if m.sphere_gens:
        doc["sphere_gens"] = [list(s.vec) for s in m.sphere_gens]
    if m.classes:
        doc["classes"] = [class_to_entry(c) for c in m.classes]
    if m.boundary_note:
        doc["boundary_note"] = m.boundary_note
    return doc


@contextmanager
def int_digit_limit(digits: int):
    """Set CPython's int/str conversion limit to digits (0: none) inside the
    block; a no-op on Pythons before 3.10.7, which have no limit."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


def read_json(path: str, what: str):
    """Parse the JSON document at path; every failure is one ParseError.

    what names the document in messages ("manifold", "trace", ...).
    Malformed covers non-UTF-8 bytes, nesting too deep for the decoder,
    integers longer than 4300 digits, CPython's default int/str limit, kept
    for documents even where a caller lifts it (the command line does), and
    strings with a lone surrogate escape such as "\\ud800".
    """
    return decode_json(read_text(path, what), path, what)


@contextmanager
def opened(path: str, what: str):
    """The file at path, open for binary reads; an OSError in the block is
    read_json's one ParseError."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc


def read_text(path: str, what: str, fh=None) -> str:
    """The text of the file at path: read_json's read step. fh, a binary file
    object on path, is read to its end from where it stands, in place of a
    new open of path."""
    if fh is None:
        with opened(path, what) as fh:
            return read_text(path, what, fh)
    # as open(path, encoding="utf-8") reads it, newlines translated
    wrapper = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        return wrapper.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} file {path} is not valid UTF-8: {exc}") from exc
    finally:
        wrapper.detach()  # fh stays open for its owner to close


def decode_json(text: str, path: str, what: str, object_hook=None):
    """read_json's decode step for the text of the file at path. object_hook
    is json's: each decoded object is replaced by what it returns."""
    try:
        with int_digit_limit(4300):
            doc = json.loads(text, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ParseError(f"{what} file {path} is not valid JSON: {exc}") from exc
    # only a \u escape can put a lone surrogate, which is not text, in a string
    if "\\u" in text and _has_lone_surrogate(doc):
        raise ParseError(f"{what} file {path} holds a lone surrogate escape (\\ud800-\\udfff)")
    return doc


_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _has_lone_surrogate(doc) -> bool:
    """Whether a string in doc, as a key or a value at any depth, holds a lone surrogate."""
    stack = [doc]
    while stack:
        x = stack.pop()
        kind = type(x)
        if kind is str:
            if _LONE_SURROGATE.search(x):
                return True
        elif kind is dict:
            stack += x
            stack += x.values()
        elif kind is list or kind is tuple:
            stack += x
    return False


def load_model(path: str) -> ManifoldModel:
    return model_from_document(read_json(path, "manifold"))
