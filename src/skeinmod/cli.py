"""Command-line front end: argument parsing, rendering and writing.

Six verbs: decompose, index, reduce, freeness, specialize, table; skein
reads reduce's trace. Output is line-oriented plain text (or one JSON
object with --json) and is byte-identical for identical inputs. Every
error exits nonzero with a single line "error:<category>:<message>"; parse
and usage problems exit with code 2, dimension mismatches with code 3, a
failed write to stdout with code 74 and running out of memory with 71.
"""

from __future__ import annotations

import argparse
import codecs
import itertools
import json
import os
import re
import sys
from collections.abc import Iterable
from math import gcd
from operator import add, attrgetter

from .errors import DimensionError, ParseError
from .laurent import LaurentPoly2
from .manifold import (
    BUILTIN_NAMES,
    ClassLabel,
    HomologyClass1,
    ManifoldModel,
    _INT_TYPE,
    _dot,
    _vec_str,
    builtin,
    class_from_entry,
    class_to_entry,
    decode_json,
    int_digit_limit,
    integer,
    load_model,
    read_text,
)
from .skein import (
    _SPECIALIZE_BY_TAG,
    MODULE_TAGS,
    LinkClass,
    LinkIndex,
    _check_class,
    _freeness_generators,
    _read_trace,
    alpha_from_refs,
    class_pairings,
    is_free,
    link_index,
)

_TAG_LABEL = {"sprime": "S'", "s": "S", "l": "L", "w": "W"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# -- input resolution ----------------------------------------------------------

_BUILTIN_CALL = re.compile(rf"^({'|'.join(map(re.escape, BUILTIN_NAMES))})\(([-0-9,\s]*)\)$")


def resolve_manifold(spec: str) -> ManifoldModel:
    """A builtin name like S2xS1 or lens(5,1), otherwise a document path."""
    s = spec.strip()
    if s in BUILTIN_NAMES:
        return builtin(s)
    m = _BUILTIN_CALL.match(s)
    if m:
        try:
            params = [int(p) for p in m.group(2).split(",")] if m.group(2).strip() else []
        except ValueError:
            raise ParseError(f"builtin parameters must be integers, got {m.group(2)!r}")
        return builtin(m.group(1), *params)
    return load_model(s)


def _tuple_str(values) -> str:
    return "(" + ",".join(map(str, values)) + ")"


def _index_text(idx: LinkIndex) -> str:
    return f"eps'={_tuple_str(idx.eps_prime)} eps={idx.eps} mu={idx.mu} eps2={idx.eps2}"


def _index_json(idx: LinkIndex) -> dict:
    return {"eps_prime": list(idx.eps_prime), "eps": idx.eps, "mu": idx.mu, "eps2": idx.eps2}


def _summand_json(s) -> dict:
    return {"relations": [p.render(" ") for p in s.relations], "free": s.is_free}


def _indented(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads nested depth levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _members_json(fields: dict, depth: int) -> str:
    """The "key": value members of json.dumps(fields, indent=2), depth levels deep."""
    return (",\n" + "  " * depth).join(
        f"{json.dumps(key)}: {_indented(value, depth)}" for key, value in fields.items()
    )


def _row_json(components, entries, members: str) -> str:
    """One element of "rows": an alpha's class entries (entries gives a class's
    text, _indented at depth 4), then members (_members_json at depth 3)."""
    inner = ",\n        ".join(map(entries, components))
    listed = f"[\n        {inner}\n      ]" if inner else "[]"
    return f'    {{\n      "alpha": {listed},\n      {members}\n    }}'


def _json_lines(head: dict, rows):
    """The lines of json.dumps({**head, "rows": [...]}, indent=2), given each
    row as _row_json writes it; one row is held at a time."""
    opening = "{\n  " + _members_json(head, 1) + ',\n  "rows": ['
    rows = iter(rows)
    row = next(rows, None)
    if row is None:
        yield opening + "]\n}"
        return
    yield opening
    for following in rows:
        yield row + ","
        row = following
    yield row
    yield "  ]\n}"


# -- verbs ---------------------------------------------------------------------


def cmd_index(args) -> list[str]:
    M = resolve_manifold(args.manifold)
    alpha = LinkClass.parse(args.alpha, M)
    idx = link_index(M, alpha)
    summands = {tag: idx.summand(tag) for tag in MODULE_TAGS}
    free_all = all(s.is_free for s in summands.values())
    if args.json:
        payload = {
            "manifold": M.name,
            "alpha": [class_to_entry(c) for c in alpha.components],
            **_index_json(idx),
            "summands": {tag: _summand_json(s) for tag, s in summands.items()},
            "free_all": free_all,
        }
        return [json.dumps(payload, indent=2)]
    lines = [f"manifold: {M.name}", f"alpha: {alpha.render()}", _index_text(idx)]
    for tag in MODULE_TAGS:
        lines.append(f"{_TAG_LABEL[tag]}: {summands[tag].render(' ')}")
    if free_all:
        lines.append("free in all four modules")
    return lines


# the results a _kept memo holds: a decompose walk's single-class records and
# link indices, and the texts and labels of decompose and table
_KEPT = 4096


def _kept(fn, key=None):
    """fn with its results kept by key(*args), or by its first argument; when
    _KEPT are kept, all are dropped before the next is added."""
    kept = {}

    def get(*args):
        k = args[0] if key is None else key(*args)
        value = kept.get(k)
        if value is None:
            if len(kept) >= _KEPT:
                kept.clear()
            value = kept[k] = fn(*args)
        return value

    return get


def _fold_pairings(folded: dict, pairs) -> dict:
    """A link class's folded pairings with one more class's (t, a) pairs folded
    in: folded maps each covector t to (a_t, g_t), a_t the first pairing t.h_i
    and g_t the gcd of the differences of the t.h_i."""
    folded = dict(folded)
    for t, a in pairs:
        a_t, g_t = folded.get(t, (a, 0))
        folded[t] = a_t, gcd(g_t, a - a_t)
    return folded


def _folded_records(folded: dict, mu: int):
    """Two pairing records for gamma_prime, each t with a_t and each t with
    g_t != 0 with a_t + g_t. With T = t.H, (a_t, T - a_t) and (a_t + g_t,
    T - a_t - g_t) span what (a, T - a) spans over t's pairings a, which
    differ from a_t by the multiples of g_t."""
    seconds = {t: a + g for t, (a, g) in folded.items() if g}
    return (folded, [a for a, _ in folded.values()], mu), (seconds, seconds.values(), mu)


def _index_key(known, folded: dict, total, pairs: dict, h, mu: int) -> tuple:
    """What a prefix's Gamma' and mu with a class h folded in are built from:
    mu, then a_t, g_t and T = t.H of the row for each covector t, first the
    prefix's (known holds each t with its a_t, g_t and t.H in folded's order)
    and then the class's others. pairs maps the class's covectors to their
    pairings t.h. Gamma' is spanned by (a_t, T - a_t) and (a_t + g_t,
    T - a_t - g_t), so rows with equal keys have equal link indices."""
    key = [mu]
    for t, a_t, g_t, on_total in known:
        a = pairs.get(t)
        if a is None:
            key += (a_t, g_t, on_total + _dot(t, h))
        else:
            key += (a_t, gcd(g_t, a - a_t), on_total + a)
    for t, a in pairs.items():
        if t not in folded:
            key += (a, 0, _dot(t, total) + a)
    return tuple(key)


def _enumerate_alphas(M: ManifoldModel, bound: int):
    """(components, alpha text, link_index) for all multisets alpha of size <=
    bound over classes with coordinates in [-bound, bound], ordered by size
    then lexicographically. For each size, a recursive walk over
    nondecreasing single indices gives each prefix of size - 1 classes with
    its H, folded pairings, mu, components and text. A row reads its
    _index_key off its prefix and its class; only a row whose key the index
    memo lacks folds its class in and builds Gamma'. The single records and
    the indices are _kept memos, so each keeps up to _KEPT."""
    yield (), "", link_index(M, None, (), ())
    rank = M.h1_rank
    if rank == 0 or bound == 0:
        return
    side = 2 * bound + 1
    count = side**rank
    # LinkClass.render's separator for coordinate labels
    sep = "," if rank == 1 else "; "

    @_kept
    def single(k):
        # the k-th class of product(range(-bound, bound + 1), repeat=rank),
        # which is ClassLabel.sort_key order since a coordinate id collates
        # as (0, free)
        coords = [0] * rank
        for pos in range(rank - 1, -1, -1):
            k, digit = divmod(k, side)
            coords[pos] = digit - bound
        label = ClassLabel.coordinate(coords)
        covectors, values, mu = class_pairings(M, label)
        return label, dict(zip(covectors, values)), mu

    def prefixes(prefix, low, depth):
        # prefix extended by depth classes of index low or more, in walk
        # order, each with the least index that may extend it
        if not depth:
            yield prefix, low
            return
        total, folded, mu, components, text = prefix
        for k in range(low, count):
            label, pairs, class_mu = single(k)
            yield from prefixes((
                tuple(map(add, total, label.h.free)),
                _fold_pairings(folded, pairs.items()),
                gcd(mu, class_mu),
                components + (label,),
                text + sep + label.id if components else label.id,
            ), k, depth - 1)

    def build_index(_known, folded, total, pairs, h, mu):
        records = _folded_records(_fold_pairings(folded, pairs.items()), mu)
        return link_index(M, None, records, tuple(map(add, total, h)))

    index = _kept(build_index, _index_key)

    root = ((0,) * rank, {}, 0, (), "")
    for size in range(1, bound + 1):
        for (total, folded, mu, components, text), low in prefixes(root, 0, size - 1):
            # each covector t of the prefix with a_t, g_t and t.H of the prefix
            known = [(t, a, g, _dot(t, total)) for t, (a, g) in folded.items()]
            for k in range(low, count):
                label, pairs, class_mu = single(k)
                yield (
                    components + (label,),
                    text + sep + label.id if components else label.id,
                    index(known, folded, total, pairs, label.h.free, gcd(mu, class_mu)),
                )


def cmd_decompose(args) -> Iterable[str]:
    M = resolve_manifold(args.manifold)
    if args.bound < 0:
        raise ParseError(f"bound must be >= 0, got {args.bound}")
    # (2B+1)^rank single classes; the bit lengths decide unless the power is small
    side, rank = 2 * args.bound + 1, M.h1_rank
    if rank * (side.bit_length() - 1) >= sys.maxsize.bit_length() or side**rank > sys.maxsize:
        raise ParseError(
            f"bound {args.bound} on h1_rank {rank} gives (2*bound+1)^h1_rank "
            f"single classes, more than {sys.maxsize}"
        )
    module = args.module
    indexed = _enumerate_alphas(M, args.bound)
    # each index's text is formatted once while its memo holds it; the memos
    # belong to these functions, made anew for each run
    if args.json:
        # a class entry's text by its id, which fixes a coordinate label's entry
        entries = _kept(lambda c: _indented(class_to_entry(c), 4), attrgetter("id"))
        members = _kept(lambda idx: _members_json(
            {"eps_prime": list(idx.eps_prime), **_summand_json(idx.summand(module))}, 3
        ))
        head = {"manifold": M.name, "module": module, "bound": args.bound}
        rows = (_row_json(components, entries, members(idx)) for components, _, idx in indexed)
        return _json_lines(head, rows)
    tail = _kept(
        lambda idx: f"eps'={_tuple_str(idx.eps_prime)} {idx.summand(module).render(' ')}"
    )
    return itertools.chain(
        (f"manifold: {M.name}", f"module: {module}", f"bound: {args.bound}"),
        ("alpha=[" + text + "] " + tail(idx) for _, text, idx in indexed),
    )


def cmd_reduce(args) -> list[str]:
    M = resolve_manifold(args.manifold)
    alpha, raw, element = _read_trace(args.trace, M)
    if args.module != "sprime":
        element = element.specialize(args.module)
    exponents = next(iter(element.terms[alpha].terms))
    if args.json:
        payload = {
            "manifold": M.name,
            "alpha": [class_to_entry(c) for c in alpha.components],
            "module": args.module,
            "raw": [raw.w1, raw.w2],
            "reduced": list(exponents) if args.module == "sprime" else exponents,
            "element": element.render(" "),
        }
        return [json.dumps(payload, indent=2)]
    return [
        f"manifold: {M.name}",
        f"alpha: {alpha.render()}",
        f"module: {args.module}",
        f"raw: {_tuple_str(raw)}",
        f"reduced: {_tuple_str(exponents) if args.module == 'sprime' else exponents}",
        f"element: {element.render(' ')}",
    ]


def cmd_freeness(args) -> list[str]:
    M = resolve_manifold(args.manifold)
    free, witness = is_free(M, args.module)
    kind = "sphere" if args.module == "w" else "torus"
    if free:
        if not _freeness_generators(M, args.module):
            reason = f"no {kind} classes"
        elif M.h1_rank == 0:
            reason = "no homology to pair against"
        else:
            reason = f"all {kind} pairings vanish"
        verdict = f"free ({reason})"
    else:
        t, e = witness
        val = M.pairing_eval(t, e)
        verdict = (
            f"NOT free; witness {kind} {_vec_str(t.vec)} pairs {val} "
            f"with class {_vec_str(e.free)}"
        )
    if args.json:
        payload = {"manifold": M.name, "module": args.module, "free": free}
        if free:
            payload["reason"] = reason
        else:
            payload["witness"] = {"generator": list(t.vec), "class": list(e.free), "pairing": val}
        return [json.dumps(payload, indent=2)]
    return [f"manifold: {M.name}", f"module: {args.module}", verdict]


def cmd_specialize(args) -> list[str]:
    text = args.element
    idx = text.find("[")
    poly_text, carrier = (text[:idx], text[idx:].strip()) if idx >= 0 else (text, "")
    # the carrier is one bracket group, nested groups allowed, that closes at the end
    depths = list(itertools.accumulate((ch == "[") - (ch == "]") for ch in carrier))
    if depths and (depths[-1] or 0 in depths[:-1]):
        raise ParseError(f"the carrier must be one bracket group at the end of {text!r}")
    poly = LaurentPoly2.parse(poly_text)
    target = args.module
    result = poly.specialize(_SPECIALIZE_BY_TAG[target])
    rendered = (result.render(" ") + (" " + carrier if carrier else "")).strip()
    if args.json:
        payload = {"module": target, "input": text, "result": rendered}
        return [json.dumps(payload, indent=2)]
    return [rendered]


def _label_hook(M: ManifoldModel):
    """json's object_hook for an alphas file over M: a well-formed class ref
    whose id and torsion_tag are ASCII comes back as its ClassLabel, any other
    object unchanged. ASCII holds no lone surrogate, so decode_json's walk
    still reads every string that may hold one. A ref that is only an id is
    looked up once while a _kept memo holds it, so repeated refs share a
    label; one of just an id and an h of ints is built here, as class_from_entry would."""
    by_id = _kept(M.class_by_id)

    def label(entry):
        cid, h = entry.get("id"), entry.get("h")
        if type(cid) is str and cid.isascii():
            if len(entry) == 1:
                return by_id(cid) or entry
            if len(entry) == 2 and type(h) is list and _INT_TYPE.issuperset(map(type, h)):
                return ClassLabel(cid, HomologyClass1(tuple(h)))
        problems = []
        found = class_from_entry(entry, "", problems, M)
        if problems or not found.id.isascii() or not (found.h.torsion_tag or "").isascii():
            return entry
        return found

    return label


def cmd_table(args) -> Iterable[str]:
    M = resolve_manifold(args.manifold)
    # one read of the file; each ref is resolved as json builds its object
    text = read_text(args.alphas, "alphas")
    try:
        doc = decode_json(text, args.alphas, "alphas", _label_hook(M))
    except ParseError:
        # calling the hook adds a frame, so a document nested near the recursion
        # limit may fail only with it: the plain decode gives the outcome
        doc = decode_json(text, args.alphas, "alphas")
    del text
    if not isinstance(doc, list):
        raise ParseError("alphas file must hold a JSON array of class-ref arrays")
    # only a row that still holds an object is resolved again, and so named in
    # the faults; the rows then hold labels alone
    problems = []
    for row, refs in enumerate(doc):
        if type(refs) is not list or not all(type(r) is ClassLabel for r in refs):
            try:
                doc[row] = list(alpha_from_refs(refs, M, f"alphas[{row}]: ").components)
            except ParseError as exc:
                problems.append(str(exc))
    if problems:
        raise ParseError("; ".join(problems))
    # a class of the wrong length is the one fault link_index raises: check
    # every row before the first byte, in its link class's order, then build
    # and index each row's link class as it is written. Rows are popped off
    # the reversed document, so none is kept past its line
    rank = M.h1_rank
    for refs in doc:
        if any(len(c.h.free) != rank for c in refs):
            for c in LinkClass(refs).components:
                _check_class(c, rank)
    doc.reverse()
    alphas = (alpha_from_refs(doc.pop(), M) for _ in range(len(doc)))
    indexed = ((alpha, link_index(M, alpha)) for alpha in alphas)
    # S' depends on eps' alone, so its texts are kept by eps', not by index
    if args.json:
        entries = _kept(lambda c: _indented(class_to_entry(c), 4))
        relations = _kept(lambda idx: [p.render(" ") for p in idx.summand("sprime").relations],
                          attrgetter("eps_prime"))
        members = _kept(lambda idx: _members_json(
            {**_index_json(idx), "sprime_relations": relations(idx)}, 3
        ))
        rows = (_row_json(alpha.components, entries, members(idx)) for alpha, idx in indexed)
        return _json_lines({"manifold": M.name}, rows)
    sprime = _kept(lambda idx: idx.summand("sprime").render(" "), attrgetter("eps_prime"))
    tail = _kept(lambda idx: f"{_index_text(idx)} S'={sprime(idx)}")
    return itertools.chain(
        (f"manifold: {M.name}",),
        (f"alpha={alpha.render()} {tail(idx)}" for alpha, idx in indexed),
    )


# -- parser and entry point ------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="skeinmod",
        description="Two-variable skein module indices, summands, and trace reduction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        return p

    p = add("index", "indices and summand relations for one alpha")
    p.add_argument("--manifold", required=True, help="builtin name or document path")
    p.add_argument("--alpha", required=True, help='inline spec like "[1,2]"')
    p.set_defaults(func=cmd_index)

    p = add("decompose", "summand table over all alpha up to a bound")
    p.add_argument("--manifold", required=True)
    p.add_argument("--bound", required=True, type=integer)
    p.add_argument("--module", choices=MODULE_TAGS, default="sprime")
    p.set_defaults(func=cmd_decompose)

    p = add("reduce", "evaluate a move trace and reduce its writhe exponents")
    p.add_argument("--manifold", required=True)
    p.add_argument("--trace", required=True, help="trace document path")
    p.add_argument("--module", choices=MODULE_TAGS, default="sprime")
    p.set_defaults(func=cmd_reduce)

    p = add("freeness", "whole-module freeness verdict with witness")
    p.add_argument("--manifold", required=True)
    p.add_argument("--module", choices=MODULE_TAGS, default="sprime")
    p.set_defaults(func=cmd_freeness)

    p = add("specialize", "apply a specialization map to a rendered element")
    p.add_argument("element", help='rendered element like "q1^3 q2^1 [x]"')
    p.add_argument("--module", choices=("s", "l", "w"), required=True)
    p.set_defaults(func=cmd_specialize)

    p = add("table", "batch index table for alphas listed in a JSON file")
    p.add_argument("--manifold", required=True)
    p.add_argument("--alphas", required=True, help="path to a JSON array of class-ref arrays")
    p.set_defaults(func=cmd_table)

    return parser


def _one_line(exc) -> str:
    return " ".join(str(exc).split())


def _escape_unencodable(exc):
    """Stdout's codec error handler: a surrogate U+DC80-U+DCFF (a command-line
    byte that was not text) goes out as that byte, as with surrogateescape;
    any other character the encoding cannot hold as a backslash escape."""
    if not isinstance(exc, UnicodeEncodeError):
        raise exc
    ch = exc.object[exc.start]
    if "\udc80" <= ch <= "\udcff":
        return bytes([ord(ch) - 0xDC00]), exc.start + 1
    return ch.encode("ascii", "backslashreplace").decode("ascii"), exc.start + 1


_STDOUT_ERRORS = "skeinmod-escape"
codecs.register_error(_STDOUT_ERRORS, _escape_unencodable)

_WRITE_BLOCK = 1 << 16


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line and a newline to stdout: the first line at once, the
    rest in blocks of about 64 KiB, each flushed as it is written."""
    # the first line fills the first block by itself
    block, size = [], _WRITE_BLOCK
    for line in lines:
        block.append(line)
        size += len(line)
        if size >= _WRITE_BLOCK:
            sys.stdout.write("\n".join(block) + "\n")
            sys.stdout.flush()
            block, size = [], 0
    if block:
        sys.stdout.write("\n".join(block) + "\n")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # exact results may pass CPython's int/str digit limit; --bound and
        # documents keep it. Verbs check their input and return lines that are
        # formatted as they are written, so the writes run inside the lift too.
        with int_digit_limit(0):
            lines = args.func(args)
            if hasattr(sys.stdout, "reconfigure"):
                sys.stdout.reconfigure(errors=_STDOUT_ERRORS)
            _write_lines(lines)
            sys.stdout.flush()
        return 0
    except OSError as exc:
        # a write to stdout failed: stdout goes to devnull so the flush at
        # exit is silent. A reader that closed it early (| head) gets a
        # SIGPIPE death's exit code; any other fault is EX_IOERR
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141
        print(f"error:io:cannot write stdout: {_one_line(exc)}", file=sys.stderr)
        return 74
    except _UsageError as exc:
        print(f"error:usage:{_one_line(exc)}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error:parse:{_one_line(exc)}", file=sys.stderr)
        return 2
    except DimensionError as exc:
        print(f"error:dimension:{_one_line(exc)}", file=sys.stderr)
        return 3
    except MemoryError:  # EX_OSERR; what was written before it stays written
        print("error:resource:out of memory", file=sys.stderr)
        return 71


if __name__ == "__main__":
    sys.exit(main())
