"""Command-line front end.

Six verbs: decompose, index, reduce, freeness, specialize, table. Output
is line-oriented plain text (or one JSON object with --json) and is
byte-identical for identical inputs. Every error exits nonzero with a
single line "error:<category>:<message>"; parse and usage problems exit
with code 2, dimension mismatches with code 3.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from .errors import DimensionError, ParseError
from .laurent import LaurentPoly2
from .manifold import (
    BUILTIN_NAMES,
    ClassLabel,
    ManifoldModel,
    _vec_str,
    builtin,
    class_to_entry,
    int_digit_limit,
    load_model,
    read_json,
)
from .skein import (
    _SPECIALIZE_BY_TAG,
    MODULE_TAGS,
    LinkClass,
    LinkIndex,
    _freeness_generators,
    alpha_from_refs,
    is_free,
    link_index,
    load_trace,
    trace_evaluate,
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
        raw = [p.strip() for p in m.group(2).split(",") if p.strip()]
        try:
            params = [int(p) for p in raw]
        except ValueError:
            raise ParseError(f"builtin parameters must be integers, got {m.group(2)!r}")
        return builtin(m.group(1), *params)
    return load_model(s)


def _triple_str(t) -> str:
    return f"({t.e1},{t.e2},{t.e3})"


def _index_text(idx: LinkIndex) -> str:
    return f"eps'={_triple_str(idx.eps_prime)} eps={idx.eps} mu={idx.mu} eps2={idx.eps2}"


def _index_json(idx: LinkIndex) -> dict:
    return {"eps_prime": list(idx.eps_prime), "eps": idx.eps, "mu": idx.mu, "eps2": idx.eps2}


def _summand_json(s) -> dict:
    return {"relations": [p.render(" ") for p in s.relations], "free": s.is_free}


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


def _enumerate_alphas(M: ManifoldModel, bound: int):
    """All multisets of size <= bound over classes with coordinates in [-bound, bound],
    ordered by size then lexicographically."""
    yield LinkClass(())
    if M.h1_rank == 0:
        return
    vecs = itertools.product(range(-bound, bound + 1), repeat=M.h1_rank)
    singles = sorted(map(ClassLabel.coordinate, vecs), key=ClassLabel.sort_key)
    for size in range(1, bound + 1):
        yield from map(LinkClass, itertools.combinations_with_replacement(singles, size))


def cmd_decompose(args) -> list[str]:
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
    indexed = ((alpha, link_index(M, alpha)) for alpha in _enumerate_alphas(M, args.bound))
    if args.json:
        payload = {
            "manifold": M.name,
            "module": args.module,
            "bound": args.bound,
            "rows": [
                {
                    "alpha": [class_to_entry(c) for c in alpha.components],
                    "eps_prime": list(idx.eps_prime),
                    **_summand_json(idx.summand(args.module)),
                }
                for alpha, idx in indexed
            ],
        }
        return [json.dumps(payload, indent=2)]
    lines = [f"manifold: {M.name}", f"module: {args.module}", f"bound: {args.bound}"]
    lines.extend(
        f"alpha={alpha.render()} eps'={_triple_str(idx.eps_prime)} "
        f"{idx.summand(args.module).render(' ')}"
        for alpha, idx in indexed
    )
    return lines


def cmd_reduce(args) -> list[str]:
    M = resolve_manifold(args.manifold)
    trace = load_trace(args.trace, M)
    raw, element = trace_evaluate(M, trace)
    if args.module != "sprime":
        element = element.specialize(args.module)
    alpha = trace.alpha
    exponents = next(iter(element.terms[alpha].terms))
    reduced_str = (
        f"({exponents[0]},{exponents[1]})" if args.module == "sprime" else str(exponents)
    )
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
        f"raw: ({raw.w1},{raw.w2})",
        f"reduced: {reduced_str}",
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
        if witness is not None:
            payload["witness"] = {"generator": list(t.vec), "class": list(e.free), "pairing": val}
        return [json.dumps(payload, indent=2)]
    return [f"manifold: {M.name}", f"module: {args.module}", verdict]


def cmd_specialize(args) -> list[str]:
    text = args.element
    idx = text.find("[")
    poly_text, carrier = (text[:idx], text[idx:].strip()) if idx >= 0 else (text, "")
    poly = LaurentPoly2.parse(poly_text)
    target = args.module
    result = poly.specialize(_SPECIALIZE_BY_TAG[target])
    rendered = (result.render(" ") + (" " + carrier if carrier else "")).strip()
    if args.json:
        payload = {"module": target, "input": text, "result": rendered}
        return [json.dumps(payload, indent=2)]
    return [rendered]


def cmd_table(args) -> list[str]:
    M = resolve_manifold(args.manifold)
    doc = read_json(args.alphas, "alphas")
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
    indexed = ((alpha, link_index(M, alpha)) for alpha in alphas)
    if args.json:
        payload = {
            "manifold": M.name,
            "rows": [
                {
                    "alpha": [class_to_entry(c) for c in alpha.components],
                    **_index_json(idx),
                    "sprime_relations": [p.render(" ") for p in idx.summand("sprime").relations],
                }
                for alpha, idx in indexed
            ],
        }
        return [json.dumps(payload, indent=2)]
    lines = [f"manifold: {M.name}"]
    lines.extend(
        f"alpha={alpha.render()} {_index_text(idx)} S'={idx.summand('sprime').render(' ')}"
        for alpha, idx in indexed
    )
    return lines


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
    p.add_argument("--bound", required=True, type=int)
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # exact results may pass CPython's int/str digit limit; --bound and documents keep it
        with int_digit_limit(0):
            lines = args.func(args)
        # command-line bytes that are not text in the locale come back unchanged
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(errors="surrogateescape")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    except _UsageError as exc:
        print(f"error:usage:{_one_line(exc)}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error:parse:{_one_line(exc)}", file=sys.stderr)
        return 2
    except DimensionError as exc:
        print(f"error:dimension:{_one_line(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
