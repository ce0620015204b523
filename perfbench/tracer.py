"""Run the skeinmod CLI with timing spans around each layer's functions.

    python perfbench/tracer.py SPANS.json -- <skeinmod arguments>

Wraps the functions and methods listed in SPANS, in every loaded skeinmod
namespace that holds them (cli imports many of them by name), and times
stdout writes through a proxy. Standard output is byte-identical to
`python -m skeinmod <arguments>`. At exit it writes SPANS.json holding
per-(span, parent span) aggregates (calls, total and self seconds), the
full records (name, start, end, parent) of the coarse spans, counters,
per-layer exception counts and the names it could not find. Self time is
a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = ("cli", "skein", "manifold", "lattice", "laurent")

# (module, attribute path, span name); several targets may share a name.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "resolve_manifold", "cli.resolve_manifold"),
    ("skein", "gamma_prime", "skein.gamma_prime"),
    ("skein", "epsilon_prime", "skein.epsilon_prime"),
    ("skein", "epsilon", "skein.epsilon"),
    ("skein", "mu_index", "skein.mu_index"),
    ("skein", "summand", "skein.summand"),
    ("skein", "alpha_from_refs", "skein.alpha_from_refs"),
    ("skein", "load_trace", "skein.load_trace"),
    ("skein", "trace_from_document", "skein.trace_from_document"),
    ("skein", "trace_evaluate", "skein.trace_evaluate"),
    ("skein", "LinkClass.render", "skein.LinkClass.render"),
    ("skein", "SummandRelations.render", "skein.SummandRelations.render"),
    ("skein", "SkeinElement.__init__", "skein.SkeinElement.init"),
    ("skein", "SkeinElement.specialize", "skein.SkeinElement.specialize"),
    ("skein", "SkeinElement.render", "skein.SkeinElement.render"),
    ("manifold", "builtin", "manifold.builtin"),
    ("manifold", "load_model", "manifold.load_model"),
    ("manifold", "model_from_document", "manifold.model_from_document"),
    ("manifold", "ManifoldModel.pairing_eval", "manifold.pairing_eval"),
    ("manifold", "ManifoldModel.torus_subgroup", "manifold.torus_subgroup"),
    ("manifold", "ManifoldModel.rule_generators", "manifold.rule_generators"),
    ("manifold", "ManifoldModel.sphere_subgroup", "manifold.sphere_subgroup"),
    ("manifold", "ManifoldModel.class_by_id", "manifold.class_by_id"),
    ("lattice", "ExponentLattice._canonicalize", "lattice.canon"),
    ("lattice", "ExponentLattice.reduce", "lattice.reduce"),
    ("lattice", "ExponentLattice.sum_image", "lattice.sum_image"),
    ("lattice", "ExponentLattice.index_triple", "lattice.index_triple"),
    ("lattice", "ExponentLattice.doubled", "lattice.doubled"),
    ("laurent", "LaurentPoly1.render", "laurent.render"),
    ("laurent", "LaurentPoly2.render", "laurent.render"),
    ("laurent", "LaurentPoly2.specialize", "laurent.specialize"),
    ("laurent", "LaurentPoly1.__add__", "laurent.arith"),
    ("laurent", "LaurentPoly2.__add__", "laurent.arith"),
    ("laurent", "LaurentPoly1.__sub__", "laurent.arith"),
    ("laurent", "LaurentPoly2.__sub__", "laurent.arith"),
    ("laurent", "LaurentPoly1.__mul__", "laurent.arith"),
    ("laurent", "LaurentPoly2.__mul__", "laurent.arith"),
]

# Counted, not timed: too frequent and too short for a span.
COUNTERS = [
    ("laurent", "LaurentPoly1.__init__", "laurent.poly"),
    ("laurent", "LaurentPoly2.__init__", "laurent.poly"),
]

# Spans kept as full records; the rest are only aggregated per (name, parent).
COARSE = {
    "cli.main", "cli.resolve_manifold", "cli.write", "manifold.builtin",
    "manifold.load_model", "manifold.model_from_document", "skein.load_trace",
    "skein.trace_from_document", "skein.trace_evaluate",
}


class Tracer:
    def __init__(self):
        self.stack: list = []  # [name, time covered by children]
        self.agg: dict = {}  # (name, parent) -> [calls, total_s, self_s]
        self.records: list = []  # (name, start, end, parent)
        self.counts: dict = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.max_gen_bits = 0
        self.missing: list = []

    def span(self, name, fn, probe=None):
        layer = name.split(".", 1)[0]
        stack, agg = self.stack, self.agg
        coarse = name in COARSE
        now = time.perf_counter

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(*args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent is None or not parent.startswith(layer + "."):
                    self.errors[layer] += 1
                raise
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if coarse:
                    self.records.append((name, t0, t1, parent))

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def probe_gens(self, lattice):
        for pair in lattice.gens:
            for x in pair:
                bits = abs(x).bit_length()
                if bits > self.max_gen_bits:
                    self.max_gen_bits = bits

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"skeinmod.{layer}")
            except ModuleNotFoundError:
                pass
        namespaces = [importlib.import_module("skeinmod")] + list(modules.values())
        for kind, table in (("span", SPANS), ("counter", COUNTERS)):
            for mod, path, name in table:
                owner = modules.get(mod)
                *outer, attr = path.split(".")
                try:
                    for part in outer:
                        owner = getattr(owner, part)
                    raw = vars(owner)[attr]
                except (AttributeError, KeyError, TypeError):
                    self.missing.append(f"{mod}.{path}")
                    continue
                if kind == "counter":
                    new = self.counter(name, raw)
                elif name == "lattice.canon":
                    new = self.span(name, raw, self.probe_gens)
                else:
                    new = self.span(name, raw)
                if outer:
                    setattr(owner, attr, new)
                    continue
                # a module-level function: patch every namespace that holds it
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw:
                            setattr(ns, key, new)
        return importlib.import_module("skeinmod.cli")

    def dump(self, path, out_bytes):
        doc = {
            "agg": [[n, p, *v] for (n, p), v in self.agg.items()],
            "records": self.records,
            "counts": {**self.counts, "cli.out_bytes": out_bytes,
                       "lattice.max_gen_bits": self.max_gen_bits},
            "errors": self.errors,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Stdout:
    """Forwards text to the real stdout; each write is a cli.write span."""

    def __init__(self, tracer, real):
        self._real = real
        self.out_bytes = 0
        self.write = tracer.span("cli.write", self._write)

    def _write(self, text):
        n = self._real.write(text)
        self._real.flush()
        self.out_bytes += len(text.encode(self._real.encoding))
        return n

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <skeinmod arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    cli = tracer.install()
    proxy = _Stdout(tracer, sys.stdout)
    sys.stdout = proxy
    try:
        rc = cli.main(argv[2:])
    finally:
        sys.stdout = proxy._real
        sys.stdout.flush()
        tracer.dump(argv[0], proxy.out_bytes)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
