"""End-to-end and per-layer benchmark of the skeinmod command line.

    python3 perfbench/run.py --workload {decompose,table,reduce}
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root; it needs nothing beyond the standard
library. All three workloads, one after the other:

    for w in decompose table reduce; do python3 perfbench/run.py --workload $w; done

It drives the real CLI (`python -m skeinmod ...` with
PYTHONPATH=src) as child processes, one at a time, from this
single-threaded process: each workload is a closed loop with one client. A
pass runs every invocation of the workload once; passes repeat until
--seconds have gone by. All timings are taken from outside the children.

Workloads (items are rows, link classes and moves respectively):

* decompose -- three builtin-manifold tables, the same for every seed:
  S2xS1 to bound 6 as text, T3 to bound 2 (sweep rule) as text and
  handlebody(2) to bound 3 in module s as JSON; 57,233 rows with large
  output. Enumeration, rendering and JSON building dominate, and only
  here can streaming output move first_byte_s and peak_rss_mb.
* table -- 5,000 seeded link classes of 1-6 components over a seeded
  manifold (h1 = h2 = 3). The Gamma'-heavy workload: Gamma' is built
  five times per class, with exception lookup, class-table lookup and,
  on every 50th class, 10**40-sized coordinates reaching Euclid.
* reduce -- one seeded 10**5-move trace on a 5-component class, reduced
  in modules sprime, s, l and w (the last as JSON). Input parsing
  dominates and Gamma' is built about twice per run, so a Gamma' cache
  should not move it while a slower input path or pairing should.

End-to-end metrics, medians over passes unless stated:

* items_per_s      items finished per second of child wall time (spawn to
                   exit with stdout drained);
* first_byte_s     mean over a pass's invocations of spawn to first stdout byte;
* setup_s          median wall of a CLI child that only starts up and
                   resolves the workload's manifolds (a freeness call);
* peak_rss_mb      the largest child ru_maxrss of the pass;
* cpu_us_per_item  child user+system CPU per item;
* failed_frac      failed invocations over attempted ones. It is 0 when all
                   is well, so it is printed and carried by the result's
                   `attempted` and `failed` fields rather than being a metric.

An invocation fails on a nonzero exit, any stderr output, a timeout or a
failed output check. Checks: the first pass is checked by the independent
oracle in oracle.py; every later pass must repeat its digests; at the
default seed (and for decompose, whose inputs do not depend on the seed,
at every seed) digests must equal those in digests.json; decompose also
byte-compares `decompose --manifold S2xS1 --bound 2` with the golden file.
Two self-checks run every time: a one-character corruption of one row must
be caught and counted, and a child's ru_maxrss must not move when this
process holds a large ballast (children are spawned by spawner.py, a small
process started before anything is loaded).

With --trace 1 the same untraced passes run, then one more pass through
tracer.py, whose output must equal the untraced bytes; the result then
holds the per-layer metrics. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = ROOT / "tests" / "golden" / "decompose_s2xs1_b2.txt"
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 120
SETUP_PER_PASS = 3
BALLAST_MB = 128
RSS_TOLERANCE_KB = 2048


class Spawner:
    """Client of spawner.py; see there for why children are started from it."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def run(self, argv: list, out: Path | None = None) -> dict:
        req = {"argv": argv, "env": self.env, "out": str(out) if out else None,
               "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner exited unexpectedly")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Invocation:
    label: str
    args: list
    items: int


@dataclass
class Workload:
    invocations: list
    # checks every invocation's output of one pass; None or an error per invocation
    check: Callable[[list], list]
    setup_manifolds: list
    # the invocation whose output the corruption self-check alters
    corrupt_index: int
    expected_spans: tuple = ()


def _try(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # any failure of a check is a failed invocation
        return f"{type(exc).__name__}: {exc}"
    return None


def decompose_workload(inputs: dict) -> Workload:
    specs = [
        ("S2xS1 B=6", "S2xS1", 6, "sprime", False, 27132),
        ("T3 B=2", "T3", 2, "sprime", False, 8001),
        ("handlebody(2) B=3 s json", "handlebody(2)", 3, "s", True, 22100),
    ]
    invs = []
    for label, man, bound, tag, as_json, rows in specs:
        args = ["decompose", "--manifold", man, "--bound", str(bound)]
        if tag != "sprime":
            args += ["--module", tag]
        if as_json:
            args.append("--json")
        invs.append(Invocation(label, args, rows))

    def check(outputs):
        return [_try(oracle.check_decompose, data, man, bound, tag, as_json)
                for data, (_, man, bound, tag, as_json, _) in zip(outputs, specs)]

    return Workload(
        invs, check, [s[1] for s in specs], corrupt_index=1,
        expected_spans=("cli.main", "cli.resolve_manifold", "cli.write", "manifold.builtin",
                        "skein.epsilon_prime", "skein.summand", "skein.gamma_prime",
                        "skein.epsilon", "manifold.pairing_eval", "manifold.torus_subgroup",
                        "manifold.rule_generators", "lattice.canon", "laurent.render",
                        "skein.LinkClass.render", "skein.SummandRelations.render"),
    )


def table_workload(inputs: dict) -> Workload:
    model = json.loads(inputs["table-manifold.json"])
    alphas = json.loads(inputs["table-alphas.json"])
    man = _rel(WORK / "table-manifold.json")
    inv = Invocation(
        f"table {len(alphas)} classes",
        ["table", "--manifold", man, "--alphas", _rel(WORK / "table-alphas.json")],
        len(alphas),
    )
    return Workload(
        [inv], lambda outputs: [_try(oracle.check_table, outputs[0], model, alphas)], [man],
        corrupt_index=0,
        expected_spans=("cli.main", "cli.resolve_manifold", "cli.write", "manifold.load_model",
                        "skein.alpha_from_refs", "skein.epsilon_prime", "skein.epsilon",
                        "skein.mu_index", "skein.summand", "skein.gamma_prime",
                        "manifold.pairing_eval", "manifold.torus_subgroup",
                        "manifold.class_by_id", "lattice.canon", "laurent.render"),
    )


def reduce_workload(inputs: dict) -> Workload:
    M = oracle.Model(json.loads(inputs["reduce-manifold.json"]))
    trace = json.loads(inputs["reduce-trace.json"])
    comps = oracle.resolve(M, trace["alpha"])
    raw = oracle.writhe(M, comps, trace["moves"])
    man = _rel(WORK / "reduce-manifold.json")
    base = ["reduce", "--manifold", man, "--trace", _rel(WORK / "reduce-trace.json")]
    tags = ["sprime", "s", "l", "w"]
    invs = [
        Invocation(f"reduce {tag}" + (" json" if tag == "w" else ""),
                   base + ["--module", tag] + (["--json"] if tag == "w" else []),
                   len(trace["moves"]))
        for tag in tags
    ]

    def check(outputs):
        errors = []
        sprime = None
        for tag, data in zip(tags, outputs):
            if tag != "sprime" and sprime is None:
                errors.append("not checked: the sprime output failed its check")
                continue
            try:
                reduced = oracle.check_reduce(data, M, comps, raw, tag, tag == "w", sprime)
            except Exception as exc:  # any failure of a check is a failed invocation
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if tag == "sprime":
                sprime = reduced
            errors.append(None)
        return errors

    return Workload(
        invs, check, [man], corrupt_index=0,
        expected_spans=("cli.main", "cli.resolve_manifold", "cli.write", "manifold.load_model",
                        "skein.load_trace", "skein.trace_from_document", "skein.trace_evaluate",
                        "skein.gamma_prime", "skein.SkeinElement.init", "manifold.pairing_eval",
                        "lattice.canon", "lattice.reduce", "laurent.render"),
    )


WORKLOADS = {"decompose": decompose_workload, "table": table_workload, "reduce": reduce_workload}


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _env_snapshot() -> dict:
    return {"loadavg": list(os.getloadavg()), "time": time.time()}


def _median(values):
    return statistics.median(values) if values else None


class Ledger:
    """Counts CLI invocations attempted and failed, keeping the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, label: str, res: dict, error: str | None = None):
        self.attempted += 1
        reasons = []
        if res["timed_out"]:
            reasons.append("timed out")
        if res["rc"] != 0:
            reasons.append(f"exit code {res['rc']}")
        if res["stderr"]:
            reasons.append(f"stderr: {res['stderr'].strip()[:200]}")
        if error:
            reasons.append(error)
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")
        return not reasons


def corrupt_one_char(data: bytes, seed: int) -> bytes:
    """Change one digit of the middle line to the next digit."""
    lines = data.split(b"\n")
    rng = random.Random(seed)
    for pos in list(range(len(lines) // 2, len(lines))) + list(range(len(lines) // 2)):
        digits = [i for i, ch in enumerate(lines[pos]) if 48 <= ch <= 57]
        if digits:
            i = rng.choice(digits)
            line = bytearray(lines[pos])
            line[i] = 48 + (line[i] - 48 + 1) % 10
            lines[pos] = bytes(line)
            return b"\n".join(lines)
    raise ValueError("output has no digit to corrupt")


def layer_metrics(docs: list, items: int, overhead: float, expected: tuple):
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    counts: dict = {}
    errors: dict = {}
    missing = set()
    for doc in docs:
        for name, parent, n, tot, slf in doc["agg"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + slf
            if parent != name:  # a nested call of the same span is inside its parent
                total[name] = total.get(name, 0.0) + tot
        for name, value in doc["counts"].items():
            agg = max if name == "lattice.max_gen_bits" else (lambda a, b: a + b)
            counts[name] = agg(counts.get(name, 0), value)
        for layer, n in doc["errors"].items():
            errors[layer] = errors.get(layer, 0) + n
        missing.update(doc["missing"])
    unfired = [name for name in expected if not calls.get(name)]

    def layer_self(layer, skip=()):
        return sum(v for k, v in self_s.items() if k.startswith(layer + ".") and k not in skip)

    m = {
        "cli.self_s": (layer_self("cli", ("cli.write",)), "s"),
        "cli.write_s": (total.get("cli.write", 0.0), "s"),
        "cli.out_bytes": (counts.get("cli.out_bytes", 0), "bytes"),
        "cli.resolve_manifold_s": (total.get("cli.resolve_manifold", 0.0), "s"),
        "manifold.load_model_s": (total.get("manifold.load_model", 0.0), "s"),
        "skein.gamma_prime.calls_per_item": (calls.get("skein.gamma_prime", 0) / items, "calls/item"),
        "skein.gamma_prime.self_s": (self_s.get("skein.gamma_prime", 0.0), "s"),
        "skein.index.self_s": (
            sum(self_s.get(f"skein.{n}", 0.0)
                for n in ("epsilon_prime", "epsilon", "mu_index", "summand")), "s"),
        "skein.alpha_from_refs_s": (total.get("skein.alpha_from_refs", 0.0), "s"),
        "skein.load_trace_s": (total.get("skein.load_trace", 0.0), "s"),
        "skein.trace_evaluate.self_s": (self_s.get("skein.trace_evaluate", 0.0), "s"),
        "manifold.pairing_eval.calls_per_item": (
            calls.get("manifold.pairing_eval", 0) / items, "calls/item"),
        "manifold.pairing_eval.s": (total.get("manifold.pairing_eval", 0.0), "s"),
        "manifold.torus_subgroup.s": (total.get("manifold.torus_subgroup", 0.0), "s"),
        "lattice.canon.calls_per_item": (calls.get("lattice.canon", 0) / items, "calls/item"),
        "lattice.canon.s": (total.get("lattice.canon", 0.0), "s"),
        "lattice.max_gen_bits": (counts.get("lattice.max_gen_bits", 0), "bits"),
        "lattice.reduce.s": (total.get("lattice.reduce", 0.0), "s"),
        "laurent.render.calls": (calls.get("laurent.render", 0), "count"),
        "laurent.render.s": (total.get("laurent.render", 0.0), "s"),
        "laurent.poly.count": (counts.get("laurent.poly", 0), "count"),
    }
    for layer in ("skein", "manifold", "lattice", "laurent"):
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    for layer in ("cli", "skein", "manifold", "lattice", "laurent"):
        m[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.spans_missing"] = (len(missing) + len(unfired), "count")
    return m, sorted(missing), unfired


def rss_selfcheck(spawner: Spawner, argv: list, env: dict) -> dict:
    """A child's ru_maxrss must not move when this process grows."""
    fresh = spawner.run(argv)["maxrss_kb"]
    ballast = bytearray(b"\x01") * (BALLAST_MB << 20)
    try:
        loaded = spawner.run(argv)["maxrss_kb"]
        # the same child started from this process shows what the spawner avoids
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        direct = usage.ru_maxrss
    finally:
        del ballast
    return {"ok": abs(loaded - fresh) <= RSS_TOLERANCE_KB, "fresh_kb": fresh,
            "with_ballast_kb": loaded, "direct_from_harness_kb": direct,
            "ballast_mb": BALLAST_MB}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "skeinmod" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: {ROOT} does not hold the skeinmod sources (src/skeinmod, "
              "tests/golden); run from a full checkout", file=sys.stderr)
        return 2
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(ROOT / "src")}
    # started first, while this process is still small
    spawner = Spawner(env)
    try:
        return bench(args, spawner, env)
    finally:
        spawner.close()


def bench(args, spawner: Spawner, env: dict) -> int:
    py = sys.executable
    cli = [py, "-m", "skeinmod"]
    WORK.mkdir(exist_ok=True)
    record = {
        "start": _env_snapshot(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
    }
    digests = json.loads((HERE / "digests.json").read_text())
    inputs = gen.generate(args.workload, args.seed)
    if gen.generate(args.workload, args.seed) != inputs:
        raise RuntimeError("the input generator gave different bytes for the same seed")
    input_sha = {}
    for name, data in inputs.items():
        (WORK / name).write_bytes(data)
        input_sha[name] = _sha(data)
    wl = WORKLOADS[args.workload](inputs)
    del inputs
    check_digests = args.workload == "decompose" or args.seed == DEFAULT_SEED
    want_out = digests.get(args.workload, {}).get("outputs", {}) if check_digests else {}
    want_in = digests.get(args.workload, {}).get("inputs", {}) if check_digests else {}
    ledger = Ledger()
    checks = {"inputs_match_digests": all(want_in.get(n, s) == s for n, s in input_sha.items())}

    # set-up: interpreter start, import, argparse and resolving the manifold.
    # Set-up children run between passes, so they sample the same stretch of
    # time as the passes do; the first round also writes the bytecode caches.
    setup_sha: dict = {}
    setup_walls: list = []

    def setup_child(man, timed=True):
        res = spawner.run(cli + ["freeness", "--manifold", man])
        first = setup_sha.setdefault(man, res["sha256"])
        ok = ledger.record(f"setup {man}", res,
                           None if res["sha256"] == first else "output differs between runs")
        if ok and timed:
            setup_walls.append(res["wall_s"])

    for man in wl.setup_manifolds:
        setup_child(man, timed=False)
    interp: list = []
    interp_nosite: list = []
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        prefix = "p0" if not passes else "pn"
        passes.append([spawner.run(cli + inv.args, WORK / f"{prefix}-{k}.out")
                       for k, inv in enumerate(wl.invocations)])
        for k in range(SETUP_PER_PASS):
            setup_child(wl.setup_manifolds[k % len(wl.setup_manifolds)])
        interp.append(spawner.run([py, "-c", "pass"])["wall_s"])
        interp_nosite.append(spawner.run([py, "-S", "-c", "pass"])["wall_s"])
    measured_s = time.perf_counter() - t0

    # checks: the oracle on the first pass, digests on every pass
    first_out = [(WORK / f"p0-{k}.out").read_bytes() for k in range(len(wl.invocations))]
    oracle_errors = wl.check(first_out)
    for p, results in enumerate(passes):
        for k, (inv, res) in enumerate(zip(wl.invocations, results)):
            errors = [oracle_errors[k]] if p == 0 and oracle_errors[k] else []
            if res["sha256"] != passes[0][k]["sha256"]:
                errors.append("output differs from the first pass")
            if inv.label in want_out and res["sha256"] != want_out[inv.label]:
                errors.append("output sha256 differs from digests.json")
            ledger.record(f"pass {p} {inv.label}", res, "; ".join(errors))

    if args.workload == "decompose":
        res = spawner.run(cli + ["decompose", "--manifold", "S2xS1", "--bound", "2"],
                          WORK / "golden.out")
        data = (WORK / "golden.out").read_bytes()
        error = _try(oracle.check_decompose, data, "S2xS1", 2, "sprime", False)
        if data != GOLDEN.read_bytes():
            error = "differs from tests/golden/decompose_s2xs1_b2.txt"
        checks["golden"] = ledger.record("golden S2xS1 B=2", res, error)

    # self-check: a one-character corruption must be caught and counted
    k = wl.corrupt_index
    bad = list(first_out)
    bad[k] = corrupt_one_char(first_out[k], args.seed)
    probe = Ledger()
    for inv, res, error in zip(wl.invocations, passes[0], wl.check(bad)):
        probe.record(inv.label, res, error)
    checks["corrupt_row"] = bool(probe.failures) and oracle_errors[k] is None
    record["corrupt_row_failed_frac"] = len(probe.failures) / probe.attempted
    del first_out, bad

    layer = None
    if args.trace:
        layer = traced_pass(spawner, wl, passes, ledger, py)

    rss = rss_selfcheck(spawner, cli + ["freeness", "--manifold", "S3"], env)
    checks["rss_ballast"] = rss["ok"]
    record["end"] = _env_snapshot()

    walls = [sum(r["wall_s"] for r in ps) for ps in passes]
    items = sum(inv.items for inv in wl.invocations)
    n = len(passes)
    e2e = {
        "items_per_s": (_median([items / w for w in walls]), "items/s", n),
        "first_byte_s": (_median([
            statistics.fmean(r["first_byte_s"] if r["first_byte_s"] is not None else r["wall_s"]
                             for r in ps) for ps in passes]), "s", n),
        "setup_s": (_median(setup_walls), "s", len(setup_walls)),
        "peak_rss_mb": (_median([max(r["maxrss_kb"] for r in ps) / 1024 for ps in passes]),
                        "MB", n),
        "cpu_us_per_item": (_median([
            sum(r["utime_s"] + r["stime_s"] for r in ps) / items * 1e6 for ps in passes]),
            "us/item", n),
        "failed_frac": (len(ledger.failures) / ledger.attempted, "ratio", ledger.attempted),
    }
    correct = not ledger.failures and all(checks.values())

    print(f"perfbench workload={args.workload} seed={args.seed} passes={n} "
          f"measured_s={measured_s:.2f} clients=1 (closed loop)")
    for name, (value, unit, count) in e2e.items():
        shown = "none" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>14} {unit:<8} n={count}")
    print(f"  interp_start_s (python -c pass, diagnostic) {_median(interp):.4f} s "
          f"n={len(interp)}; with -S {_median(interp_nosite):.4f} s")
    for name, sha in input_sha.items():
        print(f"  input {name}: sha256 {sha}")
    for inv, res in zip(wl.invocations, passes[0]):
        print(f"  {inv.label}: {inv.items} items, {res['out_bytes']} bytes, "
              f"sha256 {res['sha256']}")
    for name, ok in checks.items():
        print(f"  check {name}: {ok}")
    print(f"  corrupted row counted: failed_frac {record['corrupt_row_failed_frac']:.3g} "
          "over that pass's invocations")
    print(f"  rss self-check: {json.dumps(rss)}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    if layer is not None:
        metrics, missing, unfired = layer
        print("  per layer (traced pass; one process and no queues, so no layer waits):")
        for name, (value, unit) in metrics.items():
            print(f"    {name:<38} {value:>14.6g} {unit}")
        if missing or unfired:
            print(f"  spans missing: {missing}; expected spans that did not fire: {unfired}")
    record.update({
        "setup_walls_s": setup_walls,
        "interp_start_s": _median(interp), "interp_start_nosite_s": _median(interp_nosite),
        "inputs_sha256": input_sha,
        "outputs_sha256": {inv.label: res["sha256"]
                           for inv, res in zip(wl.invocations, passes[0])},
        "passes": [[{key: r[key] for key in ("wall_s", "first_byte_s", "maxrss_kb",
                                              "utime_s", "stime_s")} for r in ps]
                   for ps in passes],
        "checks": checks, "rss_selfcheck": rss, "failures": ledger.failures,
        "end_to_end": {k: {"value": v, "unit": u, "n": c} for k, (v, u, c) in e2e.items()},
    })
    print("report " + json.dumps(record))
    if layer is not None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer[0].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()
                   if k != "failed_frac"}
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


def traced_pass(spawner: Spawner, wl: Workload, passes: list, ledger: Ledger, py: str):
    docs = []
    traced_wall = 0.0
    for k, inv in enumerate(wl.invocations):
        spans = WORK / f"spans-{k}.json"
        res = spawner.run([py, str(HERE / "tracer.py"), str(spans), "--"] + inv.args)
        error = None if res["sha256"] == passes[0][k]["sha256"] else \
            "traced output differs from the untraced output"
        if ledger.record(f"traced {inv.label}", res, error):
            docs.append(json.loads(spans.read_text()))
        traced_wall += res["wall_s"]
    untraced = _median([sum(r["wall_s"] for r in ps) for ps in passes])
    items = sum(inv.items for inv in wl.invocations)
    return layer_metrics(docs, items, traced_wall / untraced - 1, wl.expected_spans)


if __name__ == "__main__":
    sys.exit(main())
