"""Acceptance checks, one test per criterion, each printing a PASS line.

Every comparison here is exact: all arithmetic is integer arithmetic, so
there are no tolerances anywhere. Randomized criteria use fixed seeds.
"""

import itertools
import json
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

from oracles import member_by_enumeration, member_by_invariants
from skeinmod.lattice import ExponentLattice
from skeinmod.laurent import (
    SPECIALIZE_L,
    SPECIALIZE_S,
    SPECIALIZE_W,
    LaurentPoly1,
    LaurentPoly2,
)
from skeinmod.manifold import ClassLabel, HomologyClass1, HomologyClass2, builtin
from skeinmod.skein import (
    MODULE_TAGS,
    LinkClass,
    MixedCross,
    MoveTrace,
    SelfCross,
    SkeinElement,
    Slide,
    Twist,
    epsilon,
    epsilon_prime,
    gamma_prime,
    is_free,
    mu_index,
    summand,
    trace_evaluate,
)

P1, P2 = LaurentPoly1, LaurentPoly2
GOLDEN = Path(__file__).parent / "golden" / "decompose_s2xs1_b2.txt"


def cl(k):
    return ClassLabel(str(k), HomologyClass1((k,)))


def alpha_of(*ks):
    return LinkClass(tuple(cl(k) for k in ks))


def rel2(a, b):
    return P2.monomial(a, b) - P2.one()


# -- shared random-trace machinery ------------------------------------------------


def random_alpha(rng, M, max_size=3):
    size = rng.randint(1, max_size)
    labels = []
    for _ in range(size):
        if M.h1_rank == 0:
            labels.append(ClassLabel(f"c{rng.randint(0, 2)}", HomologyClass1(())))
        else:
            vec = tuple(rng.randint(-3, 3) for _ in range(M.h1_rank))
            labels.append(ClassLabel(",".join(str(x) for x in vec), HomologyClass1(vec)))
    return LinkClass(tuple(labels))


def random_slide(rng, M, alpha):
    """A slide of a random component along a class of its torus subgroup."""
    i = rng.randint(1, alpha.size)
    gens = M.torus_subgroup(alpha.components[i - 1])
    vec = [0] * M.h2_rank
    for g in gens:
        c = rng.randint(-2, 2)
        for k in range(M.h2_rank):
            vec[k] += c * g.vec[k]
    return Slide(i, HomologyClass2(tuple(vec)))


def random_trace(rng, M):
    alpha = random_alpha(rng, M)
    moves = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(4)
        i = rng.randint(1, alpha.size)
        s = rng.choice((1, -1))
        if kind == 0:
            moves.append(Twist(i, s))
        elif kind == 1:
            moves.append(SelfCross(i, s))
        elif kind == 2 and alpha.size >= 2:
            j = rng.choice([x for x in range(1, alpha.size + 1) if x != i])
            moves.append(MixedCross(i, j, s))
        else:
            moves.append(random_slide(rng, M, alpha))
    return MoveTrace(alpha, tuple(moves))


TRACE_MODELS = [
    builtin("S2xS1"),
    builtin("T3"),
    builtin("S3"),
    builtin("lens", 7, 2),
    builtin("handlebody", 2),
]


# -- criteria ---------------------------------------------------------------------


def test_criterion_1_worked_example_indices():
    M = builtin("S2xS1")
    assert epsilon_prime(M, alpha_of(1, 2)) == (2, 1, 3)
    assert summand(M, alpha_of(1, 2), "sprime").relations == (rel2(4, 2), rel2(6, 0))
    for r in range(1, 7):
        ones = alpha_of(*([1] * r))
        assert epsilon_prime(M, ones) == (1, r - 1, 0)
        assert summand(M, ones, "sprime").relations == (rel2(2, 2 * (r - 1)),)
    rng = random.Random(101)
    for _ in range(50):
        ks = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
        assert epsilon(M, alpha_of(*ks)) == abs(sum(ks))
    print(
        "PASS criterion 1: S2xS1 indices exact: eps'([1,2])=(2,1,3) with ideal "
        "{q1^4 q2^2 - 1, q1^6 - 1}; eps'=(1,r-1,0) with {q1^2 q2^(2r-2) - 1} for "
        "r=1..6; eps = |sum(alpha)| on 50 random multisets"
    )


def test_criterion_2_cyclic_torsion_exponents():
    M = builtin("S2xS1")
    checked_zero = checked_nonzero = 0
    for k in range(-6, 7):
        if k == 0:
            continue
        x = SkeinElement.standard(M, alpha_of(k), "s")
        assert x.scale(P1.monomial(2 * k) - P1.one()).is_zero()
        checked_zero += 1
        for kp in range(1, abs(k)):
            if k % kp == 0:
                continue
            assert not x.scale(P1.monomial(2 * kp) - P1.one()).is_zero()
            checked_nonzero += 1
    print(
        f"PASS criterion 2: (q^2k - 1)[x_[k]] = 0 in S for all {checked_zero} values "
        f"k in [-6,6]\\{{0}}, and nonzero for all {checked_nonzero} smaller exponents "
        "2k' < 2|k| with k' not dividing k (exact)"
    )


def test_criterion_3_specialization_diagram():
    rng = random.Random(303)
    smaps = {"s": SPECIALIZE_S, "l": SPECIALIZE_L, "w": SPECIALIZE_W}
    count = 0
    for n in range(200):
        M = TRACE_MODELS[n % len(TRACE_MODELS)]
        tr = random_trace(rng, M)
        raw, el = trace_evaluate(M, tr)
        for tag, smap in smaps.items():
            direct = SkeinElement(
                tag, M, {tr.alpha: P1.monomial(smap.exponent(raw.w1, raw.w2))}
            )
            assert el.specialize(tag) == direct
        count += 1
    print(
        f"PASS criterion 3: specialize-then-reduce equals reduce-then-specialize "
        f"for S, L, W on {count} random traces across 5 builtin models (exact)"
    )


def test_criterion_4_sphere_torus_gcd_identity():
    M = builtin("S2xS1")
    classes = [cl(k) for k in range(-5, 6)]
    count = 0
    for size in range(0, 4):
        for combo in itertools.combinations_with_replacement(classes, size):
            alpha = LinkClass(combo)
            t = epsilon_prime(M, alpha)
            assert gcd(t.e1, t.e3) == mu_index(M, alpha)
            count += 1
    print(
        f"PASS criterion 4: gcd(e1, e3) = mu(alpha) on S2xS1 for all {count} "
        "multisets over classes |h| <= 5 with size <= 3 (exact)"
    )


def test_criterion_5_lattice_against_oracles():
    """Membership and reduction vs. independent oracles.

    The primary oracle compares invariant factors (rank, gcd of entries,
    gcd of 2x2 minors) of the generator matrix with and without the query
    row; that test is exact for every input. A literal bounded-coefficient
    enumeration is used one-directionally: a hit proves membership, but a
    miss proves nothing, because true members can require coefficients
    beyond any fixed bound (e.g. (20,-20) over {(5,1),(4,1)} needs
    coefficients (100,-120), far outside [-50,50]).
    """
    rng = random.Random(505)
    sets = queries = 0
    for _ in range(500):
        gens = [
            (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(0, 4))
        ]
        lat = ExponentLattice(gens)
        vs = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(6)]
        for _ in range(4):
            coeffs = [rng.randint(-6, 6) for _ in gens]
            vs.append(
                (
                    sum(c * g[0] for c, g in zip(coeffs, gens)),
                    sum(c * g[1] for c, g in zip(coeffs, gens)),
                )
            )
        for v in vs:
            expected = member_by_invariants(gens, v)
            assert lat.contains(v) == expected
            if len(gens) <= 2 and member_by_enumeration(gens, v, bound=50):
                assert lat.contains(v)
            r = lat.reduce(v)
            assert lat.reduce(r) == r
            assert member_by_invariants(gens, (v[0] - r[0], v[1] - r[1]))
            if gens:
                g = gens[0]
                assert lat.reduce((v[0] + g[0], v[1] + g[1])) == r
            queries += 1
        sets += 1
    print(
        f"PASS criterion 5: lattice contains/reduce agree with the invariant-factor "
        f"oracle on {sets} random generator sets ({queries} queries), with "
        "bounded-enumeration cross-checks on small sets (exact)"
    )


def test_criterion_6_freeness_verdicts():
    free_models = [builtin("S3"), builtin("lens", 5, 1)] + [
        builtin("handlebody", g) for g in range(0, 4)
    ]
    for m in free_models:
        for tag in MODULE_TAGS:
            assert is_free(m, tag) == (True, None), (m.name, tag)
    m = builtin("S2xS1")
    for tag in MODULE_TAGS:
        free, witness = is_free(m, tag)
        assert not free
        t, e = witness
        assert m.pairing_eval(t, e) != 0
    t3 = builtin("T3")
    for tag in ("sprime", "s", "l"):
        free, witness = is_free(t3, tag)
        assert not free
        assert t3.pairing_eval(*witness) != 0
    assert is_free(t3, "w") == (True, None)
    print(
        "PASS criterion 6: free for S3, lens(5,1), handlebody(g<=3) in all four "
        "modules; NOT free with verified witnesses for S2xS1 (all four) and T3 "
        "(sprime/s/l); T3 free for w (exact verdicts)"
    )


def test_criterion_7_slide_neutrality():
    rng = random.Random(707)
    count = 0
    for n in range(200):
        M = TRACE_MODELS[n % len(TRACE_MODELS)]
        tr = random_trace(rng, M)
        raw1, el1 = trace_evaluate(M, tr)
        slide = random_slide(rng, M, tr.alpha)
        raw2, el2 = trace_evaluate(M, MoveTrace(tr.alpha, tr.moves + (slide,)))
        assert el2 == el1
        delta = (raw2.w1 - raw1.w1, raw2.w2 - raw1.w2)
        assert gamma_prime(M, tr.alpha).doubled().contains(delta)
        count += 1
    print(
        f"PASS criterion 7: appending a slide left the reduced element unchanged "
        f"and moved the raw writhe pair by a doubled-lattice element on {count} "
        "random traces (exact)"
    )


def _run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "skeinmod", *args], capture_output=True, text=True
    )


def test_criterion_8_cli_golden_and_error_codes(tmp_path):
    res = _run_cli("decompose", "--manifold", "S2xS1", "--bound", "2")
    assert res.returncode == 0
    golden = GOLDEN.read_bytes()
    assert res.stdout.encode("utf-8") == golden
    assert "alpha=[1,2] eps'=(2,1,3) R'/(q1^4 q2^2 - 1, q1^6 - 1)" in res.stdout

    # documented error codes: parse -> 2, dimension -> 3, usage -> 2
    bad_trace = tmp_path / "bad.json"
    bad_trace.write_text(
        json.dumps(
            {"alpha": [{"id": "1", "h": [1]}], "moves": [{"type": "twist", "i": 4, "s": 1}]}
        ),
        encoding="utf-8",
    )
    failures = [
        (_run_cli("index", "--manifold", "S2xS1", "--alpha", "not-a-spec"), 2, "error:parse:"),
        (_run_cli("reduce", "--manifold", "S2xS1", "--trace", str(bad_trace)), 3, "error:dimension:"),
        (_run_cli("nonsense"), 2, "error:usage:"),
    ]
    for r, code, prefix in failures:
        assert r.returncode == code
        assert r.stderr.startswith(prefix)
        assert len(r.stderr.strip().splitlines()) == 1
    print(
        "PASS criterion 8: decompose --bound 2 on S2xS1 byte-matches the checked-in "
        "golden table (21 rows); parse/dimension/usage errors exit 2/3/2 with "
        "single-line error:<category>: prefixes"
    )
