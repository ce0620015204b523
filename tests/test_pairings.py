"""Indices built from cached pairing records, checked against the literal sums."""

import gc
import io
import json
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from oracles import (
    invariant_profile,
    literal_gamma_mu,
    literal_pairing,
    member_by_invariants,
    sweep_wedges,
    torus_vectors,
)
from skeinmod import cli
from skeinmod.errors import DimensionError
from skeinmod.lattice import ExponentLattice
from skeinmod.manifold import (
    ClassLabel,
    HomologyClass1,
    HomologyClass2,
    ManifoldModel,
    _dot,
    _unit,
    builtin,
    class_to_entry,
    load_model,
    model_from_document,
    model_to_document,
)
from skeinmod.skein import (
    MODULE_TAGS,
    LinkClass,
    alpha_from_refs,
    class_pairings,
    evaluate_trace_document,
    gamma_prime,
    is_free,
    link_index,
)

FIXTURE_MANIFOLD = Path(__file__).parent / "golden" / "fixture_manifold.json"
IDS = ("a", "b", "c")


@st.composite
def models(draw):
    sweep = draw(st.booleans())
    n1, n2 = (3, 3) if sweep else (draw(st.integers(0, 3)), draw(st.integers(0, 3)))

    def vec(n):
        return draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))

    def vecs(n, most):
        return [vec(n) for _ in range(draw(st.integers(0, most)))]

    # exception lists are keyed by table ids, an unused id and coordinate
    # ids such as "1" or "1,0,-1", which coordinate classes meet
    coordinate_ids = st.lists(st.integers(-1, 1), min_size=n1, max_size=n1).map(
        ClassLabel.coordinate_id
    )
    exception_ids = st.one_of(st.sampled_from(IDS + ("x",)), coordinate_ids)
    classes = []
    for cid in draw(st.lists(st.sampled_from(IDS), unique=True)):
        entry = {"id": cid, "h": vec(n1)}
        if draw(st.booleans()):
            entry["torsion_tag"] = "t"
        classes.append(entry)
    doc = {
        "name": "random",
        "h1_rank": n1,
        "h2_rank": n2,
        "pairing": [vec(n1) for _ in range(n2)],
        "torus_default": vecs(n2, 3),
        "torus_exceptions": {
            cid: vecs(n2, 2) for cid in draw(st.lists(exception_ids, unique=True, max_size=4))
        },
        "sphere_gens": vecs(n2, 2),
        "classes": classes,
    }
    if sweep:
        doc["torus_rule"] = "sweep"
    return model_from_document(doc)


@st.composite
def model_and_alpha(draw):
    M = draw(models())
    labels = []
    for _ in range(draw(st.integers(0, 4))):
        h = tuple(draw(st.integers(-5, 5)) for _ in range(M.h1_rank))
        kind = draw(st.sampled_from(("table", "coordinate", "inline")))
        if kind == "table" and M.classes:
            labels.append(draw(st.sampled_from(M.classes)))
        elif kind == "inline":
            tag = draw(st.sampled_from((None, "t", "u")))
            cid = draw(st.sampled_from(IDS + ("x", "y")))
            labels.append(ClassLabel(cid, HomologyClass1(h, tag)))
        else:
            labels.append(ClassLabel.coordinate(h))
    return M, LinkClass(tuple(labels))


def _gcd_abs(values):
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


@settings(max_examples=150)
@given(model_and_alpha())
# Gamma' = Z(1, -1): rank 1 with e2 = -1, whose eps2 is |e2| = 1
@example((builtin("S2xS1"), LinkClass((ClassLabel.coordinate((1,)), ClassLabel.coordinate((-1,))))))
def test_link_index_equals_the_literal_sums(case):
    M, alpha = case
    idx = link_index(M, alpha)
    gens, mu = literal_gamma_mu(M, [(c.id, c.h.free) for c in alpha.components])
    e1, e2, e3 = idx.eps_prime
    canon = [(e1, e2), (e3, 0)]
    # equal invariant factors, and each side lies in the other: the same lattice
    assert invariant_profile(canon) == invariant_profile(gens)
    assert all(member_by_invariants(canon, g) for g in gens)
    assert all(member_by_invariants(gens, v) for v in canon)
    assert idx.mu == mu
    assert idx.eps == _gcd_abs(a + b for a, b in gens)
    assert idx.eps2 == _gcd_abs(b for _, b in gens)
    # the records a caller passes in give what link_index computes itself
    pairings = [class_pairings(M, c) for c in alpha.components]
    assert link_index(M, alpha, pairings) == idx
    assert gamma_prime(M, alpha, pairings).canon == gamma_prime(M, alpha).canon


@st.composite
def model_and_components(draw):
    """A model and 0 to 5 components: coordinate classes (coordinates in
    [-2, 2], so coordinate-keyed exception lists apply), table classes and
    inline classes with torsion tags."""
    M = draw(models())
    labels = []
    for _ in range(draw(st.integers(0, 5))):
        h = tuple(draw(st.integers(-2, 2)) for _ in range(M.h1_rank))
        kind = draw(st.sampled_from(("table", "coordinate", "inline")))
        if kind == "table" and M.classes:
            labels.append(draw(st.sampled_from(M.classes)))
        elif kind == "inline":
            tag = draw(st.sampled_from((None, "t", "u")))
            cid = draw(st.sampled_from(IDS + ("x", ClassLabel.coordinate_id(h))))
            labels.append(ClassLabel(cid, HomologyClass1(h, tag)))
        else:
            labels.append(ClassLabel.coordinate(h))
    return M, LinkClass(tuple(labels))


@settings(max_examples=150)
@given(model_and_components())
# pairings -2, -1, 1 of one covector: g_t = gcd(1, 3), not the last difference
@example((builtin("S2xS1"), LinkClass(tuple(ClassLabel.coordinate((x,)) for x in (-2, -1, 1)))))
def test_folded_records_build_the_same_gamma_prime(case):
    # decompose's walk folds each component's (t, a) pairs into a_t and g_t
    # per covector and builds Gamma' from at most two records per covector
    M, alpha = case
    folded, mu = {}, 0
    for c in alpha.components:
        covectors, values, class_mu = class_pairings(M, c)
        folded = cli._fold_pairings(folded, zip(covectors, values))
        mu = gcd(mu, class_mu)
    total = [sum(c.h.free[k] for c in alpha.components) for k in range(M.h1_rank)]
    records = cli._folded_records(folded, mu)
    # given the records and H, alpha is not read
    lat = gamma_prime(M, None, records, total)
    assert lat.canon == gamma_prime(M, alpha).canon
    assert len(lat.gens) <= 2 * len(folded)
    gens, literal_mu = literal_gamma_mu(M, [(c.id, c.h.free) for c in alpha.components])
    assert invariant_profile(lat.gens) == invariant_profile(gens)
    assert all(member_by_invariants(gens, g) for g in lat.gens)
    assert all(member_by_invariants(lat.gens, g) for g in gens)
    idx = link_index(M, None, records, total)
    assert idx == link_index(M, alpha)
    assert idx.mu == literal_mu
    present = {t for c in alpha.components for t in class_pairings(M, c)[0]}
    assert idx.eps == _gcd_abs(sum(x * y for x, y in zip(t, total)) for t in present)


def _rows(capsys, manifold, bound, module="sprime"):
    """(alpha text, eps' text, summand text) of each decompose row."""
    argv = ["decompose", "--manifold", manifold, "--bound", str(bound), "--module", module]
    assert cli.main(argv) == 0
    rows = []
    for line in capsys.readouterr().out.splitlines()[3:]:
        alpha, rest = line.removeprefix("alpha=").split(" eps'=", 1)
        rows.append((alpha, *rest.split(" ", 1)))
    return rows


def test_decompose_rows_equal_link_index(capsys):
    cases = (
        (builtin("S2xS1"), "S2xS1", 3, 120),
        (builtin("T3"), "T3", 1, 28),
        (builtin("handlebody", 2), "handlebody(2)", 2, 351),
        (load_model(str(FIXTURE_MANIFOLD)), str(FIXTURE_MANIFOLD), 1, 10),
    )
    for M, manifold, bound, count in cases:
        for module in ("sprime", "w"):
            rows = _rows(capsys, manifold, bound, module)
            assert len(rows) == count, manifold
            for alpha, eps_prime, summand in rows:
                idx = link_index(M, LinkClass.parse(alpha, M))
                assert eps_prime == "({},{},{})".format(*idx.eps_prime), alpha
                assert summand == idx.summand(module).render(" "), alpha


@st.composite
def model_and_bound(draw):
    """A model and a decompose bound: up to 2, or up to 1 at h1_rank 3 (the
    sweep rule's rank), where bound 2 walks 8001 rows."""
    M = draw(models())
    return M, draw(st.integers(0, 2 if M.h1_rank <= 2 else 1))


# a zero torus covector and sphere pairing h: every row has the torus data
# (0, 0, 0), and rows [1] and [2] differ only in mu
SAME_TORUS_DATA = model_from_document({
    "name": "mu only", "h1_rank": 1, "h2_rank": 2, "pairing": [[0], [1]],
    "torus_default": [[1, 0]], "sphere_gens": [[0, 1]],
})
# class (0,0) pairs through covector (0,1) and every other class through
# (1,0): rows [0,0; x,y] and [0,0; x,y'] differ only in t.H of (0,1), which
# their second classes do not pair through
OWN_COVECTOR = model_from_document({
    "name": "own covector", "h1_rank": 2, "h2_rank": 2, "pairing": [[1, 0], [0, 1]],
    "torus_default": [[1, 0]], "torus_exceptions": {"0,0": [[0, 1]]},
})


@pytest.mark.parametrize("kept", [cli._KEPT, 1])
@settings(max_examples=150)
@given(model_and_bound())
@example((SAME_TORUS_DATA, 2))
@example((OWN_COVECTOR, 2))
# the sweep rule gives each class its own covectors, so at size 2 a row meets
# covectors its prefix has and its class lacks, and the other way round
@example((builtin("T3"), 2))
def test_decompose_walk_gives_the_literal_index(kept, case):
    # the walk keeps indices by the data Gamma' is built from; with a memo of
    # one entry it is emptied at each build, and so is the singles memo
    M, bound = case
    with mock.patch.object(cli, "_KEPT", kept):
        for components, _, idx in cli._enumerate_alphas(M, bound):
            assert idx == link_index(M, LinkClass(components)), components


def test_eps_is_the_gcd_of_torus_pairings_with_the_total_class(capsys):
    # when every component takes the default torus list, eps depends on H alone
    def check(M, alpha):
        total = [sum(c.h.free[k] for c in alpha.components) for k in range(M.h1_rank)]
        expected = _gcd_abs(literal_pairing(M.pairing, t.vec, total) for t in M.torus_default)
        assert link_index(M, alpha).eps == expected, alpha

    for M, manifold, bound in (
        (builtin("S2xS1"), "S2xS1", 3),
        (builtin("handlebody", 2), "handlebody(2)", 2),
    ):
        assert not M.torus_exceptions and M.torus_rule is None
        for text, _, _ in _rows(capsys, manifold, bound):
            check(M, LinkClass.parse(text, M))

    @settings(max_examples=150)
    @given(model_and_alpha())
    def on_random_models(case):
        M, alpha = case
        keyed = {cid for cid, _ in M.torus_exceptions}
        assume(M.torus_rule is None and keyed.isdisjoint(c.id for c in alpha.components))
        check(M, alpha)

    on_random_models()


def test_covectors_of_no_generators_build_no_basis():
    # a handlebody has no torus or sphere generators: pairing a class must not
    # make the h1_rank basis vectors of length h1_rank
    M = builtin("handlebody", 2000)
    zero = ClassLabel.coordinate((0,) * 2000)
    tracemalloc.start()
    try:
        assert class_pairings(M, zero) == ((), (), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _vector(n):
    return st.lists(st.integers(-4, 4), min_size=n, max_size=n)


@st.composite
def model_and_generators(draw):
    M = draw(models())
    vecs = draw(st.lists(_vector(M.h2_rank), max_size=3))
    return M, tuple(HomologyClass2(tuple(t)) for t in vecs)


@settings(max_examples=150)
@given(model_and_generators())
def test_covectors_equal_the_literal_sums(case):
    M, gens = case
    listed = (M.torus_default, M.sphere_gens, *(v for _, v in M.torus_exceptions))
    basis = [_unit(M.h1_rank, k) for k in range(M.h1_rank)]
    for some in (gens, *listed):
        covectors = M.covectors(some)
        assert len(covectors) == len(some)
        for t, covector in zip(some, covectors):
            assert covector == tuple(literal_pairing(M.pairing, t.vec, e) for e in basis)


def _literal_freeness_generators(M, tag):
    """Sphere generators for w; else the default list, each exception list and
    the sweep wedges of every basis vector, in that order."""
    if tag == "w":
        return [s.vec for s in M.sphere_gens]
    gens = [t.vec for t in M.torus_default]
    gens += [t.vec for _, vecs in M.torus_exceptions for t in vecs]
    if M.torus_rule == "sweep":
        gens += [w for k in range(3) for w in sweep_wedges(_unit(3, k))]
    return gens


@settings(max_examples=150)
@given(models())
def test_is_free_equals_the_literal_sums(M):
    for tag in MODULE_TAGS:
        nonzero = [
            (t, e)
            for t in _literal_freeness_generators(M, tag)
            for e in (_unit(M.h1_rank, k) for k in range(M.h1_rank))
            if literal_pairing(M.pairing, t, e) != 0
        ]
        free, witness = is_free(M, tag)
        assert free == (not nonzero)
        if nonzero:
            assert (witness[0].vec, witness[1].free) == nonzero[0]
        else:
            assert witness is None


@settings(max_examples=150)
@given(models(), st.sampled_from((-1, 1)))
def test_covectors_of_a_wrong_length_generator_raise(M, off):
    t = HomologyClass2((1,) * max(M.h2_rank + off, 0))
    assume(len(t.vec) != M.h2_rank)
    with pytest.raises(DimensionError, match=rf"^2-class .* expected h2_rank = {M.h2_rank}$"):
        M.covectors((t,))


def test_wide_models_pair_in_linear_time():
    # a covector costs O(h1_rank) per nonzero entry of t; at O(h1_rank^2)
    # each of these takes seconds
    M = model_from_document(
        {"name": "wide", "h1_rank": 6000, "h2_rank": 1, "pairing": [[0] * 6000],
         "torus_default": [[1]]}
    )
    start = time.process_time()
    assert is_free(M, "s") == (True, None)
    assert time.process_time() - start < 1
    start = time.process_time()
    assert M.covectors((HomologyClass2((2,)),)) == ((0,) * 6000,)
    assert time.process_time() - start < 1


def test_many_exception_lists_cost_per_use():
    # a class reads one generator list: neither the covectors of the other
    # 99,999 lists nor a scan of their ids may come with it
    n = 100_000
    ids = [ClassLabel.coordinate_id((i // 2500 - 20, i // 50 % 50 - 25, i % 50 - 25))
           for i in range(n)]
    M = ManifoldModel(
        name="many", h1_rank=3, h2_rank=1, pairing=((1, 2, 3),),
        torus_default=(HomologyClass2((1,)),), sphere_gens=(HomologyClass2((2,)),),
        torus_exceptions=tuple(
            (cid, (HomologyClass2((i % 7 - 3,)),)) for i, cid in enumerate(ids)
        ),
    )
    # the first call builds the id-keyed dict of the lists once, so it may
    # cost a few times a dict of the same size, built here, and no more; the
    # collector is paused so that neither time takes a collection
    covector, calls = ManifoldModel._covector, []

    def spy(model, t):
        calls.append(t)
        return covector(model, t)

    gc.disable()
    try:
        start = time.process_time()
        same_size = dict(reversed(M.torus_exceptions))
        reference = time.process_time() - start
        with mock.patch.object(ManifoldModel, "_covector", spy):
            start = time.process_time()
            record = class_pairings(M, ClassLabel.coordinate((100, 0, -1)))
            first = time.process_time() - start
    finally:
        gc.enable()
    assert record == (((1, 2, 3),), (97,), 194)
    assert len(calls) == 2  # torus_default and sphere_gens
    assert "_exception_list_ids" not in vars(M)
    assert len(same_size) == n and first < 4 * reference
    # 1,000 classes, half of them keyed by an exception list
    classes = [ClassLabel.coordinate((x, y, z)) for x in (0, 50) for y in range(-5, 5)
               for z in range(-25, 25)]
    start = time.process_time()
    records = [class_pairings(M, c) for c in classes]
    assert time.process_time() - start < 1
    position = {cid: i for i, cid in enumerate(ids)}
    for c, (covectors, values, _mu) in zip(classes, records):
        t = position[c.id] % 7 - 3 if c.id in position else 1
        assert covectors == ((t, 2 * t, 3 * t),) and values == (_dot(covectors[0], c.h.free),)
    assert sum(c.id in position for c in classes) == 500


def test_the_first_exception_list_keyed_by_an_id_counts():
    first, second = (HomologyClass2((2,)),), (HomologyClass2((3,)),)
    M = ManifoldModel(name="twice", h1_rank=1, h2_rank=1, pairing=((1,),),
                      torus_exceptions=(("1", first), ("1", second)))
    assert M.torus_subgroup(ClassLabel.coordinate((1,))) is first
    assert class_pairings(M, ClassLabel.coordinate((1,)))[:2] == (((2,),), (2,))


def _literal_record(M, c):
    """class_pairings(M, c) written out: the covector of each torus generator
    of c, its pairing with c and the gcd of c's sphere pairings."""
    basis = [_unit(M.h1_rank, k) for k in range(M.h1_rank)]
    torus = torus_vectors(M, c.id, c.h.free)
    return (
        tuple(tuple(literal_pairing(M.pairing, t, e) for e in basis) for t in torus),
        tuple(literal_pairing(M.pairing, t, c.h.free) for t in torus),
        gcd(*(literal_pairing(M.pairing, s.vec, c.h.free) for s in M.sphere_gens)),
    )


@settings(max_examples=150)
@given(models(), st.data())
def test_kept_class_records_equal_the_literal_sums(M, data):
    # a class-table entry's record is kept from its second use and served to
    # that label alone: inline labels that reuse its id get their own, even
    # one equal to the entry
    for entry in M.classes:
        first, second = class_pairings(M, entry), class_pairings(M, entry)
        assert first == second == _literal_record(M, entry)
        assert first is not second and class_pairings(M, entry) is second
        h = tuple(data.draw(_vector(M.h1_rank)))
        inline = (
            ClassLabel(entry.id, HomologyClass1(h)),
            ClassLabel(entry.id, HomologyClass1(entry.h.free, "u")),
            ClassLabel(entry.id, HomologyClass1(entry.h.free, entry.h.torsion_tag)),
        )
        for c in (inline[0], entry, *inline, entry):
            assert class_pairings(M, c) == _literal_record(M, c)
        assert class_pairings(M, entry) is class_pairings(M, entry)
        assert all(class_pairings(M, c) is not class_pairings(M, c) for c in inline)


def test_threads_pairing_one_model_get_the_literal_records():
    # the kept records and covectors are filled by plain dict inserts of values
    # computed from the model, so racing threads store and read equal records
    doc = {
        "name": "shared", "h1_rank": 2, "h2_rank": 2, "pairing": [[1, 2], [-1, 3]],
        "torus_default": [[1, 0], [2, 1]], "torus_exceptions": {"c3": [[0, 1]]},
        "sphere_gens": [[1, 1]], "classes": [{"id": f"c{k}", "h": [k, 1 - k]} for k in range(40)],
    }
    for _ in range(5):
        M = model_from_document(doc)
        expected = [_literal_record(M, c) for c in M.classes]
        seen = []

        def pair():
            seen.append([class_pairings(M, c) for c in M.classes])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pair) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == [expected] * 8


def test_kept_covector_lists_are_found_by_identity():
    M = model_from_document({
        "name": "kept", "h1_rank": 2, "h2_rank": 2, "pairing": [[1, 2], [0, 3]],
        "torus_default": [[1, 0], [1, 1]], "torus_exceptions": {"a": [[2, -1]]},
        "sphere_gens": [[0, 1]],
    })
    basis = [_unit(2, k) for k in range(2)]

    def literal(gens):
        return tuple(tuple(literal_pairing(M.pairing, t.vec, e) for e in basis) for t in gens)

    listed = (M.torus_default, M.sphere_gens, M.torus_exceptions[0][1])
    for gens in listed:
        assert M.covectors(gens) == literal(gens)
        assert M.covectors(gens) is M.covectors(gens)
        # equal in value, but not a list the model holds: computed, not kept
        equal = tuple(list(gens))
        assert equal == gens and equal is not gens
        assert M.covectors(equal) == literal(gens)
        assert M.covectors(equal) is not M.covectors(equal)
    with pytest.raises(DimensionError, match=r"^2-class \[1\] has length 1, expected h2_rank = 2"):
        M.covectors((HomologyClass2((1,)),))
    # the sweep rule makes a new list per class; lists freed in between may
    # reuse an id, and none may get another list's covectors
    T3 = builtin("T3")
    basis = [_unit(3, k) for k in range(3)]
    for h in ((1, 0, 0), (0, 2, -1), (3, 1, 4), (1, 0, 0)):
        gens = T3.torus_subgroup(ClassLabel.coordinate(h))
        expected = tuple(
            tuple(literal_pairing(T3.pairing, t, e) for e in basis) for t in sweep_wedges(h)
        )
        assert T3.covectors(gens) == expected
        assert T3.covectors(gens) is not T3.covectors(gens)
        assert class_pairings(T3, ClassLabel.coordinate(h))[0] == expected


def test_is_free_stops_at_the_first_nonzero_pairing():
    # covectors of all 300,000 generators take about a second; the first one
    # already pairs nonzero
    M = ManifoldModel(name="long", h1_rank=1, h2_rank=1, pairing=((1,),),
                      torus_default=(HomologyClass2((1,)),) * 300_000)
    start = time.process_time()
    assert is_free(M, "s") == (False, (HomologyClass2((1,)), HomologyClass1((1,))))
    assert time.process_time() - start < 0.25


# -- basis independence ------------------------------------------------------


@st.composite
def unimodular(draw, n):
    """(U, U^-1) for a random U in GL(n, Z), built from elementary operations."""
    U = [list(_unit(n, k)) for k in range(n)]
    U_inv = [list(_unit(n, k)) for k in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            # add c times row j to row i; the inverse subtracts c times column i from column j
            c = draw(st.integers(-2, 2))
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
            for row in U_inv:
                row[j] -= c * row[i]
        else:
            U[i] = [-a for a in U[i]]
            for row in U_inv:
                row[i] = -row[i]
    return U, U_inv


def _apply(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def _product(A, B, columns):
    """A B, where B has the given number of columns (it may have no rows)."""
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(columns)] for row in A]


@st.composite
def valid_moves(draw, r, n2):
    """Up to six well-formed trace moves over r components and h2_rank n2."""
    moves = []
    for _ in range(draw(st.integers(0, 6)) if r else 0):
        kind = draw(st.sampled_from(("twist", "self_cross", "mixed_cross", "slide")))
        move = {"type": kind, "i": draw(st.integers(1, r))}
        if kind == "slide":
            move["t"] = draw(_vector(n2))
        elif kind == "mixed_cross" and r == 1:
            continue
        else:
            move["s"] = draw(st.sampled_from((1, -1)))
            if kind == "mixed_cross":
                move["j"] = move["i"] % r + 1
        moves.append(move)
    return moves


@st.composite
def change_of_basis(draw):
    """A model, a link class of distinct named classes and a valid trace over
    it, then the same data in new bases of H1 and H2: h -> U h, t -> V t and
    P -> V^-T P U^-1, so every pairing t^T P h stays the same."""
    M = draw(models())
    n1, n2 = M.h1_rank, M.h2_rank
    (U, U_inv), (V, V_inv) = draw(unimodular(n1)), draw(unimodular(n2))
    assert _product(U, U_inv, n1) == [list(_unit(n1, k)) for k in range(n1)]
    assert _product(V, V_inv, n2) == [list(_unit(n2, k)) for k in range(n2)]
    ids = draw(st.lists(st.sampled_from(("a", "b", "c", "d")), unique=True))
    named = [ClassLabel(cid, HomologyClass1(tuple(draw(st.lists(
        st.integers(-5, 5), min_size=n1, max_size=n1))))) for cid in ids]
    alpha = LinkClass(tuple(draw(st.lists(st.sampled_from(named), max_size=4))) if named else ())
    moves = draw(valid_moves(alpha.size, n2))

    def moved_classes(classes):
        return [ClassLabel(c.id, HomologyClass1(_apply(U, c.h.free), c.h.torsion_tag))
                for c in classes]

    def moved_vectors(gens):
        return [list(_apply(V, t.vec)) for t in gens]

    exceptions = dict(M.torus_exceptions)
    default = list(M.torus_default)
    if M.torus_rule == "sweep":
        # the rule reads h's coordinates: list its output for the classes in
        # use, and keep the wedges of the basis vectors for freeness
        for c in named:
            exceptions.setdefault(c.id, M.torus_subgroup(c))
        default += [g for k in range(3) for g in M.rule_generators(HomologyClass1(_unit(3, k)))]
    V_inv_T = [list(col) for col in zip(*V_inv)]
    M2 = model_from_document(
        {
            "name": M.name,
            "h1_rank": n1,
            "h2_rank": n2,
            "pairing": _product(_product(V_inv_T, M.pairing, n1), U_inv, n1),
            "torus_default": moved_vectors(default),
            "torus_exceptions": {cid: moved_vectors(vecs) for cid, vecs in exceptions.items()},
            "sphere_gens": moved_vectors(M.sphere_gens),
            "classes": [class_to_entry(c) for c in moved_classes(M.classes)],
        }
    )
    alpha2 = LinkClass(tuple(moved_classes(alpha.components)))
    moves2 = [dict(mv, t=list(_apply(V, mv["t"]))) if "t" in mv else mv for mv in moves]
    return (
        (M, alpha, {"alpha": [class_to_entry(c) for c in alpha.components], "moves": moves}),
        (M2, alpha2, {"alpha": [class_to_entry(c) for c in alpha2.components], "moves": moves2}),
    )


@settings(max_examples=150)
@given(change_of_basis())
def test_nothing_depends_on_the_bases_of_h1_and_h2(case):
    (M, alpha, trace), (M2, alpha2, trace2) = case
    assert alpha2.render() == alpha.render()
    idx = link_index(M, alpha)
    assert link_index(M2, alpha2) == idx
    for tag in MODULE_TAGS:
        assert is_free(M2, tag)[0] == is_free(M, tag)[0]
        assert link_index(M2, alpha2).summand(tag).render() == idx.summand(tag).render()
    _, raw, element = evaluate_trace_document(trace, M)
    _, raw2, element2 = evaluate_trace_document(trace2, M2)
    assert raw2 == raw
    assert element2.render() == element.render()
    for tag in ("s", "l", "w"):
        assert element2.specialize(tag).render() == element.specialize(tag).render()


# -- orientation reversal --------------------------------------------------------


def _reduced(tmp, model_doc, trace, module="sprime"):
    """The object reduce --json prints for trace over the document model."""
    paths = {}
    for name, doc in (("model", model_doc), ("trace", trace)):
        paths[name] = str(Path(tmp) / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["reduce", "--manifold", paths["model"], "--trace", paths["trace"],
                         "--module", module, "--json"])
    assert code == 0
    return json.loads(out.getvalue())


@settings(max_examples=150)
@given(models(), st.data())
def test_the_mirror_image_keeps_indices_and_negates_the_writhe(M, data):
    # reversing the orientation negates P and keeps every generator list, so
    # each pairing t^T P h changes sign: Gamma' = span{(a, T - a)} and mu stay,
    # a generator pairs to 0 exactly where it did, and a trace with every sign
    # negated and the same slides has raw pair -(w1, w2)
    doc = model_to_document(M)
    mirror_doc = {**doc, "pairing": [[-x for x in row] for row in doc["pairing"]]}
    mirror = model_from_document(mirror_doc)
    refs = data.draw(st.lists(st.fixed_dictionaries({
        "id": st.sampled_from(IDS + ("x",)),
        "h": st.lists(st.integers(-5, 5), min_size=M.h1_rank, max_size=M.h1_rank),
    }), max_size=4))
    alpha = alpha_from_refs(refs, M)
    assert link_index(mirror, alpha) == link_index(M, alpha)
    for tag in MODULE_TAGS:
        assert is_free(mirror, tag) == is_free(M, tag)
    moves = data.draw(valid_moves(alpha.size, M.h2_rank))
    mirrored = [dict(mv, s=-mv["s"]) if "s" in mv else mv for mv in moves]
    with tempfile.TemporaryDirectory() as tmp:
        w1, w2 = _reduced(tmp, doc, {"alpha": refs, "moves": moves})["raw"]
        assert _reduced(tmp, mirror_doc, {"alpha": refs, "moves": mirrored})["raw"] == [-w1, -w2]


# -- monodromies -------------------------------------------------------------------


@st.composite
def model_and_refs(draw):
    """A random model or one of S2xS1, T3, handlebody(2) and the fixture, as a
    document, with the model and up to three class refs: table ids,
    coordinate classes and inline classes. About one draw in four is S2xS1
    with the classes h and -h, whose Gamma' Z(h, -h) has e2 < 0."""
    if draw(st.integers(0, 3)) == 3:
        M, h = cli.resolve_manifold("S2xS1"), draw(st.integers(1, 3))
        refs = [class_to_entry(ClassLabel.coordinate(v)) for v in ((h,), (-h,))]
        return model_to_document(M), M, refs
    M = draw(st.one_of(models(), st.sampled_from(
        ("S2xS1", "T3", "handlebody(2)", str(FIXTURE_MANIFOLD))
    ).map(cli.resolve_manifold)))
    refs = []
    for _ in range(draw(st.integers(0, 3))):
        h = draw(st.lists(st.integers(-3, 3), min_size=M.h1_rank, max_size=M.h1_rank))
        kind = draw(st.sampled_from(("table", "coordinate", "inline")))
        if kind == "table" and M.classes:
            refs.append({"id": draw(st.sampled_from(M.classes)).id})
        elif kind == "inline":
            refs.append({"id": draw(st.sampled_from(IDS + ("x",))), "h": h})
        else:
            refs.append(class_to_entry(ClassLabel.coordinate(h)))
    return model_to_document(M), M, refs


@settings(max_examples=150, deadline=None)
@given(model_and_refs(), st.data())
def test_monodromies_reduce_to_zero(case, data):
    # a slide of component i along a generator t of its torus subgroup has raw
    # pair 2 (t.h_i, t.(H - h_i)), twice a Gamma' generator, and a twist and
    # its inverse cancel: any such trace is 0 in every module
    doc, M, refs = case
    alpha = alpha_from_refs(refs, M)
    moves = []
    for i, c in enumerate(alpha.components, 1):
        for g in M.torus_subgroup(c):
            sign = data.draw(st.sampled_from((1, -1)))
            moves += [{"type": "slide", "i": i, "t": [sign * x for x in g.vec]}] * data.draw(
                st.integers(0, 2)
            )
        for _ in range(data.draw(st.integers(0, 1))):
            s = data.draw(st.sampled_from((1, -1)))
            moves += [{"type": "twist", "i": i, "s": s}, {"type": "twist", "i": i, "s": -s}]
    moves = data.draw(st.permutations(moves))
    with tempfile.TemporaryDirectory() as tmp:
        for module in MODULE_TAGS:
            reduced = _reduced(tmp, doc, {"alpha": refs, "moves": moves}, module)["reduced"]
            assert reduced == ([0, 0] if module == "sprime" else 0), (module, moves)


@settings(max_examples=150, deadline=None)
@given(model_and_refs(), st.data())
def test_reduced_is_the_raw_pair_modulo_twice_gamma_prime(case, data):
    # two traces reduce alike in S' exactly when their raw pairs differ by an
    # element of 2 Gamma', tested on the literal generators with no lattice code
    doc, M, refs = case
    alpha = alpha_from_refs(refs, M)
    gens, _ = literal_gamma_mu(M, [(c.id, c.h.free) for c in alpha.components])
    doubled = [(2 * a, 2 * b) for a, b in gens]
    traces = [{"alpha": refs, "moves": data.draw(valid_moves(alpha.size, M.h2_rank))}
              for _ in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (_reduced(tmp, doc, trace) for trace in traces)
    difference = [w - v for w, v in zip(first["raw"], second["raw"])]
    same = first["reduced"] == second["reduced"]
    assert same == member_by_invariants(doubled, difference), (first, second)


@st.composite
def model_refs_and_moves(draw):
    """model_and_refs, with a valid trace over its link class."""
    doc, M, refs = draw(model_and_refs())
    return doc, M, refs, draw(valid_moves(len(refs), M.h2_rank))


def _coordinate_case(name, hs, moves):
    M = cli.resolve_manifold(name)
    return model_to_document(M), M, [class_to_entry(ClassLabel.coordinate(h)) for h in hs], moves


@settings(max_examples=150, deadline=None)
@given(model_refs_and_moves())
# Gamma' of rank 0, of rank 1 with e2 < 0 (Z(1, -1)) and of rank 2 ((2, 1, 3))
@example(_coordinate_case("S2xS1", [(0,)], [{"type": "twist", "i": 1, "s": -1}] * 3
                          + [{"type": "slide", "i": 1, "t": [2]}]))
@example(_coordinate_case("S2xS1", [(1,), (-1,)], [{"type": "twist", "i": 1, "s": -1}] * 3
                          + [{"type": "slide", "i": 2, "t": [-3]}]))
@example(_coordinate_case("S2xS1", [(1,), (2,)], [{"type": "twist", "i": 2, "s": -1}] * 3
                          + [{"type": "slide", "i": 1, "t": [5]},
                             {"type": "mixed_cross", "i": 1, "j": 2, "s": 1}]))
def test_reduced_lies_in_the_box_of_twice_gamma_prime(case):
    # the S' representative is its own reduction modulo 2 Gamma', with its
    # second coordinate in [0, 2|e2|) and its first in [0, 2 e3)
    doc, M, refs, moves = case
    e1, e2, e3 = gamma_prime(M, alpha_from_refs(refs, M)).canon
    event(f"rank {(e2 != 0) + (e3 != 0)}")
    event(f"e2 {'<' if e2 < 0 else '=' if e2 == 0 else '>'} 0")
    with tempfile.TemporaryDirectory() as tmp:
        x, y = _reduced(tmp, doc, {"alpha": refs, "moves": moves})["reduced"]
    assert ExponentLattice(((2 * e1, 2 * e2), (2 * e3, 0))).reduce((x, y)) == (x, y)
    if e2 != 0:
        assert 0 <= y < 2 * abs(e2), (x, y)
    if e3 > 0:
        assert 0 <= x < 2 * e3, (x, y)
