"""Indices built from cached pairing records, checked against the literal sums."""

import tracemalloc
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import invariant_profile, literal_gamma_mu, literal_pairing, member_by_invariants
from skeinmod import cli
from skeinmod.manifold import ClassLabel, HomologyClass1, builtin, load_model, model_from_document
from skeinmod.skein import LinkClass, class_pairings, gamma_prime, link_index

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
            cid: vecs(n2, 2) for cid in draw(st.lists(st.sampled_from(IDS + ("x",)), unique=True))
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


def test_eps_is_the_gcd_of_torus_pairings_with_the_total_class(capsys):
    # every class has the same torus subgroup here, so eps depends on H alone
    for M, manifold, bound in (
        (builtin("S2xS1"), "S2xS1", 3),
        (builtin("handlebody", 2), "handlebody(2)", 2),
    ):
        assert not M.torus_exceptions and M.torus_rule is None
        for text, _, _ in _rows(capsys, manifold, bound):
            alpha = LinkClass.parse(text, M)
            total = [sum(c.h.free[k] for c in alpha.components) for k in range(M.h1_rank)]
            expected = _gcd_abs(literal_pairing(M.pairing, t.vec, total) for t in M.torus_default)
            assert link_index(M, alpha).eps == expected, text


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
