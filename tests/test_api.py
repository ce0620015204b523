"""The package's public surface and the Python API the README documents."""

import json
import re
from pathlib import Path

import pytest

import skeinmod
from skeinmod import (
    ParseError,
    builtin,
    errors,
    lattice,
    laurent,
    load_trace,
    manifold,
    skein,
    trace_from_document,
)

README = Path(__file__).parent.parent / "README.md"

PUBLIC_NAMES = [
    "AUGMENTATION", "BUILTIN_NAMES", "ClassLabel", "DimensionError", "ExponentLattice",
    "HomologyClass1", "HomologyClass2", "IndexTriple", "LaurentPoly1", "LaurentPoly2",
    "LinkClass", "LinkIndex", "MODULE_TAGS", "ManifoldModel", "MixedCross", "MoveTrace",
    "ParseError", "SPECIALIZE_L", "SPECIALIZE_S", "SPECIALIZE_W", "SelfCross",
    "SkeinElement", "SkeinModError", "Slide", "SpecializationMap", "SummandRelations",
    "Twist", "WrithePair", "__version__", "alpha_from_refs", "builtin", "class_pairings",
    "epsilon", "epsilon_prime", "evaluate_trace_document", "gamma_prime", "is_free",
    "link_index", "load_model", "load_trace", "model_from_document", "model_to_document",
    "mu_index", "sphere_torus_discrepancies", "summand", "torsion_annihilator",
    "trace_evaluate", "trace_from_document",
]

MODULES = (errors, lattice, laurent, manifold, skein)


def test_public_names_are_frozen_and_unique():
    assert sorted(skeinmod.__all__) == PUBLIC_NAMES
    assert len(set(skeinmod.__all__)) == len(skeinmod.__all__)


def test_each_export_is_its_modules_object():
    listed = [name for mod in MODULES for name in mod.__all__]
    assert skeinmod.__all__ == [*listed, "__version__"]
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(skeinmod, name) is getattr(mod, name), (mod.__name__, name)


def test_star_import_binds_exactly_the_public_names():
    ns = {}
    exec("from skeinmod import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == PUBLIC_NAMES
    assert all(ns[name] is getattr(skeinmod, name) for name in ns)


def test_cross_module_helpers_are_not_exported():
    for name in ("class_from_entry", "class_to_entry", "read_json", "int_digit_limit"):
        assert callable(getattr(manifold, name))
        assert name not in manifold.__all__ and name not in skeinmod.__all__
        assert not hasattr(skeinmod, name)


def test_load_trace_reads_what_trace_from_document_reads(tmp_path):
    M = builtin("S2xS1")
    doc = {
        "alpha": [{"id": "1"}, {"id": "2"}],
        "moves": [{"type": "twist", "i": 1, "s": 1}, {"type": "slide", "i": 2, "t": [1]}],
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_trace(str(path), M) == trace_from_document(doc, M)
    with pytest.raises(ParseError, match="cannot read trace file"):
        load_trace(str(tmp_path / "missing.json"), M)


def _python_api_blocks():
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_readme_python_api_examples_run_as_their_comments_say():
    blocks = _python_api_blocks()
    assert len(blocks) == 3
    ns = {}
    for block in blocks:
        exec(block, ns)
    idx, alpha, M = ns["idx"], ns["alpha"], ns["M"]
    assert (idx.eps_prime, idx.eps, idx.mu, idx.eps2) == ((2, 1, 3), 3, 1, 1)
    assert idx.summand("s").render() == "R/(q^6 - 1)"
    assert alpha.render() == "[1,2]"
    assert ns["alpha_from_refs"]([{"id": "2"}, alpha.components[0]], M) == alpha
    assert skeinmod.summand(M, alpha, "sprime").render() == "R'/(q1^4 q2^2 - 1, q1^6 - 1)"
    assert ns["records"][0] == (((1,),), (1,), 1)
    assert skeinmod.link_index(M, alpha, ns["records"]) == idx
    assert skeinmod.link_index(M, None, ns["folded"], (3,)) == idx
    assert ns["raw"] == (5, 2)
    assert ns["element"].render() == "q1 [x_[1,2]]"
