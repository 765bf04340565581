"""Each decision has one owner. spectral.py holds the one zgees call site
and the one comparison against MAX_DENSE_N; experiments.py holds the
deformation size t(h). No other gevspec module names either. Every config
key sets one SweepConfig field, and every field has a key."""

import ast
import dataclasses
from pathlib import Path

from gevspec.experiments import CONFIG_KEYS, SweepConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "gevspec"
OWNER = "spectral.py"
NAMES = ("zgees", "MAX_DENSE_N")


def named(tree, name):
    """The nodes of tree that read name, as a bare name or an attribute."""
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)]


def names_outside(owner, names):
    """(module, name) for each of names that a gevspec module other than
    owner mentions."""
    return [(path.name, name) for path in sorted(SRC.glob("*.py"))
            if path.name != owner
            for name in names if name in path.read_text(encoding="utf-8")]


def test_no_other_module_names_the_factorization():
    assert names_outside(OWNER, NAMES) == []


def test_no_other_module_names_the_deformation_size():
    assert names_outside("experiments.py",
                         ("exponent_for", "DEFORM_EPSILON")) == []


def test_one_zgees_call_and_one_budget_comparison():
    tree = ast.parse((SRC / OWNER).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and node.func in named(tree, "zgees")]
    assert len(calls) == 1
    budget = named(tree, "MAX_DENSE_N")
    compares = [node for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(sub in budget for sub in ast.walk(node))]
    assert len(compares) == 1


def test_config_keys_and_sweep_config_fields_match():
    keyed = [field for field, _ in CONFIG_KEYS.values()]
    assert sorted(keyed) == sorted(f.name for f in
                                   dataclasses.fields(SweepConfig))
