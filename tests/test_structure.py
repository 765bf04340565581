"""Each decision has one owner. spectral.py holds the one zgees call site
and the one comparison against MAX_DENSE_N; experiments.py holds the
deformation size t(h) and the Toeplitz probe's half width; quantize.py
holds the grid rule, which every other module reaches through grid_for.
No other gevspec module names any of these. Every config key sets one
SweepConfig field, and every field has a key."""

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


def names_outside(owner, names, exempt=()):
    """(module, name) for each of names that a gevspec module other than
    owner and the exempt modules mentions."""
    return [(path.name, name) for path in sorted(SRC.glob("*.py"))
            if path.name != owner and path.name not in exempt
            for name in names if name in path.read_text(encoding="utf-8")]


def test_no_other_module_names_the_factorization():
    assert names_outside(OWNER, NAMES) == []


def test_no_other_module_names_the_deformation_size():
    assert names_outside("experiments.py",
                         ("exponent_for", "DEFORM_EPSILON")) == []


def test_no_other_module_names_the_grid_rule():
    # __init__.py re-exports required_n_points
    assert names_outside("quantize.py", ("required_n_points", "MIN_N_POINTS"),
                         exempt=("__init__.py",)) == []


def test_no_other_module_names_the_probe_width():
    assert names_outside("experiments.py", ("PROBE_L",)) == []


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
