"""The dense factorization has one owner: spectral.py holds the one zgees
call site and the one comparison against MAX_DENSE_N, and no other gevspec
module names either."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gevspec"
OWNER = "spectral.py"
NAMES = ("zgees", "MAX_DENSE_N")


def named(tree, name):
    """The nodes of tree that read name, as a bare name or an attribute."""
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)]


def test_no_other_module_names_the_factorization():
    for path in sorted(SRC.glob("*.py")):
        if path.name == OWNER:
            continue
        text = path.read_text(encoding="utf-8")
        assert [name for name in NAMES if name in text] == [], path.name


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
