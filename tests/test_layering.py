"""Layering: the engine and the sampler go through the laws' methods.

Offspring families live in ``families.py`` and law shapes in
``model.py``; ``pgf.py`` and ``montecarlo.py`` call the methods those
define (``pgf``, ``pair_step``, ``survival``, ``pgf_diff``,
``own_marginal``, ``draws``) and never dispatch on a family or a law
class themselves.  There is one way to advance an orbit: the engine
steps through each law's ``pair_step``, never through the public model
maps ``survival_map`` and ``pair_diff_map``.
"""

import ast
from pathlib import Path

import pytest

import branchlab

SRC = Path(branchlab.__file__).parent
SHAPES = {"ProductLaw", "TableLaw"}
MAPS = {"survival_map", "pair_diff_map"}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def _named(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


@pytest.mark.parametrize("module", ["pgf.py", "montecarlo.py"])
def test_engine_and_sampler_never_see_families_or_law_shapes(module):
    tree = ast.parse((SRC / module).read_text())
    families = [m for m in _imported_modules(tree)
                if m.split(".")[-1] == "families"]
    assert families == []
    assert SHAPES.isdisjoint(_named(tree))


def test_engine_advances_orbits_only_through_pair_step():
    names = set(_named(ast.parse((SRC / "pgf.py").read_text())))
    assert MAPS.isdisjoint(names)
    assert "pair_step" in names


def test_the_check_sees_what_it_looks_for():
    tree = ast.parse("from .families import Poisson\n"
                     "from .model import TableLaw\n"
                     "isinstance(law, model.ProductLaw)\n"
                     "from .model import survival_map\n"
                     "model.pair_diff_map(spec, da, delta)\n")
    assert list(_imported_modules(tree)) == ["families", "model", "model"]
    assert SHAPES <= set(_named(tree))
    assert MAPS <= set(_named(tree))
