"""Layering: the engine and the sampler go through the laws' methods.

Offspring families live in ``families.py`` and law shapes in
``model.py``; ``pgf.py`` and ``montecarlo.py`` call the methods those
define (a law's ``pgf``, ``pair_step``, ``own_marginal`` and ``draws``;
the fused scalar ``pair`` of its own-type view) and never dispatch on a
family or a law class themselves.  There is one way to advance a vector
orbit: the engine steps through each law's ``pair_step``, never through
the model maps ``survival_map`` and ``pair_diff_map``, its projections
kept for the per-layer probe.  One step costs one call per child
factor: ``ProductLaw.pair_step`` calls each factor's fused ``pair``
once, and the engine never steps a chain through the ``survival`` and
``pgf_diff`` projections.  Each vector orbit steps in place, one
coordinate at a time in type order (``_advance_pair`` and
``build_survival_table``), never by transposing a list of whole-vector
steps with ``zip(*...)``.

No dead code: every top-level function and class of the package is
named somewhere in ``src/`` or ``perfbench/`` besides its own
definition, and every method and property of its classes is named by
an attribute access or a string there, or shown as ``.name`` in the
README.  Every experiment report is built in one place.
"""

import ast
import re
from pathlib import Path

import pytest

import branchlab

SRC = Path(branchlab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
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


STEPS = {"survival", "pgf_diff"}


def _projection_calls(tree):
    """Lines that call ``.survival(`` or ``.pgf_diff(`` on anything but
    a parameter annotated ``SurvivalTable`` (whose ``survival(i, n)`` is
    a table lookup, not a step)."""
    lines = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tables = {arg.arg for arg in func.args.args
                  if arg.annotation is not None
                  and ast.unparse(arg.annotation) == "SurvivalTable"}
        lines += [node.lineno for node in ast.walk(func)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in STEPS
                  and not (isinstance(node.func.value, ast.Name)
                           and node.func.value.id in tables)]
    return sorted(set(lines))


def _family_calls_per_factor(source):
    """Calls in ``ProductLaw.pair_step``'s loop over its child factors
    that reach a family: a callable the loop binds, or a family method
    by name."""
    law = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "ProductLaw")
    step = next(node for node in law.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "pair_step")
    loops = [node for node in ast.walk(step) if isinstance(node, ast.For)]
    assert [ast.unparse(loop.iter) for loop in loops] == ["self._factors"]
    bound = {node.id for node in ast.walk(loops[0].target)
             if isinstance(node, ast.Name)}
    return sum(1 for stmt in loops[0].body for node in ast.walk(stmt)
               if isinstance(node, ast.Call)
               and ((isinstance(node.func, ast.Name) and node.func.id in bound)
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr in STEPS | {"pair"})))


def test_one_family_call_per_factor_and_step():
    assert _projection_calls(ast.parse((SRC / "pgf.py").read_text())) == []
    assert _family_calls_per_factor((SRC / "model.py").read_text()) == 1


def test_the_step_guard_sees_what_it_looks_for():
    tree = ast.parse("def f(table: SurvivalTable, chain, law):\n"
                     "    table.survival(1, 2)\n"
                     "    chain.survival(d)\n"
                     "    law.pgf_diff(da, delta)\n")
    assert _projection_calls(tree) == [3, 4]
    three_calls = (
        "class ProductLaw:\n"
        "    def pair_step(self, da, delta):\n"
        "        for j, survival, pgf_diff in self._factors:\n"
        "            sa = survival(da[j])\n"
        "            total = total * (1.0 - sa) + pgf_diff(da[j], delta[j])\n"
        "            lower *= 1.0 - survival(da[j] + delta[j])\n")
    assert _family_calls_per_factor(three_calls) == 3
    by_name = three_calls.replace("survival(da[j] + delta[j])",
                                  "self.children[j + 1].survival(da[j])")
    assert _family_calls_per_factor(by_name) == 3


def _transposed_steps(tree):
    """Lines that transpose a comprehension of calls, ``zip(*[step(da,
    delta) for step in steppers])``: the simultaneous vector update."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "zip"
                  and any(isinstance(arg, ast.Starred)
                          and isinstance(arg.value, (ast.ListComp,
                                                     ast.GeneratorExp))
                          and isinstance(arg.value.elt, ast.Call)
                          for arg in node.args))


def _in_place_sweeps(tree):
    """Functions holding an in-place sweep: ``for i, step in sweep``
    over ``enumerate`` of the laws in type order, whose body calls
    ``step(da, ...)`` and stores into ``da[i]``."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {target.id: ast.unparse(node.value)
                 for node in ast.walk(func) if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        for loop in ast.walk(func):
            if not (isinstance(loop, ast.For)
                    and isinstance(loop.iter, ast.Name)
                    and isinstance(loop.target, ast.Tuple)
                    and len(loop.target.elts) == 2
                    and all(isinstance(e, ast.Name)
                            for e in loop.target.elts)):
                continue
            order = bound.get(loop.iter.id, "")
            if "enumerate(" not in order or "spec.laws" not in order \
                    or "reversed(" in order or "sorted(" in order:
                continue
            index, step = (e.id for e in loop.target.elts)
            body = [node for stmt in loop.body for node in ast.walk(stmt)]
            read = {call.args[0].id for call in body
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == step and call.args
                    and isinstance(call.args[0], ast.Name)}
            stored = {sub.value.id for sub in body
                      if isinstance(sub, ast.Subscript)
                      and isinstance(sub.ctx, ast.Store)
                      and isinstance(sub.value, ast.Name)
                      and isinstance(sub.slice, ast.Name)
                      and sub.slice.id == index}
            if read & stored:
                found.add(func.name)
    return found


def test_vector_orbits_step_in_place_in_type_order():
    tree = ast.parse((SRC / "pgf.py").read_text())
    assert _transposed_steps(tree) == []
    assert {"_advance_pair", "build_survival_table"} <= _in_place_sweeps(tree)


def test_the_sweep_guard_sees_what_it_looks_for():
    tree = ast.parse(
        "def simultaneous(spec, da, delta):\n"
        "    steppers = [law.pair_step for law in spec.laws]\n"
        "    da, delta = zip(*[step(da, delta) for step in steppers])\n"
        "\n"
        "def into_new_lists(spec, da, delta):\n"
        "    sweep = tuple(enumerate(law.pair_step for law in spec.laws))\n"
        "    out, gaps = list(da), list(delta)\n"
        "    for i, step in sweep:\n"
        "        out[i], gaps[i] = step(da, delta)\n"
        "\n"
        "def backwards(spec, da, delta):\n"
        "    sweep = reversed(tuple(enumerate(law.pair_step\n"
        "                                     for law in spec.laws)))\n"
        "    for i, step in sweep:\n"
        "        da[i], delta[i] = step(da, delta)\n"
        "\n"
        "def in_place(spec, da, delta):\n"
        "    sweep = tuple(enumerate(law.pair_step for law in spec.laws))\n"
        "    for i, step in sweep:\n"
        "        new, gap = step(da, delta)\n"
        "        da[i] = new\n")
    assert _transposed_steps(tree) == [3]
    assert _in_place_sweeps(tree) == {"in_place"}


def _unused_definitions(modules, others):
    """Top-level functions and classes of ``modules`` (name -> source)
    that no source names outside their own definition; ``others`` holds
    the sources that only count as users."""
    unused = []
    for name, text in modules.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            users = [outside, *others,
                     *(src for other, src in modules.items() if other != name)]
            if not any(word.search(src) for src in users):
                unused.append(f"{name}.{node.name}")
    return unused


def test_every_top_level_definition_has_a_user():
    modules = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "branchlab").glob("*.py"))}
    perfbench = [path.read_text()
                 for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert "pgf" in modules and perfbench
    assert _unused_definitions(modules, perfbench) == []


def test_the_dead_code_guard_sees_what_it_looks_for():
    modules = {
        "a": "def used():\n    pass\n\n\n"
             "@decorate\ndef dead(x):\n    return dead(x - 1)\n\n\n"
             "class Lone:\n    pass\n",
        "b": "from .a import used\n",
    }
    assert _unused_definitions(modules, []) == ["a.dead", "a.Lone"]
    assert _unused_definitions(modules, ["Lone()"]) == ["a.dead"]


def _unused_members(modules, others, readme=""):
    """Methods and properties of the top-level classes of ``modules``
    (name -> source) that no ``ast.Attribute`` or string constant in
    ``modules`` or ``others`` names, and that ``readme`` does not show
    as ``.name``; dunders are exempt."""
    used = set()
    for src in [*modules.values(), *others]:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = []
    for name, text in modules.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("__")
                        and node.name not in used
                        and not re.search(rf"\.{re.escape(node.name)}\b",
                                          readme)):
                    unused.append(f"{name}.{cls.name}.{node.name}")
    return unused


def test_every_class_member_has_a_user():
    modules = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "branchlab").glob("*.py"))}
    perfbench = [path.read_text()
                 for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    assert _unused_members(modules, perfbench, readme) == []


def test_the_member_guard_sees_what_it_looks_for():
    modules = {
        "a": "class Law:\n"
             "    def __init__(self):\n        pass\n\n"
             "    def pgf(self, s):\n        return self.step(s)\n\n"
             "    def step(self, s):\n        return s\n\n"
             "    @property\n    def variance(self):\n        return 0.0\n\n"
             "    def by_name(self):\n        pass\n\n"
             "    def documented(self):\n        pass\n\n"
             "    def dead(self):\n        pass\n",
        "b": "from .a import Law\nLaw().pgf(0.5)\n"
             "getattr(Law(), 'by_name')()\n",
    }
    assert _unused_members(modules, [], "law.documented()") == [
        "a.Law.variance", "a.Law.dead"]
    assert _unused_members(modules, ["law.variance"]) == [
        "a.Law.documented", "a.Law.dead"]


def test_every_report_is_built_in_one_place():
    built = [path.stem
             for path in sorted((ROOT / "src" / "branchlab").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "ConvergenceReport"]
    assert built == ["experiments"]
