"""Layering: the engine and the sampler go through the laws' methods.

Offspring families live in ``families.py`` and law shapes in
``model.py``; ``pgf.py`` and ``montecarlo.py`` call what those define
(a law's ``pgf`` and ``draws``, and the spec's compiled ``kernel``)
and never dispatch on a family or a law class themselves.  There is
one way to advance a vector orbit: the engine steps through the spec's
kernel, built from the laws' own blocks (each law's ``pair_step`` is
its block compiled alone), never through the model maps
``survival_map`` and ``pair_diff_map``, projections kept for the
per-layer probe.  A kernel step inlines each child factor's ``PAIR``
template exactly once per law, its terminal loop the terminal law's
own factor once, and the engine never steps a chain through the
``survival`` and ``pgf_diff`` projections.  Each vector loop steps in
place, one coordinate at a time in type order: law i's block, then the
store of coordinate i, never a transposed list of whole-vector steps.
No kernel loop assigns a name that is not read before its next
assignment.

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
from branchlab.families import Bernoulli, Geometric, PointMass, Poisson, pair_source
from branchlab.model import ProcessSpec, ProductLaw, TableLaw
from branchlab.zoo import STOCK_MODELS

SRC = Path(branchlab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
SHAPES = {"ProductLaw", "TableLaw"}
MAPS = {"survival_map", "pair_diff_map"}


def _all_families():
    # every family, and laws with one, two and three child factors
    return ProcessSpec(n_types=3, laws=(
        ProductLaw(parent=1, children={1: Geometric(1.0), 2: Poisson(0.8),
                                       3: PointMass(3)}),
        ProductLaw(parent=2, children={2: Bernoulli(0.5), 3: Poisson(1.0)}),
        ProductLaw(parent=3, children={3: Geometric(1.0)}),
    ), name="all_families")


def _all_tables():
    # a count above one (power_diff written out), a single nonzero
    # row, an all-zero row and a table terminal
    return ProcessSpec(n_types=2, laws=(
        TableLaw(parent=1, rows=(((0, 0), 0.25), ((3, 1), 0.25),
                                 ((1, 2), 0.5))),
        TableLaw(parent=2, rows=(((0, 4), 1.0),)),
    ), name="all_tables")


SPECS = [make() for make in STOCK_MODELS.values()] + [_all_families(),
                                                      _all_tables()]


def _loops(source):
    """Function name -> unparsed statements of its loop body, for each
    function of a kernel's source."""
    return {func.name: [ast.unparse(stmt) for stmt in loop.body]
            for func in ast.parse(source).body
            if isinstance(func, ast.FunctionDef)
            for loop in func.body if isinstance(loop, ast.For)}


def _statements(source):
    return [ast.unparse(stmt) for stmt in ast.parse(source).body]


def _count(body, block):
    """Places where ``block`` (unparsed statements) runs whole in ``body``."""
    return sum(body[k:k + len(block)] == block
               for k in range(len(body) - len(block) + 1))


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
    assert {"kernel", "advance", "table", "terminal"} <= names
    assert "pair_step" not in names
    for spec in SPECS:
        kernel = set(_named(ast.parse(spec.kernel.source)))
        assert MAPS.isdisjoint(kernel)
        assert "pair_step" not in kernel
        loops = _loops(spec.kernel.source)
        assert set(loops) == {"advance", "table", "terminal"}
        # both vector loops run each law's block, which pair_step
        # compiles alone; the terminal loop runs a terminal table law's
        # block (a product law's own factor is counted below)
        blocks = [_statements("\n".join(law._block()[1])) for law in spec.laws]
        for name in ("advance", "table"):
            assert [_count(loops[name], block) for block in blocks] == [1] * len(blocks)
        if isinstance(spec.laws[-1], TableLaw):
            assert _count(loops["terminal"], blocks[-1]) == 1


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


def _factor_runs(source, factors):
    """Per kernel loop, how often each child factor's template runs in
    it; ``factors`` lists one rendered ``PAIR`` template per (law, child
    factor)."""
    return {name: {factor: _count(body, _statements(factor))
                   for factor in factors}
            for name, body in _loops(source).items()}


def _step_calls(source):
    """Lines of a kernel's source that step through a method instead of
    inlined code: a family's ``pair`` or its projections, or a law's
    ``pair_step``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in STEPS | {"pair", "pair_step"})


def _rendered_factors(law):
    """A product law's child factors as its block inlines them: each
    ``PAIR`` template with its parameters as literals, the last one
    without its survival at b, which nothing reads."""
    if not isinstance(law, ProductLaw):
        return []
    last = len(law.children) - 1
    return ["".join(line for line in pair_source(
                family, f"d{child - 1}", f"e{child - 1}", f"c{child - 1}_"
            ).splitlines(keepends=True)
                    if k < last or not line.startswith("sb = "))
            for k, (child, family) in enumerate(law.children.items())]


def test_one_family_call_per_factor_and_step():
    assert _projection_calls(ast.parse((SRC / "pgf.py").read_text())) == []
    for spec in SPECS:
        factors = [f for law in spec.laws for f in _rendered_factors(law)]
        # a factor held by two laws runs once in each law's block; the
        # terminal loop runs the terminal law's own factor alone
        wanted = {factor: factors.count(factor) for factor in factors}
        own = _rendered_factors(spec.laws[-1])
        assert _step_calls(spec.kernel.source) == []
        assert _factor_runs(spec.kernel.source, factors) == {
            "advance": wanted, "table": wanted,
            "terminal": {factor: own.count(factor) for factor in factors}}


def test_the_step_guard_sees_what_it_looks_for():
    tree = ast.parse("def f(table: SurvivalTable, chain, law):\n"
                     "    table.survival(1, 2)\n"
                     "    chain.survival(d)\n"
                     "    law.pgf_diff(da, delta)\n")
    assert _projection_calls(tree) == [3, 4]
    factor = pair_source(Geometric(1.0), "d0", "e0", "c0_")
    inlined = factor.splitlines()

    def kernel(*body):
        return ("def advance(da, delta, steps):\n"
                "    d0, = da\n"
                "    e0, = delta\n"
                "    for _ in range(steps):\n"
                + "".join(f"        {line}\n" for line in body)
                + "    return (d0,), (e0,)\n")

    once = kernel(*inlined, "d0 = sa", "e0 = gap")
    assert _factor_runs(once, [factor]) == {"advance": {factor: 1}}
    assert _step_calls(once) == []
    # the survival and the gap from two inlined copies of the template
    twice = kernel(*inlined, "d1 = sa", *inlined, "d0 = d1", "e0 = gap")
    assert _factor_runs(twice, [factor]) == {"advance": {factor: 2}}
    # the template left out, or its statements in another order
    missing = kernel("d0 = d0 / (1.0 + d0)", "e0 = e0")
    assert _factor_runs(missing, [factor]) == {"advance": {factor: 0}}
    reordered = kernel(*inlined[1:], inlined[0], "d0 = sa", "e0 = gap")
    assert _factor_runs(reordered, [factor]) == {"advance": {factor: 0}}
    # a family call per factor and step instead of the inlined template
    called = kernel("sa, sb, gap = law.children[1].pair(d0, e0)",
                    "d0 = sa", "e0 = gap")
    assert _factor_runs(called, [factor]) == {"advance": {factor: 0}}
    assert _step_calls(called) == [5]
    by_projection = kernel(*inlined, "d0 = law.survival(d0)", "e0 = gap")
    assert _step_calls(by_projection) == [5 + len(inlined)]


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


def _in_place_sweeps(source, blocks):
    """Functions of a kernel's source whose loop steps in place in type
    order: law 0's block, then a store of coordinate ``d0``, then law
    1's block, then a store of ``d1``, and so on, each block run whole
    and once.  ``blocks[i]`` is law i's block as unparsed statements."""
    found = set()
    for name, body in _loops(source).items():
        events, k = [], 0
        while k < len(body):
            law = next((i for i, block in enumerate(blocks)
                        if body[k:k + len(block)] == block), None)
            if law is not None:
                events.append(("block", law))
                k += len(blocks[law])
                continue
            events += [("store", int(node.id[1:]))
                       for node in ast.walk(ast.parse(body[k]))
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Store)
                       and re.fullmatch(r"d\d+", node.id)]
            k += 1
        if events == [(kind, i) for i in range(len(blocks))
                      for kind in ("block", "store")]:
            found.add(name)
    return found


def test_vector_orbits_step_in_place_in_type_order():
    assert _transposed_steps(ast.parse((SRC / "pgf.py").read_text())) == []
    for spec in SPECS:
        blocks = [_statements("\n".join(law._block()[1])) for law in spec.laws]
        assert _transposed_steps(ast.parse(spec.kernel.source)) == []
        # with one type the terminal loop is that type's whole sweep
        sweeps = {"advance", "table"} | (
            {"terminal"} if spec.n_types == 1 else set())
        assert _in_place_sweeps(spec.kernel.source, blocks) == sweeps


def test_the_sweep_guard_sees_what_it_looks_for():
    tree = ast.parse(
        "def simultaneous(spec, da, delta):\n"
        "    steppers = [law.pair_step for law in spec.laws]\n"
        "    da, delta = zip(*[step(da, delta) for step in steppers])\n")
    assert _transposed_steps(tree) == [3]
    blocks = [["x = d0 + d1"], ["y = d1 * 2.0"]]

    def kernel(name, *body):
        return (f"def {name}(da, delta, steps):\n    d0, d1 = da\n"
                "    for _ in range(steps):\n"
                + "".join(f"        {line}\n" for line in body))

    source = "\n".join([
        kernel("simultaneous", "x = d0 + d1", "y = d1 * 2.0",
               "d0 = x", "d1 = y"),
        kernel("into_new_lists", "x = d0 + d1", "out0 = x", "y = d1 * 2.0",
               "out1 = y", "d0, d1 = out0, out1"),
        kernel("backwards", "y = d1 * 2.0", "d1 = y", "x = d0 + d1",
               "d0 = x"),
        kernel("twice", "x = d0 + d1", "d0 = x", "y = d1 * 2.0",
               "y = d1 * 2.0", "d1 = y"),
        kernel("in_place", "x = d0 + d1", "d0 = x", "y = d1 * 2.0",
               "d1 = y")])
    assert _in_place_sweeps(source, blocks) == {"in_place"}


def _reads(stmt):
    names = {node.id for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if isinstance(stmt, ast.AugAssign):
        names.add(stmt.target.id)
    return names


def _writes(stmt):
    return {node.id for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _read_first(name, stmts):
    """True if ``name`` is read in ``stmts`` before it is assigned,
    False if it is assigned first, None if neither."""
    for stmt in stmts:
        if name in _reads(stmt):
            return True
        if name in _writes(stmt):
            return False
    return None


def _dead_stores(source):
    """Statements of a kernel's loops that assign a name which is not
    read before it is assigned again.  The loop body is taken as a
    cycle, and what follows the loop counts as a read: a name assigned
    in the last step may be returned."""
    dead = []
    for func in ast.parse(source).body:
        for k, loop in enumerate(func.body):
            if not isinstance(loop, ast.For):
                continue
            after = set().union(*map(_reads, func.body[k + 1:]))
            body = loop.body
            for i, stmt in enumerate(body):
                for name in sorted(_writes(stmt)):
                    live = _read_first(name, body[i + 1:])
                    if live is None:
                        live = name in after or _read_first(name, body[:i + 1])
                    if not live:
                        dead.append(f"{func.name}: {ast.unparse(stmt)}")
    return dead


def test_every_kernel_store_is_read():
    for spec in SPECS:
        assert _dead_stores(spec.kernel.source) == []


def test_the_dead_store_guard_sees_what_it_looks_for():
    factor = pair_source(Geometric(1.0), "d0", "e0", "c0_").splitlines()

    def kernel(*body, returns="d0, e0"):
        return ("def terminal(d0, e0, steps):\n"
                "    for _ in range(steps):\n"
                + "".join(f"        {line}\n" for line in body)
                + f"    return {returns}\n")

    lean = [line for line in factor if not line.startswith("sb = ")]
    assert _dead_stores(kernel(*lean, "d0 = sa", "e0 = gap")) == []
    # the last factor's survival at b, planted back
    assert _dead_stores(kernel(*factor, "d0 = sa", "e0 = gap")) == [
        "terminal: sb = (d0 + e0) / c0_low"]
    # overwritten before any read, and never read at all
    assert _dead_stores(kernel("t = d0", "t = e0", "d0 = t", "e0 = t")) == [
        "terminal: t = d0"]
    assert _dead_stores(kernel("d0 = d0 / 2.0", "x = d0", returns="d0")) == [
        "terminal: x = d0"]
    # a name read only after the loop, or again in the next step, is live
    assert _dead_stores(kernel("x = d0", "d0 = d0 / 2.0", returns="x")) == []
    assert _dead_stores(kernel("acc += d0", "d0 = acc", returns="d0")) == []


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
