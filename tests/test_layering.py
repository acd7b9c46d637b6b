"""Layering: the engine and the sampler go through the laws' methods.

Offspring families live in ``families.py`` and law shapes in
``model.py``; ``pgf.py`` and ``montecarlo.py`` call what those define
(a law's ``pgf`` and ``draws``, and the spec's compiled ``kernel``)
and never dispatch on a family or a law class themselves.  There is
one way to advance an orbit: the engine steps through the spec's
kernel, built from the laws' own blocks, never through the model maps
``survival_map`` and ``pair_diff_map``, the two halves of one kernel
step kept for the per-layer probe.  The kernel is the one stepper
compiled from a law: ``numerics.compile_step`` is called only for it,
no family has a ``pair`` of its own and ``families.py`` imports neither
``compile_step`` nor ``textwrap`` (a family's probes step the kernel of
a one-type spec).  A kernel calls only ``math``'s ``exp``, ``expm1`` and
``log1p`` (the only functions ``compile_step`` gives it), builtins and
its own functions, a ``PointMass`` factor included, and no kernel
statement assigns a name to itself.  A kernel step inlines each
child factor's ``PAIR`` template exactly once per law (a constant
factor, of mean 0, not at all), runs each law's body once and defines
each per-coordinate value (``l{j}``, ``a{j}``, ``b{j}``, ``h{j}``) once
per loop, for table rows and ``PointMass`` factors alike; its terminal
loop is the last law's body alone, after the values of its coordinate
that it reads, written
into the loop's own names whatever the law's shape, and the engine
never steps a chain through the ``survival`` and ``pgf_diff``
projections.  Each vector loop steps in place, one coordinate at a
time in type order: law i's block, then
the store of coordinate i (in the block or after it), never a
transposed list of whole-vector steps; the table loop is ``advance``'s
sweep, then checks and stores that read only the values it wrote.  No
kernel loop assigns a name that is not read before its next
assignment, or adds or subtracts a literal zero, whose only work would
be the sign of a zero (the kernel takes -0.0 as +0.0 once, at entry),
and ``_compile_kernel`` never looks at a law's shape.

No dead code: every top-level function and class of the package is
named somewhere in ``src/`` or ``perfbench/`` besides its own
definition, and every method and property of its classes is named by
an attribute access or a string there, or shown as ``.name`` in the
README; a member that two classes define needs a user for each
class.  Every experiment report is built in one place, and no verdict
reads frozen data: the package holds only Python source and no module
imports ``importlib.resources``.

Only one function forks, the fork map in ``numerics.py``, through which
the artifact's part writer, the drivers' parts and the sampler's
groups run on every core; no module imports ``multiprocessing`` or
``concurrent.futures``.

``import branchlab`` loads only the model layer (``errors``,
``numerics``, ``families``, ``model`` and ``config``), none of which
imports a later module while it is imported; the package serves every
other name on first use, from its home module.  Only the sampler
imports numpy when it is imported: ``import branchlab``, model
loading, the kernels and plain orbits, the moment checks, the
constants and the ``validate`` and ``constants`` commands run without
numpy, and ``cli.py`` names no numpy.  The runtime dependencies that
``pyproject.toml`` declares are exactly the third-party modules the
package imports, inside functions too.
"""

import ast
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import branchlab
from branchlab.families import Bernoulli, Geometric, PointMass, Poisson, pair_source
from branchlab.model import ProcessSpec, ProductLaw, TableLaw
from branchlab.numerics import _STEP_NAMES, power_diff
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


def _shared_values():
    # a PointMass factor and a table row read the same coordinate's
    # values: l1, a1 and h1, defined once per sweep for both
    return ProcessSpec(n_types=2, laws=(
        ProductLaw(parent=1, children={1: Geometric(1.0), 2: PointMass(2)}),
        TableLaw(parent=2, rows=(((0, 0), 0.25), ((0, 1), 0.5),
                                 ((0, 2), 0.25)))), name="point_mass_and_table")


def _point_masses():
    # PointMass(0..3) as a last feed factor, as a lone own-type factor
    # (and terminal), and as an own-type factor beside a feed
    return [spec for k in range(4) for spec in (
        ProcessSpec(n_types=2, laws=(
            ProductLaw(parent=1, children={1: Geometric(1.0), 2: PointMass(k)}),
            ProductLaw(parent=2, children={2: PointMass(k)})),
            name=f"point_mass_{k}_feed"),
        ProcessSpec(n_types=2, laws=(
            ProductLaw(parent=1, children={1: PointMass(k), 2: Poisson(1.0)}),
            ProductLaw(parent=2, children={2: Geometric(1.0)})),
            name=f"point_mass_{k}_own"))]


SPECS = [make() for make in STOCK_MODELS.values()] + [
    _all_families(), _all_tables(), _shared_values(), *_point_masses()]


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


def test_engine_advances_orbits_only_through_the_kernel():
    names = set(_named(ast.parse((SRC / "pgf.py").read_text())))
    assert MAPS.isdisjoint(names)
    assert {"kernel", "advance", "table", "terminal"} <= names
    for spec in SPECS:
        kernel = set(_named(ast.parse(spec.kernel.source)))
        assert MAPS.isdisjoint(kernel)
        loops = _loops(spec.kernel.source)
        assert set(loops) == {"advance", "table", "terminal"}
        # both vector loops run each law's body once, written into the
        # law's coordinate, the kernel being the only code compiled from
        # it; the terminal loop is the last law's body alone, written
        # into the loop's own names, whatever the law's shape, after the
        # definitions of the terminal coordinate's values that it reads
        bodies = _bodies(spec)
        for name in ("advance", "table"):
            assert [_count(loops[name], body) for body in bodies] == [1] * len(bodies)
        head = len(loops["terminal"]) - len(bodies[-1])
        assert loops["terminal"][head:] == bodies[-1]
        j = spec.n_types - 1
        assert all(re.fullmatch(f"[labh]{j}", name) for stmt in
                   loops["terminal"][:head] for name in _writes(ast.parse(stmt)))
        # the table loop is advance's sweep, then checks and stores that
        # read only the values the sweep wrote, the column n and the
        # row views, and assign no name
        sweep = loops["advance"]
        assert loops["table"][:len(sweep)] == sweep
        after = [ast.parse(stmt).body[0] for stmt in loops["table"][len(sweep):]]
        coordinates = {f"{x}{i}" for x in "deDP" for i in range(spec.n_types)}
        assert set().union(*map(_reads, after)) == coordinates | {"n"}
        assert set().union(*map(_writes, after)) == set()


def _bodies(spec):
    """Each law's body, its block as unparsed statements, its results
    written into d{i} and e{i}; the per-coordinate values it reads are
    the kernel's own statements, not the block's."""
    return [_statements("\n".join(law._block(f"d{i}", f"e{i}")))
            for i, law in enumerate(spec.laws)]


def _users(modules, name):
    """``module.function`` for each place in ``modules`` (module name ->
    source) that names ``name``, bare, as an attribute or imported under
    another name, by the innermost function it sits in
    (``module.<module>`` outside any); a plain import does not count."""
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name
                and node.asname is not None):
            found.append(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, text in modules.items():
        visit(ast.parse(text), module, "<module>")
    return sorted(found)


def test_the_kernel_is_the_only_compiled_stepper():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _users(modules, "compile_step") == ["model._compile_kernel"]
    # a family's probes step a kernel: no family compiles a pair of its own
    families = ast.parse(modules["families"])
    assert "textwrap" not in set(_imported_modules(families))
    assert "compile_step" not in set(_named(families))
    for family in (Geometric(1.0), Poisson(1.0), Bernoulli(0.5), PointMass(2)):
        assert not hasattr(family, "pair")


def test_the_stepper_guard_sees_what_it_looks_for():
    modules = {
        "model": "from .numerics import compile_step\n"
                 "def _step_alone(law):\n"
                 "    return compile_step(source, 'step')['pair_step']\n"
                 "class Law:\n"
                 "    def step(self):\n"
                 "        build = numerics.compile_step\n"
                 "        return build(source, 'step')\n",
        "other": "import numerics\n"
                 "STEP = numerics.compile_step(source, 'top')\n"
                 "def late():\n"
                 "    from numerics import compile_step as cs\n"
                 "    return cs(source, 'late')\n",
    }
    assert _users(modules, "compile_step") == [
        "model._step_alone", "model.step", "other.<module>", "other.late"]


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
    inlined code: a family's ``pair`` or its projections."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in STEPS | {"pair"})


def _rendered_factors(law, sa, gap):
    """A product law's child factors as its block inlines them, its
    results written into the names ``sa`` and ``gap``: each ``PAIR``
    template with its parameters as literals, the last one without its
    survival at b, which nothing reads, and no constant factor (of mean
    0).  A lone factor leaves its results in ``sa`` and ``gap``; of
    several, the first leaves them in acc and total, the others in sa
    and gap."""
    if not isinstance(law, ProductLaw):
        return []
    factors = [(child, family) for child, family in law.children.items()
               if family.mean]
    last = len(factors) - 1
    names = [(sa, gap) if last == 0 else ("acc", "total"),
             *[("sa", "gap")] * last]
    return [pair_source(family, child - 1, sa=names[k][0], gap=names[k][1],
                        last=k == last)
            for k, (child, family) in enumerate(factors)]


def test_one_family_call_per_factor_and_step():
    assert _projection_calls(ast.parse((SRC / "pgf.py").read_text())) == []
    for spec in SPECS:
        j = spec.n_types - 1
        # a factor held by two laws runs once in each law's block, in
        # both vector loops; the terminal loop is the terminal law's own
        # factor alone, after the values of its coordinate that it reads,
        # its results written over the loop's inputs, with no copy after it
        sweep = [f for i, law in enumerate(spec.laws)
                 for f in _rendered_factors(law, f"d{i}", f"e{i}")]
        rendered = {"advance": sweep, "table": sweep, "terminal":
                    _rendered_factors(spec.laws[-1], f"d{j}", f"e{j}")}
        factors = sorted(set().union(*rendered.values()))
        assert _step_calls(spec.kernel.source) == []
        assert _factor_runs(spec.kernel.source, factors) == {
            name: {factor: found.count(factor) for factor in factors}
            for name, found in rendered.items()}
        if rendered["terminal"]:
            own = _statements(*rendered["terminal"])
            assert _loops(spec.kernel.source)["terminal"][-len(own):] == own


def test_the_step_guard_sees_what_it_looks_for():
    tree = ast.parse("def f(table: SurvivalTable, chain, law):\n"
                     "    table.survival(1, 2)\n"
                     "    chain.survival(d)\n"
                     "    law.pgf_diff(da, delta)\n")
    assert _projection_calls(tree) == [3, 4]
    factor = pair_source(Geometric(1.0), 0)
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


# what a kernel may call besides the functions it defines
MATH_CALLS = {"exp", "expm1", "log1p"}
BUILTIN_CALLS = {"abs", "map", "memoryview", "range"}


def _not_math(namespace):
    """Names in ``namespace`` (name -> value) that are not ``math``'s
    own attribute of that name."""
    return sorted(name for name, value in namespace.items()
                  if getattr(math, name, None) != value)


def _foreign_calls(source):
    """Calls in a kernel's source to anything but ``MATH_CALLS``,
    ``BUILTIN_CALLS``, the functions the source defines and an array's
    ``tolist``."""
    tree = ast.parse(source)
    allowed = MATH_CALLS | BUILTIN_CALLS | {
        func.name for func in tree.body if isinstance(func, ast.FunctionDef)}
    return sorted(ast.unparse(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and not (isinstance(node.func, ast.Name)
                           and node.func.id in allowed
                           or isinstance(node.func, ast.Attribute)
                           and node.func.attr == "tolist"))


def test_kernels_call_only_math_functions():
    assert sorted(_STEP_NAMES) == sorted(MATH_CALLS | {"inf"})
    assert _not_math(_STEP_NAMES) == []
    for spec in SPECS:
        assert _foreign_calls(spec.kernel.source) == []


def test_the_math_guard_sees_what_it_looks_for():
    assert _not_math({"exp": math.exp, "inf": math.inf, "log": math.log1p,
                      "power_diff": power_diff}) == ["log", "power_diff"]
    source = ("def advance(da, delta, steps):\n"
              "    d0, = [x + 0.0 for x in d[:, 0].tolist()]\n"
              "    for _ in range(steps):\n"
              "        c0_a = 1.0 - d0\n"
              "        gap = power_diff(c0_a, e0, 3)\n"
              "        sa = power_complement(d0, 3)\n"
              "        sb = math.expm1(-d0) + abs(exp(d0))\n"
              "        d0 = -expm1(3 * log1p(-d0))\n"
              "        e0 = law.pair(d0, e0)[2]\n"
              "    return advance(da, delta, 0)\n")
    assert _foreign_calls(source) == [
        "law.pair", "math.expm1", "power_complement", "power_diff"]


def _self_assignments(source):
    """Statements of a kernel's source that assign a name to itself."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assign)
            and any(ast.unparse(target) == ast.unparse(node.value)
                    for target in node.targets)]


def test_no_kernel_statement_assigns_a_name_to_itself():
    # a lone PointMass(1) leaves the gap as it is, and a lone
    # Bernoulli(1.0) both the complement and the gap
    identities = [ProcessSpec(n_types=1, laws=(
        ProductLaw(parent=1, children={1: family}),), name="identity")
        for family in (PointMass(1), Bernoulli(1.0))]
    for spec in SPECS + identities:
        assert _self_assignments(spec.kernel.source) == []


def test_the_self_assignment_guard_sees_what_it_looks_for():
    source = ("def terminal(d1, e1, steps):\n"
              "    d1, e1 = d1 + 0.0, e1 + 0.0\n"
              "    for _ in range(steps):\n"
              "        e1 = e1\n"
              "        d1, e1 = d1, e1\n"
              "        e1 = e0\n"
              "        d1 = D1[n] = d1\n"
              "        d1 = 1.0 if d1 >= 1.0 else -expm1(log1p(-d1))\n"
              "    return d1, e1\n")
    assert _self_assignments(source) == [
        "e1 = e1", "d1, e1 = (d1, e1)", "d1 = D1[n] = d1"]


def _redefinitions(source):
    """Per-coordinate names (l{j}, a{j}, b{j}, h{j}) that a loop of a
    kernel's source assigns more than once, as ``function: name``."""
    found = []
    for name, body in _loops(source).items():
        stores = [target for stmt in body for target in _writes(ast.parse(stmt))
                  if re.fullmatch(r"[labh]\d+", target)]
        found += sorted({f"{name}: {x}" for x in stores if stores.count(x) > 1})
    return found


def test_each_coordinate_value_is_defined_once_per_loop():
    # law i writes only coordinate i and no later law reads it, so a
    # value of coordinate j defined before the first block that reads it
    # holds for every later block of the sweep
    for spec in SPECS:
        assert _redefinitions(spec.kernel.source) == []


def test_the_redefinition_guard_sees_what_it_looks_for():
    source = ("def advance(da, delta, steps):\n"
              "    for _ in range(steps):\n"
              "        l1 = log1p(-d1) if d1 < 1.0 else -inf\n"
              "        a1 = 1.0 - d1\n"
              "        d0 = -expm1(l1)\n"
              "        l1 = log1p(-d1) if d1 < 1.0 else -inf\n"
              "        acc = d0\n"
              "        acc = acc + d1\n"
              "        d1 = 0.5 * -expm1(2 * l1) + acc * a1\n"
              "def terminal(d1, e1, steps):\n"
              "    for _ in range(steps):\n"
              "        l1 = log1p(-d1) if d1 < 1.0 else -inf\n"
              "        d1 = 0.5 * -expm1(2 * l1)\n")
    assert _redefinitions(source) == ["advance: l1"]


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


def _coordinate_stores(stmts):
    return [("store", int(node.id[1:]))
            for stmt in stmts for node in ast.walk(ast.parse(stmt))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and re.fullmatch(r"d\d+", node.id)]


def _in_place_sweeps(source, blocks):
    """Functions of a kernel's source whose loop steps in place in type
    order: law 0's block, then a store of coordinate ``d0`` (in the
    block or after it), then law 1's block, then a store of ``d1``, and
    so on, each block run whole and once.  ``blocks[i]`` is law i's
    block as unparsed statements."""
    found = set()
    for name, body in _loops(source).items():
        events, k = [], 0
        while k < len(body):
            law = next((i for i, block in enumerate(blocks)
                        if body[k:k + len(block)] == block), None)
            if law is not None:
                events.append(("block", law))
                events += _coordinate_stores(blocks[law])
                k += len(blocks[law])
                continue
            events += _coordinate_stores(body[k:k + 1])
            k += 1
        if events == [(kind, i) for i in range(len(blocks))
                      for kind in ("block", "store")]:
            found.add(name)
    return found


def test_vector_orbits_step_in_place_in_type_order():
    assert _transposed_steps(ast.parse((SRC / "pgf.py").read_text())) == []
    for spec in SPECS:
        assert _transposed_steps(ast.parse(spec.kernel.source)) == []
        # with one law the terminal loop is that law's whole sweep
        assert _in_place_sweeps(spec.kernel.source, _bodies(spec)) == (
            {"advance", "table", "terminal"} if spec.n_types == 1
            else {"advance", "table"})


def test_the_sweep_guard_sees_what_it_looks_for():
    tree = ast.parse(
        "def simultaneous(spec, da, delta):\n"
        "    steppers = [law.step for law in spec.laws]\n"
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
    # blocks that write their coordinate themselves
    writing = [["x = d0 + d1", "d0 = x"], ["d1 = d1 * 2.0"]]
    source = "\n".join([
        kernel("in_place", "x = d0 + d1", "d0 = x", "d1 = d1 * 2.0"),
        kernel("backwards", "d1 = d1 * 2.0", "x = d0 + d1", "d0 = x"),
        kernel("stored_twice", "x = d0 + d1", "d0 = x", "d0 = x",
               "d1 = d1 * 2.0")])
    assert _in_place_sweeps(source, writing) == {"in_place"}


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
    factor = pair_source(Geometric(1.0), 0).splitlines()

    def kernel(*body, returns="d0, e0"):
        return ("def terminal(d0, e0, steps):\n"
                "    for _ in range(steps):\n"
                + "".join(f"        {line}\n" for line in body)
                + f"    return {returns}\n")

    lean = pair_source(Geometric(1.0), 0, last=True).splitlines()
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


def _zero(node):
    """A literal zero, or a product with one."""
    return (isinstance(node, ast.Constant) and node.value == 0
            and type(node.value) in (int, float)
            or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_zero(node.left) or _zero(node.right)))


def _zero_sums(source):
    """Statements of a kernel's loops that add or subtract a literal zero
    or a product with one: identities whose only work is the sign of a
    zero.  A product with 0.0 elsewhere, a parameter of zero, is left
    alone, and so is what runs outside the loops."""
    found = []
    for func in ast.parse(source).body:
        for loop in func.body:
            if not isinstance(loop, ast.For):
                continue
            for stmt in loop.body:
                if any(isinstance(node, ast.BinOp)
                       and isinstance(node.op, (ast.Add, ast.Sub))
                       and (_zero(node.left) or _zero(node.right))
                       or isinstance(node, ast.AugAssign)
                       and isinstance(node.op, (ast.Add, ast.Sub))
                       and _zero(node.value)
                       for node in ast.walk(stmt)):
                    found.append(f"{func.name}: {ast.unparse(stmt)}")
    return found


def _shape_dispatch(tree, function):
    """Names of the law shapes and ``isinstance`` in ``function``."""
    return sorted({name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == function
                   for name in _named(node)} & (SHAPES | {"isinstance"}))


def test_kernel_loops_write_no_sign_of_a_zero():
    # signed zeros are taken once, at the kernel's entry; a Bernoulli(0.0)
    # factor, the constant 1, is left out of the product as a
    # zero-probability row, whose terms are +0.0, is left out of both sums
    zeros = ProcessSpec(n_types=2, laws=(
        ProductLaw(parent=1, children={1: Bernoulli(0.0), 2: Poisson(1.0)}),
        TableLaw(parent=2, rows=(((0, 0), 0.5), ((0, 1), 0.0),
                                 ((0, 2), 0.5)))), name="zeros")
    for spec in SPECS + [zeros]:
        assert _zero_sums(spec.kernel.source) == []
    assert "0.0 * d0" not in zeros.kernel.source
    assert "0.0 * (-expm1(l1))" not in zeros.kernel.source
    assert "0.0 * e1" not in zeros.kernel.source
    assert _shape_dispatch(ast.parse((SRC / "model.py").read_text()),
                           "_compile_kernel") == []


def test_the_zero_guard_sees_what_it_looks_for():
    source = ("def advance(da, delta, steps):\n"
              "    d0, = [x + 0.0 for x in da]\n"
              "    for _ in range(steps):\n"
              "        sa = 0.0 * d0\n"
              "        h0 = 0.0 if d0 < e0 else d0 - e0\n"
              "        total = 0.0 * (1.0 - sa) + gap\n"
              "        acc = 0.0 + sa\n"
              "        d0 = acc - 0.0\n"
              "        e0 = 0.5 * (e0 * h0) + 0.0\n"
              "        e0 += 0.0\n"
              "        e0 = e0 + 0\n")
    assert _zero_sums(source) == [
        "advance: total = 0.0 * (1.0 - sa) + gap", "advance: acc = 0.0 + sa",
        "advance: d0 = acc - 0.0", "advance: e0 = 0.5 * (e0 * h0) + 0.0",
        "advance: e0 += 0.0", "advance: e0 = e0 + 0"]
    tree = ast.parse("def _compile_kernel(spec):\n"
                     "    if isinstance(law, ProductLaw):\n"
                     "        pass\n"
                     "def other(law):\n"
                     "    return model.TableLaw\n")
    assert _shape_dispatch(tree, "_compile_kernel") == ["ProductLaw", "isinstance"]
    assert _shape_dispatch(tree, "other") == ["TableLaw"]


# module attributes that the interpreter calls: a package's lazy names
HOOKS = {"__getattr__", "__dir__"}


def _unused_definitions(modules, others):
    """Top-level functions and classes of ``modules`` (name -> source)
    that no source names outside their own definition; ``others`` holds
    the sources that only count as users.  The package's ``__init__``
    only re-exports, so it is no user.  The module hooks in ``HOOKS``
    are exempt."""
    unused = []
    for name, text in modules.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) or node.name in HOOKS:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            outside = "".join(lines[:first - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            users = [outside, *others,
                     *(src for other, src in modules.items()
                       if other not in (name, "__init__"))]
            if not any(word.search(src) for src in users):
                unused.append(f"{name}.{node.name}")
    return unused


def _library_section(readme):
    """The README's library section: the package as its users call it."""
    return readme.split("## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]


def test_every_top_level_definition_has_a_user():
    modules = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "branchlab").glob("*.py"))}
    perfbench = [path.read_text()
                 for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    library = _library_section((ROOT / "README.md").read_text())
    assert "pgf" in modules and "__init__" in modules and perfbench
    assert "verify_death" in library and "## " not in library
    assert _unused_definitions(modules, [*perfbench, library]) == []


def test_the_dead_code_guard_sees_what_it_looks_for():
    modules = {
        "__init__": "from .a import exported, used\n"
                    "__all__ = ['exported', 'used']\n",
        "a": "def used():\n    pass\n\n\n"
             "@decorate\ndef dead(x):\n    return dead(x - 1)\n\n\n"
             "class Lone:\n    pass\n\n\n"
             "def exported():\n    pass\n",
        "b": "from .a import used\n",
        # the interpreter calls the hooks; any other dunder needs a user
        "c": "def __getattr__(name):\n    raise AttributeError(name)\n\n\n"
             "def __dir__():\n    return []\n\n\n"
             "def __made_up__():\n    pass\n",
    }
    # a name the package only re-exports has no user
    assert _unused_definitions(modules, []) == [
        "a.dead", "a.Lone", "a.exported", "c.__made_up__"]
    assert _unused_definitions(modules, ["Lone()"]) == [
        "a.dead", "a.exported", "c.__made_up__"]
    # unless the README's library section shows it
    readme = ("# pkg\n\n## Quick start (library)\n\n"
              "from pkg import exported\n\n## Layout\n\nLone\n")
    assert _unused_definitions(modules, [_library_section(readme)]) == [
        "a.dead", "a.Lone", "c.__made_up__"]


def _unused_members(modules, others, readme=""):
    """Methods and properties of the top-level classes of ``modules``
    (name -> source) that no ``ast.Attribute`` or string constant in
    ``modules`` or ``others`` names, and that ``readme`` does not show
    as ``.name``; dunders are exempt.  ``self.name`` in a class's body
    names that class's member only, so a name that two classes define
    is reported for each class whose own member has no user; any other
    attribute access may reach every class that defines the name."""
    used, own = set(), set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if (isinstance(node, ast.Attribute) and cls is not None
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            own.add((cls, node.attr))
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for src in [*modules.values(), *others]:
        visit(ast.parse(src), None)
    unused = []
    for name, text in modules.items():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("__")
                        and node.name not in used
                        and (cls.name, node.name) not in own
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
    # two classes define view; only Product's own body calls it
    shared = {
        "a": "class Product:\n"
             "    def second(self):\n        return self.view()\n\n"
             "    def view(self):\n        pass\n\n\n"
             "class Table:\n"
             "    def view(self):\n        pass\n",
        "b": "from .a import Product\nProduct().second()\n",
    }
    assert _unused_members(shared, []) == ["a.Table.view"]
    # a call on another receiver may reach either class
    assert _unused_members(shared, ["law.view()"]) == []


def test_every_report_is_built_in_one_place():
    built = [path.stem
             for path in sorted((ROOT / "src" / "branchlab").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "ConvergenceReport"]
    assert built == ["experiments"]


def _resource_imports(tree):
    """Lines that import ``importlib.resources``, the way a module reads
    data files shipped inside the package."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(name == "importlib.resources"
               or name.startswith("importlib.resources.") for name in names):
            lines.append(node.lineno)
    return lines


def _non_source(package):
    """Entries of the package directory that are not Python source,
    other than the interpreter's own ``__pycache__``."""
    return sorted(path.name for path in package.iterdir()
                  if path.name != "__pycache__"
                  and not (path.is_file() and path.suffix == ".py"))


def test_no_verdict_reads_frozen_data():
    # every band is computed with its run: the package ships no data
    # and no module reads any from inside it
    found = {path.name for path in sorted(SRC.glob("*.py"))
             if _resource_imports(ast.parse(path.read_text()))}
    assert found == set()
    assert _non_source(SRC) == []


def test_the_frozen_data_guard_sees_what_it_looks_for(tmp_path):
    tree = ast.parse("import importlib\n"
                     "from importlib import resources\n"
                     "import importlib.resources as res\n"
                     "from importlib.resources import files\n"
                     "from importlib import import_module\n"
                     "def late():\n"
                     "    from importlib.resources.abc import Traversable\n"
                     "from .importlib import resources\n")
    assert _resource_imports(tree) == [2, 3, 4, 7]
    (tmp_path / "engine.py").write_text("")
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "bands.json").write_text("{}")
    (tmp_path / "notes.txt").write_text("")
    (tmp_path / "__pycache__").mkdir()
    assert _non_source(tmp_path) == ["data", "notes.txt"]


def _import_time_imports(tree):
    """(line, module) for each module that a statement of ``tree``
    imports while the module is imported: outside any function, and not
    under ``if TYPE_CHECKING:``, which never runs.  A relative module
    keeps its leading dots, and ``from m import x`` names both ``m`` and
    ``m.x``, since ``x`` may be a module."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            dot = "" if base.endswith(".") else "."
            found.extend((node.lineno, module) for module in
                         [base, *(base + dot + alias.name
                                  for alias in node.names)])
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _import_time_numpy(tree):
    """Lines of the statements that import numpy while the module is
    imported."""
    return sorted({line for line, module in _import_time_imports(tree)
                   if module.split(".")[0] == "numpy"})


def test_only_the_sampler_imports_numpy_at_import_time():
    found = {path.name for path in sorted(SRC.glob("*.py"))
             if _import_time_numpy(ast.parse(path.read_text()))}
    assert found == {"montecarlo.py"}


def test_the_import_guard_sees_what_it_looks_for():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.linalg import matrix_power\n"
                     "from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n"
                     "    import numpy\n"
                     "try:\n"
                     "    import math, numpy.random\n"
                     "except ImportError:\n"
                     "    pass\n"
                     "class Table:\n"
                     "    import numpy\n"
                     "    def build(self):\n"
                     "        import numpy as np\n"
                     "def late():\n"
                     "    from numpy import zeros\n"
                     "import numpyro\n"
                     "from .numpy import shim\n")
    assert _import_time_numpy(tree) == [1, 2, 7, 11]


# the modules ``import branchlab`` loads, and those that load on first use
MODEL_LAYER = ("errors", "numerics", "families", "model", "config")
LATE = {"constants", "pgf", "experiments", "zoo", "cli", "montecarlo"}


def _late_imports(tree):
    """Lines of the statements that import a module of ``LATE`` while
    the module is imported, relatively or as ``branchlab.<module>``."""
    return sorted({line for line, module in _import_time_imports(tree)
                   if (late := re.match(r"(?:\.|branchlab\.)(\w+)", module))
                   and late.group(1) in LATE})


def test_the_model_layer_imports_no_later_module():
    # a function may import one when it runs, as families does model
    late = {name: _late_imports(ast.parse((SRC / f"{name}.py").read_text()))
            for name in MODEL_LAYER}
    assert late == {name: [] for name in MODEL_LAYER}


def test_the_late_import_guard_sees_what_it_looks_for():
    tree = ast.parse("from .errors import ConfigError\n"
                     "from .pgf import build_survival_table\n"
                     "from . import zoo, model\n"
                     "import branchlab.experiments\n"
                     "from branchlab import cli\n"
                     "from typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n"
                     "    from .montecarlo import SimConfig\n"
                     "class Spec:\n"
                     "    from .constants import constant_set\n"
                     "    def table(self):\n"
                     "        from .pgf import build_survival_table\n"
                     "def _terminal():\n"
                     "    from .model import ProcessSpec\n"
                     "from .pgfx import pgf\n"
                     "import zoo\n")
    assert _late_imports(tree) == [2, 3, 4, 5, 10]


def _third_party_imports(trees):
    """Top-level modules that the trees' absolute imports name, inside
    functions too, other than the standard library and the package."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and not getattr(node, "level", 0)):
                found.update(m.split(".")[0] for m in _imported_modules(node))
    return found - set(sys.stdlib_module_names) - {"branchlab"}


# distributions imported under another name than their own, lowercased
IMPORT_NAMES = {"pyyaml": "yaml"}


def _declared_dependencies(pyproject):
    """Import names of the ``[project]`` table's ``dependencies``, read
    with a pattern: Python 3.10, which the package supports, has no
    tomllib."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject,
                        re.M | re.S).group(1)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project,
                       re.M | re.S).group(1)
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
             for req in re.findall(r'"([^"]+)"', listed))
    return {IMPORT_NAMES.get(name, name) for name in names}


def test_the_dependencies_are_what_the_package_imports():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    declared = _declared_dependencies((ROOT / "pyproject.toml").read_text())
    assert _third_party_imports(trees) == declared


def test_the_dependency_guard_sees_what_it_looks_for():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math, os.path\n"
                     "import numpy.linalg as la\n"
                     "from . import zoo\n"
                     "from .numpy import shim\n"
                     "from branchlab.model import ProcessSpec\n"
                     "def late():\n"
                     "    import mpmath as mp\n"
                     "    from yaml import safe_load\n")
    assert _third_party_imports([tree]) == {"numpy", "mpmath", "yaml"}
    pyproject = ('[project]\nname = "x"\ndependencies = [\n'
                 '    "numpy>=1.24",\n    "PyYAML>=6.0",\n]\n\n'
                 '[project.optional-dependencies]\n'
                 'dev = [\n    "mpmath>=1.3",\n]\n')
    assert _declared_dependencies(pyproject) == {"numpy", "yaml"}


POOLS = ("multiprocessing", "concurrent.futures")


def _forks_and_pools(modules):
    """Where the modules (name -> source) name ``fork``, as
    ``module.function`` (``module`` outside any function), and, for each
    of ``POOLS``, the modules that import it or a submodule, inside
    functions too (``from concurrent import futures`` included)."""
    forks, pools = set(), {pool: [] for pool in POOLS}

    def visit(node, name, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{name}.{node.name}"
        if (isinstance(node, ast.Attribute) and node.attr == "fork"
                or isinstance(node, ast.alias) and node.name == "fork"):
            forks.add(where)
        imported = []
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported = [node.module] + [f"{node.module}.{alias.name}"
                                        for alias in node.names]
        for pool in POOLS:
            if any(m == pool or m.startswith(pool + ".") for m in imported):
                pools[pool].append(name)
        for child in ast.iter_child_nodes(node):
            visit(child, name, where)

    for name, text in modules.items():
        visit(ast.parse(text), name, name)
    return forks, pools


def test_one_function_forks_and_nothing_pools():
    # the fork map is the one place that forks, for the sampler too
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    forks, pools = _forks_and_pools(modules)
    assert forks == {"numerics.fork_map"}
    assert pools == {"multiprocessing": [], "concurrent.futures": []}


def test_the_fork_and_pool_guard_sees_what_it_looks_for():
    modules = {
        "a": "import os\npid = os.fork()\n"
             "def spawn():\n    return os.fork()\n"
             "class Pool:\n    def start(self):\n"
             "        from os import fork\n        fork()\n",
        "b": "import multiprocessing.pool\n"
             "def late():\n    from concurrent import futures\n",
        "c": "from multiprocessing import get_context\n"
             "import concurrent.futures as cf\n",
        "d": "import os\nos.getpid()\nfrom .multiprocessing import x\n",
    }
    forks, pools = _forks_and_pools(modules)
    assert forks == {"a", "a.spawn", "a.start"}
    assert pools == {"multiprocessing": ["b", "c"],
                     "concurrent.futures": ["b", "c"]}


# the package's public names, the sampler's among them
PUBLIC = """
AcceptanceTooLow Bernoulli BranchLabError Censored ConfigError ConstantSet
ConvergenceReport DegenerateVariance EstimateWithCI Geometric
HarmonicResult HypothesisViolation InvalidMoments MissingLink
ModelStructureError MomentData NonCritical PointMass Poisson PrecisionLoss
ProcessSpec ProductLaw ReportRow STOCK_MODELS SimConfig SlowConvergence
SurvivalTable TableLaw TrajectorySummary UnreachableEvent Violation WResult
build_survival_table censored_transform check_assumptions
conditional_estimate conditional_transform config constant_set constants
errors estimate_pmf_T experiments extinction_time_pmf families harmonic_U
iterate_point limit_death limit_deathfin limit_finalstage load_model
loads_model micro_table model montecarlo numerics pgf simulate_once
single_geometric stock_model survival_map terminal_gap three_type_chain
two_type_cascade validate_hypothesis_A verify_death verify_deathfin
verify_diff_lemmas verify_finalstage verify_foster verify_laplace_W
verify_local w_transform w_weighted_mean zoo
""".split()

WITHOUT_NUMPY = """\
import contextlib, io, os, sys, tempfile
import branchlab
import branchlab.cli
from branchlab import (STOCK_MODELS, constant_set, harmonic_U, iterate_point,
                       load_model, stock_model, validate_hypothesis_A)
for path in sys.argv[1:]:
    load_model(path)
for name in STOCK_MODELS:
    spec = stock_model(name)
    spec.kernel
    constant_set(validate_hypothesis_A(spec))
    harmonic_U(spec, 0.5, 100)
iterate_point(stock_model("three_type_chain"), (0.5, 0.5, 0.5), 100)
with tempfile.TemporaryDirectory() as tmp, \\
        contextlib.redirect_stdout(io.StringIO()):
    for name in STOCK_MODELS:
        for command in ("validate", "constants"):
            request = branchlab.cli.RunRequest(
                command, model=name, output=os.path.join(tmp, command))
            assert branchlab.cli.run(request) == 0
print(sorted({"numpy", "branchlab.montecarlo"} & set(sys.modules)))
print(branchlab.estimate_pmf_T is branchlab.montecarlo.estimate_pmf_T)
names = {}
exec("from branchlab import *", names)
print(sorted(set(names) - {"__builtins__"}) == branchlab.__all__)
print(*branchlab.__all__)
"""


def _names_numpy(text):
    """Lines that name numpy, as a module or as ``np.``."""
    return [i for i, line in enumerate(text.splitlines(), start=1)
            if re.search(r"\bnumpy\b|\bnp\.", line)]


def test_the_cli_names_no_numpy():
    assert _names_numpy((SRC / "cli.py").read_text()) == []


def test_the_numpy_name_guard_sees_what_it_looks_for():
    assert _names_numpy("import numpy as np\n"
                        "x = np.zeros(3)\n"
                        "# numpy arrays\n"
                        "rows = table.d.tolist()\n"
                        "numpyro = 1\n"
                        "snp.x = 2\n") == [1, 2, 3]


def test_the_exact_engine_loads_without_numpy():
    models = sorted((ROOT / "perfbench" / "models").glob("*.yaml"))
    assert len(models) == 4
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY, *models],
                         capture_output=True, text=True, env=env, check=True)
    absent, same, star, public = out.stdout.splitlines()
    assert absent == "[]"
    assert same == star == "True"
    assert public.split() == sorted(PUBLIC) and len(PUBLIC) == 75
    assert not hasattr(branchlab, "no_such_name")


LAZY_LOADING = """\
import sys
import branchlab
from branchlab import load_model


def loaded():
    return " ".join(sorted(m.removeprefix("branchlab.") for m in sys.modules
                           if m.split(".")[0] == "branchlab"))


for path in sys.argv[1:]:
    load_model(path)
print(loaded())
for name in ("stock_model", "constant_set", "build_survival_table",
             "verify_death"):
    getattr(branchlab, name)
    print(loaded())
"""


def test_import_loads_the_model_layer_and_each_name_its_module():
    models = sorted((ROOT / "perfbench" / "models").glob("*.yaml"))
    assert len(models) == 4
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", LAZY_LOADING, *models],
                         capture_output=True, text=True, env=env, check=True)
    # the model layer, then the home of each name in turn
    steps = [["branchlab", *MODEL_LAYER]]
    for module in ("zoo", "constants", "pgf", "experiments"):
        steps.append(steps[-1] + [module])
    assert ([line.split() for line in out.stdout.splitlines()]
            == [sorted(step) for step in steps])


def test_every_public_name_is_read_from_its_home_module(monkeypatch):
    lazy = branchlab._HOME  # name -> the module it loads on first use
    for name in branchlab.__all__:
        value = getattr(branchlab, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"branchlab.{name}"]
            continue
        home = f"branchlab.{lazy[name]}" if name in lazy else value.__module__
        assert value is getattr(sys.modules[home], name)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home
    assert set(branchlab.__all__) <= set(dir(branchlab))
    # nothing is cached: a name patched in its home module is served
    assert not set(lazy) & set(vars(branchlab))
    monkeypatch.setattr(branchlab.pgf, "harmonic_U", len)
    assert branchlab.harmonic_U is len
    with pytest.raises(AttributeError, match="no_such_name"):
        branchlab.no_such_name
