"""Single-point mutants of every generated kernel, run on a fixed corpus.

A kernel must equal ``tests/reference_step.py`` bit for bit, so a
single-point change to its source that alters no output bit on a corpus
that reaches every rule is dead code or an unchecked rule.  Each
kernel's source (``ProcessSpec.kernel.source``) is parsed with ``ast``,
and each mutant changes one node of it:

* an arithmetic operator (``+``, ``-``, ``*``, ``/`` or ``**``, of a
  binary operation or an augmented assignment) replaced by one of
  ``+``, ``-``, ``*`` and ``/``;
* the operands of a ``-`` or a ``/`` swapped (``+`` and ``*`` commute
  bit for bit);
* a float literal moved one ulp up or down;
* a comparison made strict or non-strict, or turned around;
* an assignment dropped.

A statement of ``advance``'s sweep and its copy at the head of the
table loop are one point, as the emitter writes the sweep once.  The
mutant is compiled and run through ``advance``, ``terminal`` and
``table`` on the corpus, and its results are compared with the
kernel's own under ``float.hex`` (the table's arrays byte for byte); a
mutant that raises is killed.  The corpus steps every coordinate from
-0.0, 0.0, 5e-324, 1e-300, 1 - 1e-16, 1 and seeded random values in
(0, 1), with gaps of -0.0, 0.0 and 2^-10, a half and all of 1 - d, and
builds tables from 1 and from columns that stop at each coordinate,
for a complement or for a gap below the smallest normal double.  The
specs are ``test_layering.SPECS``, the truncating specs of
``test_kernel.py`` and a table whose survival sums three terms.  No
hypothesis: the corpus is the same every run.  A mutant that survives
must match an entry of ``SURVIVORS``, which says why it changes no bit,
and every entry must match a survivor.
"""

import ast
import math
import random
import re
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from branchlab.families import Geometric
from branchlab.model import ProcessSpec, ProductLaw, TableLaw
from branchlab.numerics import _STEP_NAMES
from test_kernel import GEOMETRIC_2, TABLE_LAW
from test_layering import SPECS

GEOMETRIC_025 = ProcessSpec(n_types=1, laws=(
    ProductLaw(parent=1, children={1: Geometric(0.25)}),), name="geometric_0.25")
# three nonzero rows, the only sums the kernel still compensates, whose
# terms order differently near 0 and near 1, so that each carry takes
# both of its branches in both sums
THREE_ROWS = ProcessSpec(n_types=1, laws=(TableLaw(parent=1, rows=(
    ((0,), 0.5), ((3,), 0.1), ((1,), 0.2), ((4,), 0.2))),), name="three_rows")
# (spec, length of the table built from 1): the truncating specs run to
# just past their truncation
MUTATED = [*((spec, 64) for spec in SPECS),
           (replace(GEOMETRIC_2, name="geometric_2.0"), 1030),
           (GEOMETRIC_025, 520),
           (replace(TABLE_LAW, name="table_0.6_0.2_0.2"), 1390),
           (THREE_ROWS, 64)]

SPECIAL = (-0.0, 0.0, 5e-324, 1e-300, 1.0 - 1e-16, 1.0)
_RANDOM = random.Random(27)
VALUES = SPECIAL + tuple(_RANDOM.random() for _ in range(5))
INNER = [x for x in VALUES if 0.0 < x <= 1.0 and x != 5e-324]
GAPS = (-0.0, 0.0, 2.0 ** -10, 0.5, 1.0)

# the operators a mutant writes, and ** that it replaces too
ARITHMETIC = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
# a comparison made strict or non-strict, and turned around
COMPARISONS = {ast.Lt: (ast.LtE, ast.Gt), ast.LtE: (ast.Lt, ast.GtE),
               ast.Gt: (ast.GtE, ast.Lt), ast.GtE: (ast.Gt, ast.LtE)}

# (pattern, reason): a survivor's description, ``spec points: statement``
# as mutated (the points being the kernel functions that hold the
# statement, one line of the emitter), must match one pattern in full
TINY = r"2\.2250738585072014e-308"
NEAR_TINY = rf"({TINY} <|2\.22507385850720(1|2)e-308 <=)"
SURVIVORS = [
    (rf"\S+ table: if not {NEAR_TINY} d\d+.*",
     "the stall check's bound on a complement, sys.float_info.min, made "
     "strict or moved one ulp: it differs only on a complement equal to "
     "that bound or next to it"),
    (rf"\S+ table: if not {TINY} <= d\d+ or \(d\d+ < 1\.0 and "
     rf"\(not {NEAR_TINY} e\d+\)\):",
     "the stall check's bound on a gap, made strict or moved one ulp: it "
     "differs only on a gap equal to sys.float_info.min or next to it"),
    (rf"\S+ table: if not {TINY} <= d\d+ or \(d\d+ (<= 1\.0|< 1\.0000000000000002) "
     rf"and \(not {TINY} <= e\d+\)\):",
     "a complement of exactly 1 made to need a normal gap: only a "
     "coordinate whose complement stays 1 has one (a deterministic "
     "feed, as in point_mass_1_feed, which kills it)"),
    (rf"\S+ table: if not {TINY} <= d\d+ or \(d\d+ < 0\.9999999999999999 "
     rf"and \(not {TINY} <= e\d+\)\):",
     "a complement of 1 - 2^-53 let through with a gap below the normal "
     "range: no table reaches that pair"),
    (r"\S+ [a-z+]+: (c\d+_)?h\d* = (0\.0 if (c\d+_)?a\d* <= |"
     r"-?5e-324 if (c\d+_)?a\d* < ).*",
     "power_diff's clamp h = max(a - e, 0.0): at a = e both branches give "
     "+0.0, and the clamp's 0.0 is reached only where delta > 1 - da, "
     "outside the kernel's domain"),
    (r"\S+ [a-z+]+: l\d+ = log1p\(-d\d+\) if d\d+ < 0\.9999999999999999 else -inf",
     "the log's guard moved one ulp down changes l{j} only at d{j} = "
     "1 - 2^-53, from log(2^-53) to -inf: a PointMass(k >= 2) factor's "
     "survival -expm1(k l) and a row's term -expm1(c l + ...) are 1 "
     "either way for a count c >= 2, and a row's term moves by at most "
     "p 2^-53 for a count of 1, which these tables' sums round away"),
    (r"\S+ [a-z+]+: sb = 1\.0 if d\d+ \+ e\d+ >= 0\.9999999999999999 "
     r"else -expm1\([2-9] \* log1p.*",
     "a PointMass(k >= 2) factor's pin of its survival at b moved one ulp "
     "down: at x = 1 - 2^-53, (1 - x)^k <= 2^-106 and "
     "-expm1(k log1p(-x)) rounds to 1 as the pin does"),
    (r"\S+ [a-z+]+: ([sg])c \+?= \1\d+ - \1\d+ \+ \1v\d+ if "
     r"abs\(\1\d+\) > abs\(\1v\d+\) else .*",
     "Neumaier's carry with its branch made strict: the terms are >= "
     "+0.0, so equal magnitudes are equal terms and both branches give "
     "the same carry"),
    (r"point_mass_0_feed table: .*",
     "type 2 has no offspring, so its complement is 0 at n = 1 and every "
     "table of this spec stops there: the table loop and type 2's store "
     "at n = 1 never run"),
    (r"point_mass_0_own table: if not .* or \(d1 > 1\.0 and .*",
     "type 2's gap clause turned off: type 1's gap is its feed's, so a "
     "zero gap stops the table at type 1 before type 2 is checked"),
]


def _gaps(da, mode):
    """-0.0, 0.0, or a fraction of 1 - d (all of it last), per coordinate."""
    return [GAPS[mode] * (1.0 - (d + 0.0)) if mode > 1 else GAPS[mode]
            for d in da]


def _table(n_types, start, pi, size):
    def run(ns):
        d = np.zeros((n_types, size + 1))
        pmf = np.zeros((n_types, size + 1))
        d[:, 0] = start
        return ns["table"](d, pmf, list(pi)), d.tobytes(), pmf.tobytes()
    return "table", run


def _corpus(spec, size):
    """(kernel function, call) pairs, each call taking a kernel
    namespace and returning what the function gives: ``advance`` from
    every rotation of ``VALUES``, from each pair of ``SPECIAL`` values on
    alternate coordinates and from seeded uniform values (in both
    orders), ``terminal`` from ``VALUES`` and the first of those, both
    with each kind of gap and 0, 1 and 3 steps; ``table`` from 1 (to
    ``size``), from rotations of ``INNER`` and from columns that stop at
    each coordinate.  ``advance`` and ``terminal`` results are compared
    as their repr, the same relation as ``float.hex``: both write each
    double but a NaN its own way, -0.0 apart from +0.0."""
    n = spec.n_types
    uniform = random.Random(n)
    starts = [[VALUES[(k + i) % len(VALUES)] for i in range(n)]
              for k in range(len(VALUES))]
    starts += [[(x, y)[i % 2] for i in range(n)]
               for x in SPECIAL for y in SPECIAL[:len(SPECIAL) if n > 1 else 1]]
    uniforms = [[uniform.random() for _ in range(n)] for _ in range(64)]
    starts += uniforms + [x[::-1] for x in uniforms if n > 1]
    runs = [("advance", lambda ns, da=da, delta=_gaps(da, mode), s=steps:
             repr(ns["advance"](da, delta, s)))
            for da in starts for mode in range(len(GAPS)) for steps in (0, 1, 3)]
    runs += [("terminal", lambda ns, d=d, e=_gaps([d], mode)[0], s=steps:
              repr(ns["terminal"](d, e, s)))
             for d in [*VALUES, *(x[0] for x in uniforms)]
             for mode in range(len(GAPS)) for steps in (0, 1, 3)]
    runs.append(_table(n, 1.0, [law.pgf([0.0] * n) for law in spec.laws], size))
    for k in range(len(INNER)):
        start = [INNER[(k + i) % len(INNER)] for i in range(n)]
        runs.append(_table(n, start, _gaps(start, 2), 6))
    for i in range(n):
        # zero gaps from coordinate i on stop it at n = 2, and subnormal
        # complements from i on at n = 1
        head = [0.5] * i
        runs.append(_table(n, [0.5] * n, head + [0.0] * (n - i), 4))
        runs.append(_table(n, head + [5e-324] * (n - i), [0.25] * n, 4))
    return runs


def _line(stmt):
    if isinstance(stmt, ast.If):
        return f"if {ast.unparse(stmt.test)}:"
    return ast.unparse(stmt)


def _expressions(stmt):
    """The nodes of ``stmt`` outside its nested statements, in a fixed
    order."""
    todo, found = [stmt], []
    while todo:
        node = todo.pop()
        found.append(node)
        todo += [child for child in ast.iter_child_nodes(node)
                 if not isinstance(child, ast.stmt)]
    return found


def _points(tree):
    """The statements of a kernel's source, each a list of (function
    name, body that holds it, statement): a statement of ``advance``'s
    sweep with its copy at the head of the table loop (one statement of
    the emitter's sweep), every other statement alone."""
    bodies = [(func.name, owner.body) for func in tree.body
              for owner in ast.walk(func)
              if isinstance(owner, (ast.FunctionDef, ast.For, ast.If))]
    sweep, table, _ = (
        next(stmt for stmt in func.body if isinstance(stmt, ast.For)).body
        for func in tree.body)
    points = [[("advance", sweep, stmt), ("table", table, table[k])]
              for k, stmt in enumerate(sweep)]
    grouped = {id(stmt) for point in points for _, _, stmt in point}
    return points + [[(name, body, stmt)] for name, body in bodies
                     for stmt in body if id(stmt) not in grouped]


def _mutants(tree, label):
    """Mutate ``tree`` in place one point at a time, yielding the names
    of the functions changed and a description of each mutant while it
    holds."""
    for point in _points(tree):
        names = {name for name, _, _ in point}
        where = f"{label} {'+'.join(name for name, _, _ in point)}"
        stmt = point[0][2]
        for nodes in zip(*(_expressions(stmt) for _, _, stmt in point)):
            for _ in _node_mutants(nodes):
                yield names, f"{where}: {_line(stmt)}"
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            saved = [body[:] for _, body, _ in point]
            for _, body, copy in point:
                body[:] = [s for s in body if s is not copy] or [
                    ast.copy_location(ast.Pass(), copy)]
            yield names, f"{where}: dropped {_line(stmt)}"
            for (_, body, _), old in zip(point, saved):
                body[:] = old


def _node_mutants(nodes):
    """Each single change of the node ``nodes[0]``, made to all of
    ``nodes`` alike (copies of one emitted expression)."""
    node = nodes[0]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ARITHMETIC):
        op = node.op
        for other in ARITHMETIC[:4]:
            if not isinstance(op, other):
                for copy in nodes:
                    copy.op = other()
                yield
        for copy in nodes:
            copy.op = op
        if isinstance(node, ast.BinOp) and isinstance(op, (ast.Sub, ast.Div)):
            for copy in nodes:
                copy.left, copy.right = copy.right, copy.left
            yield
            for copy in nodes:
                copy.left, copy.right = copy.right, copy.left
    elif isinstance(node, ast.Constant) and type(node.value) is float:
        value = node.value
        for way in (math.inf, -math.inf):
            for copy in nodes:
                copy.value = math.nextafter(value, way)
            yield
        for copy in nodes:
            copy.value = value
    elif isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            for other in COMPARISONS.get(type(op), ()):
                for copy in nodes:
                    copy.ops[k] = other()
                yield
            for copy in nodes:
                copy.ops[k] = op


def _module(func):
    return compile(ast.Module([func], []), "<kernel mutant>", "exec")


@cache
def _survivors(k):
    """(mutants run, descriptions of the mutants that changed no bit) of
    the kernel of ``MUTATED[k]``."""
    spec, size = MUTATED[k]
    tree = ast.parse(spec.kernel.source)
    runs = _corpus(spec, size)
    kernel = dict(_STEP_NAMES)
    exec(compile(tree, "<kernel>", "exec"), kernel)
    wants = [run(kernel) for _, run in runs]
    funcs = {func.name: func for func in tree.body}
    codes = {name: _module(func) for name, func in funcs.items()}
    count, survivors = 0, []
    for mutated, description in _mutants(tree, spec.name):
        count += 1
        namespace = dict(_STEP_NAMES)
        for code in codes.values():
            exec(code, namespace)
        # the calls that reach a mutated function (table calls advance),
        # which is compiled before the first of its own calls
        reach = mutated | {"table"} if "advance" in mutated else mutated
        pending = set(mutated)
        try:
            for (name, run), want in zip(runs, wants):
                if name in pending:
                    exec(_module(funcs[name]), namespace)
                    pending.remove(name)
                if name in reach and run(namespace) != want:
                    break
            else:
                survivors.append(description)
        except Exception:
            pass
    return count, survivors


def _explained(description):
    return any(re.fullmatch(pattern, description) for pattern, _ in SURVIVORS)


@pytest.mark.parametrize("k", range(len(MUTATED)),
                         ids=[spec.name for spec, _ in MUTATED])
def test_every_kernel_mutant_is_killed_or_explained(k):
    count, survivors = _survivors(k)
    assert count > 0
    assert [s for s in survivors if not _explained(s)] == []


def test_every_explained_survivor_is_seen():
    seen = [s for k in range(len(MUTATED)) for s in _survivors(k)[1]]
    assert [pattern for pattern, _ in SURVIVORS
            if not any(re.fullmatch(pattern, s) for s in seen)] == []
