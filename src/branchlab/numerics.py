"""Small numerical kernels used throughout the exact engine.

Everything here exists to avoid cancellation: probabilities close to
one are always carried as complements, sums of many small terms use
compensated accumulation, and differences of nearby transform values
are propagated as first-class quantities instead of being recomputed
by subtraction.  ``power_diff`` is the reference form of the
telescoped difference of powers that the generated steps write out
inline.  ``compile_step`` turns the generated source of a paired step
into functions that call only ``math``'s ``exp``, ``expm1`` and
``log1p``.  ``fork_map`` is the package's one way to run work on more
than one core without pickling it, and ``cores`` counts the cores it
may use.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Callable, Iterable, Sequence

from .errors import BranchLabError


def neumaier_sum(values: Iterable[float]) -> float:
    """Compensated summation (Kahan with Neumaier's correction)."""
    total = 0.0
    carry = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            carry += (total - t) + v
        else:
            carry += (v - t) + total
        total = t
    return total + carry


def complement_product(survivals: Iterable[float]) -> float:
    """Stable evaluation of 1 - prod_j (1 - u_j) for u_j in [0, 1].

    Pairwise rule: 1 - (1-a)(1-b) = a + b(1-a).  Keeps full relative
    accuracy when every u_j is tiny, where forming the product first
    would lose everything to rounding.  A factor of exactly one must
    pin the result to exactly one: structural certainty of survival
    (deterministic offspring) may not decay into 0.999... noise.
    """
    acc = 0.0
    for u in survivals:
        if u >= 1.0:
            return 1.0
        acc = acc + u * (1.0 - acc)
    return min(acc, 1.0)


def power_diff(a: float, gap: float, k: int) -> float:
    """a^k - (a - gap)^k for 0 <= a - gap <= a <= 1, telescoped.

    Takes the gap itself, never the lower point: re-deriving it as a
    subtraction of nearby powers would throw away all its relative
    accuracy when the gap is tiny.  All summands are positive, so the
    result keeps the gap's precision.
    """
    if k == 0:
        return 0.0
    if k == 1:
        return gap
    b = max(a - gap, 0.0)
    # k stays small for the supported laws, so O(k^2) is irrelevant;
    # per-term powers avoid the underflow of a running b^(k-1).
    s = 0.0
    for t in range(k):
        s += a**t * b ** (k - 1 - t)
    return gap * s


def richardson_derivative(f: Callable[[float], float], x: float,
                          step: float) -> float:
    """d f / d x by central differences at spacings h and 2h.

    The two estimates are combined as (4 D_h - D_2h) / 3, cancelling
    the leading h^2 truncation term.
    """
    d1 = (f(x + step) - f(x - step)) / (2.0 * step)
    d2 = (f(x + 2.0 * step) - f(x - 2.0 * step)) / (4.0 * step)
    return (4.0 * d1 - d2) / 3.0


# the names generated step source may read besides the builtins: math's
_STEP_NAMES = {"exp": math.exp, "expm1": math.expm1, "log1p": math.log1p,
               "inf": math.inf}


def compile_step(source: str, label: str) -> dict[str, Callable]:
    """The namespace of ``source``, generated step code that calls only
    ``math``'s ``exp``, ``expm1`` and ``log1p``, builtins and the
    functions it defines itself; ``label`` names it in tracebacks."""
    namespace = dict(_STEP_NAMES)
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace


# a fork and its pipe cost about as much as 2000 to 4000 orbit steps,
# or as formatting as many artifact rows: less work than this runs in
# the calling process
FORK_MIN = 8192


def cores() -> int:
    """The cores this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _outcomes(job: Callable, items: Sequence) -> tuple[list, Exception | None]:
    """``job`` of each item in turn up to the first that raises: the
    results so far and that exception, or None."""
    results = []
    try:
        for item in items:
            results.append(job(item))
    except Exception as exc:  # handed to the caller of fork_map
        return results, exc
    return results, None


def fork_map(job: Callable, items: Sequence, procs: int) -> list:
    """``[job(item) for item in items]``, item j run in process j % procs.

    Process 0 is this one; each other is a child forked from it, so
    ``job`` and the items are inherited, never pickled, and only the
    results, or the exception of a child's first failing item, come
    back pickled through a pipe.  The exception of the lowest failing
    item is raised here, as a run in one process would raise it.  Every
    child is reaped and every pipe closed, whatever happens; a child
    leaves by ``os._exit``, flushing no inherited buffer.  One process
    runs everything where ``os.fork`` is missing.
    """
    procs = max(1, min(procs, len(items))) if hasattr(os, "fork") else 1
    if procs > 1:
        import pickle  # loaded only by a process that forks
    children: list[tuple[int, object]] = []  # (pid, read end of its pipe)
    try:
        for w in range(1, procs):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump(_outcomes(job, items[w::procs]), pipe)
                    os._exit(0)
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb")))
        outcomes = [_outcomes(job, items[::procs])]
    finally:
        sent = []
        for pid, pipe in children:
            with pipe:
                data = pipe.read()
            sent.append((os.waitpid(pid, 0)[1], data))
    for status, data in sent:
        if status:
            raise BranchLabError("a forked process failed")
        outcomes.append(pickle.loads(data))
    failed = [(w + procs * len(results), exc)
              for w, (results, exc) in enumerate(outcomes) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [outcomes[j % procs][0][j // procs] for j in range(len(items))]
