"""Closed-form asymptotic constants of the strongly critical cascade.

For a cascade with N types, the survival probability of the whole
population started from one type-i particle decays like
``c[i] * n**(-gamma[i])`` with ``gamma[i] = 2**-(N-i)``, the extinction
time has local probabilities ``g[i] / n**(1+gamma[i])``, and the
cumulative-feed transform tail is governed by the chain amplitudes
``D[i]``.  All products of fractional powers are evaluated on the log
scale: the formulas are telescoping products whose direct evaluation
would round badly for skewed moment values.

Amplitude recursion implemented here (i the starting type, N the
terminal type):

* ``c_{N,N} = 1 / b_N``
* ``c_{i,N} = (1/b_N)**(2**-(N-i))
  * prod_{j=i..N-1} (m_{j,j+1}/b_j)**(2**-(j-i+1))`` for i < N
* ``D_i = (b_i * m_{i,i+1})**(2**-i) * c_{1,i}`` where ``c_{1,i}`` is
  the amplitude of the sub-cascade on types 1..i (re-applied formula,
  not a shortcut)
* ``g_{i,N} = gamma_i * c_{i,N}``

The cross-identity ``c_{1,N} = D_{N-1} * (1/b_N)**(2**-(N-1))`` ties
the two families together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidMoments
from .model import MomentData


@dataclass(frozen=True)
class ConstantSet:
    """Derived constants plus the moment inputs they came from.

    Tuples are indexed by starting type (0-based storage for type i at
    position i-1).  ``chain`` holds D_1..D_{N-1} and is empty for a
    single-type model.
    """

    n_types: int
    gamma: tuple[float, ...]
    survival_amplitude: tuple[float, ...]   # c_{i,N}
    chain: tuple[float, ...]                # D_i
    local_amplitude: tuple[float, ...]      # g_{i,N}
    b: tuple[float, ...]
    link_means: tuple[float, ...]


def _check_inputs(b, links):
    for i, bi in enumerate(b, start=1):
        if not (bi > 0.0 and math.isfinite(bi)):
            raise InvalidMoments(f"b[{i}] = {bi!r} unusable")
    for i, li in enumerate(links, start=1):
        if not (li > 0.0 and math.isfinite(li)):
            raise InvalidMoments(f"link mean {i}->{i+1} = {li!r} unusable")


def _log_survival_amplitude(b, links, start: int, terminal: int) -> float:
    """log c_{start,terminal} for the sub-cascade on types start..terminal."""
    if start == terminal:
        return -math.log(b[terminal - 1])
    acc = 2.0 ** -(terminal - start) * -math.log(b[terminal - 1])
    for j in range(start, terminal):
        acc += 2.0 ** -(j - start + 1) * math.log(links[j - 1] / b[j - 1])
    return acc


def constant_set(moments: MomentData) -> ConstantSet:
    """All derived constants for a validated model."""
    n = moments.n_types
    b = moments.b
    links = moments.link_means
    _check_inputs(b, links)

    gamma = tuple(2.0 ** -(n - i) for i in range(1, n + 1))
    log_c = [_log_survival_amplitude(b, links, i, n) for i in range(1, n + 1)]
    c = tuple(math.exp(v) for v in log_c)

    chain = []
    for i in range(1, n):
        # c_{1,i} of the truncated cascade on types 1..i
        log_c1i = _log_survival_amplitude(b, links, 1, i)
        log_di = 2.0**-i * math.log(b[i - 1] * links[i - 1]) + log_c1i
        chain.append(math.exp(log_di))

    g = tuple(gi * ci for gi, ci in zip(gamma, c))
    return ConstantSet(
        n_types=n,
        gamma=gamma,
        survival_amplitude=c,
        chain=tuple(chain),
        local_amplitude=g,
        b=b,
        link_means=tuple(links),
    )

