"""Independent references for the benchmark's correctness checks.

Nothing here imports branchlab.  Each stock model's offspring pgf is
written out again from its definition and iterated in mpmath at 40
significant digits; the conditional limits are the closed forms of the
paper.  Plain iteration is safe at this precision: the cancellations
that force branchlab's double-precision engine into complement and
gap form cost at most a dozen of the forty digits at the horizons used
here.

The long iterations take a few seconds, so the benchmark recomputes
them in every run instead of storing a copy.  To print them:

    python3 perfbench/reference.py orbit --model three_type_chain \
        --n 100000 --at 1000,100000
    python3 perfbench/reference.py conditional --model two_type_cascade \
        --n 25 --m 20 --s 0.6
"""

from __future__ import annotations

import argparse
import json
import math

import mpmath as mp

DPS = 40


def _geo(x):
    # Geometric law with mean one: pgf 1 / (2 - x)
    return 1 / (2 - x)


def _poi(x):
    # Poisson law with mean one: pgf exp(x - 1)
    return mp.exp(x - 1)


def _single_geometric():
    return lambda q: (_geo(q[0]),)


def _two_type_cascade():
    return lambda q: (_geo(q[0]) * _poi(q[1]), _geo(q[1]))


def _three_type_chain():
    return lambda q: (_geo(q[0]) * _poi(q[1]), _geo(q[1]) * _poi(q[2]),
                      _geo(q[2]))


def _micro_table():
    # rows (0,0) 0.4, (2,0) 0.4, (1,1) 0.2 and (0,0) 0.5, (0,2) 0.5
    p0, p2, p11 = mp.mpf("0.4"), mp.mpf("0.4"), mp.mpf("0.2")
    return lambda q: (p0 + p2 * q[0] * q[0] + p11 * q[0] * q[1],
                      (1 + q[1] * q[1]) / 2)


# Per stock model: a factory for the pgf vector (called at the working
# precision, so its constants carry every digit), half the own-type
# offspring variances b_i, and the feed means m_i from type i to i+1.
MODELS = {
    "single_geometric": (_single_geometric, (1.0,), ()),
    "two_type_cascade": (_two_type_cascade, (1.0, 1.0), (1.0,)),
    "three_type_chain": (_three_type_chain, (1.0, 1.0, 1.0), (1.0, 1.0)),
    "micro_table": (_micro_table, (0.4, 0.5), (0.2,)),
}


def n_types(model: str) -> int:
    return len(MODELS[model][1])


def orbit(model: str, n_max: int, at) -> dict[int, tuple[list, list]]:
    """Survival and extinction-time pmf per start type at the given n.

    Iterates q(n) = f(q(n-1)) from q(0) = 0 and returns, for each n in
    ``at``, the floats (1 - q_i(n))_i and (q_i(n) - q_i(n-1))_i.
    """
    wanted = set(at)
    out = {}
    with mp.workdps(DPS):
        f = MODELS[model][0]()
        q = tuple(mp.mpf(0) for _ in range(n_types(model)))
        for n in range(1, n_max + 1):
            new = f(q)
            if n in wanted:
                out[n] = ([float(1 - x) for x in new],
                          [float(x - y) for x, y in zip(new, q)])
            q = new
    return out


def _iterate(f, x, m):
    for _ in range(m):
        x = f(x)
    return x


def conditional(model: str, n: int, m: int, s) -> float:
    """E[prod_j s_j^Z_j(m) | T = n] for one type-1 ancestor.

    Given Z(m), extinction by n has probability prod_j q_j(n-m)^Z_j(m),
    so E[prod s^Z(m); T <= n] is the m-fold iterate at s * q(n-m); the
    event T = n is the difference of the n and n-1 versions.
    """
    with mp.workdps(DPS):
        f = MODELS[model][0]()
        s = [mp.mpf(x) for x in s]
        zero = tuple(mp.mpf(0) for _ in s)
        q_hi = _iterate(f, zero, n - m)
        q_lo = _iterate(f, zero, n - m - 1)
        hi = _iterate(f, tuple(a * b for a, b in zip(s, q_hi)), m)[0]
        lo = _iterate(f, tuple(a * b for a, b in zip(s, q_lo)), m)[0]
        p_n = _iterate(f, zero, n)[0] - _iterate(f, zero, n - 1)[0]
        return float((hi - lo) / p_n)


def extinction_pmf(model: str, t_max: int) -> list[float]:
    """[P(T = t) for t = 1..t_max] from one type-1 ancestor."""
    got = orbit(model, t_max, range(1, t_max + 1))
    return [got[t][1][0] for t in range(1, t_max + 1)]


def amplitudes(model: str) -> tuple[list[float], list[float], list[float]]:
    """Decay exponents gamma_i, survival amplitudes c_i and pmf amplitudes g_i.

    With b_i the quadratic coefficients and m_i the feed means, the
    last type is a critical Galton-Watson chain, d_N(n) ~ 1/(b_N n).
    Each lower type balances its own quadratic loss against the feed
    from the type above: b_i d_i^2 ~ m_i d_{i+1}, so
    c_i = sqrt(m_i c_{i+1} / b_i) and gamma_i = gamma_{i+1} / 2.
    Differencing d_i(n) ~ c_i n^-gamma_i gives g_i = gamma_i c_i.
    """
    _, b, links = MODELS[model]
    n = len(b)
    gamma = [0.0] * n
    c = [0.0] * n
    gamma[-1], c[-1] = 1.0, 1.0 / b[-1]
    for i in range(n - 2, -1, -1):
        gamma[i] = gamma[i + 1] / 2.0
        c[i] = math.sqrt(links[i] * c[i + 1] / b[i])
    return gamma, c, [gi * ci for gi, ci in zip(gamma, c)]


def deathfin_bracket(s: float, k: int) -> float:
    """U(s q_{k+1}) - U(s q_k) for a Geometric(1) terminal type.

    Its extinction probabilities are q_k = k / (k + 1) and its harmonic
    function is U(y) = y / (1 - y).
    """
    def u(y):
        return y / (1.0 - y)

    return u(s * (k + 1) / (k + 2)) - u(s * k / (k + 1))


def death_limit(lam: float) -> float:
    """Transform of b_N Z_N(n-k) / k given T = n, for 1 << k << n."""
    return 1.0 / (1.0 + lam) ** 2


def midlife_limit(lam: float, x: float, n_types: int) -> float:
    """Transform of Z_N(xn) / (b_N n) given T = n, for 0 < x < 1."""
    a = 1.0 + lam * (1.0 - x)
    c = 1.0 + lam * x * (1.0 - x)
    return (a / c) ** (0.5 ** (n_types - 1) - 1.0) / (c * c)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    p_orbit = sub.add_parser("orbit", help="survival and pmf checkpoints")
    p_cond = sub.add_parser("conditional", help="conditional transform")
    for p in (p_orbit, p_cond):
        p.add_argument("--model", choices=sorted(MODELS), required=True)
        p.add_argument("--n", type=int, required=True)
    p_orbit.add_argument("--at", required=True,
                         help="comma-separated checkpoints")
    p_cond.add_argument("--m", type=int, required=True)
    p_cond.add_argument("--s", type=float, required=True,
                        help="argument of the last type (others get 1)")
    args = parser.parse_args()
    if args.what == "orbit":
        at = [int(v) for v in args.at.split(",")]
        got = orbit(args.model, args.n, at)
        doc = {str(n): {"survival": d, "pmf": p} for n, (d, p) in sorted(got.items())}
    else:
        s = [1.0] * (n_types(args.model) - 1) + [args.s]
        doc = {"value": conditional(args.model, args.n, args.m, s)}
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
