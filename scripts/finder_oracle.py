"""Check the interior and diagonal equilibrium finders against an mpmath oracle.

Usage::

    python3 scripts/finder_oracle.py [--draws N] [--seed S] [--beta-max B]

For N seeded parameter draws (payoffs in [0.5, 3], costs in [0, 1], beta in
[0.2, B]) the script evaluates the rest-point map ``B`` at 30 significant
digits on the 4097 points ``i/4096`` and bisects every sign change of
``B(y) - y`` (diagonal equilibria) and ``B(B(y)) - y`` (interior equilibria
``(B(y), y)``). Points within 1e-9 of the boundary are skipped, as the
finders skip them. It prints every oracle root a finder missed and every
point a finder reported that the oracle does not have (max-norm tolerance
1e-7). Exit status is 1 if there is any, else 0.
"""

from __future__ import annotations

import argparse
import sys

import mpmath
import numpy as np

from replicator_lab import ModelParams
from replicator_lab.equilibria import find_diagonal_equilibria, find_inner_equilibria

GRID = 4096
EDGE, MATCH = 1e-9, 1e-7


def oracle_points(params: ModelParams) -> tuple[list, list]:
    """Diagonal roots and interior points ``(B(y), y)`` in mpmath, as floats."""
    p, c = params.payoffs, params.costs
    pi_gg, pi_gb, pi_bg, pi_bb, c_g, c_b, beta = map(
        mpmath.mpf, (p.pi_gg, p.pi_gb, p.pi_bg, p.pi_bb, c.c_g, c.c_b, params.beta))
    a, b = pi_bg - pi_gg - pi_bb + pi_gb, pi_bb - pi_gb

    def rest(y):
        u = a * y + b
        if u + c_g <= 0:
            return mpmath.mpf(0)
        if c_b - u <= 0:
            return mpmath.mpf(1)
        n_g, n_b = mpmath.expm1(beta * (u + c_g)), mpmath.expm1(beta * (c_b - u))
        return n_g / (n_g + n_b)

    def roots(f) -> list:
        grid = [mpmath.mpf(i) / GRID for i in range(GRID + 1)]
        vals = [f(y) for y in grid]
        out = [y for y, v in zip(grid, vals) if v == 0]
        for lo, hi, f_lo, f_hi in zip(grid, grid[1:], vals, vals[1:]):
            if f_lo * f_hi < 0:
                for _ in range(80):
                    mid = (lo + hi) / 2
                    if (f(mid) < 0) == (f_lo < 0):
                        lo = mid
                    else:
                        hi = mid
                out.append((lo + hi) / 2)
        return out

    def inside(*coords) -> bool:
        return all(EDGE < float(t) < 1 - EDGE for t in coords)

    diagonal = [(float(y), float(y)) for y in roots(lambda y: rest(y) - y) if inside(y)]
    inner = [(float(rest(y)), float(y)) for y in roots(lambda y: rest(rest(y)) - y)]
    return diagonal, [pt for pt in inner if inside(*pt)]


def unmatched(points: list, others: list) -> list:
    return [p for p in points if not any(max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= MATCH
                                         for q in others)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=300, help="parameter draws (default 300)")
    parser.add_argument("--seed", type=int, default=0, help="draw seed (default 0)")
    parser.add_argument("--beta-max", type=float, default=8.0, help="largest beta (default 8)")
    args = parser.parse_args(argv)
    mpmath.mp.dps = 30
    rng = np.random.default_rng(args.seed)
    bad = 0
    for i in range(args.draws):
        pi, costs = rng.uniform(0.5, 3.0, size=4), rng.uniform(0.0, 1.0, size=2)
        beta = rng.uniform(0.2, args.beta_max)
        params = ModelParams.from_values(*map(float, (*pi, *costs, beta)))
        want_diag, want_inner = oracle_points(params)
        got_diag = [eq.location.as_tuple() for eq in find_diagonal_equilibria(params)]
        got_inner = [eq.location.as_tuple() for eq in find_inner_equilibria(params)]
        for finder, want, got in (("diagonal", want_diag, got_diag),
                                  ("inner", want_inner, got_inner)):
            for label, pts in (("missed", unmatched(want, got)),
                               ("spurious", unmatched(got, want))):
                for x, y in pts:
                    bad += 1
                    print(f"draw {i} {params}: {finder} {label} ({x!r}, {y!r})")
    print(f"{bad} missed or spurious point(s) over {args.draws} draw(s), beta <= {args.beta_max}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
