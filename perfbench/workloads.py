"""Inputs and answer oracles for the benchmark workloads.

Nothing here imports weylcurrents: every expected answer is derived from
first principles (a hand-built Cartan matrix, the grid definition, or a
polynomial another route computed), so a wrong answer from the code under
test cannot also be the expected one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

# -- level-one D4 -------------------------------------------------------------

# Bourbaki D4: node 2 is the centre, nodes 1, 3 and 4 are the legs.
D4_CARTAN = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)
# The level-one classes on the legs form one triality orbit, so each costs the same.
D4_LEG_CLASSES = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
LEVEL_ONE_N = 7


def invert(matrix):
    """Exact inverse of a small integer matrix by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in matrix[i]] + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def level_one_expected(cls, N):
    """Global-Weyl multiplicities of the level-one module with class `cls`:
    q^(((lam,lam)-(cls,cls))/2) on every dominant lam in cls + Q with
    exponent in [0, N], and nothing else. Keys are coefficient tuples."""
    inv = invert(D4_CARTAN)
    rank = len(cls)

    def form(a, b):
        return sum(a[i] * inv[i][j] * b[j] for i in range(rank) for j in range(rank))

    base = form(cls, cls)
    # inverse-Cartan entries are positive with diagonal >= 1, so lam_i^2 <= (lam, lam)
    top = math.isqrt(int(base + 2 * N)) + 1
    out = {}
    for lam in product(range(top + 1), repeat=rank):
        diff = [a - b for a, b in zip(lam, cls)]
        if any(sum(inv[i][j] * diff[j] for j in range(rank)).denominator != 1 for i in range(rank)):
            continue
        expo = (form(lam, lam) - base) / 2
        if expo.denominator == 1 and 0 <= expo <= N:
            out[lam] = {int(expo): 1}
    return out


def check_decompose(stdout: str, expected) -> str:
    """'' when `decompose` JSON matches the expected table, else the reason."""
    data = json.loads(stdout)
    got = {
        tuple(json.loads(key)): {int(e): c for e, c in poly.items()}
        for key, poly in data["multiplicities"].items()
    }
    if got == expected:
        return ""
    wrong = sorted(set(got) ^ set(expected)) or sorted(w for w in got if got[w] != expected[w])
    return f"multiplicities differ from the level-one prediction at {wrong[:3]}"


# -- cross-route grid ------------------------------------------------------------

GRID_N = 12


def _in_a2_root_lattice(a: int, b: int) -> bool:
    return (2 * a + b) % 3 == 0


def grid_points():
    """The `verify cross-route` default grid: A1 mu <= 6 at k <= 3, A2 |mu| <= 3
    at k <= 2, each with every lam in P_+^k congruent to mu modulo Q."""
    points = []
    for m in range(1, 7):
        for k in (1, 2, 3):
            points.extend(("A", 1, (m,), (l,), k) for l in range(k + 1) if (m - l) % 2 == 0)
    for m1, m2 in product(range(4), repeat=2):
        if not 1 <= m1 + m2 <= 3:
            continue
        for k in (1, 2):
            for a, b in product(range(k + 1), repeat=2):
                if a + b <= k and _in_a2_root_lattice(m1 - a, m2 - b):
                    points.append(("A", 2, (m1, m2), (a, b), k))
    return points


def grid_calls(points, rng):
    """One kostka_by_route call per point and route, in a seeded order."""
    calls = [list(p) + [route, GRID_N] for p in points for route in ("paths", "altsum", "chars")]
    rng.shuffle(calls)
    return calls


def check_grid(stdout: str, points) -> str:
    """'' when every grid point was answered by all three routes with one
    polynomial, else the reason."""
    rows = json.loads(stdout)
    if len(rows) != 3 * len(points):
        return f"{len(rows)} answers for {3 * len(points)} calls"
    by_point: dict = {}
    for family, rank, mu, lam, k, route, _N, value in rows:
        by_point.setdefault((family, rank, tuple(mu), tuple(lam), k), {})[route] = value
    if not points:
        return "empty grid"
    if set(by_point) != set(points):
        return f"answered {len(by_point)} grid points, expected {len(points)}"
    for point, values in by_point.items():
        if set(values) != {"paths", "altsum", "chars"}:
            return f"{point}: routes {sorted(values)}"
        if not values["paths"] == values["altsum"] == values["chars"]:
            return f"{point}: routes disagree {values}"
    return ""


# -- A2 crystal --------------------------------------------------------------

# mu=(5,4) builds 3^9 = 19,683 vertices; the flipped diagram is the same work.
CRYSTAL_INSTANCES = (((5, 4), (1, 0)), ((4, 5), (0, 1)))


def kostka_argv(mu, lam, route, cache_dir=None):
    argv = ["kostka", "--type", "A2", "--mu", ",".join(map(str, mu)),
            "--lambda", ",".join(map(str, lam)), "--k", "2", "--route", route]
    if cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    return argv


def kostka_value(stdout: str, route: str) -> dict:
    return {int(e): c for e, c in json.loads(stdout)["routes"][route].items()}
