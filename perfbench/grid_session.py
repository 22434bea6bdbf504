"""One cross-route grid session in a single process.

    python3 perfbench/grid_session.py CALLS.json

CALLS.json is a list of [family, rank, mu, lam, k, route, N]. Each call is
answered with the public `kostka_by_route`, in the given order, so later calls
reuse what earlier ones left in the library's in-process caches. Prints the
calls with their polynomials appended, as one JSON list.
"""

from __future__ import annotations

import json
import sys

from weylcurrents import Weight, build_root_system, kostka_by_route


def run_session(calls):
    out = []
    for family, rank, mu, lam, k, route, N in calls:
        rs = build_root_system(family, rank)
        res = kostka_by_route(rs, Weight(mu), Weight(lam), k, route, N=N)
        out.append([family, rank, mu, lam, k, route, N, res.value.to_json()])
    return out


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        calls = json.load(fh)
    json.dump(run_session(calls), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
