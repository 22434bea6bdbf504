"""Command-line surface.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.
Weights are comma-separated fundamental-weight coefficients (`--mu 2,0` for
2w_1 in A2). JSON outputs carry a `"schema": 1` field; polynomial objects map
exponent strings to exact integer coefficients.
"""

from __future__ import annotations

import argparse
import json
import sys

from .crystals import local_crystal
from .errors import ExpansionError, StructuralError, VerificationFailure
from .kostka import ROUTES, integrable_weyl_expansion, kostka_by_route
from .rootsystem import Weight, parse_type
from .verify import SUITES, run_suite

SCHEMA = 1


def _parse_weight(text: str, rank: int, name: str) -> Weight:
    try:
        coeffs = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--{name} must be comma-separated integers, got {text!r}") from exc
    if len(coeffs) != rank:
        raise ValueError(f"--{name} needs {rank} coefficients for rank {rank}, got {len(coeffs)}")
    return Weight(coeffs)


def _emit(data):
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _weight_key(w: Weight) -> str:
    return json.dumps(list(w.coeffs))


def cmd_kostka(args) -> int:
    rs = parse_type(args.type)
    mu = _parse_weight(args.mu, rs.rank, "mu")
    lam = _parse_weight(args.lam, rs.rank, "lambda")
    k = args.k
    if args.route == "all":
        # paths needs the type-A crystal model, altsum a finite level
        routes = [
            r for r in ROUTES
            if not ((r == "paths" and rs.family != "A") or (r == "altsum" and k is None))
        ]
    else:
        routes = [args.route]
    values = {}
    for r in routes:
        res = kostka_by_route(rs, mu, lam, k, r, cache_dir=args.cache_dir)
        values[r] = res.value
    agree = len({tuple(sorted(v.items())) for v in values.values()}) == 1
    if args.format == "csv":
        out = ["mu,lambda,k,route,polynomial"]
        for r, v in values.items():
            poly = ";".join(f"{e}:{c}" for e, c in sorted(v.items())) or "0"
            out.append(
                f"\"{','.join(map(str, mu.coeffs))}\",\"{','.join(map(str, lam.coeffs))}\","
                f"{k if k is not None else 'inf'},{r},{poly}"
            )
        print("\n".join(out))
    else:
        _emit(
            {
                "schema": SCHEMA,
                "type": f"{rs.family}{rs.rank}",
                "mu": list(mu.coeffs),
                "lambda": list(lam.coeffs),
                "k": k,
                "routes": {r: v.to_json() for r, v in values.items()},
                "agree": agree,
            }
        )
    return 0 if agree else 1


def cmd_decompose(args) -> int:
    rs = parse_type(args.type)
    lam = _parse_weight(args.lam, rs.rank, "lambda")
    k, N = args.k, args.N
    expansion = integrable_weyl_expansion(rs, lam, k, N)
    mults = {
        _weight_key(w): p.to_json()
        for w, p in sorted(expansion.multiplicities.items(), key=lambda t: t[0].coeffs)
    }
    _emit(
        {
            "schema": SCHEMA,
            "type": f"{rs.family}{rs.rank}",
            "lambda": list(lam.coeffs),
            "k": k,
            "N": N,
            "trusted_degree": expansion.trusted_degree,
            "multiplicities": mults,
        }
    )
    return 0


def cmd_verify(args) -> int:
    names = ("max_mu", "max_k", "max_factors", "N")
    options = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    flags = [f"--type {t}" for t in args.type or ()]
    flags += [f"--{name.replace('_', '-')} {val}" for name, val in options.items()]
    if args.type:
        options["types"] = tuple(args.type)
    results = run_suite(args.suite, **options)
    if not results:
        raise ValueError(
            f"no {args.suite} checks left under the filter {' '.join(flags) or '(none)'}"
        )
    fails = [r for r in results if not r.ok]
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "suite": args.suite,
                "checks": [
                    {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
                    for r in results
                ],
                "passed": len(results) - len(fails),
                "failed": len(fails),
            }
        )
    else:
        for r in results:
            line = f"{'PASS' if r.ok else 'FAIL'} [{r.suite}] {r.name}"
            if r.detail:
                line += f" -- {r.detail}"
            print(line)
        print(f"{len(results) - len(fails)}/{len(results)} checks passed")
    return 1 if fails else 0


def cmd_export(args) -> int:
    rs = parse_type(args.type)
    if rs.family != "A":
        raise ValueError("crystal export supports type A only")
    mu = _parse_weight(args.mu, rs.rank, "mu")
    graph = local_crystal(mu)
    if args.format == "json":
        payload = json.dumps({"schema": SCHEMA, **graph.to_json()}, indent=2) + "\n"
    else:
        payload = graph.to_dot()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylcurrents",
        description="Exact characters of affine Lie algebra modules and "
        "level-restricted Kostka polynomials.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    type_help = "root system, e.g. A1, A2, D4"
    weight_help = "comma-separated fundamental coefficients"

    sp = sub.add_parser("kostka", help="level-restricted Kostka polynomials")
    sp.add_argument("--type", required=True, help=type_help)
    sp.add_argument("--mu", required=True, help=weight_help)
    sp.add_argument("--lambda", dest="lam", required=True, help=weight_help)
    sp.add_argument("--k", type=int, default=None, help="level (omit for the unrestricted limit)")
    sp.add_argument("--cache-dir", default=None, help="crystal cache dir")
    sp.add_argument("--route", choices=list(ROUTES) + ["all"], default="paths")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(fn=cmd_kostka)

    sp = sub.add_parser("decompose", help="global-Weyl multiplicities of an integrable module")
    sp.add_argument("--type", required=True, help=type_help)
    sp.add_argument("--lambda", dest="lam", required=True, help=weight_help)
    sp.add_argument("--k", type=int, required=True, help="level")
    sp.add_argument("--N", type=int, default=10, help="q-truncation cutoff")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--type", action="append", default=None, help="restrict to a type (repeatable)")
    sp.add_argument("--max-mu", dest="max_mu", type=int, default=None)
    sp.add_argument("--max-k", dest="max_k", type=int, default=None)
    sp.add_argument("--max-factors", dest="max_factors", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("export", help="export a crystal graph")
    sp.add_argument("--type", required=True, help=type_help)
    sp.add_argument("--mu", required=True, help=weight_help)
    sp.add_argument("--format", choices=["dot", "json"], default="dot")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=cmd_export)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StructuralError, ExpansionError, VerificationFailure) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
