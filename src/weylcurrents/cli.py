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
from dataclasses import asdict, dataclass, field

from .crystals import CACHE_ENV, local_crystal
from .errors import ExpansionError, StructuralError, VerificationFailure
from .kostka import ROUTES, integrable_weyl_expansion, kostka_by_route
from .rootsystem import Weight, parse_type
from .verify import SUITES, run_suite

SCHEMA = 1


@dataclass
class JobSpec:
    """One CLI invocation, round-trippable through JSON."""

    command: str
    family: str
    rank: int
    mu: list | None = None
    lam: list | None = None
    k: int | None = None
    cutoff: int | None = None
    route: str = "paths"
    fmt: str = "json"
    cache_dir: str | None = None
    seed: int = 0
    verbose: int = 0
    options: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        return cls(**data)


def _parse_weight(text: str, rank: int, name: str) -> Weight:
    try:
        coeffs = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"--{name} must be comma-separated integers, got {text!r}") from exc
    if len(coeffs) != rank:
        raise ValueError(f"--{name} needs {rank} coefficients for rank {rank}, got {len(coeffs)}")
    return Weight(coeffs)


def _emit(data, fmt: str, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        json.dump(data, out, indent=2, sort_keys=False)
        out.write("\n")
    else:
        raise ValueError(f"unsupported format {fmt!r} here")


def _weight_key(w: Weight) -> str:
    return json.dumps(list(w.coeffs))


def cmd_kostka(args) -> int:
    rs = parse_type(args.type, args.rank)
    mu = _parse_weight(args.mu, rs.rank, "mu")
    lam = _parse_weight(args.lam, rs.rank, "lambda")
    k = args.k
    route = "all" if args.all_routes else args.route
    if route == "all":
        routes = ["paths", "chars"] if k is None else list(ROUTES)
    else:
        routes = [route]
    if k is None and "altsum" in routes:
        raise ValueError("route 'altsum' needs a finite --k")
    values = {}
    for r in routes:
        res = kostka_by_route(rs, mu, lam, k, r, N=args.N, cache_dir=args.cache_dir)
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
            },
            "json",
        )
    return 0 if agree else 1


def cmd_decompose(args) -> int:
    rs = parse_type(args.type, args.rank)
    lam = _parse_weight(args.lam, rs.rank, "lambda")
    k = args.k
    N = args.N if args.N is not None else 10
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
        },
        "json",
    )
    return 0


def cmd_verify(args) -> int:
    options = {}
    if args.type:
        options["types"] = tuple(args.type)
    for name in ("max_mu", "max_k", "max_factors", "N", "seed", "cache_dir"):
        val = getattr(args, name)
        if val is not None:
            options[name] = val
    results = run_suite(args.suite, **options)
    if not results:
        flags = [f"--type {t}" for t in args.type or ()]
        flags += [
            f"--{name.replace('_', '-')} {options[name]}"
            for name in ("max_mu", "max_k", "max_factors", "N")
            if name in options
        ]
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
            },
            "json",
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
    rs = parse_type(args.type, args.rank)
    if rs.family != "A":
        raise ValueError("crystal export supports type A only")
    mu = _parse_weight(args.mu, rs.rank, "mu")
    graph = local_crystal(mu, cache_dir=args.cache_dir)
    if args.format == "dot" or args.format is None:
        payload = graph.to_dot()
    elif args.format == "json":
        payload = json.dumps({"schema": SCHEMA, **graph.to_json()}, indent=2) + "\n"
    else:
        raise ValueError("export format must be dot or json")
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

    def common(sp, mu=False, lam=False, k=False):
        sp.add_argument("--type", required=True, help="root system, e.g. A1, A2, D4")
        sp.add_argument("--rank", type=int, default=None, help="rank when --type is a bare family")
        if mu:
            sp.add_argument("--mu", required=True, help="comma-separated fundamental coefficients")
        if lam:
            sp.add_argument(
                "--lambda", dest="lam", required=True, help="comma-separated fundamental coefficients"
            )
        if k:
            sp.add_argument("--k", type=int, default=None, help="level (omit for the unrestricted limit)")
        sp.add_argument("--N", type=int, default=None, help="q-truncation cutoff")
        sp.add_argument("--cache-dir", default=None, help=f"crystal cache dir (or ${CACHE_ENV})")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized property suites")
        sp.add_argument("-v", "--verbose", action="count", default=0)

    sp = sub.add_parser("kostka", help="level-restricted Kostka polynomials")
    common(sp, mu=True, lam=True, k=True)
    sp.add_argument("--route", choices=list(ROUTES) + ["all"], default="paths")
    sp.add_argument("--all-routes", action="store_true", help="shorthand for --route all")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.set_defaults(fn=cmd_kostka)

    sp = sub.add_parser("decompose", help="global-Weyl multiplicities of an integrable module")
    common(sp, lam=True)
    sp.add_argument("--k", type=int, required=True, help="level")
    sp.add_argument("--format", choices=["json"], default="json")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--type", action="append", default=None, help="restrict to a type (repeatable)")
    sp.add_argument("--max-mu", dest="max_mu", type=int, default=None)
    sp.add_argument("--max-k", dest="max_k", type=int, default=None)
    sp.add_argument("--max-factors", dest="max_factors", type=int, default=None)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--cache-dir", dest="cache_dir", default=None)
    sp.add_argument("--format", choices=["text", "json"], default="text")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("export", help="export a crystal graph")
    common(sp, mu=True)
    sp.add_argument("--format", choices=["dot", "json"], default="dot")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(fn=cmd_export)

    return p


def job_from_args(args) -> JobSpec:
    """Echoable description of the invocation (lossless through JSON)."""
    family, rank = "", 0
    if getattr(args, "type", None) and isinstance(args.type, str):
        rs = parse_type(args.type, args.rank)
        family, rank = rs.family, rs.rank
    return JobSpec(
        command=args.command,
        family=family,
        rank=rank,
        mu=[int(x) for x in args.mu.split(",")] if getattr(args, "mu", None) else None,
        lam=[int(x) for x in args.lam.split(",")] if getattr(args, "lam", None) else None,
        k=getattr(args, "k", None),
        cutoff=getattr(args, "N", None),
        route=getattr(args, "route", "paths"),
        fmt=getattr(args, "format", "json"),
        cache_dir=getattr(args, "cache_dir", None),
        seed=getattr(args, "seed", 0) or 0,
        verbose=getattr(args, "verbose", 0) or 0,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "verbose", 0):
            print(f"job: {json.dumps(job_from_args(args).to_json())}", file=sys.stderr)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StructuralError, ExpansionError, VerificationFailure) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
