import argparse
import hashlib
import inspect
import json
import os
import pathlib
import re

import pytest

from weylcurrents.cli import build_parser, main
from weylcurrents.crystals import clear_caches
from weylcurrents.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kostka_all_routes(capsys):
    code, out, _ = run_cli(
        capsys, "kostka", "--type", "A1", "--mu", "2", "--lambda", "0", "--k", "1", "--route", "all"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["agree"] is True
    assert data["routes"] == {"paths": {"1": 1}, "altsum": {"1": 1}, "chars": {"1": 1}}


def test_kostka_output_polynomials_roundtrip(capsys):
    from weylcurrents.kostka import kostka_paths_restricted
    from weylcurrents.qseries import QPolynomial
    from weylcurrents.rootsystem import Weight

    code, out, _ = run_cli(
        capsys, "kostka", "--type", "A1", "--mu", "4", "--lambda", "2", "--k", "2"
    )
    assert code == 0
    emitted = QPolynomial.from_json(json.loads(out)["routes"]["paths"])
    assert emitted == kostka_paths_restricted(1, Weight([4]), Weight([2]), 2)


def test_kostka_trivial(capsys):
    code, out, _ = run_cli(capsys, "kostka", "--type", "A1", "--mu", "0", "--lambda", "0", "--k", "1")
    assert code == 0
    assert json.loads(out)["routes"]["paths"] == {"0": 1}


def test_kostka_rejects_malformed_weight(capsys):
    code, _, err = run_cli(capsys, "kostka", "--type", "A1", "--mu", "2,1", "--lambda", "0", "--k", "1")
    assert code == 2
    assert "mu" in err


def test_kostka_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "kostka", "--type", "A2", "--mu", "1,1", "--lambda", "0,0", "--k", "1",
        "--route", "all", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,lambda,k,route,polynomial"
    assert len(lines) == 4
    assert all("1:1" in ln for ln in lines[1:])


def test_decompose_level_one(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--type", "A1", "--lambda", "0", "--k", "1", "--N", "6")
    assert code == 0
    data = json.loads(out)
    assert data["multiplicities"] == {"[0]": {"0": 1}, "[2]": {"1": 1}, "[4]": {"4": 1}}
    assert data["trusted_degree"] == 6


def test_decompose_head(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--type", "A1", "--lambda", "1", "--k", "1", "--N", "6")
    assert code == 0
    assert json.loads(out)["multiplicities"]["[1]"] == {"0": 1}


def test_decompose_rejects_bad_level(capsys):
    code, _, err = run_cli(capsys, "decompose", "--type", "A1", "--lambda", "2", "--k", "1", "--N", "6")
    assert code == 2
    assert "P_+" in err


def test_export_column_crystal(capsys):
    code, out, _ = run_cli(capsys, "export", "--type", "A1", "--mu", "1")
    assert code == 0
    assert out.count("->") == 2
    assert 'label="1"' in out and 'label="0"' in out


def test_export_deterministic(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a.dot"), str(tmp_path / "b.dot")
    assert run_cli(capsys, "export", "--type", "A1", "--mu", "2", "--out", p1)[0] == 0
    assert run_cli(capsys, "export", "--type", "A1", "--mu", "2", "--out", p2)[0] == 0
    text = pathlib.Path(p1).read_bytes()
    assert text == pathlib.Path(p2).read_bytes()
    assert b"D=-1" in text


def test_export_json_schema(capsys):
    code, out, _ = run_cli(capsys, "export", "--type", "A2", "--mu", "1,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["format"] == 1
    assert len(data["vertices"]) == 3


def test_export_trivial_crystal(capsys):
    # mu = 0 is the empty tensor product: one vertex, no arrows
    code, out, _ = run_cli(capsys, "export", "--type", "A2", "--mu", "0,0")
    assert code == 0
    assert "->" not in out and 'v0 [label="\\nwt=(0,0), D=0"];' in out
    code, out, _ = run_cli(capsys, "export", "--type", "A2", "--mu", "0,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["heights"] == [] and data["vertices"] == [[]] and data["D"] == [0]


@pytest.mark.parametrize(
    "type_, mu, fmt, digest",
    [
        ("A3", "1,1,1", "json", "a07b54b909bbf476c30ea3d9bff65b3527b9f142092e81f5530c17499eb7d016"),
        ("A3", "1,1,1", "dot", "34359950b9488d783bcfc47b847da5a1fa5495a15094f6d8be744923c4d0904b"),
        ("A2", "5,4", "json", "b0f73afe0ee083ef5cd15e574bf42b907d19425d9d6c275ae2716c0dd71b6f67"),
        ("A2", "5,4", "dot", "f07f2acc4cdbe061c30eeaa364e1902515ee38d526a70fa7c5b1db70d9c29eea"),
    ],
    ids=["json", "dot", "a2-5-4-json", "a2-5-4-dot"],
)
def test_export_bytes_are_pinned(capsys, type_, mu, fmt, digest):
    # A3: heights (1, 2, 3) differ pairwise, so D reads every R and H table.
    # A2 (5, 4): the 19,683 vertices of the benchmark's crystal, every one
    # read back from its index for the export
    clear_caches()
    code, out, _ = run_cli(capsys, "export", "--type", type_, "--mu", mu, "--format", fmt)
    clear_caches()
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_all_text_is_pinned(capsys):
    # every check line of `verify all` with its defaults, and the count line
    clear_caches()
    code, out, _ = run_cli(capsys, "verify", "all")
    clear_caches()
    assert code == 0 and out.endswith("191/191 checks passed\n")
    digest = "0755bcb3523405b71b7aea70a6921eb7bff75c07e60cc1e65110799ebf1bce3c"
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_kostka_trivial_crystal_through_the_cache(tmp_path, capsys):
    cache = str(tmp_path)
    clear_caches()
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "kostka", "--type", "A2", "--mu", "0,0", "--lambda", "0,0", "--k", "1",
            "--route", "all", "--cache-dir", cache,
        )
        clear_caches()
        assert code == 0
        routes = json.loads(out)["routes"]
        assert routes == {"paths": {"0": 1}, "altsum": {"0": 1}, "chars": {"0": 1}}
    assert os.listdir(cache) == ["crystal_v2_n2_h.json"]


def test_export_rejects_non_type_a(capsys):
    code, _, err = run_cli(capsys, "export", "--type", "D4", "--mu", "0,1,0,0")
    assert code == 2
    assert "type A" in err


@pytest.mark.parametrize(
    "type_, mu, lam",
    [("D4", "0,2,0,0", "0,0,0,0"), ("E6", "0,1,0,0,0,0", "0,0,0,0,0,0")],
)
def test_kostka_all_routes_off_type_a_runs_the_routes_that_exist(capsys, type_, mu, lam):
    weights = ("--type", type_, "--mu", mu, "--lambda", lam)
    code, out, _ = run_cli(capsys, "kostka", *weights, "--k", "2", "--route", "all")
    assert code == 0
    data = json.loads(out)
    assert list(data["routes"]) == ["altsum", "chars"] and data["agree"] is True
    assert data["routes"]["altsum"] and data["routes"]["altsum"] == data["routes"]["chars"]
    code, out, _ = run_cli(capsys, "kostka", *weights, "--route", "all")
    assert code == 0
    assert list(json.loads(out)["routes"]) == ["chars"]
    code, out, err = run_cli(capsys, "kostka", *weights, "--k", "2", "--route", "paths")
    assert code == 2 and out == ""
    assert "column-crystal model (type A only)" in err


def test_verify_suite_runs(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "length-oracle", "--type", "A1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0 and data["passed"] > 0


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "energy-axioms", "--type", "A1", "--max-factors", "3")
    assert code == 0
    assert "PASS" in out and "checks passed" in out


def test_verify_and_export_ignore_the_old_cache_variable(tmp_path, capsys, monkeypatch):
    # only `kostka --cache-dir` reaches the disk cache
    commands = [
        ["verify", "energy-axioms", "--type", "A1", "--max-mu", "2", "--max-factors", "2"],
        ["export", "--type", "A2", "--mu", "2,2"],
    ]
    for argv in commands:
        outputs = []
        for value in (None, str(tmp_path)):
            if value is None:
                monkeypatch.delenv("WEYLCURRENTS_CACHE", raising=False)
            else:
                monkeypatch.setenv("WEYLCURRENTS_CACHE", value)
            clear_caches()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1], argv[0]
        assert os.listdir(tmp_path) == [], argv[0]
    clear_caches()


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "bogus"])
    assert err.value.code == 2


def test_kostka_route_disagreement_exits_1(monkeypatch, capsys):
    import weylcurrents.cli as cli
    from weylcurrents.kostka import KostkaResult, kostka_by_route
    from weylcurrents.qseries import QPolynomial

    def skewed(rs, mu, lam, k, route, N=None, cache_dir=None):
        res = kostka_by_route(rs, mu, lam, k, route, N=N, cache_dir=cache_dir)
        if route == "altsum":
            res = KostkaResult(res.mu, res.lam, res.k, res.value + QPolynomial.one(), route)
        return res

    monkeypatch.setattr(cli, "kostka_by_route", skewed)
    code, out, _ = run_cli(
        capsys, "kostka", "--type", "A1", "--mu", "2", "--lambda", "0", "--k", "1", "--route", "all"
    )
    assert code == 1
    assert json.loads(out)["agree"] is False


def test_decompose_remainder_exits_1(monkeypatch, capsys):
    import weylcurrents.cli as cli
    from weylcurrents.errors import ExpansionError

    def broken(rs, lam, k, N):
        raise ExpansionError("forced remainder")

    monkeypatch.setattr(cli, "integrable_weyl_expansion", broken)
    code, _, err = run_cli(capsys, "decompose", "--type", "A1", "--lambda", "0", "--k", "1", "--N", "4")
    assert code == 1
    assert "remainder" in err or "consistency" in err


def test_kostka_all_routes_agree_beyond_the_old_default_cutoff(capsys):
    code, out, _ = run_cli(
        capsys, "kostka", "--type", "A1", "--mu", "12", "--lambda", "0", "--k", "3", "--route", "all"
    )
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_decompose_rejects_negative_cutoff(capsys):
    code, out, err = run_cli(capsys, "decompose", "--type", "A1", "--lambda", "0", "--k", "1", "--N", "-1")
    assert code == 2
    assert out == "" and "cutoff" in err


def test_kostka_paths_rejects_level_zero(capsys):
    code, _, err = run_cli(
        capsys, "kostka", "--type", "A1", "--mu", "2", "--lambda", "0", "--k", "0", "--route", "paths"
    )
    assert code == 2
    assert "level" in err


def test_verify_empty_filter_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "cross-route", "--type", "Z3")
    assert code == 2
    assert "checks passed" not in out
    assert "--type Z3" in err


def _kostka_a1_mu3(capsys, cache):
    return run_cli(
        capsys, "kostka", "--type", "A1", "--mu", "3", "--lambda", "1", "--k", "1",
        "--cache-dir", cache,
    )


def _corrupt_cache_exits_1(tmp_path, capsys, corrupt):
    cache = str(tmp_path)
    clear_caches()
    code, _, _ = _kostka_a1_mu3(capsys, cache)
    assert code == 0
    (name,) = os.listdir(cache)
    path = os.path.join(cache, name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(corrupt(text))
    clear_caches()
    code, out, err = _kostka_a1_mu3(capsys, cache)
    clear_caches()
    assert code == 1
    assert out == ""
    assert "consistency failure" in err and "crystal cache" in err and path in err
    assert err.count("\n") == 1


def test_kostka_cache_missing_last_vertex_exits_1(tmp_path, capsys):
    def drop_last_degree(text):
        data = json.loads(text)
        data["D"].pop()
        return json.dumps(data)

    _corrupt_cache_exits_1(tmp_path, capsys, drop_last_degree)


def test_kostka_cache_invalid_json_exits_1(tmp_path, capsys):
    _corrupt_cache_exits_1(tmp_path, capsys, lambda text: text[: len(text) // 2])


def test_cache_content_faults_exit_1_and_io_faults_exit_2(tmp_path, capsys):
    # a file that opens but holds no valid cache is a consistency failure; a
    # cache path that cannot be read is an I/O error: one line, no traceback
    _corrupt_cache_exits_1(tmp_path / "content", capsys, lambda text: "[]")
    cache = tmp_path / "io"
    blocked = cache / "crystal_v2_n1_h1-1-1.json"
    blocked.mkdir(parents=True)
    clear_caches()
    code, out, err = _kostka_a1_mu3(capsys, str(cache))
    clear_caches()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(blocked) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_kostka_non_dominant_mu_exits_2_on_every_route(capsys):
    for route in ("paths", "altsum", "chars"):
        code, out, err = run_cli(
            capsys, "kostka", "--type", "A1", "--mu", "-2", "--lambda", "0", "--k", "1",
            "--route", route,
        )
        assert code == 2, route
        assert out == "" and "not dominant" in err


def test_kostka_unrestricted_non_dominant_lambda_exits_2_on_every_route(capsys):
    for route in ("paths", "altsum", "chars"):
        code, out, err = run_cli(
            capsys, "kostka", "--type", "A1", "--mu", "2", "--lambda", "-2", "--route", route
        )
        assert code == 2, route
        assert out == "" and "not dominant" in err


def test_export_into_missing_directory_exits_2(tmp_path, capsys):
    out_path = str(tmp_path / "missing" / "crystal.dot")
    code, out, err = run_cli(capsys, "export", "--type", "A1", "--mu", "2", "--out", out_path)
    assert code == 2
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["kostka", "--type", "A1", "--mu", "2", "--lambda", "0", "--seed", "1"],
        ["kostka", "--type", "A1", "--mu", "2", "--lambda", "0", "-v"],
        ["kostka", "--type", "A1", "--mu", "2", "--lambda", "0", "--k", "1", "--all-routes"],
        ["kostka", "--type", "A1", "--rank", "3", "--mu", "2", "--lambda", "0"],
        ["kostka", "--type", "A2", "--mu", "2,2", "--lambda", "0,0", "--k", "2", "--N", "3"],
        ["decompose", "--type", "A1", "--lambda", "0", "--k", "1", "--cache-dir", "X"],
        ["decompose", "--type", "A1", "--lambda", "0", "--k", "1", "--format", "json"],
        ["export", "--type", "A1", "--mu", "2", "--N", "3"],
        ["verify", "length-oracle", "--seed", "1"],
        ["verify", "level-one", "--type", "A1", "--cache-dir", "X"],
        ["export", "--type", "A1", "--mu", "2", "--cache-dir", "X"],
    ],
)
def test_deleted_option_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["level-one", "frenkel-kac", "demazure-limit", "cross-route"])
def test_verify_negative_cutoff_exits_2(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--type", "A1", "--N", "-1")
    assert code == 2
    assert out == "" and "cutoff N must be >= 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["energy-axioms", "--max-mu", "-3"], "max_mu must be >= 1"),
        (["cross-route", "--max-k", "0"], "max_k must be >= 1"),
        (["vertex-identity", "--max-mu", "-3"], "max_mu must be >= 1"),
        (["energy-axioms", "--max-factors", "0"], "max_factors must be >= 1"),
    ],
)
def test_verify_empty_grid_bound_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv, "--type", "A1")
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["length-oracle", "--type", "A1", "--max-k", "1"],
        ["level-one", "--type", "A1", "--max-factors", "2"],
        ["cross-route", "--N", "12"],
        ["demazure-vs-crystal", "--N", "8"],
    ],
)
def test_verify_unread_option_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and f"suite {argv[0]} reads no option" in err


def test_verify_max_mu_bounds_demazure_vs_crystal(capsys):
    code, out, _ = run_cli(capsys, "verify", "demazure-vs-crystal", "--type", "A1", "--max-mu", "1")
    assert code == 0
    assert "2/2 checks passed" in out


def test_verify_demazure_limit_honours_type(capsys):
    code, out, err = run_cli(capsys, "verify", "demazure-limit", "--type", "A2")
    assert code == 2
    assert out == "" and "no demazure-limit checks left" in err
    code, out, _ = run_cli(capsys, "verify", "demazure-limit", "--type", "A1")
    assert code == 0
    assert "2/2 checks passed" in out


def _readme_table(header):
    """{first cell: the options named in the second} of the README table
    under `header`: each `--option`, and SUITE for the positional."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    rows = text.split(header + "\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for row in rows.splitlines():
        first, second = row.strip("|").split("|", 1)
        table[first.strip(" `")] = re.findall(r"`(SUITE|--[A-Za-z][A-Za-z-]*)", second)
    return table


def _subparsers():
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_readme_option_table_matches_the_parser():
    # a removed or added option cannot linger in, or be missing from, the docs
    want = {
        name: [
            a.option_strings[0] if a.option_strings else a.dest.upper()
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sp in _subparsers().items()
    }
    assert _readme_table("| subcommand | options |") == want


def test_readme_suite_table_matches_the_suite_signatures():
    # each suite's row names the verify options its keyword parameters take
    # (run_suite reads them from the signature), besides --type (`types`)
    verify = _subparsers()["verify"]
    dests = {a.option_strings[0]: a.dest for a in verify._actions if a.option_strings}
    table = _readme_table("| suite | options it reads besides `--type` |")
    assert list(table) == list(SUITES)
    for name, fn in SUITES.items():
        params = inspect.signature(fn).parameters
        assert "types" in params, name
        read = [opt for opt, dest in dests.items() if dest in params]
        assert table[name] == read, name
