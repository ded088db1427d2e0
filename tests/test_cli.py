"""Tests for the command line interface and the on-disk cache."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import nbar
from nbar import cache as cache_mod
from nbar import checks, cli, lattice, quasipoly, tr
from nbar.cache import cache_get, cache_put, default_cache_dir
from nbar.cli import main
from nbar.lattice import clear_caches, nbar_poly
from nbar.quasipoly import QuasiPolynomial, qp_from_json, qp_to_json

F = Fraction


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_pretty(capsys):
    code, out, _ = run(capsys, ["eval", "1", "2", "2", "0"])
    assert code == 0
    assert out.strip() == "11/12"


def test_eval_json(capsys):
    code, out, _ = run(capsys, ["eval", "0", "4", "1", "1", "1", "1", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "3"
    assert data["engine"] == "comb"
    assert data["b"] == [1, 1, 1, 1]


def test_eval_engines_agree(capsys):
    values = {}
    for engine in ("comb", "tr"):
        code, out, _ = run(capsys, ["eval", "1", "2", "2", "4", "--engine", engine])
        assert code == 0
        values[engine] = out.strip()
    assert len(set(values.values())) == 1


def test_eval_rejects_bad_input(capsys):
    code, _, err = run(capsys, ["eval", "0", "4", "0", "0", "0", "0"])
    assert code == 3
    assert "polynomial continuation" in err
    code, _, err = run(capsys, ["eval", "0", "2", "2", "2"])
    assert code == 3
    code, _, err = run(capsys, ["eval", "0", "4", "1", "2"])
    assert code == 3


@pytest.mark.parametrize("command", [["eval", "1", "2", "2", "4"], ["poly", "1", "2", "--no-cache"]], ids=["eval", "poly"])
def test_the_retired_comb_asym_engine_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--engine", "comb-asym"])
    assert exc.value.code == 2
    assert "invalid choice: 'comb-asym'" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["comb"])
def test_eval_refuses_a_runaway_comb_point_unless_forced(capsys, monkeypatch, engine):
    def runaway(*args):
        raise AssertionError("the guard must refuse before the recursion starts")

    monkeypatch.setattr(cli, "nbar_eval", runaway)
    # (2,2): chi = 4, and 4^2 * (1500 + 2) is far past the bound
    code, out, err = run(capsys, ["eval", "2", "2", "1500", "2", "--engine", engine])
    assert (code, out) == (3, "")
    assert err.startswith("error: chi^2 * sum(b) = 4^2 * 1502 exceeds 1600")
    assert "--engine tr" in err and "--force" in err and "Traceback" not in err

    monkeypatch.setattr(cli, "nbar_eval", lambda g, n, b: F(7))
    code, out, _ = run(capsys, ["eval", "2", "2", "1500", "2", "--engine", engine, "--force"])
    assert (code, out) == (0, "7\n")


def test_eval_bound_leaves_the_residue_engine_and_small_points_alone(capsys):
    code, _, _ = run(capsys, ["eval", "2", "2", "1500", "2", "--engine", "tr"])
    assert code == 0
    # 4^2 * (98 + 2) is exactly the bound
    outs = [run(capsys, ["eval", "2", "2", "98", "2", "--engine", engine]) for engine in ("comb", "tr")]
    assert outs[0][0] == 0 and outs[0] == outs[1]


def _engines_must_not_start(monkeypatch):
    def runaway(*args, **kwargs):
        raise AssertionError("the guard must refuse before the engine starts")

    for name in ("nbar_eval", "nbar_poly"):
        monkeypatch.setattr(cli, name, runaway)


def _engines_answer_seven(monkeypatch):
    monkeypatch.setattr(cli, "nbar_eval", lambda g, n, b: F(7))
    monkeypatch.setattr(cli, "nbar_poly", lambda g, n, engine: SimpleNamespace(evaluate=lambda b: F(7)))


# eval allows both engines one chi past their poly bound: comb fits the cases one chi lower for
# its value at b = 0, and tr renders nothing
@pytest.mark.parametrize("engine, g, n", [("tr", 3, 7), ("tr", 0, 13), ("comb", 0, 11)])
def test_eval_refuses_a_point_past_its_engine_chi_bound_unless_forced(capsys, monkeypatch, engine, g, n):
    argv = ["eval", str(g), str(n), "2"] + ["0"] * (n - 1) + ["--engine", engine]
    limit = {"tr": 10, "comb": 8}[engine]
    _engines_must_not_start(monkeypatch)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (f"error: chi = {2 * g - 2 + n} exceeds {limit}, past which a cold eval --engine {engine} "
                   "can take ten seconds or more; pass --force\n")

    _engines_answer_seven(monkeypatch)
    assert run(capsys, argv + ["--force"])[:2] == (0, "7\n")


@pytest.mark.parametrize("engine", ["comb", "tr"])
def test_eval_chi_bound_leaves_chi_eight_alone(capsys, monkeypatch, engine):
    _engines_answer_seven(monkeypatch)
    for g, n in ((0, 10), (1, 8), (2, 6)):
        assert run(capsys, ["eval", str(g), str(n), "2"] + ["0"] * (n - 1) + ["--engine", engine])[:2] == (0, "7\n")


def test_eval_tr_chi_bound_leaves_chi_nine_alone(capsys, monkeypatch):
    _engines_answer_seven(monkeypatch)
    for g, n in ((0, 11), (1, 9), (2, 7), (5, 1), (0, 12), (3, 6), (1, 10)):
        assert run(capsys, ["eval", str(g), str(n), "2"] + ["0"] * (n - 1) + ["--engine", "tr"])[:2] == (0, "7\n")


@pytest.mark.parametrize("engine", ["comb", "tr"])
def test_eval_odd_sum_prints_zero_without_an_engine(capsys, monkeypatch, engine):
    _engines_must_not_start(monkeypatch)
    # chi = 11 and chi^2 * sum(b) = 1573: past the chi bound of every engine, but the count is 0
    assert run(capsys, ["eval", "0", "13"] + ["1"] * 13 + ["--engine", engine])[:2] == (0, "0\n")
    code, out, _ = run(capsys, ["eval", "3", "2", "4", "1", "--engine", engine, "--format", "json"])
    assert code == 0 and json.loads(out)["value"] == "0"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "not-a-number", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["poly", "0", "4", "--format", "yaml"])
    assert exc.value.code == 2


def test_poly_json_round_trip(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["poly", "0", "4", "--format", "json", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert qp_from_json(out) == nbar_poly(0, 4)


def test_poly_pretty_mentions_parity_classes(capsys, tmp_path):
    code, out, _ = run(capsys, ["poly", "1", "2", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert "odd" in out
    assert "1/384" in out


def test_poly_latex_and_csv(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        ["poly", "0", "4", "--format", "latex", "--cache-dir", str(tmp_path)],
    )
    assert code == 0
    assert "\\frac{1}{4}" in out
    code, out, _ = run(
        capsys,
        ["poly", "0", "4", "--format", "csv", "--cache-dir", str(tmp_path)],
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("odd_count,")


def test_poly_rejects_unstable(capsys, tmp_path):
    code, _, err = run(capsys, ["poly", "0", "2", "--cache-dir", str(tmp_path)])
    assert code == 3
    assert "not stable" in err


def test_poly_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        ["poly", "0", "4", "--format", "json", "--out", str(target), "--no-cache"],
    )
    assert code == 0
    assert out == ""
    assert qp_from_json(target.read_text()) == nbar_poly(0, 4)


def test_poly_out_unwritable_path(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "out.json"
    code, _, err = run(
        capsys,
        ["poly", "0", "4", "--format", "json", "--out", str(target), "--no-cache"],
    )
    assert code == 4
    assert "cannot write" in err


def test_poly_uses_cache(capsys, tmp_path, monkeypatch):
    code, first, _ = run(
        capsys, ["poly", "1", "2", "--format", "json", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    entry = tmp_path / "nbar_g1_n2_comb.json"
    digest = hashlib.sha256(entry.read_bytes()).hexdigest()
    assert (tmp_path / "nbar_g1_n2_comb.sha256").read_text() == digest
    assert not (tmp_path / "manifest.json").exists()

    def no_engine(*args, **kwargs):
        raise AssertionError("a cache hit must not recompute")

    monkeypatch.setattr(cli, "nbar_poly", no_engine)
    code, second, _ = run(
        capsys, ["poly", "1", "2", "--format", "json", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert qp_from_json(second) == qp_from_json(first)


def test_a_failed_certificate_in_poly_exits_three_with_one_engine_error_line(capsys, monkeypatch):
    # a doubled (0,0) pair table skews the (1,2) residue tensor between its root and a spectator
    real = tr._pair

    def doubled(a, b):
        nums, den = real(a, b)
        return ({key: 2 * c for key, c in nums.items()}, den) if a == b == (0, 0) else (nums, den)

    clear_caches()
    monkeypatch.setattr(tr, "_pair", doubled)
    try:
        code, out, err = run(capsys, ["poly", "1", "2", "--engine", "tr", "--no-cache"])
    finally:
        clear_caches()  # the engine memo now holds the skewed tables
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("engine error: not slot-symmetric")


def test_a_failed_cache_write_warns_and_still_prints(capsys, tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code, out, err = run(capsys, ["poly", "1", "1", "--cache-dir", str(blocker)])
    assert (code, out) == (0, cli.render_poly(nbar_poly(1, 1), "pretty"))
    assert len(err.splitlines()) == 1 and err.startswith("warning: cache write failed: ")


def test_a_failed_replace_leaves_no_temporary_file_and_keeps_the_old_entry(tmp_path, monkeypatch):
    old = nbar_poly(1, 1)
    cache_put(tmp_path, old, "comb")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cache_mod.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        cache_put(tmp_path, old.scale(2), "comb")
    monkeypatch.undo()
    assert not list(tmp_path.glob(".tmp-*"))
    hit = cache_get(tmp_path, 1, 1, "comb")
    assert hit is not None and hit[0] == old


@pytest.mark.parametrize("engine, g, n", [("comb", 0, 10), ("comb", 1, 8), ("tr", 0, 12), ("tr", 5, 2)])
def test_poly_refuses_a_runaway_case_unless_forced(capsys, tmp_path, monkeypatch, engine, g, n):
    def runaway(*args, **kwargs):
        raise AssertionError("the guard must refuse before the engine starts")

    monkeypatch.setattr(cli, "nbar_poly", runaway)
    chi = 2 * g - 2 + n
    for cache in (["--cache-dir", str(tmp_path)], ["--no-cache"]):
        code, out, err = run(capsys, ["poly", str(g), str(n), "--engine", engine, *cache])
        assert (code, out) == (3, "")
        assert err == (f"error: chi = {chi} exceeds {chi - 1}, past which a cold --engine {engine} "
                       "polynomial takes tens of seconds or more; pass --force\n")

    calls = []

    def engine_stub(g, n, engine):
        calls.append((g, n, engine))
        return nbar_poly(0, 3, engine)

    monkeypatch.setattr(cli, "nbar_poly", engine_stub)
    code, out, _ = run(capsys, ["poly", str(g), str(n), "--engine", engine, "--no-cache", "--force"])
    assert (code, calls) == (0, [(g, n, engine)])
    assert out == cli.render_poly(nbar_poly(0, 3, engine), "pretty")


def test_poly_bound_leaves_cache_hits_and_cases_inside_alone(capsys, tmp_path, monkeypatch):
    stand_in = QuasiPolynomial(0, 12, {0: {(0,) * 12: 1}})
    cache_put(tmp_path, stand_in, "tr")
    monkeypatch.setattr(cli, "nbar_poly", lambda *args, **kwargs: nbar_poly(0, 3))
    code, out, _ = run(capsys, ["poly", "0", "12", "--engine", "tr", "--cache-dir", str(tmp_path)])
    assert (code, out) == (0, cli.render_poly(stand_in, "pretty"))
    # (5,1) is at the tr bound, and (4,1) at the comb bound
    for g, n, engine in ((5, 1, "tr"), (4, 1, "comb")):
        code, _, _ = run(capsys, ["poly", str(g), str(n), "--engine", engine, "--no-cache"])
        assert code == 0


@pytest.mark.parametrize("engine", ["comb", "tr"])
def test_poly_json_hit_prints_the_stored_bytes(capsys, tmp_path, monkeypatch, engine):
    for g, n in [(0, 5), (2, 1)]:
        path = cache_put(tmp_path, nbar_poly(g, n, engine=engine), engine)
        sidecar = path.with_suffix(".sha256")
        stored = path.read_bytes(), sidecar.read_bytes()
        # a second write of the same key leaves both files as they were
        cache_put(tmp_path, nbar_poly(g, n, engine=engine), engine)
        assert (path.read_bytes(), sidecar.read_bytes()) == stored

    def no_engine(*args, **kwargs):
        raise AssertionError("a cache hit must not recompute")

    monkeypatch.setattr(cli, "nbar_poly", no_engine)
    for g, n in [(0, 5), (2, 1)]:
        code, out, _ = run(capsys, ["poly", str(g), str(n), "--engine", engine, "--format", "json",
                                    "--cache-dir", str(tmp_path)])
        assert code == 0
        assert out.encode("utf-8") == (tmp_path / f"nbar_g{g}_n{n}_{engine}.json").read_bytes()


REFS = Path(__file__).resolve().parent.parent / "perfbench" / "ref"


@pytest.mark.parametrize("engine", ["comb", "tr"])
def test_every_hit_prints_the_reference_bytes(capsys, tmp_path, monkeypatch, engine):
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(REFS.glob("g*n*.json"))}
    assert len(texts) >= 10
    for text in texts.values():
        cache_put(tmp_path, qp_from_json(text), engine)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a cache hit must not compute or render JSON")

    monkeypatch.setattr(cli, "nbar_poly", must_not_run)
    for path, text in texts.items():
        qp = qp_from_json(text)
        argv = ["poly", str(qp.g), str(qp.n), "--engine", engine, "--cache-dir", str(tmp_path)]
        assert run(capsys, argv + ["--format", "json"]) == (0, text, ""), path.name
        for fmt in ("pretty", "latex", "csv"):
            assert run(capsys, argv + ["--format", fmt]) == (0, cli.render_poly(qp, fmt), ""), (path.name, fmt)
    # a JSON hit prints the verified payload: it renders nothing
    for owner in (quasipoly, cache_mod, cli):
        monkeypatch.setattr(owner, "qp_to_json", must_not_run)
    monkeypatch.setattr(cli, "render_poly", must_not_run)
    for path, text in texts.items():
        qp = qp_from_json(text)
        argv = ["poly", str(qp.g), str(qp.n), "--engine", engine, "--format", "json", "--cache-dir", str(tmp_path)]
        assert run(capsys, argv) == (0, text, ""), path.name


def _rehash(path: Path, text: str) -> None:
    """Replace an entry's payload and write the matching digest, so only the parse can refuse it."""
    path.write_text(text, encoding="utf-8")
    path.with_suffix(".sha256").write_text(hashlib.sha256(text.encode("utf-8")).hexdigest(), encoding="utf-8")


def test_a_hit_is_certified_before_it_is_printed(capsys, tmp_path, monkeypatch):
    computed = []

    def engine(g, n, engine):
        computed.append((g, n))
        return nbar_poly(g, n, engine)

    monkeypatch.setattr(cli, "nbar_poly", engine)
    # (0,4) with one placement of an orbit missing: not slot-symmetric
    entry = cache_put(tmp_path, nbar_poly(0, 4), "comb")
    data = json.loads(entry.read_text(encoding="utf-8"))
    data["classes"][0]["terms"].pop()
    _rehash(entry, json.dumps(data, indent=2))
    with pytest.raises(ValueError, match="not slot-symmetric"):
        qp_from_json(entry.read_text(encoding="utf-8"))
    # (1,1)'s valid entry under (2,1)'s file names
    _rehash(tmp_path / "nbar_g2_n1_comb.json", qp_to_json(nbar_poly(1, 1)))
    for g, n in [(0, 4), (2, 1)]:
        fresh = qp_to_json(nbar_poly(g, n))
        code, out, err = run(capsys, ["poly", str(g), str(n), "--format", "json", "--cache-dir", str(tmp_path)])
        assert (code, out, err) == (0, fresh, "")
        assert computed[-1] == (g, n)
        # the entry was rewritten, and is now a hit
        assert cache_get(tmp_path, g, n, "comb") == (nbar_poly(g, n), fresh)
    assert len(computed) == 2


def test_euler_command(capsys):
    code, out, _ = run(capsys, ["euler", "0", "6"])
    assert code == 0
    assert out.strip() == "34"
    code, _, err = run(capsys, ["euler", "3", "1"])
    assert code == 3


def test_euler_command_refuses_chi_past_its_bound(capsys):
    code, out, err = run(capsys, ["euler", "0", str(cli.EULER_BOUND + 3)])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: chi = {cli.EULER_BOUND + 1} exceeds") and err.count("\n") == 1


def test_euler_command_rejects_unstable_pairs(capsys):
    for g, n in [("0", "1"), ("0", "2")]:
        code, out, err = run(capsys, ["euler", g, n])
        assert code == 3
        assert out == ""
        assert "not stable" in err


def test_psi_command(capsys, monkeypatch):
    code, out, _ = run(capsys, ["psi", "1", "1"])
    assert code == 0
    assert out.strip() == "1/24"
    code, out, _ = run(capsys, ["psi", "2", "4"])
    assert code == 0
    assert out.strip() == "1/1152"
    code, _, _ = run(capsys, ["psi", "0", "1", "0"])
    assert code == 3
    # a polynomial whose parity classes disagree fails psi's certificate
    skewed = {
        "top coefficients disagree": QuasiPolynomial(1, 1, {0: {(1,): F(1, 48)}, 1: {(1,): F(1, 24)}}),
        "no parity classes": QuasiPolynomial(1, 1, {}),
    }
    for message, qp in skewed.items():
        monkeypatch.setattr(lattice, "nbar_poly", lambda g, n, qp=qp: qp)
        code, out, err = run(capsys, ["psi", "1", "1"])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("engine error: ") and message in err


def test_psi_refuses_a_case_past_the_comb_bound_unless_forced(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("psi must refuse before it computes a polynomial")

    monkeypatch.setattr(lattice, "nbar_poly", must_not_run)
    # (0,11) at chi = 9 and (0,10) at chi = 8, each at a top-degree exponent vector
    for alphas in [[8] + [0] * 10, [7] + [0] * 9]:
        code, out, err = run(capsys, ["psi", "0", *map(str, alphas)])
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: chi = ") and "--force" in err
    # at the bound, and past it with --force, psi reads the polynomial
    asked = []

    def stand_in(g, n):
        asked.append((g, n))
        return QuasiPolynomial(g, n, {0: {(0,) * (n - 1) + (n - 3,): F(1)}})

    monkeypatch.setattr(lattice, "nbar_poly", stand_in)
    for argv in (["psi", "0", "6"] + ["0"] * 8, ["psi", "0", "8"] + ["0"] * 10 + ["--force"]):
        code, _, err = run(capsys, argv)
        assert (code, err) == (0, "")
    assert asked == [(0, 9), (0, 11)]


def test_verify_euler(capsys):
    code, out, _ = run(capsys, ["verify", "euler"])
    assert code == 0
    assert "5/12" in out
    assert "247/1440" in out
    # one line per stable case with chi ≤ 3
    assert len(out.splitlines()) == 7
    assert all(line.endswith(" ok") for line in out.splitlines())


def test_verify_euler_fails_on_an_unavailable_case(capsys, monkeypatch):
    real = checks.euler_char

    def unseeded(g, n):
        if (g, n) == (1, 1):
            raise ValueError("not seeded")
        return real(g, n)

    monkeypatch.setattr(checks, "euler_char", unseeded)
    code, out, _ = run(capsys, ["verify", "euler"])
    assert code == 1
    assert "euler (1,1): unavailable (not seeded)" in out.splitlines()
    assert "euler (0,3): 1 ok" in out.splitlines()


def test_verify_rejects_an_empty_euler_range(capsys):
    for bad in ("0", "-3"):
        code, out, err = run(capsys, ["verify", "euler", "--max-chi", bad])
        assert code == 3
        assert out == ""
        assert "--max-chi" in err


def test_verify_refuses_an_euler_range_past_the_comb_bound_before_fitting(capsys, monkeypatch):
    def runaway(*args, **kwargs):
        raise AssertionError("the range check must refuse before any polynomial is fitted")

    monkeypatch.setattr(checks, "nbar_poly", runaway)
    for topic in ("euler", "engines"):
        for bad in ("8", "9"):
            code, out, err = run(capsys, ["verify", topic, "--max-chi", bad])
            assert (code, out) == (3, "")
            assert err == f"error: --max-chi must be from 1 to the comb bound 7, got {bad}\n"


def test_verify_residues(capsys):
    code, out, _ = run(capsys, ["verify", "residues"])
    assert code == 0
    assert out.splitlines() == [f"residues parity={p} k={k}: ok" for k in range(6) for p in (0, 1)]


def test_verify_desk_fails_on_a_perturbed_engine(capsys, monkeypatch):
    real = checks.tr_tensor
    monkeypatch.setattr(checks, "tr_tensor", lambda g, n: {k: 2 * c for k, c in real(g, n).items()})
    code, out, _ = run(capsys, ["verify", "desk"])
    assert code == 1
    assert out.splitlines() == ["desk (1,1): FAIL", "desk (0,3): FAIL"]


@pytest.mark.parametrize("topic", ["string", "dilaton"])
def test_verify_identity_fails_on_a_perturbed_engine(capsys, monkeypatch, topic):
    real = checks.tr_tensor
    monkeypatch.setattr(checks, "tr_tensor", lambda g, n: {k: (2 if (g, n) == (1, 2) else 1) * c for k, c in real(g, n).items()})
    code, out, _ = run(capsys, ["verify", topic])
    assert code == 1
    # (1,2) is the larger correlator of (1,1) and the smaller one of (1,2)
    want = ["(0,3): ok", "(1,1): FAIL", "(0,4): ok", "(1,2): FAIL"]
    assert out.splitlines() == [f"{topic} {line}" for line in want]


def test_verify_all(capsys):
    code, out, _ = run(capsys, ["verify", "all"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.endswith(" ok") for line in lines)
    topics = [line.split(" ", 1)[0] for line in lines]
    counts = [("euler", 7), ("desk", 2), ("string", 4), ("dilaton", 4), ("engines", 10), ("residues", 12)]
    assert topics == [t for t, count in counts for _ in range(count)]


def test_table_fails_on_a_perturbed_polynomial(capsys, monkeypatch):
    real = checks.nbar_poly

    def perturbed(g, n):
        qp = real(g, n).scale(2 if (g, n) == (1, 1) else 1)
        return QuasiPolynomial(g, n, {**qp.orbits, 1: {(0, 0, 0): F(1)}}) if (g, n) == (0, 3) else qp

    monkeypatch.setattr(checks, "nbar_poly", perturbed)
    code, out, _ = run(capsys, ["table"])
    assert code == 1
    assert "(1,1) k=0: FAIL 2 coefficient(s) differ\n    (0,): computed 5/6, reference 5/12\n" in out
    assert "(0,3): FAIL unexpected parity classes [1]" in out.splitlines()
    assert "(0,4) k=0: ok (5 coefficients)" in out
    assert out.endswith("\nall stored coefficients non-negative over the table range\n")


def test_table_reports_a_suspect_row_that_matches(capsys, monkeypatch):
    real = checks.golden.golden_rows

    def corrected(g, n):
        return nbar_poly(g, n).classes if (g, n) in checks.golden.SUSPECT_CASES else real(g, n)

    monkeypatch.setattr(checks.golden, "golden_rows", corrected)
    code, out, _ = run(capsys, ["table"])
    assert code == 0
    lines = out.splitlines()
    assert "(0,6) k=0: suspect row matches" in lines
    assert [line for line in lines if line.startswith("(0,6)")] == [
        "(0,6) k=0: suspect row matches", "(0,6) k=2: row matches", "(0,6) k=4: row matches",
        "(0,6) k=6: row matches"]


def test_cli_import_loads_no_checks_engine_or_table():
    # `nbar poly` on a cache hit needs none of them, so importing the CLI must stay light
    probe = "import sys, nbar.cli; print([m for m in ('nbar.checks', 'nbar.tr', 'nbar.golden') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(nbar.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"



def test_main_reuses_one_parser_without_leaking_state(capsys, monkeypatch, tmp_path):
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    entry = tmp_path / "nbar_g0_n4_comb.json"
    code, _, _ = run(capsys, ["poly", "0", "4", "--no-cache", "--cache-dir", str(tmp_path)])
    assert code == 0 and not entry.exists()
    code, _, _ = run(capsys, ["poly", "0", "4", "--cache-dir", str(tmp_path)])
    assert code == 0 and entry.exists()
    engines = []
    for extra in (["--engine", "tr"], []):
        code, out, _ = run(capsys, ["eval", "1", "2", "2", "4", *extra, "--format", "json"])
        assert code == 0
        engines.append(json.loads(out)["engine"])
    assert engines == ["tr", "comb"]
    assert len(parsers) == 4 and all(p is parsers[0] for p in parsers)


@pytest.mark.parametrize("argv", [["table"], ["verify", "engines"]])
def test_invalid_input_from_any_subcommand_exits_three(capsys, monkeypatch, argv):
    def rejected(g, n, engine="comb"):
        raise ValueError(f"({g}, {n}) rejected")

    monkeypatch.setattr(checks, "nbar_poly", rejected)
    code, _, err = run(capsys, argv)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: (")
    assert "Traceback" not in err


def test_python_dash_m_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(nbar.__file__).parents[1])}

    def nbar_m(*argv):
        return subprocess.run([sys.executable, "-m", "nbar", *argv], capture_output=True, text=True, env=env)

    done = nbar_m("eval", "1", "2", "2", "0")
    assert (done.returncode, done.stdout) == (0, "11/12\n")
    done = nbar_m("euler", "0", "2")
    assert done.returncode == 3
    assert "not stable" in done.stderr and "Traceback" not in done.stderr


def test_closed_stdout_exits_four_without_a_traceback():
    # as in `nbar table | head -3`, once head has exited: the reader of stdout is gone
    env = {**os.environ, "PYTHONPATH": str(Path(nbar.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nbar", "table"], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write_end)
    assert done.returncode == 4
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert len(done.stderr.splitlines()) <= 1


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_a_reader_leaving_mid_output_exits_four_with_one_error_line(unbuffered):
    # as in `nbar poly 0 8 --format csv | head -1`: the reader takes one line of about 160 kB and closes
    # the pipe.  Unbuffered, the text layer writes straight to the pipe and would drop the short write
    # it gets when the reader leaves, so both modes are run
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    env["PYTHONPATH"] = str(Path(nbar.__file__).parents[1])
    argv = [sys.executable, "-m", "nbar", "poly", "0", "8", "--engine", "tr", "--no-cache", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"odd_count,e1,e2,e3,e4,e5,e6,e7,e8,coeff\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 4
    assert err.splitlines() == ["error: standard output is closed"]


def test_readme_examples(capsys, tmp_path, monkeypatch):
    # every `$ nbar …` line shown with its full output: some output, no comment on the command, no … in it
    monkeypatch.setenv("NBAR_CACHE_DIR", str(tmp_path))
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for shown in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = shown.partition("\n")
            if command.startswith("nbar ") and "#" not in command and output and "…" not in output:
                examples.append((command.split()[1:], output))
    assert len(examples) >= 3
    for argv, output in examples:
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        assert out.splitlines() == output.splitlines(), argv


# -- cache unit behaviour ---------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    qp = nbar_poly(0, 4)
    path = cache_put(tmp_path, qp, "comb")
    assert path.exists()
    assert cache_get(tmp_path, 0, 4, "comb") == (qp, qp_to_json(qp))


def test_cache_put_returns_entry_with_canonical_bytes(tmp_path):
    qp = nbar_poly(0, 4)
    path = cache_put(tmp_path, qp, "tr")
    assert path == tmp_path / "nbar_g0_n4_tr.json"
    assert path.read_bytes() == qp_to_json(qp).encode("utf-8")


def test_cache_miss_on_empty_dir(tmp_path):
    assert cache_get(tmp_path, 0, 4, "comb") is None


def test_cache_engines_are_separate(tmp_path):
    qp = nbar_poly(0, 4)
    cache_put(tmp_path, qp, "comb")
    assert cache_get(tmp_path, 0, 4, "tr") is None
    assert cache_get(tmp_path, 0, 4, "comb") == (qp, qp_to_json(qp))


def test_cache_detects_tampered_payload(tmp_path):
    qp = nbar_poly(0, 4)
    path = cache_put(tmp_path, qp, "comb")
    blob = json.loads(path.read_text())
    blob["classes"][0]["terms"][0]["coeff"] = "999"
    path.write_text(json.dumps(blob))
    assert cache_get(tmp_path, 0, 4, "comb") is None


def test_cache_detects_corrupt_digest(tmp_path):
    qp = nbar_poly(0, 4)
    cache_put(tmp_path, qp, "comb")
    (tmp_path / "nbar_g0_n4_comb.sha256").write_text("{not a digest")
    assert cache_get(tmp_path, 0, 4, "comb") is None
    # a subsequent write heals the cache
    cache_put(tmp_path, qp, "comb")
    assert cache_get(tmp_path, 0, 4, "comb") == (qp, qp_to_json(qp))


def test_cache_bad_digest_misses_only_its_entry(tmp_path):
    qps = {key: nbar_poly(*key) for key in [(0, 3), (0, 4), (1, 1)]}
    for qp in qps.values():
        cache_put(tmp_path, qp, "comb")
    (tmp_path / "nbar_g0_n3_comb.sha256").write_text("0" * 64)
    (tmp_path / "nbar_g1_n1_comb.sha256").unlink()
    assert cache_get(tmp_path, 0, 3, "comb") is None
    assert cache_get(tmp_path, 1, 1, "comb") is None
    assert cache_get(tmp_path, 0, 4, "comb") == (qps[(0, 4)], qp_to_json(qps[(0, 4)]))


def test_cache_ignores_stale_manifest(tmp_path):
    # a directory written by the manifest-based layout: the entry has no digest sidecar
    qp = nbar_poly(0, 4)
    text = qp_to_json(qp)
    (tmp_path / "nbar_g0_n4_comb.json").write_text(text)
    manifest = {"version": 1, "entries": [
        {"g": 0, "n": 4, "provenance": "comb", "digest": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    ]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert cache_get(tmp_path, 0, 4, "comb") is None
    cache_put(tmp_path, qp, "comb")
    assert cache_get(tmp_path, 0, 4, "comb") == (qp, qp_to_json(qp))
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest


def test_cache_heals_after_corruption_via_cli(capsys, tmp_path):
    code, _, _ = run(
        capsys, ["poly", "0", "4", "--format", "json", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    entry = tmp_path / "nbar_g0_n4_comb.json"
    entry.write_text("garbage")
    code, out, _ = run(
        capsys, ["poly", "0", "4", "--format", "json", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    assert qp_from_json(out) == nbar_poly(0, 4)
    # the store was rewritten with a valid entry
    assert cache_get(tmp_path, 0, 4, "comb") == (nbar_poly(0, 4), qp_to_json(nbar_poly(0, 4)))


def test_cache_misses_an_entry_whose_payload_names_another_case(tmp_path):
    # a valid entry under another case's file names: digest and parse pass, the (g, n) check refuses it
    for (g, n), (g2, n2) in (((1, 1), (2, 1)), ((0, 4), (0, 5))):
        path = cache_put(tmp_path, nbar_poly(g, n), "comb")
        moved = tmp_path / f"nbar_g{g2}_n{n2}_comb.json"
        moved.write_bytes(path.read_bytes())
        moved.with_suffix(".sha256").write_bytes(path.with_suffix(".sha256").read_bytes())
        assert cache_get(tmp_path, g2, n2, "comb") is None
        assert cache_get(tmp_path, g, n, "comb") == (nbar_poly(g, n), qp_to_json(nbar_poly(g, n)))


def test_cache_respects_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("NBAR_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == tmp_path / "envcache"


def test_cli_default_cache_dir_from_env(capsys, tmp_path, monkeypatch):
    cachedir = tmp_path / "envcache"
    monkeypatch.setenv("NBAR_CACHE_DIR", str(cachedir))
    code, _, _ = run(capsys, ["poly", "0", "4", "--format", "json"])
    assert code == 0
    assert (cachedir / "nbar_g0_n4_comb.json").exists()
