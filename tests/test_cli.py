"""Command-line interface: output, exit codes, batch behavior."""

from __future__ import annotations

import importlib
import importlib.metadata as md
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asdim.cli
from asdim import (
    Registry,
    VerificationReport,
    Violation,
    build_tower,
    emit_certificate,
    parse_presentation,
)
from asdim.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _installed(name):
    try:
        md.distribution(name)
    except md.PackageNotFoundError:
        return False
    return True


def _source_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def _check_torus_bound(command, env=None):
    proc = subprocess.run(
        [*command, "bound", "< a, b | [a, b] >"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tower bound:    2" in proc.stdout


class TestBound:
    def test_torus(self, capsys):
        assert main(["bound", "< a, b | [a, b] >"]) == 0
        out = capsys.readouterr().out
        assert "length bound:   2" in out
        assert "tower bound:    2" in out

    def test_trefoil(self, capsys):
        assert main(["bound", "< u, v | u^2 v^3 >"]) == 0
        out = capsys.readouterr().out
        assert "length bound:   3" in out
        assert "tower bound:    2" in out

    def test_json_output(self, capsys):
        assert main(["bound", "< u, v | u^2 v^3 >", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["relator_length"] == 5
        assert payload["length_bound"] == 3
        assert payload["tower_bound"] == 2
        assert payload["hnn_steps"] == 1

    def test_json_is_deterministic(self, capsys):
        main(["bound", "< u, v | u^2 v^3 >", "--json"])
        first = capsys.readouterr().out
        main(["bound", "< u, v | u^2 v^3 >", "--json"])
        assert capsys.readouterr().out == first

    def test_all_pivots(self, capsys):
        assert main(["bound", "< a, b | a b a^-1 b^-1 >", "--all-pivots"]) == 0
        out = capsys.readouterr().out
        assert "best tower bound: 2" in out
        assert "towers examined:  2" in out

    def test_all_pivots_never_worse(self, capsys):
        assert (
            main(["bound", "< a, b, c | a b c a^-1 b^-1 c^-1 >", "--all-pivots", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_tower_bound"] <= payload["tower_bound"]

    def test_parse_error_exits_one(self, capsys):
        assert main(["bound", "< a | b >"]) == 1
        err = capsys.readouterr().err
        assert "parse error" in err

    @pytest.mark.parametrize("power", ["99999999999999999999999", "-1000000000000"])
    def test_huge_power_is_a_one_line_parse_error(self, capsys, power):
        assert main(["bound", f"< a | a^{power} >"]) == 1
        err = capsys.readouterr().err
        assert err == "parse error: word expands to more than 10000000 letters (at position 6)\n"


class TestTree:
    def test_renders_chain(self, capsys):
        assert main(["tree", "< u, v | u^2 v^3 >"]) == 0
        out = capsys.readouterr().out
        assert "case2_embed" in out
        assert "case1_hnn" in out

    def test_has_no_json_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["tree", "< a, b | [a, b] >", "--json"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestCertify:
    def test_verified_certificate_exits_zero(self, capsys):
        assert main(["certify", "< a, t | t a t^-1 a^-1 >"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["root"]["kind"] == "case1_hnn"
        assert captured.err == ""

    def test_parse_error_exits_one(self, capsys):
        assert main(["certify", "garbage |"]) == 1

    def test_verification_failure_exits_two(self, capsys, monkeypatch):
        fake = VerificationReport(
            violations=(Violation(0, "case1_hnn", "bound", "forced failure"),)
        )
        monkeypatch.setattr(asdim.cli, "verify_certificate", lambda root: fake)
        assert main(["certify", "< a, b | [a, b] >"]) == 2
        assert "forced failure" in capsys.readouterr().err

    def test_prints_the_certificate_whatever_the_verdict(self, capsys, monkeypatch):
        text = "< u, v | u^2 v^3 >"
        reg = Registry()
        cert = emit_certificate(build_tower(parse_presentation(text, reg), reg))
        assert main(["certify", text]) == 0
        assert capsys.readouterr().out == cert + "\n"
        assert main(["certify", "< u, v | u^2 w >"]) == 1
        assert capsys.readouterr().out == ""
        fake = VerificationReport(
            violations=(Violation(0, "case2_embed", "bound", "forced failure"),)
        )
        monkeypatch.setattr(asdim.cli, "verify_certificate", lambda root: fake)
        assert main(["certify", text]) == 2
        assert capsys.readouterr().out == cert + "\n"

    def test_has_no_json_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["certify", "< a | a^2 >", "--json"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err


class TestBatch:
    def test_file_with_good_and_bad_lines(self, tmp_path, capsys):
        f = tmp_path / "inputs.txt"
        f.write_text(
            "# comment\n"
            "< a, b | [a, b] >\n"
            "\n"
            "nonsense line\n"
            "< u, v | u^2 v^3 >\n"
        )
        assert main(["batch", str(f)]) == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("input\t")
        assert len(lines) == 4
        assert "error" in lines[2]
        assert lines[3].endswith("yes")

    def test_huge_power_fails_its_line_only(self, tmp_path, capsys):
        f = tmp_path / "inputs.txt"
        f.write_text("< a | a^-1000000000000 >\n< u, v | u^2 v^3 >\n")
        assert main(["batch", str(f)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert "error: word expands to more than 10000000 letters" in lines[1]
        assert lines[2].endswith("yes")

    def test_file_all_good_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "inputs.txt"
        f.write_text("< a, b | [a, b] >\n< a | a^3 >\n")
        assert main(["batch", str(f)]) == 0

    def test_missing_file_exits_one(self, capsys):
        assert main(["batch", "/nonexistent/path.txt"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_bytes(b"\xff\xfe< a | a >\n")
        assert main(["batch", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {f}: 'utf-8' codec can't decode")

    def test_output_closed_early_ends_quietly(self):
        # 5000 rows are more than the pipe and the reader's buffer hold, so
        # the sweep is still writing when the reader closes the pipe.
        proc = subprocess.Popen(
            [sys.executable, "-m", "asdim.cli", "batch", "--random", "5000", "8", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_source_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first.startswith(b"input\t")
        assert err == b""

    def test_random_sweep(self, capsys):
        assert main(["batch", "--random", "5", "8", "3", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 6

    def test_random_sweep_is_seeded(self, capsys):
        main(["batch", "--random", "4", "6", "2", "--seed", "3"])
        first = capsys.readouterr().out
        main(["batch", "--random", "4", "6", "2", "--seed", "3"])
        assert capsys.readouterr().out == first
        main(["batch", "--random", "4", "6", "2", "--seed", "4"])
        assert capsys.readouterr().out != first

    def test_random_json_lines(self, capsys):
        assert main(["batch", "--random", "3", "6", "2", "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 3
        assert all(row["verified"] for row in rows)
        assert all(row["tower_bound"] <= row["length_bound"] for row in rows)

    @pytest.mark.parametrize("gens", ["0", "27", "30"])
    def test_random_generator_count_out_of_range_rejected(self, gens, capsys):
        assert main(["batch", "--random", "2", "4", gens]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "--random needs COUNT >= 0, MAXLEN >= 1, 1 <= GENS <= 26\n"
        )

    def test_random_with_26_generators(self, capsys):
        assert main(["batch", "--random", "2", "4", "26", "--json"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_file_and_random_together_rejected(self, tmp_path, capsys):
        f = tmp_path / "x.txt"
        f.write_text("< a | a^2 >\n")
        assert main(["batch", str(f), "--random", "1", "4", "2"]) == 1

    def test_neither_file_nor_random_rejected(self, capsys):
        assert main(["batch"]) == 1

    def test_verification_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "inputs.txt"
        f.write_text("< a, b | [a, b] >\n")
        fake = VerificationReport(
            violations=(Violation(0, "case1_hnn", "bound", "forced failure"),)
        )
        monkeypatch.setattr(asdim.cli, "verify_certificate", lambda root: fake)
        assert main(["batch", str(f)]) == 2
        assert "NO" in capsys.readouterr().out


class TestEntryPoint:
    def test_console_script_is_wired(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts["asdim"] == "asdim.cli:main"
        module, _, attr = scripts["asdim"].partition(":")
        assert getattr(importlib.import_module(module), attr) is asdim.cli.main

        _check_torus_bound([sys.executable, "-m", "asdim.cli"], _source_env())

    @pytest.mark.skipif(
        not _installed("asdim"), reason="no distribution named asdim is installed"
    )
    def test_installed_console_script_runs(self):
        (ep,) = md.entry_points(group="console_scripts", name="asdim")
        assert ep.value == "asdim.cli:main"
        dist = md.distribution("asdim")
        scripts = [
            dist.locate_file(f)
            for f in dist.files or ()
            if f.stem == "asdim" and f.parent.name in ("bin", "Scripts")
        ]
        assert scripts, "the asdim distribution records no console script"
        _check_torus_bound([str(scripts[0])])
