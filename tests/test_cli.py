"""Command-line interface: exit codes, formats, report seeding."""

from __future__ import annotations

import json

from click.testing import CliRunner

from tuttesolve import parse_report
from tuttesolve.cli import main

CATALAN = ["solve", "--equation", "psi - 1 - x*psi**2",
           "--guess-order", "16", "--max-complexity", "4", "--eval-at", "8"]


def run(args):
    return CliRunner().invoke(main, args)


class TestSolve:
    def test_proven_run_exits_zero(self):
        res = run(CATALAN)
        assert res.exit_code == 0
        assert "Status: proven" in res.output
        assert "a(8) = 1430" in res.output

    def test_no_prove_exits_two(self):
        res = run(CATALAN + ["--no-prove"])
        assert res.exit_code == 2
        assert "Status: conjectural" in res.output

    def test_parse_error_exits_one(self):
        res = run(["solve", "--equation", "psi + "])
        assert res.exit_code == 1
        assert "error:" in res.output

    def test_exponent_too_large_exits_one(self):
        res = run(["solve", "--equation", "psi - 1 - x**3000000*psi**2"])
        assert res.exit_code == 1
        assert "error:" in res.output and "position 13" in res.output

    def test_term_ceiling_exits_one(self):
        res = run(["solve", "--equation", "psi - 1 - x*(1 + x + y)**200*psi"])
        assert res.exit_code == 1
        assert "error:" in res.output and "position 25" in res.output

    def test_semantic_error_exits_one(self):
        res = run(["solve", "--equation", "psi**2 - psi"])
        assert res.exit_code == 1
        assert "well-posedness" in res.output

    def test_structured_output_parses(self):
        res = run(CATALAN + ["--format", "structured"])
        assert res.exit_code == 0
        rep = parse_report(res.output)
        assert rep.proven and str(rep.value) == "1430"

    def test_markdown_format(self):
        res = run(CATALAN + ["--format", "markdown"])
        assert res.exit_code == 0 and res.output.startswith("# tuttesolve")

    def test_seed_report_written(self, tmp_path):
        target = tmp_path / "rep.json"
        res = run(CATALAN + ["--seed-report", str(target)])
        assert res.exit_code == 0
        doc = json.loads(target.read_text())
        assert doc["format"] == "tuttesolve-report"
        assert parse_report(target.read_text()).proven

    def test_unknown_format_rejected_by_click(self):
        res = run(CATALAN + ["--format", "yaml"])
        assert res.exit_code == 2
        assert "Invalid value" in res.output

    def test_version_flag(self):
        res = run(["--version"])
        assert res.exit_code == 0 and "0.1.0" in res.output
