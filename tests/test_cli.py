"""Command-line surface: exit codes, formats, determinism, round-trips."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

from rootkit import build_system, verify_theorem
from rootkit.cli import main
from rootkit.report import document_from_report, from_json, to_csv, to_json, to_table


def run_cli(*args, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "rootkit", *args],
        capture_output=True, text=True)


class TestDescribe:
    def test_g2_text(self, capsys):
        assert main(["describe", "G2"]) == 0
        out = capsys.readouterr().out
        assert "roots: 12" in out
        assert "multi-laced" in out
        assert "highest root: [-1, -1, 2]" in out

    def test_a1_text(self, capsys):
        assert main(["describe", "A1"]) == 0
        assert "roots: 2" in capsys.readouterr().out

    def test_parse_error_exit_2(self):
        proc = run_cli("describe", "Z9")
        assert proc.returncode == 2
        assert "cannot parse" in proc.stderr

    def test_inadmissible_rank_exit_2(self):
        proc = run_cli("describe", "E9")
        assert proc.returncode == 2

    def test_json_roundtrippable_rationals(self, capsys):
        assert main(["describe", "B3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["root_count"] == 18
        assert data["highest_root"] == ["1", "1", "0"]
        assert all(isinstance(x, str) for row in data["form"] for x in row)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "g2.json"
        assert main(["describe", "G2", "--format", "json", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["root_count"] == 12


class TestClassify:
    def test_d5_three_special_rows(self, capsys):
        assert main(["classify", "D5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sum(1 for r in data["rows"] if r["special"]) == 3
        assert data["all_equivalent"] is True

    def test_b4_census(self, capsys):
        assert main(["classify", "B4", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        specials = [r["index"] for r in data["rows"] if r["special"]]
        cospecials = [r["index"] for r in data["rows"] if r["cospecial"]]
        assert specials == [0]
        assert cospecials == [3]
        internal = [r for r in data["rows"] if r["index"] in (1, 2)]
        assert all(not r["special"] and not r["cospecial"]
                   and not r["quasi_constant"] and not r["dom_eq_levi_dom"]
                   and r["witness"] is None for r in internal)

    def test_g2_all_false_no_witnesses(self, capsys):
        assert main(["classify", "G2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(not r["special"] and not r["cospecial"]
                   and not r["quasi_constant"] and not r["dom_eq_levi_dom"]
                   and r["witness"] is None for r in data["rows"])

    def test_table_format(self, capsys):
        assert main(["classify", "B3"]) == 0
        out = capsys.readouterr().out
        assert "all_equivalent=yes" in out
        assert "bourbaki" in out

    def test_csv_format(self, capsys):
        assert main(["classify", "C3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("ctype,index,bourbaki")
        assert len(lines) == 4

    def test_json_deterministic_across_processes(self):
        a = run_cli("classify", "E6", "--format", "json")
        b = run_cli("classify", "E6", "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_renders_through_the_report_module(self, monkeypatch, capsys):
        import rootkit.report as report

        monkeypatch.setattr(report, "to_csv", lambda doc: "patched csv\n")
        assert main(["classify", "A1", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "patched csv\n"

    @pytest.mark.parametrize("name", ["A1", "B3", "D4", "F4", "G2"])
    def test_document_roundtrip(self, name):
        s = build_system(name)
        doc = document_from_report(s, verify_theorem(s))
        assert from_json(to_json(doc)) == doc
        assert to_csv(doc).count("\n") == s.rank + 1
        assert to_table(doc)


class TestVerify:
    def test_types_g2(self, capsys):
        assert main(["verify", "--types", "G2"]) == 0
        out = capsys.readouterr().out
        assert "G2: rows=2 equivalence=ok" in out
        assert "checked 1 systems" in out

    def test_max_rank_zero_usage_error(self):
        proc = run_cli("verify", "--max-rank", "0")
        assert proc.returncode == 2
        assert "error: --max-rank must be >= 1" in proc.stderr

    def test_max_rank_3(self, capsys):
        assert main(["verify", "--max-rank", "3"]) == 0
        out = capsys.readouterr().out
        # A1,A2,A3,B2,B3,C3,G2
        assert "checked 7 systems" in out

    def test_default_max_rank_is_8(self, capsys, monkeypatch):
        import rootkit.cli as cli

        asked = []
        monkeypatch.setattr(cli, "admissible_types",
                            lambda max_rank: asked.append(max_rank) or [])
        assert main(["verify"]) == 0
        assert asked == [8]

    @pytest.mark.parametrize("argv", [
        ["--types", ""],
        ["--max-rank", "2", "--types", "A1"],
        ["--max-rank", "8", "--types", "A1"],
    ])
    def test_unrunnable_scope_usage_error(self, capsys, argv):
        # An empty type list is not the default sweep, and --types does not
        # override --max-rank, not even when it is given the default value.
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["--types", ""],
        ["--types", "Z9"],
        ["--max-rank", "0"],
    ], ids=["empty-types", "unknown-type", "max-rank-0"])
    def test_scope_error_prints_verify_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: rootkit verify ")
        assert "\nrootkit verify: error: " in captured.err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "verify.txt"
        assert main(["verify", "--types", "B2,G2", "--out", str(path)]) == 0
        assert "checked 2 systems" in path.read_text()

    def test_counts_a_failing_type_on_levi_violations(self, monkeypatch, capsys):
        import rootkit.cli as cli

        real = cli.levi_orbit_multiplicity_violations
        monkeypatch.setattr(cli, "levi_orbit_multiplicity_violations",
                            lambda s: ["violation"] if str(s.ctype) == "B3" else real(s))
        assert main(["verify", "--types", "A2,B3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("A2: rows=2 equivalence=ok descent_blockers=0 "
                                   "levi_mult_violations=0 ")
        assert lines[1].startswith("B3: rows=3 equivalence=ok descent_blockers=0 "
                                   "levi_mult_violations=1 ")
        assert lines[-1].startswith("checked 2 systems, 5 simple roots: 1 type(s) FAILED")

    def test_counts_a_failing_type_on_equivalence(self, monkeypatch, capsys):
        import dataclasses

        import rootkit.cli as cli

        real = cli.verify_theorem

        def flipped(s):
            rep = real(s)
            if str(s.ctype) != "A2":
                return rep
            first = rep.rows[0]
            first = dataclasses.replace(first, quasi_constant=not first.quasi_constant)
            return dataclasses.replace(rep, rows=(first, *rep.rows[1:]),
                                       all_equivalent=False)

        monkeypatch.setattr(cli, "verify_theorem", flipped)
        assert main(["verify", "--types", "A2,B3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("A2: rows=2 equivalence=FAIL ")
        assert lines[1].startswith("B3: rows=3 equivalence=ok ")
        assert lines[-1].startswith("checked 2 systems, 5 simple roots: 1 type(s) FAILED")


class TestOutErrors:
    @pytest.mark.parametrize("argv", [
        ["describe", "A2"], ["classify", "A2"], ["verify", "--types", "A1"],
        ["witness", "A3", "1"],
    ])
    def test_missing_directory_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "x"
        assert main([*argv, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert not path.parent.exists()

    def test_missing_directory_no_traceback(self, tmp_path):
        proc = run_cli("describe", "A2", "--out", str(tmp_path / "missing" / "x"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write ")


class TestWitness:
    def test_a3_index_1(self, capsys):
        assert main(["witness", "A3", "1"]) == 0
        out = capsys.readouterr().out
        assert "[1, 0, 0, -1]" in out  # e1 - e4
        word_line = next(l for l in out.splitlines() if l.startswith("word"))
        letters = word_line.split("[")[1].rstrip("]").split()
        assert letters and "1" not in letters

    def test_g2_exit_3(self):
        proc = run_cli("witness", "G2", "0")
        assert proc.returncode == 3
        assert "neither special nor co-special" in proc.stderr

    def test_out_writes_the_stdout_bytes(self, tmp_path, capsys):
        assert main(["witness", "B3", "2"]) == 0
        want = capsys.readouterr().out
        path = tmp_path / "w.txt"
        assert main(["witness", "B3", "2", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text(encoding="utf-8") == want
        assert want.endswith("verified: replay reaches the target\n")

    def test_b3_cospecial_replay_ends_at_e1(self, capsys):
        assert main(["witness", "B3", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2].strip().endswith("[1, 0, 0]")

    def test_bad_index_exit_2(self):
        proc = run_cli("witness", "A2", "5")
        assert proc.returncode == 2

    def test_no_command_usage(self):
        proc = run_cli()
        assert proc.returncode == 2


class TestInvariantChecks:
    @pytest.mark.parametrize("argv", [
        ["witness", "B3", "2"], ["witness", "A3", "1"],
        ["classify", "F4", "--format", "json"],
    ])
    def test_optimized_python_same_output(self, argv):
        plain = run_cli(*argv)
        optimized = run_cli(*argv, python_flags=("-O",))
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout == optimized.stdout

    def test_no_assert_in_package(self):
        import rootkit

        files = sorted(pathlib.Path(rootkit.__file__).parent.glob("*.py"))
        assert files
        for path in files:
            tree = ast.parse(path.read_text(), filename=str(path))
            nodes = list(ast.walk(tree))
            lines = [n.lineno for n in nodes if isinstance(n, ast.Assert)]
            assert lines == [], f"assert in {path.name} at lines {lines}"
            # The package promises no floating point.
            lines = [n.lineno for n in nodes
                     if isinstance(n, ast.Constant) and isinstance(n.value, float)
                     or isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                     and n.func.id == "float"]
            assert lines == [], f"float in {path.name} at lines {lines}"

    def test_corrupt_replay_exit_1(self, monkeypatch, capsys):
        import rootkit.witness as witness

        monkeypatch.setattr(witness, "_replay",
                            lambda s, word, v: [v] * (len(word) + 1))
        assert main(["witness", "B3", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "misses the target" in captured.err

    def test_verify_replays_witnesses(self, monkeypatch, capsys):
        import rootkit.witness as witness

        monkeypatch.setattr(witness, "_replay",
                            lambda s, word, v: [v] * (len(word) + 1))
        assert main(["verify", "--types", "B3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "misses the target" in captured.err

    def test_construction_bug_exit_1(self, monkeypatch, capsys):
        import rootkit.cli as cli
        from rootkit import NonIntegralSolution

        def broken(ctype):
            raise NonIntegralSolution("non-integer coroot coefficient")

        monkeypatch.setattr(cli, "build_system", broken)
        assert main(["describe", "A2"]) == 1
        assert capsys.readouterr().err == "error: non-integer coroot coefficient\n"


def _error_classes():
    import rootkit.cli as cli
    import rootkit.errors as errors

    found = [c for c in vars(errors).values()
             if isinstance(c, type) and issubclass(c, errors.RootSystemError)]
    return sorted(found, key=lambda c: c.__name__) + [cli.OutputError]


_EXIT_1 = {"InvariantViolation", "NonIntegralSolution"}
_EXIT_2 = {"ParseError", "InadmissibleRank", "BadIndex", "OutputError"}


@pytest.mark.parametrize("argv", [["describe", "A2"], ["classify", "A2"],
                                  ["verify", "--types", "A2"], ["witness", "A2", "0"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("error", _error_classes(), ids=lambda c: c.__name__)
def test_every_error_class_maps_to_its_exit_code(monkeypatch, capsys, error, argv):
    """The documented exit codes: 1 for a failed invariant, 2 for usage and
    --out errors, 3 for every other precondition failure."""
    import rootkit.cli as cli

    def broken(ctype):
        raise error(f"{error.__name__} raised")

    monkeypatch.setattr(cli, "build_system", broken)
    name = error.__name__
    expected = 1 if name in _EXIT_1 else 2 if name in _EXIT_2 else 3
    assert main(argv) == expected
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} raised\n"


def test_error_classes_cover_the_package():
    """The twelve classes of rootkit.errors and cli.OutputError."""
    names = {c.__name__ for c in _error_classes()}
    assert _EXIT_1 | _EXIT_2 <= names
    assert len(names) == 13


def test_console_script_help():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "describe" in proc.stdout and "witness" in proc.stdout
