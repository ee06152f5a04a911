"""The repository tools: the golden diff's comparison logic on two small
synthetic output trees, and the declared Python floor."""

import ast
import importlib.util
import math
from pathlib import Path

import pytest

from zenochain.config import parse_config
from zenochain.protocols import ProtocolKind

ROOT = Path(__file__).resolve().parents[1]


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _golden()

TABLE = "step,t_us,q_j,protocol\r\n1,1.5,0.25,projective\r\n2,3,0.5,projective\r\n"


def write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8", newline="")
    return root


def trees(tmp_path, base: dict, head: dict):
    return write(tmp_path / "base", base), write(tmp_path / "head", head)


class TestGoldenDiff:
    def test_identical_trees_pass_and_timestamps_are_ignored(self, tmp_path):
        base, head = trees(tmp_path, {"a/t.csv": "# generated 2026-01-01T00:00:00\r\n" + TABLE,
                                      "a/stdout.txt": "ok\n"},
                           {"a/t.csv": "# generated 2026-02-02T11:11:11\r\n" + TABLE,
                            "a/stdout.txt": "ok\n"})
        lines = []
        assert golden.compare(base, head, set(), lines.append) == 0
        assert lines[:2] == ["identical  a/stdout.txt", "identical  a/t.csv"]
        assert golden.diff_file(base / "a/t.csv", head / "a/t.csv") is None

    def test_a_moved_column_reports_its_first_line_and_largest_relative_difference(self, tmp_path):
        moved = TABLE.replace("0.25", "0.2500001").replace("0.5,", "0.75,")
        base, head = trees(tmp_path, {"t.csv": TABLE}, {"t.csv": moved})
        report = golden.diff_file(base / "t.csv", head / "t.csv")
        assert report["line"] == 2 and report["base"] == "1,1.5,0.25,projective"
        assert list(report["columns"]) == ["q_j"]
        assert math.isclose(report["columns"]["q_j"], 0.25 / 0.75)
        lines = []
        assert golden.compare(base, head, set(), lines.append) == 1
        assert lines[0] == "differs    t.csv"
        assert "    max relative difference q_j: 0.333" in lines

    def test_expected_columns_pass_and_others_do_not(self, tmp_path):
        moved = TABLE.replace("0.25", "0.26").replace("1.5", "1.6")
        base, head = trees(tmp_path, {"t.csv": TABLE}, {"t.csv": moved})
        expected = {("t.csv", "q_j"), ("t.csv", "t_us")}
        lines = []
        assert golden.compare(base, head, expected, lines.append) == 0
        assert lines[0] == "differs    t.csv  (expected)"
        assert golden.compare(base, head, {("t.csv", "q_j")}, print) == 1
        assert golden.compare(base, head, {("other.csv", "q_j"), ("t.csv", "t_us")}, print) == 1

    @pytest.mark.parametrize("moved", [
        TABLE.replace("projective", "pulsed"),  # a text cell: not a number, infinitely far
        TABLE.replace("0.25", "nan"),  # a number become nan
        TABLE.replace("0.25", "-inf"),  # or infinite
        TABLE + "3,4.5,0.75,projective\r\n",  # a row more
        TABLE.replace("1,1.5,0.25,projective", "1,1.5,0.25"),  # a field fewer
        TABLE.replace("step,", "index,"),  # another header
    ], ids=["text", "nan", "inf", "row", "field", "header"])
    def test_a_change_of_text_or_shape_is_never_expected(self, tmp_path, moved):
        base, head = trees(tmp_path, {"t.csv": TABLE}, {"t.csv": moved})
        everything = {("t.csv", c) for c in ("step", "t_us", "q_j", "protocol", "index")}
        assert golden.compare(base, head, everything, print) == 1

    def test_a_number_written_another_way_is_a_text_difference(self, tmp_path):
        base, head = trees(tmp_path, {"t.csv": TABLE}, {"t.csv": TABLE.replace("3,", "3.0,")})
        assert golden.diff_file(base / "t.csv", head / "t.csv")["columns"] == {"t_us": 0.0}
        assert golden.compare(base, head, {("t.csv", "t_us")}, print) == 1

    def test_stdout_and_files_on_one_side_differ(self, tmp_path):
        base, head = trees(tmp_path, {"stdout.txt": "mean 1.0\n", "gone.csv": TABLE},
                           {"stdout.txt": "mean 1.5\n", "new.csv": TABLE})
        lines = []
        assert golden.compare(base, head, set(), lines.append) == 1
        assert "only in base  gone.csv" in lines and "only in head  new.csv" in lines
        assert "differs    stdout.txt" in lines
        assert lines[-1] == "3 files, 3 with an unexpected difference"

    def test_a_failing_job_keeps_its_exit_code_and_stderr(self, tmp_path, monkeypatch):
        # a job that fails naming its directory, and a preset-like job that
        # succeeds: the first keeps exit.txt and stderr.txt with the side's
        # paths made neutral, the second leaves its outputs alone
        fail = "import os, sys; sys.exit('{} in ' + os.getcwd())"
        outputs = {}
        for side, message in (("base", "bad m"), ("same", "bad m"), ("head", "bad kappa")):
            monkeypatch.setattr(golden, "JOBS", {"fails": (["-c", fail.format(message)], None),
                                                 "works": (["-c", "open('t.csv', 'w')"], None)})
            outputs[side] = tmp_path / side / "out"
            golden.run_jobs(tmp_path / side / "tree", outputs[side])
        fails = outputs["base"] / "fails"
        assert sorted(p.name for p in fails.iterdir()) == ["exit.txt", "stderr.txt"]
        assert (fails / "exit.txt").read_text() == "1\n"
        assert (fails / "stderr.txt").read_text().strip() == "bad m in <out>/fails"
        assert [p.name for p in (outputs["base"] / "works").iterdir()] == ["t.csv"]
        assert golden.compare(outputs["base"], outputs["same"], set(), print) == 0
        lines = []
        assert golden.compare(outputs["base"], outputs["head"], set(), lines.append) == 1
        assert "differs    fails/stderr.txt" in lines and "identical  fails/exit.txt" in lines

    def test_a_side_variable_overrides_the_one_thread_setting(self, tmp_path, monkeypatch):
        # a side may set a variable run_jobs sets itself, such as the BLAS thread count
        probe = "import os; open('env.txt', 'w').write(os.environ['OPENBLAS_NUM_THREADS'])"
        monkeypatch.setattr(golden, "JOBS", {"env": (["-c", probe], None)})
        for threads in ("1", "2"):
            extra = None if threads == "1" else {"OPENBLAS_NUM_THREADS": threads}
            golden.run_jobs(tmp_path, tmp_path / threads, extra)
            assert (tmp_path / threads / "env" / "env.txt").read_text() == threads

    @pytest.mark.parametrize("flags, base, head", [
        (["--head-env", "ZENO_GOLDEN_PROBE=on"], "unset", "on"),
        (["--base-env", "ZENO_GOLDEN_PROBE=a=b", "--base-env", "ZENO_GOLDEN_OTHER=1"], "a=b 1", "unset"),
        (["--base-env", "ZENO_GOLDEN_PROBE=on", "--head-env", "ZENO_GOLDEN_PROBE=on"], None, None),
    ], ids=["head", "base-twice", "both"])
    def test_a_side_variable_reaches_that_sides_jobs_alone(self, monkeypatch, capsys, flags, base, head):
        probe = ("import os; open('env.txt', 'w').write(' '.join(os.environ[n] for n in "
                 "('ZENO_GOLDEN_PROBE', 'ZENO_GOLDEN_OTHER') if n in os.environ) or 'unset')")
        monkeypatch.setattr(golden, "JOBS", {"env": (["-c", probe], None)})
        monkeypatch.setattr(golden, "extract", lambda rev, into: into.mkdir(parents=True))
        for name in ("ZENO_GOLDEN_PROBE", "ZENO_GOLDEN_OTHER"):
            monkeypatch.delenv(name, raising=False)
        assert golden.main(["--base", "HEAD", "--head", "HEAD", *flags]) == (base is not None)
        lines = capsys.readouterr().out.splitlines()
        if base is None:
            assert lines == ["identical  env/env.txt", "1 files, 0 with an unexpected difference"]
        else:
            assert lines[:4] == ["differs    env/env.txt", "    first differing line 1:",
                                 f"      base: {base}", f"      head: {head}"]

    @pytest.mark.parametrize("item", ["NOVALUE", "=value", ""])
    @pytest.mark.parametrize("side", ["base", "head"])
    def test_a_malformed_side_variable_is_a_parser_error(self, monkeypatch, capsys, side, item):
        monkeypatch.setattr(golden, "extract", lambda rev, into: pytest.fail("ran a side"))
        with pytest.raises(SystemExit) as exc:
            golden.main(["--base", "HEAD", f"--{side}-env", item])
        assert exc.value.code == 2
        assert f"--{side}-env takes NAME=VALUE, got {item!r}" in capsys.readouterr().err

    def test_the_job_list_covers_every_preset_config_and_demo(self):
        names = set(golden.JOBS)
        fig5 = {f"fig5_{i}_{m}" for i in ("wstate", "leftmost") for m in ("default", 100, 20)}
        assert fig5 <= names
        assert {f"{k}_{c}" for k in ("projective", "pulsed", "continuous", "bernoulli")
                for c in ("simulate", "theory", "compare")} <= names
        assert {"fig2_default", "fig3_default", "fig4_default"} <= names
        demos = [n for n in names if n.startswith("demo")]
        assert len(demos) == len(list((ROOT / "demos").glob("*.py")))
        for kind in ("projective", "pulsed", "bernoulli"):
            assert "kappa_sweep" in golden.JOBS[f"{kind}_simulate"][1]
        # a base law of one atom: the base point's ensemble is one run
        one_atom = parse_config(golden.JOBS["one_atom_simulate"][1])
        assert len(one_atom.protocol.distribution.atoms) == 1 and one_atom.realizations > 1
        assert one_atom.protocol.kind is ProtocolKind.PROJECTIVE and not one_atom.protocol.bernoulli


SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_at_the_declared_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10: no syntax newer than 3.10
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
