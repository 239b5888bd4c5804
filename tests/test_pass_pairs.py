"""``tools/pass_pairs.py``: the repository against itself on a tiny workload, and a checkout that cannot run."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("pass_pairs", REPO / "tools" / "pass_pairs.py")
pass_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pass_pairs)


def test_the_repository_against_itself_reports_both_sides(capsys):
    argv = [str(REPO), str(REPO), "--workload", "calculus", "--calls", "mvt[", "--processes", "2", "--passes", "2", "--tiny"]
    assert pass_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:4]] == ["round 1 parent", "round 1 change", "round 2 change", "round 2 parent"]
    assert all(" 5 calls, fastest pass " in line for line in lines[:4])
    assert lines[4].startswith("parent: median ") and lines[5].startswith("change: median ")
    assert lines[6].startswith("change/parent medians: ")


def test_a_checkout_that_cannot_run_exits_one(tmp_path, capsys):
    assert pass_pairs.main([str(REPO), str(tmp_path / "missing"), "--workload", "wide", "--processes", "1", "--passes", "1", "--tiny"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the run of ") and "missing" in err
    assert pass_pairs.main([str(REPO), str(REPO), "--workload", "wide", "--calls", "nothing", "--processes", "1", "--tiny"]) == 1
    assert "no call of wide starts with 'nothing'" in capsys.readouterr().err
