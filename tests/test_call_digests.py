"""``tools/call_digests.py``: the repository against itself on tiny workloads, and the comparison on synthetic digests."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("call_digests", REPO / "tools" / "call_digests.py")
call_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_digests)


def test_the_repository_matches_itself_call_for_call():
    # Two fresh interpreters make every call of the tiny workloads once: same keys, same digests.
    one = call_digests.digests(REPO, [1], tiny=True)
    two = call_digests.digests(REPO, [1], tiny=True)
    assert call_digests.compare(one, two) == {"differ": [], "only in parent": [], "only in change": []}
    assert one == two
    names = {key.split(" seed ")[0] for key in one}
    assert names == {"oracle", "wide", "calculus"}
    assert any(": mvt[" in key for key in one) and any(": antiderivative queries" in key for key in one)
    assert all(len(value) == 64 for value in one.values())


def test_differences_and_calls_on_one_side_are_listed():
    parent = {"a": "1", "b": "2", "c": "3", "d": "4"}
    change = {"b": "2", "a": "9", "e": "5", "d": "0"}
    assert call_digests.compare(parent, change) == {"differ": ["a", "d"], "only in parent": ["c"], "only in change": ["e"]}


def test_the_exit_code_says_whether_any_call_moved(monkeypatch, capsys):
    sides = {}
    monkeypatch.setattr(call_digests, "digests", lambda tree, seeds: sides[str(tree)])
    sides.update(p={"x": "1", "y": "2"}, c={"x": "1", "y": "2"})
    assert call_digests.main(["p", "c", "--seeds", "1"]) == 0
    assert "2 of 2 parent calls have the change's digest" in capsys.readouterr().out
    sides["c"] = {"x": "1", "y": "3"}
    assert call_digests.main(["p", "c", "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "differ: 1\n  y\n" in out and "1 of 2 parent calls" in out
    sides["c"] = {"x": "1"}
    assert call_digests.main(["p", "c", "--seeds", "1"]) == 1
    assert "only in parent: 1\n  y\n" in capsys.readouterr().out
