"""The command-line outputs on the golden pools are byte for byte the
recorded ones (see ``golden_corpus.py``)."""

import json

import golden_corpus


def test_outputs_match_the_golden_corpus(tmp_path):
    expected = json.loads(golden_corpus.GOLDEN.read_text())
    got = golden_corpus.run_all(tmp_path)
    assert got["inputs"] == expected["inputs"]
    assert sorted(got["runs"]) == sorted(expected["runs"])
    for name, run in expected["runs"].items():
        assert got["runs"][name] == run, name


def test_changed_runs_named():
    old = {"runs": {"kept": {"exit": 0}, "changed": {"exit": 0}, "dropped": {"exit": 0}}}
    new = {"runs": {"kept": {"exit": 0}, "changed": {"exit": 2}, "added": {"exit": 0}}}
    assert golden_corpus.changed_runs(old, new) == ["added", "changed", "dropped"]
    assert golden_corpus.changed_runs(new, new) == []
    assert golden_corpus.changed_runs({}, new) == ["added", "changed", "kept"]
