"""The mutant manifest stays runnable: ``tests/run_mutants.py``'s check, in the test suite.

The mutation run itself takes minutes; this check takes well under a second,
so a refactor that strands an entry fails here first.
"""

from __future__ import annotations

from tests.run_mutants import load_mutants, manifest_problems


def test_every_mutant_finds_its_source_once_and_names_existing_tests():
    assert manifest_problems(load_mutants()) == []


def test_a_stranded_entry_is_reported():
    entry = load_mutants()[0]
    node = "tests/test_graph.py::TestSerialization::test_prompt_ranking_weight_desc_then_id_asc"
    entries = [
        dict(entry, id="a", tests=[node, node + "[any-parameter]"]),
        dict(entry, id="a", tests=[node]),
        dict(entry, id="gone", find=entry["find"] + "  # no such line"),
        dict(entry, id="no-file", file="src/sceneplan/gone.py"),
        dict(entry, id="tests", tests=[
            "tests/test_gone.py::test_x",
            "tests/test_graph.py",
            "tests/test_graph.py::TestGone::test_prompt_ranking_weight_desc_then_id_asc",
            "tests/test_graph.py::TestSerialization::test_gone",
            "tests/test_graph.py::test_prompt_ranking_weight_desc_then_id_asc",
        ]),
        {"id": "fields", "file": entry["file"]},
    ]
    assert manifest_problems(entries) == [
        "duplicate id 'a'",
        f"gone: source string occurs 0 times in {entry['file']}, not once",
        "no-file: source string occurs 0 times in src/sceneplan/gone.py, not once",
        "tests: names tests/test_gone.py::test_x, which does not exist",
        "tests: names tests/test_graph.py, which does not exist",
        "tests: names tests/test_graph.py::TestGone::test_prompt_ranking_weight_desc_then_id_asc,"
        " which does not exist",
        "tests: names tests/test_graph.py::TestSerialization::test_gone, which does not exist",
        "tests: names tests/test_graph.py::test_prompt_ranking_weight_desc_then_id_asc,"
        " which does not exist",
        "'fields' needs exactly the fields ('id', 'file', 'find', 'replace', 'tests', 'why')",
    ]
