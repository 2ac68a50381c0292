"""Unit tests for ``tools/check_trusted_constructors.py`` on the real and synthetic trees."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "check_trusted_constructors.py"
_spec = importlib.util.spec_from_file_location("check_trusted_constructors", TOOL)
check_trusted_constructors = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trusted_constructors)

TRUSTED_SPAN = '''\
def fast_span(begin, end):
    span = Span.__new__(Span)
    span._begin = begin
    span._end = end
    return span
'''

TRUSTED_MAPPING = '''\
def fast_mapping(assignment):
    mapping = Mapping.__new__(Mapping)
    mapping._assignment = assignment
    mapping._hash = None
    return mapping
'''


def write_tree(root: Path, files: dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / "src" / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_real_tree_passes():
    assert check_trusted_constructors.violations(ROOT) == []
    assert check_trusted_constructors.main(["check_trusted_constructors", str(ROOT)]) == 0


def test_the_arena_walk_uses_the_trusted_form():
    # The exemptions are not vacuous: the walk builds undecoded mappings
    # with the trusted form, and the mapping decodes its path into spans
    # with it.
    walk = (ROOT / "src" / "repro" / "runtime" / "dag.py").read_text(encoding="utf-8")
    decode = (ROOT / "src" / "repro" / "core" / "mappings.py").read_text(encoding="utf-8")
    assert "Mapping.__new__" in walk
    assert "Span.__new__" in decode


@pytest.mark.parametrize("source", [TRUSTED_SPAN, TRUSTED_MAPPING], ids=["span", "mapping"])
def test_a_planted_use_is_flagged(tmp_path, capsys, source):
    write_tree(tmp_path, {"runtime/streaming.py": source, "runtime/dag.py": source})
    assert check_trusted_constructors.violations(tmp_path) == ["src/repro/runtime/streaming.py"]
    assert check_trusted_constructors.main(["check_trusted_constructors", str(tmp_path)]) == 1
    assert "src/repro/runtime/streaming.py" in capsys.readouterr().out


def test_a_use_in_a_nested_package_is_flagged(tmp_path):
    write_tree(tmp_path, {"server/protocol.py": TRUSTED_SPAN, "algebra/core/join.py": TRUSTED_MAPPING})
    assert check_trusted_constructors.violations(tmp_path) == [
        "src/repro/algebra/core/join.py",
        "src/repro/server/protocol.py",
    ]


def test_core_and_the_arena_walk_are_exempt(tmp_path):
    write_tree(
        tmp_path,
        {
            "core/spans.py": TRUSTED_SPAN,
            "core/mappings.py": TRUSTED_MAPPING,
            "runtime/dag.py": TRUSTED_SPAN + TRUSTED_MAPPING,
        },
    )
    assert check_trusted_constructors.violations(tmp_path) == []
