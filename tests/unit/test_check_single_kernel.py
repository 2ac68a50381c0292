"""Unit tests for ``tools/check_single_kernel.py`` on the real and synthetic trees."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.runtime import kernel

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "check_single_kernel.py"
_spec = importlib.util.spec_from_file_location("check_single_kernel", TOOL)
check_single_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_single_kernel)

#: The three signatures of a hand-written Algorithm-1 loop, together.
INLINED_LOOP = '''\
def evaluate(table, buf, n):
    pos = 0
    while pos < n:
        capturing(pos)
        state = table.class_table[state][buf[pos]]
        pos += 1
'''


def write_tree(root: Path, files: dict[str, str]) -> None:
    for relative, text in files.items():
        path = root / "src" / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_real_tree_passes():
    assert check_single_kernel.violations(ROOT) == []
    assert check_single_kernel.main(["check_single_kernel", str(ROOT)]) == 0


def test_loop_outside_the_kernel_module_is_flagged(tmp_path, capsys):
    write_tree(tmp_path, {"runtime/engine.py": INLINED_LOOP, "runtime/dag.py": "NIL = -1\n"})
    assert check_single_kernel.violations(tmp_path) == ["src/repro/runtime/engine.py"]
    assert check_single_kernel.main(["check_single_kernel", str(tmp_path)]) == 1
    assert "src/repro/runtime/engine.py" in capsys.readouterr().out


@pytest.mark.parametrize("loop", ["arena_loop", "_state_loop", "count_loop"])
def test_a_copy_of_a_kernel_loop_is_flagged(tmp_path, loop):
    # Each loop shape the kernel holds — set plans (arena_loop,
    # count_loop) or state-indexed arrays (_state_loop) — is caught when
    # pasted into an engine module.
    source = inspect.getsource(getattr(kernel, loop))
    write_tree(tmp_path, {"runtime/engine.py": source})
    assert check_single_kernel.violations(tmp_path) == ["src/repro/runtime/engine.py"]


def test_one_signature_alone_is_not_flagged(tmp_path):
    write_tree(tmp_path, {"runtime/sprint.py": "while pos < n:\n    pos += 1\n"})
    assert check_single_kernel.violations(tmp_path) == []


def test_kernel_module_itself_is_exempt(tmp_path):
    write_tree(tmp_path, {"runtime/kernel.py": INLINED_LOOP})
    assert check_single_kernel.violations(tmp_path) == []
