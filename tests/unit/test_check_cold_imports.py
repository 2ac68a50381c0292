"""Unit tests for ``tools/check_cold_imports.py`` on the real and planted trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "check_cold_imports.py"
_spec = importlib.util.spec_from_file_location("check_cold_imports", TOOL)
check_cold_imports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_cold_imports)


def copy_tree(root: Path) -> Path:
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return root / "src" / "repro"


def plant(path: Path, line: str) -> None:
    """Insert *line* after the ``from __future__`` import of *path*."""
    marker = "from __future__ import annotations\n"
    text = path.read_text(encoding="utf-8")
    assert marker in text
    path.write_text(text.replace(marker, marker + line + "\n", 1), encoding="utf-8")


def test_real_tree_passes():
    assert check_cold_imports.violations(ROOT) == []
    assert check_cold_imports.main(["check_cold_imports", str(ROOT)]) == 0


def test_an_eager_pool_import_on_the_request_path_is_flagged(tmp_path, capsys):
    # The regression this check exists for: the encoder reaching the
    # fault hook through the module that owns the process pool.
    package = copy_tree(tmp_path)
    plant(package / "runtime" / "encoding.py", "from repro.runtime import resilience")
    flagged = check_cold_imports.violations(tmp_path)
    assert "import repro + default requests: multiprocessing" in flagged
    assert "import repro + default requests: repro.runtime.resilience" in flagged
    assert check_cold_imports.main(["check_cold_imports", str(tmp_path)]) == 1
    assert "repro.runtime.resilience" in capsys.readouterr().out


def test_an_eager_batch_import_in_the_cli_is_flagged(tmp_path):
    package = copy_tree(tmp_path)
    plant(package / "cli.py", "from repro.runtime.batch import MODES")
    assert check_cold_imports.violations(tmp_path) == ["import repro.cli: multiprocessing"]


def test_every_cold_module_exists():
    # A renamed module would make its entry vacuous.
    for module in check_cold_imports.COLD:
        if module.startswith("repro."):
            relative = Path(*module.split(".")).with_suffix(".py")
            assert (ROOT / "src" / relative).is_file(), module
