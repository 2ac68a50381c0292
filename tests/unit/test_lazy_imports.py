"""The lazy package exports and call-site imports still resolve.

``import repro`` loads only what a default request runs; every other
public name loads its module on first use (PEP 562 ``__getattr__`` on
the packages, imports at the call site in the facade).  These tests pin
that each name still resolves, from a fresh interpreter where nothing
else has loaded the module first, and that each cold path reached from
a bare ``import repro`` gives the same output as in this process.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PACKAGES = ("repro", "repro.runtime", "repro.algebra", "repro.automata", "repro.regex")


def fresh(code: str) -> str:
    """Run *code* in a new interpreter over this checkout; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    process = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_in_a_fresh_interpreter(package):
    code = (
        f"import {package} as package\n"
        "missing = [name for name in package.__all__ if getattr(package, name, None) is None]\n"
        "print(len(package.__all__), missing)\n"
    )
    count, missing = fresh(code).split(maxsplit=1)
    assert int(count) > 0
    assert missing.strip() == "[]"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_exported_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(namespace)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_exported_name(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


@pytest.mark.parametrize(
    "module",
    [
        "repro.runtime.operators",
        "repro.algebra.optimizer",
        "repro.runtime.batch",
        "repro.server",
        "repro.cli",
    ],
)
def test_a_cold_module_imports_first_in_a_fresh_interpreter(module):
    # No earlier import has initialised its dependencies in a safe order:
    # an import cycle through a package __init__ would fail here.
    assert fresh(f"import {module}\nprint('ok')\n").strip() == "ok"


TEXTS = ["John <j@g.be>, Jane <555-12>", "Ada and Bob", ""]
PATTERN = ".*name{[A-Z][a-z]+}.*"
HYBRID = "(...)*x{a}.*", "(.....)*x{a}.*"
HYBRID_TEXT = "b" * 15 + "a" + "b" * 14 + "a"


def outputs(repro) -> dict:
    """Each cold path's output, as sorted mapping strings.

    Reached through the ``repro`` package only, so in a fresh interpreter
    that ran nothing but ``import repro`` every cold module loads on
    first use here.
    """
    spanner = repro.Spanner(PATTERN)
    collection = repro.DocumentCollection.from_texts(TEXTS)
    batch = {
        str(doc_id): sorted(str(m) for m in result)
        for doc_id, result in spanner.run_batch(collection, mode="processes", max_workers=2)
    }
    stream = spanner.stream(emit="incremental")
    streamed = [str(m) for m in stream.feed(TEXTS[0][:9])]
    streamed += [str(m) for m in stream.feed(TEXTS[0][9:])]
    streamed += [str(m) for m in stream.finish()]
    reference = {
        "count": [spanner.count(text, engine="reference") for text in TEXTS],
        "mappings": [
            sorted(str(m) for m in spanner.evaluate(text, engine="reference")) for text in TEXTS
        ],
    }
    first, second = (repro.algebra.Atom(source) for source in HYBRID)
    hybrid = repro.Spanner.from_expression(first.join(second))
    assert hybrid.plan().engine == "hybrid"
    return {
        "batch": batch,
        "stream": sorted(streamed),
        "reference": reference,
        "hybrid": sorted(str(m) for m in hybrid.evaluate(HYBRID_TEXT)),
    }


def test_cold_paths_from_a_bare_import_match_in_process():
    import repro

    expected = json.loads(json.dumps(outputs(repro)))
    constants = "".join(
        f"{name} = {value!r}\n"
        for name, value in [
            ("TEXTS", TEXTS),
            ("PATTERN", PATTERN),
            ("HYBRID", HYBRID),
            ("HYBRID_TEXT", HYBRID_TEXT),
        ]
    )
    code = (
        "import repro\n"
        + constants
        + inspect.getsource(outputs)
        + "import json\nprint(json.dumps(outputs(repro)))\n"
    )
    assert json.loads(fresh(code)) == expected
    # The documents do produce output, so equal results are not two
    # empty ones.
    assert expected["hybrid"] and expected["stream"] and any(expected["batch"].values())
    assert any(expected["reference"]["count"])
