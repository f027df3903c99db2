"""The package surface: the README's library example runs as written,
the package root exports exactly the documented names, and a fresh
import loads none of the modules it has no use for."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mwpflow

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example opens programs/ by a relative path
    namespace: dict = {}
    exec(code, namespace)
    result = namespace["result"]
    assert len(result.registry) == 3
    assert result.verdict == "bounded"


def test_package_exports_only_the_documented_names():
    assert sorted(mwpflow.__all__) == sorted([
        "ParseError", "analyze_program", "check_call_theorem", "derivable_matrices",
        "derive_with_picks", "parse", "__version__",
    ])
    for name in mwpflow.__all__:
        assert hasattr(mwpflow, name), name


# case -> (module imported in a fresh process, modules it must not load).
# One case per reason, so a failure names the cause:
# - oracle: the oracles load on first access to their names, or for
#   --check-inline;
# - option_parser: the command line reads argv in one pass, so no
#   argparse or the gettext that argparse imports;
# - dataclasses: the AST and result records are slotted classes, so no
#   dataclasses or the inspect, ast, dis and tokenize it imports; the
#   inline report is a Record too;
# - json: the JSON writer quotes names with _json's routine.
_UNLOADED = {
    "command_line-oracle": ("mwpflow.cli", ("mwpflow.inline", "mwpflow.exhaustive")),
    "command_line-option_parser": ("mwpflow.cli", ("argparse", "gettext")),
    "command_line-dataclasses": ("mwpflow.cli", ("dataclasses", "inspect")),
    "command_line-json": ("mwpflow.cli", ("json",)),
    "inline_check-dataclasses": ("mwpflow.inline", ("dataclasses", "inspect")),
}


@pytest.mark.parametrize("module, unloaded", _UNLOADED.values(), ids=_UNLOADED.keys())
def test_fresh_import_loads_none_of(module, unloaded):
    script = f"import sys, {module}; print([m for m in {unloaded!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
