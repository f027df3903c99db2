"""The package surface: the README's library example runs as written,
and the package root exports exactly the documented names."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_command_line_loads_no_oracle():
    # The oracles load on first access to their names, or for --check-inline.
    script = ("import sys, mwpflow.cli; "
              "print([m for m in ('mwpflow.inline', 'mwpflow.exhaustive') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_importing_the_command_line_loads_no_option_parser():
    # The command line reads argv in one pass, so no process pays for
    # importing argparse and the gettext that argparse imports.
    script = ("import sys, mwpflow.cli; "
              "print([m for m in ('argparse', 'gettext') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_importing_the_command_line_loads_no_dataclasses():
    # The AST and result records are slotted classes, so no process pays
    # for dataclasses and the inspect, ast, dis and tokenize it imports.
    script = ("import sys, mwpflow.cli; "
              "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


def test_importing_the_inline_check_loads_no_dataclasses():
    # --check-inline imports mwpflow.inline; its report is a Record too.
    script = ("import sys, mwpflow.inline; "
              "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out == "[]\n"
