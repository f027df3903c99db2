"""The benchmark's tracer hooks engine names from the outside.

A name it cannot find is reported as missing, not raised, so a deletion
in the engine would only show in a traced benchmark run.  This reads the
tracer's target table and resolves each target the way the tracer does,
then installs the tracer around the command line to run its counter
hooks.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names the tracer still hooks though the engine no longer defines them;
# the benchmark keeps them until its own tracer is updated.
KNOWN_MISSING = ["DeltaGraph.find_uncovered", "DeltaGraph.is_complete"]


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _tracer_module()
    missing = []
    for name, _layer, owner_spec, attr, aliases in tracer.TARGETS:
        owner = tracer._owner(owner_spec)
        # A class must define the attribute itself: the tracer patches
        # the class's own dict.
        if attr not in vars(owner):
            missing.append(name)
            continue
        for alias in aliases:
            assert getattr(importlib.import_module(alias), attr) is getattr(owner, attr), (
                f"{alias}.{attr} is not the {name} the tracer patches"
            )
    assert missing == KNOWN_MISSING


def test_traced_cli_run_keeps_its_counter_hooks(capsys):
    # A counter hook that fails inside the tracer only adds
    # "<name> counters" to its missing names, so run the tracer the way
    # the traced benchmark does: every hook must fire without error, the
    # closure must be reached through the hooked class attribute, and
    # cli.report_bytes must count what --json printed.
    from mwpflow import cli

    tracer = _tracer_module().Tracer()
    printed = 0
    tracer.install()
    try:
        for path in sorted((ROOT / "programs").glob("*.imp")):
            assert cli.run([str(path), "--json"]) in (0, 1)
            printed += len(capsys.readouterr().out.encode())
    finally:
        tracer.remove()
    assert tracer.missing == KNOWN_MISSING
    assert tracer.calls[tracer.names.index("ChoiceMatrix.closure")] > 0
    assert tracer.pass_metrics()["cli.report_bytes"] == printed


def test_json_mode_prints_one_emit_json_call(monkeypatch, capsys):
    # The tracer times cli.emit_s by wrapping mwpflow.cli.emit_json and
    # counts cli.report_bytes as len() of its result, so --json must print
    # exactly what one call through the module attribute returned.
    from mwpflow import cli

    calls = []

    def counting(results, emit=cli.emit_json):
        calls.append(emit(results))
        return calls[-1]

    monkeypatch.setattr(cli, "emit_json", counting)
    assert cli.run([str(ROOT / "programs" / "three_behaviors.imp"), "--json"]) == 0
    assert len(calls) == 1 and type(calls[0]) is str
    assert capsys.readouterr().out == calls[0]
