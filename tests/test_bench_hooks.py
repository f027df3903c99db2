"""The benchmark's tracer hooks engine names from the outside.

A name it cannot find is reported as missing, not raised, so a deletion
in the engine would only show in a traced benchmark run.  This reads the
tracer's target table, without installing the tracer, and resolves each
target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names the tracer still hooks though the engine no longer defines them;
# the benchmark keeps them until its own tracer is updated.
KNOWN_MISSING = ["DeltaGraph.find_uncovered", "DeltaGraph.is_complete"]


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
