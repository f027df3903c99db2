"""Rebuild ``pins.json``: the answer every benchmark program must give.

Run from the repository root::

    python3 bench/pin.py

Verdicts come from sources independent of the engine:

* ``replay``: each call-free function is replayed with
  ``derive_with_picks`` at every assignment (at most 3^10).  Bounded
  means every replay succeeds, unbounded that none does.
* ``construction``: the verdict the generator's construction implies
  (``workloads.CONSTRUCTION``), for spaces too large to replay.
* ``call-theorem``: the callee is replayed; the caller keeps the
  engine's verdict, and only after ``check_call_theorem`` passes.

The engine's own report is then required to agree, and its sha256 is
pinned as well.  Frontier programs are not run, so they pin no digest.
The exit code follows from the verdicts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import PINS_PATH, import_engine, invoke  # noqa: E402
import workloads  # noqa: E402

REPLAY_LIMIT = 3 ** 10


def additive_sites(body) -> int:
    """Choice points of a call-free body: one per ``+`` or ``-``."""
    from mwpflow.frontend import Assign, BinOp, If, Loop, While

    def expr(e) -> int:
        if isinstance(e, BinOp):
            return (e.op in "+-") + expr(e.left) + expr(e.right)
        return 0

    total = 0
    for c in body:
        if isinstance(c, Assign):
            total += expr(c.value)
        elif isinstance(c, If):
            total += additive_sites(c.then_body) + additive_sites(c.else_body)
        elif isinstance(c, (While, Loop)):
            total += additive_sites(c.body)
        else:
            raise ValueError(f"replay needs a call-free body, found {c!r}")
    return total


def replay_verdict(decl) -> str:
    from mwpflow import derive_with_picks

    n = additive_sites(decl.body)
    if 3 ** n > REPLAY_LIMIT:
        raise ValueError(f"{decl.name}: 3^{n} assignments exceed the replay limit")
    ok = [
        derive_with_picks(decl, picks) is not None
        for picks in itertools.product(range(3), repeat=n)
    ]
    if all(ok):
        return "bounded"
    return "conditionally_bounded" if any(ok) else "unbounded"


def oracle_verdicts(prog: workloads.Program, engine: dict[str, str]) -> dict[str, str]:
    from mwpflow import check_call_theorem, parse

    decls = parse(prog.source).functions
    if prog.answer == "construction":
        family = prog.name.rsplit("-", 1)[0]
        return {d.name: workloads.CONSTRUCTION[family] for d in decls}
    if prog.answer == "replay":
        return {d.name: replay_verdict(d) for d in decls}
    callee, caller = decls
    report = check_call_theorem(caller, callee)
    if not report.ok:
        raise ValueError(f"{prog.name}: {report}")
    return {callee.name: replay_verdict(callee), caller.name: engine[caller.name]}


def pin_workload(name: str, work: Path) -> dict:
    flags = ["--fast"] if workloads.MODE[name] == workloads.FAST else []
    pins = {}
    for prog in workloads.base_programs(name):
        entry = {
            "source_sha256": hashlib.sha256(prog.source.encode()).hexdigest(),
            "answer": prog.answer,
        }
        engine: dict[str, str] = {}
        if not prog.frontier:
            path = work / f"{prog.name}.imp"
            path.write_text(prog.source, encoding="utf-8")
            rc, report = invoke(str(path), flags)
            engine = {f["name"]: f["verdict"] for f in json.loads(report)["functions"]}
            entry["report_sha256"] = hashlib.sha256(report.encode()).hexdigest()
        else:
            entry["report_sha256"] = None
        verdicts = oracle_verdicts(prog, engine)
        if engine and engine != verdicts:
            raise SystemExit(f"{name}/{prog.name}: engine {engine} != oracle {verdicts}")
        entry["verdicts"] = verdicts
        entry["exit"] = 1 if "unbounded" in verdicts.values() else 0
        if engine and rc != entry["exit"]:
            raise SystemExit(f"{name}/{prog.name}: exit {rc} != {entry['exit']}")
        pins[prog.name] = entry
        print(f"{name}/{prog.name}: {verdicts} ({prog.answer})", file=sys.stderr)
    return {"mode": workloads.MODE[name], "seed": workloads.REFERENCE_SEED[name],
            "programs": pins}


def main() -> None:
    import_engine()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
        doc = {name: pin_workload(name, Path(tmp)) for name in workloads.WORKLOADS}
    PINS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
