"""Command-line interface: analyze a source file, report per function.

Exit codes: 0 when every analyzed function is bounded or conditionally
bounded, 1 when some function is unbounded (or an inline check fails),
2 on usage or parse errors and on programs nested too deeply to analyze.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Sequence

from . import __version__
from .analysis import UNBOUNDED, FunctionAnalysis, analyze_program
from .frontend import ParseError, Program, parse, render
from .inline import check_call_theorem
from .polynomial import Monomial
from .semiring import INF, value_char


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mwpflow",
        description="Certify polynomial growth bounds of program variables.",
    )
    p.add_argument("file", help="source file to analyze (conventionally .imp)")
    p.add_argument("--function", metavar="NAME", help="report only this function")
    # Each mode prints its own output, so two would silently drop one.
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--eval", metavar="PICKS", dest="eval_picks",
        help="print the flow matrix for one comma-separated choice assignment",
    )
    mode.add_argument("--json", action="store_true", help="emit a machine-readable report")
    mode.add_argument("--dump-ast", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument(
        "--check-inline", nargs=2, metavar=("CALLER", "CALLEE"), help=argparse.SUPPRESS
    )
    # Accepted for old command lines; every report is enumeration-free.
    p.add_argument("--fast", action="store_true", help=argparse.SUPPRESS)
    return p


def render_report(results: Sequence[FunctionAnalysis]) -> str:
    lines = [f"mwpflow {__version__}"]
    for r in results:
        lines.append("")
        lines.append(f"function {r.name}")
        lines.append(f"  variables: {' '.join(r.variables)}")
        cards = r.registry.cardinalities
        if cards:
            doms = " ".join(f"#{i}:{c}" for i, c in enumerate(cards))
            lines.append(f"  choices: {len(cards)} ({doms})")
        else:
            lines.append("  choices: none")
        lines.append("  matrix (rows flow into columns):")
        width = max((len(str(p)) for row in r.matrix.entries for p in row), default=1)
        name_w = max(len(v) for v in r.variables) if r.variables else 0
        for i, row in enumerate(r.matrix.entries):
            cells = "  ".join(str(p).ljust(width) for p in row)
            lines.append(f"    {r.variables[i].ljust(name_w)}  {cells}")
        lines.append(f"  verdict: {r.verdict.replace('_', '-')}")
        lines.append(
            f"  infinity-free assignments: {r.clean_count} of {r.total_assignments}"
        )
        if r.sample is not None:
            lines.append(f"  sample assignment: {','.join(map(str, r.sample)) or '(empty)'}")
        if r.blame:
            pairs = ", ".join(f"{a} -> {b}" for a, b in r.blame)
            lines.append(f"  blame: {pairs}")
        if r.summary is not None:
            lines.append(f"  behaviors ({len(r.summary.behaviors)}):")
            for vec in r.summary.behaviors:
                flows = ", ".join(
                    f"{v}:{value_char(f)}" for v, f in zip(r.summary.rows, vec) if f
                )
                lines.append(f"    {{{flows}}}")
        lines.append(f"  elapsed: {r.elapsed * 1000:.1f} ms")
    lines.append("")
    # Padded last cells and empty lists would leave trailing spaces.
    return "\n".join(line.rstrip() for line in lines)


def _block(items: Iterable[list[str]], depth: int, brackets: str = "[]") -> list[str]:
    """Items as text pieces of one indent=2 JSON container closing at depth."""
    pad = "\n" + "  " * (depth + 1)
    out, sep = [brackets[0]], pad
    for item in items:
        out.append(sep)
        out.extend(item)
        sep = "," + pad
    out.append(brackets[1] if len(out) == 1 else pad[:-2] + brackets[1])
    return out


def _obj(pairs: Iterable[tuple[str, list[str]]], depth: int) -> list[str]:
    return _block(([json.dumps(k) + ": ", *v] for k, v in pairs), depth, "{}")


def emit_json(results: Sequence[FunctionAnalysis]) -> str:
    """The report exactly as json.dumps(doc, indent=2) + "\n" prints it.

    Monomials dominate large reports, so each distinct monomial is
    rendered once per call, by one f-string at its fixed depth, and the
    report is joined once from pieces that share those strings;
    json.dumps only quotes names.
    """
    memo: dict[Monomial, str] = {}
    p6, p7, p8, p9, p10 = ("  " * d for d in range(6, 11))
    open6, sep6, close6 = f"[\n{p7}", f",\n{p7}", f"\n{p6}]"

    def mono(m: Monomial) -> str:
        text = memo.get(m)
        if text is None:
            scalar = "inf" if m.scalar == INF else value_char(m.scalar)
            pairs = ",".join(f"\n{p9}[\n{p10}{v},\n{p10}{i}\n{p9}]" for i, v in m.deltas)
            deltas = f"[{pairs}\n{p8}]" if pairs else "[]"
            text = memo[m] = f'{{\n{p8}"scalar": "{scalar}",\n{p8}"deltas": {deltas}\n{p7}}}'
        return text

    def quoted(names: Iterable[str]) -> list[list[str]]:
        return [[json.dumps(name)] for name in names]

    functions = []
    for r in results:
        behaviors = []
        if r.summary is not None:
            for vec in r.summary.behaviors:
                behaviors.append(_obj((
                    (v, ['"inf"' if f == INF else f'"{value_char(f)}"'])
                    for v, f in zip(r.summary.rows, vec)
                    if f
                ), 4))
        matrix = _block((
            _block((
                _obj([("monomials", [open6, sep6.join(map(mono, p.monomials)), close6]
                                    if p.monomials else ["[]"])], 5)
                for p in row
            ), 4)
            for row in r.matrix.entries
        ), 3)
        functions.append(_obj([
            ("name", [json.dumps(r.name)]),
            ("variables", _block(quoted(r.variables), 3)),
            ("choices", _block((
                _obj([("index", [str(i)]), ("domain", [str(c)])], 4)
                for i, c in enumerate(r.registry.cardinalities)
            ), 3)),
            ("matrix", matrix),
            ("verdict", [json.dumps(r.verdict)]),
            ("sample_assignment",
             ["null"] if r.sample is None else _block(([str(x)] for x in r.sample), 3)),
            ("blame", _block((_block(quoted(pair), 4) for pair in r.blame), 3)),
            ("behaviors", _block(behaviors, 3)),
        ], 2))
    doc = _obj([("functions", _block(functions, 1))], 0)
    doc.append("\n")
    return "".join(doc)


def run(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="replace")
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "analyze":
        args = args[1:]
    parser = build_parser()
    try:
        opts = parser.parse_args(args)
        if opts.check_inline and opts.function is not None:
            # The check names its own two functions.
            parser.error("argument --function: not allowed with argument --check-inline")
    except SystemExit as e:
        return 0 if e.code == 0 else 2

    try:
        with open(opts.file, encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"mwpflow: cannot read {opts.file}: {e}", file=sys.stderr)
        return 2

    try:
        return _analyze(opts, source)
    except RecursionError:
        # Expressions and command nesting are walked recursively.
        print(f"mwpflow: {opts.file}: program nested too deeply to analyze",
              file=sys.stderr)
        return 2


def _analyze(opts: argparse.Namespace, source: str) -> int:
    try:
        program = parse(source)
    except ParseError as e:
        print(f"{opts.file}:{e}", file=sys.stderr)
        return 2
    for w in program.warnings:
        print(f"{opts.file}:{w}", file=sys.stderr)

    shown = tuple(f for f in program.functions if opts.function in (None, f.name))
    if opts.function is not None and not shown:
        print(f"mwpflow: no function named {opts.function}", file=sys.stderr)
        return 2

    if opts.dump_ast:
        print(render(Program(shown)), end="")
        return 0

    if opts.check_inline:
        caller_name, callee_name = opts.check_inline
        try:
            report = check_call_theorem(
                program.function(caller_name), program.function(callee_name)
            )
        except (KeyError, ValueError) as e:
            # args[0], not str(e), which quotes a KeyError's message
            print(f"mwpflow: {e.args[0]}", file=sys.stderr)
            return 2
        print(report)
        return 0 if report.ok else 1

    results = [r for r in analyze_program(program) if opts.function in (None, r.name)]

    if opts.eval_picks is not None:
        try:
            # Only a blank string is the empty assignment.  A field is
            # ASCII digits with optional spaces around them, so an empty
            # field, "+1", "1_0" and non-ASCII digits are errors.
            fields = opts.eval_picks.split(",") if opts.eval_picks.strip() else []
            fields = [x.strip() for x in fields]
            if not all(x.isascii() and x.isdigit() for x in fields):
                raise ValueError(opts.eval_picks)
            picks = tuple(map(int, fields))
        except ValueError:
            print(f"mwpflow: bad assignment {opts.eval_picks!r}", file=sys.stderr)
            return 2
        out = []
        for r in results:
            try:
                flow = r.matrix.evaluate(picks)
            except ValueError as e:
                print(f"mwpflow: {r.name}: {e}", file=sys.stderr)
                return 2
            out.append(f"function {r.name} at [{','.join(map(str, picks))}]")
            out.append(f"  variables: {' '.join(r.variables)}")
            out.extend("  " + line for line in str(flow).splitlines())
        print("\n".join(line.rstrip() for line in out))
        return 1 if any(r.verdict == UNBOUNDED for r in results) else 0

    if opts.json:
        sys.stdout.write(emit_json(results))
    else:
        sys.stdout.write(render_report(results))
    return 1 if any(r.verdict == UNBOUNDED for r in results) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
