"""Command-line interface: analyze a source file, report per function.

Exit codes: 0 when every analyzed function is bounded or conditionally
bounded, 1 when some function is unbounded (or an inline check fails),
2 on usage or parse errors and on programs nested too deeply to analyze.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import __version__
from .analysis import UNBOUNDED, FunctionAnalysis, analyze_program
from .frontend import ParseError, Program, parse, render
from .polynomial import MASK, SHIFT, Delta, Monomial, monomial_text
from .semiring import INF, M, value_char


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first run call; it
    holds no per-call state, as parse_args returns a new namespace."""
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
    texts: dict[Monomial, str] = {}  # each distinct monomial is rendered once per call
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
        rows = [["+".join([texts.get(m) or texts.setdefault(m, monomial_text(m))
                           for m in p.monomials]) or "0" for p in row]
                for row in r.matrix.entries]
        width = max((len(text) for row in rows for text in row), default=1)
        name_w = max(len(v) for v in r.variables) if r.variables else 0
        for name, row in zip(r.variables, rows):
            cells = "  ".join(text.ljust(width) for text in row)
            lines.append(f"    {name.ljust(name_w)}  {cells}")
        lines.append(f"  verdict: {r.verdict.replace('_', '-')}")
        lines.append(f"  infinity-free assignments: {r.clean_count} of {r.total_assignments}")
        if r.sample is not None:
            lines.append(f"  sample assignment: {','.join(map(str, r.sample)) or '(empty)'}")
        if r.blame:
            pairs = ", ".join(f"{a} -> {b}" for a, b in r.blame)
            lines.append(f"  blame: {pairs}")
        if r.summary is not None:
            lines.append(f"  behaviors ({len(r.summary.behaviors)}):")
            for vec in r.summary.behaviors:
                flows = ", ".join(f"{v}:{value_char(f)}"
                                  for v, f in zip(r.summary.rows, vec) if f)
                lines.append(f"    {{{flows}}}")
        lines.append(f"  elapsed: {r.elapsed * 1000:.1f} ms")
    lines.append("")
    # Padded last cells and empty lists would leave trailing spaces.
    return "\n".join(line.rstrip() for line in lines)


# The report's fixed indent=2 templates; _In is a newline and n spaces.
# Cell and monomial pieces open with their separator, and the first
# cell of a row and the first monomial of a cell drop their comma.
_I6, _I8, _I10, _I12, _I14, _I16, _I18, _I20 = ("\n" + " " * d for d in range(6, 21, 2))
_SCALAR = {s: '"inf"' if s == INF else f'"{value_char(s)}"' for s in range(M, INF + 1)}
_MONO_OPEN = {s: f',{_I14}{{{_I16}"scalar": {v},{_I16}"deltas": [' for s, v in _SCALAR.items()}
_CELL_OPEN, _CELL_CLOSE = f',{_I10}{{{_I12}"monomials": [', f"{_I12}]{_I10}}}"
_EMPTY_CELL = f',{_I10}{{{_I12}"monomials": []{_I10}}}'


def _items(texts: list[str], indent: str, close: str, ends: str = "[]") -> str:
    """A container of rendered items, one per line at indent, or an empty one."""
    return f"{ends[0]}{indent}{(',' + indent).join(texts)}{close}{ends[1]}" if texts else ends


def emit_json(results: Sequence[FunctionAnalysis]) -> str:
    """The report exactly as json.dumps(doc, indent=2) + "\\n" prints it.

    One flat pass appends the report's pieces to one list in document
    order, from fixed templates, and joins them once.  Each distinct
    delta and monomial is rendered once per call into a dict memo, and
    a cell's pieces are its monomials' memo entries.  Names are quoted
    by encode_basestring_ascii, as json.dumps quotes a str.
    """
    quote = encode_basestring_ascii
    deltas: dict[Delta, str] = {}
    monos: dict[Monomial, str] = {}

    def mono(m: Monomial) -> str:
        s, ds = m
        text, sep = _MONO_OPEN[s], ""
        for d in ds:
            text += sep + (deltas.get(d) or deltas.setdefault(
                d, f"{_I18}[{_I20}{d & MASK},{_I20}{d >> SHIFT}{_I18}]"))
            sep = ","
        return monos.setdefault(m, f"{text}{_I16}]{_I14}}}" if ds else f"{text}]{_I14}}}")

    out = ['{\n  "functions": [']
    append = out.append
    sep = "\n    {"
    for r in results:
        choices = [f'{{{_I10}"index": {i},{_I10}"domain": {c}{_I8}}}'
                   for i, c in enumerate(r.registry.cardinalities)]
        append(f'{sep}{_I6}"name": {quote(r.name)},{_I6}"variables": '
               f'{_items(list(map(quote, r.variables)), _I8, _I6)},{_I6}"choices": '
               f'{_items(choices, _I8, _I6)},{_I6}"matrix": ')
        sep = ",\n    {"
        row_open = f"[{_I8}["
        for row in r.matrix.entries:
            append(row_open)
            row_open = f"{_I8}],{_I8}["
            first = len(out)
            for p in row:
                if ms := p.monomials:
                    append(_CELL_OPEN)
                    k = len(out)
                    out += [monos.get(m) or mono(m) for m in ms]
                    out[k] = out[k][1:]
                    append(_CELL_CLOSE)
                else:
                    append(_EMPTY_CELL)
            out[first] = out[first][1:]
        sample = "null" if r.sample is None else _items(list(map(str, r.sample)), _I8, _I6)
        blame = [_items([quote(a), quote(b)], _I10, _I8) for a, b in r.blame]
        behaviors = [] if r.summary is None else [
            _items([f"{quote(v)}: {_SCALAR[f]}" for v, f in zip(r.summary.rows, vec) if f],
                   _I10, _I8, "{}")
            for vec in r.summary.behaviors
        ]
        append(f"{_I8}]{_I6}]" if r.matrix.entries else "[]")
        append(f',{_I6}"verdict": {quote(r.verdict)},{_I6}"sample_assignment": {sample},'
               f'{_I6}"blame": {_items(blame, _I8, _I6)},'
               f'{_I6}"behaviors": {_items(behaviors, _I8, _I6)}\n    }}')
    append("\n  ]\n}\n" if results else "]\n}\n")
    return "".join(out)


def run(argv: Sequence[str] | None = None) -> int:
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
        with open(opts.file, encoding="utf-8-sig") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"mwpflow: cannot read {opts.file}: {e}", file=sys.stderr)
        return 2

    # Unencodable output prints as "?", in this call only.
    errors = getattr(sys.stdout, "errors", None)
    reconfigure = getattr(sys.stdout, "reconfigure", lambda **_: None)
    try:
        reconfigure(errors="replace")
        return _analyze(opts, source)
    except RecursionError:
        # Expressions and command nesting are walked recursively.
        print(f"mwpflow: {opts.file}: program nested too deeply to analyze",
              file=sys.stderr)
        return 2
    finally:
        reconfigure(errors=errors)


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
        from .inline import check_call_theorem

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
