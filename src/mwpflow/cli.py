"""Command-line interface: analyze a source file, report per function.

Exit codes: 0 when every analyzed function is bounded or conditionally
bounded, 1 when some function is unbounded (or an inline check fails),
2 when run refuses the command line or the program, with one stderr line.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Sequence

from . import __version__
from .analysis import UNBOUNDED, FunctionAnalysis, analyze_program
from .frontend import Call, ParseError, Program, parse, render, walk_commands
from .polynomial import MASK, SHIFT, BudgetExceeded, Delta, Monomial, monomial_text
from .semiring import INF, M, value_char

try:  # the C routine that json.encoder re-exports, without the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

USAGE = "usage: mwpflow [-h] [--function NAME] [--eval PICKS | --json] file\n"
HELP = f"""{USAGE}
Certify polynomial growth bounds of program variables.

positional arguments:
  file             source file to analyze (conventionally .imp)

options:
  -h, --help       show this help message and exit
  --function NAME  report only this function
  --eval PICKS     print the flow matrix for one comma-separated choice assignment
  --json           emit a machine-readable report
"""
# Option -> (attribute, number of values).  The help leaves out the last
# three; --fast is accepted for old command lines only.  Each mode prints
# its own output, so two would silently drop one.
_OPTIONS = {"-h": ("help", 0), "--help": ("help", 0), "--function": ("function", 1),
            "--eval": ("eval_picks", 1), "--json": ("json", 0), "--dump-ast": ("dump_ast", 0),
            "--check-inline": ("check_inline", 2), "--fast": ("fast", 0)}
_MODES = ("--eval", "--json", "--dump-ast", "--check-inline")
# Of the arguments that start with "-", only a negative number is a value.
_VALUE = re.compile(r"[^-]|$|-\d+$|-\d*\.\d+$").match


def read_argv(args: Sequence[str]) -> SimpleNamespace | None:
    """The options of one command line, or None when it asks for help.
    A usage error raises ValueError in the standard library parser's words."""
    opts = SimpleNamespace(file=None, function=None, eval_picks=None, json=False,
                           dump_ast=False, check_inline=None, fast=False)
    extras, mode, file_at, rest = [], None, -1, False
    i = 1 if args and args[0] == "analyze" else 0
    while i < len(args):
        arg, i = args[i], i + 1
        name, eq, value = arg.partition("=")
        if rest or _VALUE(arg):
            if opts.file is None:
                opts.file, file_at = arg, i
                continue
        elif arg == "--":
            rest = True
            if opts.file is None or file_at == i - 1:  # a file beside it takes it
                continue
        elif name in _OPTIONS:
            attr, count = _OPTIONS[name]
            values = [value] if eq else list(args[i:i + count])
            if len(values) != count or not (eq or all(map(_VALUE, values))):
                raise ValueError(f"argument {'-h/--help' if attr == 'help' else name}: " + (
                    f"ignored explicit argument {value!r}" if eq and not count
                    else "expected one argument" if count == 1 else "expected 2 arguments"))
            i += 0 if eq else count
            if attr == "help":
                return None
            if name in _MODES:
                if mode not in (None, name):
                    raise ValueError(f"argument {name}: not allowed with argument {mode}")
                mode = name
            setattr(opts, attr, values if count == 2 else values[0] if count else True)
            continue
        extras.append(arg)
    if opts.file is None:
        raise ValueError("the following arguments are required: file")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    if opts.check_inline and opts.function is not None:  # the check names its own two
        raise ValueError("argument --function: not allowed with argument --check-inline")
    return opts


def render_report(results: Sequence[FunctionAnalysis]) -> str:
    texts: dict[Monomial, str] = {}  # each distinct monomial is rendered once per call
    lines = [f"mwpflow {__version__}"]
    for r in results:
        lines += ["", f"function {r.name}", f"  variables: {' '.join(r.variables)}"]
        cards = r.registry.cardinalities
        doms = " ".join(f"#{i}:{c}" for i, c in enumerate(cards))
        lines.append(f"  choices: {len(cards)} ({doms})" if cards else "  choices: none")
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
    by encode_basestring_ascii, as json.dumps quotes a str; it comes
    from _json, so no json module loads.
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


class _Refusal(Exception):
    """The one stderr line of a command line that exits 2."""


def run(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    except _Refusal as refusal:
        print(refusal, file=sys.stderr)
        return 2


def _run(argv: Sequence[str]) -> int:
    try:
        opts = read_argv(argv)
    except ValueError as e:
        raise _Refusal(f"{USAGE}mwpflow: error: {e}")
    if opts is None:
        sys.stdout.write(HELP)
        return 0

    try:
        with open(opts.file, encoding="utf-8-sig") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _Refusal(f"mwpflow: cannot read {opts.file}: {e}")

    # Unencodable output prints as "?", in this call only.
    errors = getattr(sys.stdout, "errors", None)
    reconfigure = getattr(sys.stdout, "reconfigure", lambda **_: None)
    try:
        reconfigure(errors="replace")
        return _analyze(opts, source)
    except RecursionError:
        # Expressions and command nesting are walked recursively.
        failure = "program nested too deeply to analyze"
    except MemoryError:
        failure = "out of memory"
    except BudgetExceeded as e:
        failure = str(e)
    finally:
        reconfigure(errors=errors)
    # Raised once the handler has let go of the traceback, whose frames
    # hold the matrices that used up the memory.
    raise _Refusal(f"mwpflow: {opts.file}: {failure}")


def _analyze(opts: SimpleNamespace, source: str) -> int:
    try:
        program = parse(source)
    except ParseError as e:
        raise _Refusal(f"{opts.file}:{e}")
    for w in program.warnings:
        print(f"{opts.file}:{w}", file=sys.stderr)

    shown = tuple(f for f in program.functions if opts.function in (None, f.name))
    if opts.function is not None and not shown:
        raise _Refusal(f"mwpflow: no function named {opts.function}")

    if opts.dump_ast:
        print(render(Program(shown)), end="")
        return 0

    if opts.check_inline:
        from .inline import check_call_theorem

        try:
            report = check_call_theorem(*map(program.function, opts.check_inline))
        except (KeyError, ValueError) as e:
            # args[0], not str(e), which quotes a KeyError's message
            raise _Refusal(f"mwpflow: {e.args[0]}")
        print(report)
        return 0 if report.ok else 1

    needed = {f.name for f in shown}  # and their callees, each declared before its callers
    for f in reversed(program.functions):
        if f.name in needed:
            needed.update(c.function for c in walk_commands(f.body) if isinstance(c, Call))
    program = Program(tuple(f for f in program.functions if f.name in needed))
    results = [r for r in analyze_program(program) if opts.function in (None, r.name)]

    if opts.eval_picks is not None:
        # Only a blank string is the empty assignment.  A field is ASCII
        # digits with optional spaces around them, so an empty field,
        # "+1", "1_0" and non-ASCII digits are errors.
        text = opts.eval_picks
        fields = [x.strip() for x in text.split(",")] if text.strip() else []
        if not all(x.isascii() and x.isdigit() for x in fields):
            raise _Refusal(f"mwpflow: bad assignment {text!r}")
        picks = tuple(map(int, fields))
        out = []
        for r in results:
            try:
                flow = r.matrix.evaluate(picks)
            except ValueError as e:
                raise _Refusal(f"mwpflow: {r.name}: {e}")
            out.append(f"function {r.name} at [{','.join(map(str, picks))}]")
            out.append(f"  variables: {' '.join(r.variables)}")
            out.extend("  " + line for line in str(flow).splitlines())
        print("\n".join(line.rstrip() for line in out))
        return 1 if any(r.verdict == UNBOUNDED for r in results) else 0

    sys.stdout.write((emit_json if opts.json else render_report)(results))
    return 1 if any(r.verdict == UNBOUNDED for r in results) else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
