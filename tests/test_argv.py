"""The command line read in one pass, against the argparse parser it
replaced, kept here as the reference."""

import argparse
import contextlib
import io
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mwpflow.cli import read_argv, run
from test_properties import FIXED

ROOT = Path(__file__).resolve().parent.parent
PAIR = str(ROOT / "programs" / "inline_pair.imp")
USAGE = "usage: mwpflow [-h] [--function NAME] [--eval PICKS | --json] file\n"
OPTIONS = ("--function", "--eval", "--json", "--dump-ast", "--check-inline", "--fast",
           "-h", "--help")


class _Parser(argparse.ArgumentParser):
    # From Python 3.12.8 and 3.13.1 on, an option with a fixed number of
    # values takes values that look like options ("--check-inline --json
    # x"); earlier versions, and the command line, never do.
    def _get_nargs_pattern(self, action):
        pattern = super()._get_nargs_pattern(action)
        return pattern.replace("[AO]", "A") if action.option_strings else pattern


def build_parser() -> argparse.ArgumentParser:
    """The parser the command line used before its one-pass reader."""
    p = _Parser(
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


def _reference(argv):
    """("ok", the seven values), ("help", "") or ("error", stderr), as the
    command line read argv before: a leading "analyze" dropped, then
    parse_args, then the --function/--check-inline check."""
    args = argv[1:] if argv[:1] == ["analyze"] else argv
    parser = build_parser()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            opts = parser.parse_args(args)
            if opts.check_inline and opts.function is not None:
                parser.error("argument --function: not allowed with argument --check-inline")
    except SystemExit as e:
        return ("help", "") if e.code == 0 else ("error", err.getvalue())
    return "ok", vars(opts)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _argvs(words):
    """Command lines of options, in the space and the = form, their values,
    -h, --help, --, analyze, stray words and the file, up to twelve
    arguments; the file, words[0], and -- are pieces of their own as well."""
    lone = st.sampled_from(OPTIONS + words + ("--", "analyze")).map(lambda t: [t])
    option, word = st.sampled_from(OPTIONS), st.sampled_from(words)
    joined = st.tuples(option, word).map(lambda t: ["=".join(t)])
    spaced = st.tuples(option, st.lists(word, min_size=1, max_size=2))
    pieces = st.one_of(lone, joined, spaced.map(lambda t: [t[0], *t[1]]),
                       st.sampled_from(([words[0]], ["--"])))
    return st.lists(pieces, max_size=4).map(lambda ps: [arg for p in ps for arg in p])


def test_argv_matches_the_argparse_reference(tmp_path):
    words = (PAIR, str(tmp_path / "missing.imp"),
             "main", "f", "0", "0,1", "", "-1", "-x", "--bogus", "x")
    seen = {"ok": 0, "help": 0, "error": 0}

    @settings(FIXED, max_examples=200)
    @given(argv=_argvs(words))
    def check(argv):
        kind, expected = _reference(argv)
        seen[kind] += 1
        code, out, err = _run(argv)
        assert code in (0, 1, 2)
        if kind == "ok":
            assert vars(read_argv(argv)) == expected
        elif kind == "help":
            assert code == 0 and out.startswith(USAGE) and err == ""
        else:
            assert code == 2 and out == ""
            assert err.startswith(USAGE + "mwpflow: error: ") and err.count("\n") == 2
            assert err == expected

    check()
    assert seen["ok"] >= 20 and seen["help"] >= 20 and seen["error"] >= 60, seen


def test_abbreviated_option_is_unrecognized(capsys):
    # The intended difference: argparse read --js as --json.
    assert vars(build_parser().parse_args([PAIR, "--js"]))["json"] is True
    assert run([PAIR, "--js"]) == 2
    assert capsys.readouterr() == ("", USAGE + "mwpflow: error: unrecognized arguments: --js\n")
    for option in OPTIONS:
        for prefix in (option[:k] for k in range(3, len(option))):
            assert run([PAIR, prefix]) == 2
            assert capsys.readouterr().err.endswith(f"unrecognized arguments: {prefix}\n")


def test_help_prints_usage_and_visible_options(capsys):
    # Help wins over arguments left over before or after it.
    for argv in (["--help"], ["-h"], ["--bogus", "-h"], [PAIR, "x", "--help"]):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith(USAGE) and err == ""
        for option in ("-h, --help", "--function NAME", "--eval PICKS", "--json", "file"):
            assert option in out
        for hidden in ("--dump-ast", "--check-inline", "--fast"):
            assert hidden not in out


def test_missing_file_is_a_usage_error(capsys):
    for argv in ([], ["analyze"]):
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", USAGE + "mwpflow: error: the following arguments are required: file\n")


def test_usage_errors_keep_argparse_wording(capsys):
    for argv, message in (
        ([PAIR, "--json", "--"], "unrecognized arguments: --"),
        ([PAIR, "analyze"], "unrecognized arguments: analyze"),
        ([PAIR, "--eval"], "argument --eval: expected one argument"),
        (["--function", "-x", PAIR], "argument --function: expected one argument"),
        ([PAIR, "--check-inline", "main"], "argument --check-inline: expected 2 arguments"),
    ):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"{USAGE}mwpflow: error: {message}\n")


def test_accepted_forms(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("-dash.imp").write_text("function main(){ X1 = X2; }\n")
    # "--" before a file name that starts with "-"; = forms; a negative
    # number as a value; a repeated option keeps its last value.
    assert vars(read_argv(["--json", "--", "-dash.imp"])) == vars(
        build_parser().parse_args(["--json", "--", "-dash.imp"]))
    code, out, err = _run(["analyze", "--json", "--", "-dash.imp"])
    assert (code, out[:16], err) == (0, '{\n  "functions":', "")
    opts = read_argv(["--function=f", PAIR, "--eval", "-1", "--eval=0", "--function", "main"])
    assert (opts.file, opts.function, opts.eval_picks) == (PAIR, "main", "0")
    assert read_argv(["--check-inline", "main", "f", PAIR]).check_inline == ["main", "f"]
    assert read_argv(["analyze", "analyze"]).file == "analyze"
