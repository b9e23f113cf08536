"""How pda-press tells an input from an option, as a table.

An input is a word after the first "--", a negative number, or a word that
does not start with "-"; any other word that is no option of the verb group
is an argparse error (exit 2) naming it.  tests/test_cli.py runs the table
under pytest; it needs only the standard library, so it also runs alone,
on an interpreter without pytest:

    PYTHONPATH=src python tests/cli_contract.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

from pdapress.cli import main

FILES = {
    "even.updpa": "states: q0 q1\nstack: _\ninitial: q0\nfinal: q0\n"
                  "q0 a _ -> q1 _\nq1 a _ -> q0 _\n",
    "p101.slp": "alphabet: 01\nS -> 1 0 1\n",
    "-p101.slp": "alphabet: 01\nS -> 1 0 1\n",
}

# (command line, exit code, a text that names the word): the text is on
# stdout for a verdict or a value, and on stderr for an error, which exits 2
# after "error:" from the handler or after the usage line from argparse
CASES = [
    # after "--" a word that starts with "-" is an input
    (["slp", "len", "--", "-p101.slp"], 0, "3"),
    (["decide", "member", "even.updpa", "--", "-x"], 2, "error: invalid literal"),
    (["decide", "member", "even.updpa", "--", "--json"], 2, "'--json'"),
    # a negative number is an input, and reaches the handler
    (["sim", "prefix", "even.updpa", "-3"], 2, "error: prefix length -3"),
    (["slp", "query", "p101.slp", "-1"], 2, "error: position -1"),
    # an option with "=", and an abbreviated option
    (["slp", "compare", "p101.slp", "p101.slp", "--budget=0"], 3, "budget exceeded"),
    (["slp", "compare", "p101.slp", "p101.slp", "--bud", "0"], 3, "budget exceeded"),
    (["slp", "compare", "p101.slp", "--bud=5", "p101.slp"], 0, "yes"),
    # an unknown option after the inputs or between them, and a lone "-"
    (["decide", "member", "even.updpa", "4", "--nope"], 2, "unrecognized arguments: --nope"),
    (["decide", "member", "even.updpa", "--nope", "4"], 2, "unrecognized arguments: --nope"),
    (["slp", "len", "p101.slp", "-x"], 2, "unrecognized arguments: -x"),
    (["slp", "len", "-"], 2, "unrecognized arguments: -"),
    # a missing verb; the verb comes before "--"
    (["decide"], 2, "required: what"),
    (["decide", "--json"], 2, "required: what"),
    (["decide", "--", "member", "even.updpa", "4"], 2, "required: what"),
]


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code, counting an argparse error (SystemExit) as its code,
    with what it wrote to stdout and stderr; run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def check(argv: list[str], code: int, word: str) -> None:
    got, out, err = outcome(argv)
    assert got == code and word in (err if code == 2 else out), (argv, got, out, err)


@contextlib.contextmanager
def in_files():
    """A fresh directory holding FILES, as the current directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                f.write(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


if __name__ == "__main__":
    with in_files():
        for case in CASES:
            check(*case)
    print(f"{len(CASES)} cases pass on Python {sys.version.split()[0]}")
