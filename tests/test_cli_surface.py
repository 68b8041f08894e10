"""The CLI surface, pinned byte for byte.

tests/golden/cli_surface.json holds the exit code, stdout and stderr of
`main` for the `--help` text of `matsep` and of every subcommand, for the
argument errors argparse reports, and for every document command run on
a document of each of the four kinds, recorded at an 80-column terminal
before the subcommands and their document kinds moved into one command
table.  Document commands run from tests/golden/, so the report echoes
each document's bare file name.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from matsep.cli import main

GOLDEN = Path(__file__).parent / "golden"
PINS = json.loads((GOLDEN / "cli_surface.json").read_text(encoding="utf-8"))

SUBCOMMANDS = ("invariants", "separate", "stability", "nullcone", "phi", "classify",
               "graph", "curve", "certify", "identities", "counts")
DOCUMENT_COMMANDS = SUBCOMMANDS[:8]
DOCUMENTS = {"lr-tuple": "lr_fractional_n6.json",
             "lr-pair": "graph_upper_n5.json",
             "left-matrix": "left_full_l4_n6.json",
             "left-pair": "graph_left_l3_n6.json"}

CASES = {"help": ["--help"]}
CASES.update({f"help-{cmd}": [cmd, "--help"] for cmd in SUBCOMMANDS})
CASES.update({
    "no-subcommand": [],
    "unknown-subcommand": ["frobnicate"],
    "missing-file": ["invariants"],
    "counts-n-not-int": ["counts", "--n", "x"],
    "certify-n-not-int": ["certify", "--n", "x"],
    "unknown-format": ["separate", "graph_upper_n5.json", "--format", "yaml"],
})
CASES.update({f"{cmd}-{kind}": [cmd, doc] for cmd in DOCUMENT_COMMANDS
              for kind, doc in DOCUMENTS.items()})


def run_main(argv) -> dict:
    """Exit code, stdout and stderr of one CLI call; argparse's own exits
    (help, usage errors) are caught and reported like returns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_every_pin_has_a_case():
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_surface_matches_pin(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    pin = PINS[case]
    assert pin["argv"] == CASES[case]
    got = run_main(CASES[case])
    assert (got["code"], got["stderr"]) == (pin["code"], pin["stderr"])
    assert got["stdout"] == pin["stdout"]


def test_wrong_document_kinds_are_precondition_errors():
    """Every document command refuses at least one kind, with one line."""
    for cmd in DOCUMENT_COMMANDS:
        refusals = [PINS[f"{cmd}-{kind}"] for kind in DOCUMENTS
                    if PINS[f"{cmd}-{kind}"]["stderr"].startswith(f"precondition violated: {cmd} needs ")]
        assert refusals, cmd
        for pin in refusals:
            assert (pin["code"], pin["stdout"]) == (3, "")
            assert pin["stderr"].endswith(" document\n") and pin["stderr"].count("\n") == 1


def test_main_reads_the_terminal_width_once(monkeypatch):
    """A report, a document report, help and a usage error each make one
    terminal query: every formatter of the call's parser shares it."""
    import shutil
    calls, query = [], shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return query(*args, **kwargs)
    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    monkeypatch.chdir(GOLDEN)
    for argv, code in ((["counts", "--n", "4"], 0), (["nullcone", DOCUMENTS["lr-tuple"]], 0),
                       (["certify", "--help"], 0), (["counts", "--n", "x"], 2)):
        calls.clear()
        assert run_main(argv)["code"] == code
        assert len(calls) == 1, argv


@pytest.mark.parametrize("columns, wraps", [("200", False), ("40", True)])
def test_help_follows_the_terminal_width(columns, wraps, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    usage = run_main(["--help"])["stdout"].split("\n\n")[0]
    assert usage.startswith("usage: matsep [-h]") and "{invariants," in usage
    assert ("\n" in usage) is wraps
