"""The CLI surface, pinned byte for byte.

tests/golden/cli_surface.json holds the exit code, stdout and stderr of
`main` for the `--help` text of `matsep` and of every subcommand, for the
argument errors argparse reports, and for every document command run on
a document of each of the four kinds, recorded at an 80-column terminal
before the subcommands and their document kinds moved into one command
table.  Document commands run from tests/golden/, so the report echoes
each document's bare file name.  The parser of a call declares only the
arguments of the subcommand its command line names, and the other
subcommands have no -h; on help, usage errors and runs it answers as the
parser that declares them all.
"""

import argparse
import json
from pathlib import Path

import pytest

from matsep import cli
from helpers import full_parser, run_main

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


DOCUMENT = {cmd: DOCUMENTS["left-pair" if cmd in ("curve", "separate") else "lr-pair"]
            for cmd in DOCUMENT_COMMANDS}
PARSE_SHAPES = [[], ["-h"], ["--", "counts", "--n", "4"], ["certify", "--claims", "counts"],
                ["counts", "--n", "4", "--format", "xml"], ["counts", "extra"],
                ["-h", "counts", "--n"], ["identities", "counts"], ["--n", "4", "counts"],
                ["--format", "text", "counts", "--n", "4"], ["bogus", "-h"],
                ["counts", "--n", "4", "separate"]]
PARSE_SHAPES += [[cmd, "-h"] for cmd in SUBCOMMANDS] + [["bogus", cmd] for cmd in SUBCOMMANDS]
PARSE_SHAPES += [shape for cmd in DOCUMENT_COMMANDS for shape in (
    [cmd], [cmd, DOCUMENT[cmd]], [cmd, DOCUMENT[cmd], "--format", "xml"],
    [cmd, DOCUMENT[cmd], "extra"])]


@pytest.mark.parametrize("argv", PARSE_SHAPES, ids=" ".join)
def test_main_answers_as_the_full_parser(argv, monkeypatch):
    """Help, usage errors and reports: stdout, stderr and exit code are
    those of a call whose parser declares every subcommand's arguments."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    got = run_main(argv)
    monkeypatch.setattr(cli, "_build_parser", lambda argv: full_parser())
    assert got == run_main(argv)


def _subparsers(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _arguments(subparser) -> list:
    return [(type(a), a.option_strings, a.dest, a.default, a.choices, a.type, a.required)
            for a in subparser._actions]


@pytest.mark.parametrize("argv", PARSE_SHAPES, ids=" ".join)
def test_only_the_named_subparser_declares_arguments(argv):
    """Exactly the subparser argv names has actions: its -h and the
    arguments the full parser gives it.  The others have none, not even
    -h."""
    named = next((arg for arg in argv if arg in SUBCOMMANDS), None)
    full = _subparsers(full_parser())
    got = _subparsers(cli._build_parser(argv))
    assert list(got) == list(full)
    for name, subparser in got.items():
        assert _arguments(subparser) == (_arguments(full[name]) if name == named else [])
    if named is not None:
        assert _arguments(got[named])[0][:2] == (argparse._HelpAction, ["-h", "--help"])
