"""Pin the parsed command line: every subcommand's attributes and values.

Each case parses one argv through :func:`repro.cli.main` and stops right
after parsing, then checks every attribute a subcommand is known to
produce, with its value.  Attributes the parser may add for its own
dispatch (such as the handler it routes to) are ignored.
"""

import argparse

import pytest

from repro.cli import main

CASES = [
    (["table1"],
     {"bits": [4, 8, 16], "command": "table1", "journal": None,
      "resume": False, "traceback": False, "workers": None}),
    (["table2", "--bits", "4", "--journal", "j.jsonl", "--resume",
      "--workers", "2"],
     {"bits": [4], "command": "table2", "journal": "j.jsonl",
      "resume": True, "traceback": False, "workers": 2}),
    (["table3", "--bits", "8", "16"],
     {"bits": [8, 16], "command": "table3", "journal": None,
      "resume": False, "traceback": False, "workers": None}),
    (["fig2"],
     {"command": "fig2", "figure_bits": 8, "traceback": False}),
    (["fig3", "--figure-bits", "4"],
     {"command": "fig3", "figure_bits": 4, "traceback": False}),
    (["synth", "ex", "-k", "2", "-a", "1.5", "-b", "0.5", "--bits", "4"],
     {"alpha": 1.5, "benchmark": "ex", "beta": 0.5, "bits": 4,
      "command": "synth", "k": 2, "traceback": False}),
    (["explore", "tseng"],
     {"benchmark": "tseng", "bits": 8, "command": "explore",
      "traceback": False}),
    (["export", "tseng", "--what", "json"],
     {"benchmark": "tseng", "bits": 8, "command": "export",
      "traceback": False, "what": "json"}),
    (["report", "--output", "r.md"],
     {"command": "report", "output": "r.md",
      "rows": "benchmarks/out/rows.jsonl", "traceback": False}),
    (["bench", "ex", "--flow", "camad", "--wall-seconds", "0.5",
      "--journal", "b.jsonl"],
     {"benchmark": "ex", "bits": 8, "command": "bench", "flow": "camad",
      "journal": "b.jsonl", "resume": False, "traceback": False,
      "wall_seconds": 0.5, "workers": None}),
    (["chaos", "--list", "--scenario", "a", "--scenario", "b"],
     {"benchmark": "ex", "bits": 4, "command": "chaos",
      "list_scenarios": True, "scenarios": ["a", "b"], "traceback": False,
      "workdir": None}),
    (["--traceback", "lint", "ex", "x.hdl", "--strict", "--format", "json",
      "--bits", "4", "--no-gates", "--depth-limit", "6"],
     {"bits": 4, "command": "lint", "depth_limit": 6.0, "fmt": "json",
      "list_rules": False, "no_gates": True, "strict": True,
      "targets": ["ex", "x.hdl"], "traceback": True}),
    (["lint", "--list-rules"],
     {"bits": 8, "command": "lint", "depth_limit": 8.0, "fmt": "text",
      "list_rules": True, "no_gates": False, "strict": False,
      "targets": [], "traceback": False}),
    (["analyze"],
     {"bits": 8, "command": "analyze", "flow": "ours", "fmt": "text",
      "strict": False, "targets": [], "traceback": False,
      "verbose": False}),
    (["analyze", "ex", "--flow", "default", "--format", "json", "--bits",
      "4", "--strict", "-v"],
     {"bits": 4, "command": "analyze", "flow": "default", "fmt": "json",
      "strict": True, "targets": ["ex"], "traceback": False,
      "verbose": True}),
]


class _Parsed(Exception):
    """Raised right after parsing so no subcommand runs."""

    def __init__(self, parser: argparse.ArgumentParser,
                 namespace: argparse.Namespace) -> None:
        super().__init__()
        self.parser = parser
        self.namespace = namespace


def _parse(argv, monkeypatch) -> _Parsed:
    original = argparse.ArgumentParser.parse_args

    def stop_after_parsing(self, args=None, namespace=None):
        raise _Parsed(self, original(self, args, namespace))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        stop_after_parsing)
    with pytest.raises(_Parsed) as parsed:
        main(argv)
    return parsed.value


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("argv,expected", CASES,
                         ids=[" ".join(argv) for argv, _ in CASES])
def test_parsed_attributes_are_pinned(argv, expected, monkeypatch):
    parsed = vars(_parse(argv, monkeypatch).namespace)
    assert {key: parsed.get(key, "<missing>") for key in expected} == expected


def test_every_subcommand_is_pinned(monkeypatch):
    commands = _subcommands(_parse(["fig2"], monkeypatch).parser)
    pinned = {expected["command"] for _, expected in CASES}
    assert pinned == set(commands)
