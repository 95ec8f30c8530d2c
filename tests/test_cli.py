"""The ``repro`` command tree: each command accepts only the flags it reads.

Every case here is rejected (or answered) by argument parsing alone, so no
command body runs: no sweep, no daemon, no network.
"""

from __future__ import annotations

import pytest

from repro.cli import main

COMMANDS = [
    ["table1"], ["table2"], ["table3"], ["table4"], ["table5"],
    ["optimize"], ["movement"], ["roofline"], ["calibrate"],
    ["serve"], ["query"], ["trace"], ["register"], ["validate"],
    ["report"], ["rollout"],
    ["fleet"], ["fleet", "serve"], ["fleet", "status"],
]


def _exit_code(argv: list[str]) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_every_command_has_help(command, capsys):
    assert _exit_code([*command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {' '.join(command)}")


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--port", "9"],
        ["table1", "--cap", "300"],
        ["movement", "--sweep-store", "DIR"],
        ["roofline", "--jobs", "2"],
        ["optimize", "--model", "mha"],
        ["serve", "--digest", "x"],
        ["serve", "--role", "worker"],
        ["serve", "--batch", "8"],
        ["query", "--sweep-store", "DIR"],
        ["trace", "--capture", "--health"],
        ["register", "--deep"],
        ["validate", "--all", "--cap", "300"],
        ["report", "--propose"],
        ["rollout", "--records", "FILE"],
        ["fleet", "serve", "--url", "http://127.0.0.1:1"],
        ["fleet", "status", "--port", "1"],
        # Flags follow their command; none are global.
        ["--batch", "8", "table1"],
    ],
    ids=" ".join,
)
def test_a_foreign_flag_is_a_usage_error(argv, capsys):
    assert _exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_a_foreign_flag_is_reported_with_the_commands_usage(capsys):
    assert _exit_code(["fleet", "status", "--port", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro fleet status [-h] [--url URL]")
    assert "unrecognized arguments: --port 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["validate", "--all", "--digest", "abc"],
        ["trace"],
        ["trace", "--capture", "--trace-id", "abc"],
        ["rollout", "--propose", "--promote"],
        ["rollout", "--promote", "--rollback"],
        ["query", "--health", "--metrics"],
        ["fleet"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no-command",
)
def test_missing_or_conflicting_choice_is_a_usage_error(argv, capsys):
    assert _exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_fleet_worker_needs_a_coordinator(capsys):
    assert _exit_code(["fleet", "serve", "--role", "worker", "--port", "0"]) == 2
    assert "--coordinator-url" in capsys.readouterr().err


def test_validate_all_on_an_empty_registry(tmp_path, capsys):
    assert main(["validate", "--all", "--registry", str(tmp_path)]) == 0
    assert "is empty" in capsys.readouterr().out
