"""Malformed ``repro.schedule-stream/1`` exports for the CLI tests.

Each entry of :data:`MALFORMED` is a ``mutate(lines)`` callable that
breaks a valid export (a list of JSON lines, header first) in place and
returns the 1-based number of the line the reader must name.
"""

from __future__ import annotations

import json

import pytest


def _edit_epoch(field, edit):
    """Apply ``edit(entry, k)`` to the first ``field`` entry of the
    first epoch line that has one."""

    def mutate(lines):
        k = json.loads(lines[0])["k"]
        for i, line in enumerate(lines[1:], start=1):
            data = json.loads(line)
            if data.get(field):
                edit(data[field][0], k)
                lines[i] = json.dumps(data)
                return i + 1
        raise AssertionError(f"no epoch line with {field}")

    return mutate


def _set_region(entry, k):
    entry[0] = k


def _set_qubit(value):
    def edit(entry, k):
        entry[1][0][2][0] = value

    return edit


def _set_gate(entry, k):
    entry[1][0][1] = 10**6


def _set_location(move, k):
    move[2] = ["mars"]


def _header_not_object(lines):
    lines[0] = "[]"
    return 1


def _line_not_object(lines):
    lines[1] = "42"
    return 2


def _truncate(lines):
    del lines[-2:]  # the footer and the last epoch
    return len(lines) + 1


MALFORMED = [
    pytest.param(_edit_epoch("regions", _set_region), id="region-k"),
    pytest.param(_edit_epoch("regions", _set_qubit(-1)), id="qubit-negative"),
    pytest.param(_edit_epoch("regions", _set_qubit(10**6)), id="qubit-range"),
    pytest.param(_edit_epoch("regions", _set_gate), id="gate-range"),
    pytest.param(_edit_epoch("moves", _set_location), id="location"),
    pytest.param(_header_not_object, id="header-not-object"),
    pytest.param(_line_not_object, id="line-not-object"),
    pytest.param(_truncate, id="truncated"),
]


def write_mutated(source, mutate, dest):
    """Copy the export at ``source`` to ``dest`` broken by ``mutate``;
    returns the line number the reader must name."""
    with open(source) as fh:
        lines = fh.read().splitlines()
    bad_line = mutate(lines)
    with open(dest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return bad_line


def assert_located(err, bad_line):
    """One ``error:`` line naming ``bad_line``, and no traceback."""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert "invalid schedule stream" in errors[0]
    assert f"line {bad_line}:" in errors[0]
    assert "Traceback" not in err
