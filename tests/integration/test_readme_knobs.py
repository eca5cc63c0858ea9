"""The README's pool knob tables, checked against ``PoolOptions``.

The "Supervisor knobs" and "Service mode" tables document pool options
by name and default; both are parsed here and every row must name a
:class:`~repro.parallel.options.PoolOptions` field and state its
default, so the prose cannot advertise a knob the code does not take.
"""

import ast
import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from repro.parallel import PoolOptions

README = Path(__file__).resolve().parents[2] / "README.md"
HEADER = "| Knob | Default | Meaning |"


def knob_table(anchor: str):
    """``[(name, default text)]`` of the first knob table after ``anchor``."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(anchor))
    header = next(i for i in range(start, len(lines)) if lines[i] == HEADER)
    rows = []
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        knob, default = [cell.strip() for cell in line.strip("|").split("|")][:2]
        rows.append((knob, default))
    return rows


def first_code(cell: str) -> str:
    match = re.match(r"`([^`]+)`", cell)
    assert match, f"no `code` in table cell {cell!r}"
    return match.group(1)


DEFAULTS = {f.name: f.default for f in fields(PoolOptions)}


@pytest.mark.parametrize("anchor", ["**Supervisor knobs**", "## Service mode"])
def test_every_knob_is_a_pool_option_with_its_default(anchor):
    rows = knob_table(anchor)
    assert rows
    for knob, default in rows:
        name = first_code(knob)
        assert knob == f"`{name}`", f"one knob per row: {knob!r}"
        assert name in DEFAULTS, f"{name!r} is not a PoolOptions field"
        assert DEFAULTS[name] is not MISSING
        assert ast.literal_eval(first_code(default)) == DEFAULTS[name], name
