"""CI guard: no wide signatures in ``core/`` or ``parallel/``, one worker
contract.

Options travel as two records (:mod:`repro.parallel.options`), so no
function in the two packages that carry them needs a long parameter
list; a new knob is a record field, not a parameter threaded through
five layers.  A job carries only what differs between sessions.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from repro.parallel import EngineOptions, PoolOptions, SessionJob, StreamJob

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MAX_PARAMETERS = 8

#: Every value a pool run can be configured with: the two records
#: together hold exactly these, so none can be added in passing.
OPTION_NAMES = {
    "workers", "policy", "model_kwargs", "checkers", "anycast_whitelist",
    "strategy", "strategy_seed", "constraint_cache", "force_serial", "budget",
    "queue_capacity", "max_inflight", "coverage_guided", "as_rotation",
    "job_deadline", "retry_budget", "max_restarts", "restart_backoff",
    "chaos", "autoscale", "min_workers", "max_workers", "autoscale_interval",
}


def parameter_count(node: ast.FunctionDef) -> int:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return len([name for name in names if name not in ("self", "cls")])


def wide_functions():
    for package in ("core", "parallel"):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    count = parameter_count(node)
                    if count > MAX_PARAMETERS:
                        where = path.relative_to(SRC)
                        yield f"{where}:{node.lineno} {node.name} ({count})"


def test_no_function_takes_more_than_eight_parameters():
    assert list(wide_functions()) == []


def test_the_walk_sees_the_packages():
    # Guard the guard: an empty walk would pass vacuously.
    assert (SRC / "parallel" / "stream.py").is_file()
    tree = ast.parse((SRC / "core" / "federation.py").read_text())
    assert any(isinstance(n, ast.FunctionDef) for n in ast.walk(tree))


def test_a_stream_job_carries_only_what_differs_between_sessions():
    assert {f.name for f in fields(StreamJob)} == {
        "index", "epoch", "peer", "observed", "node", "seq", "chaos",
    }


def test_a_session_job_carries_one_engine_options():
    assert {f.name for f in fields(SessionJob)} == {
        "index", "checkpoint", "peer", "observed", "options", "cache", "node",
    }


def test_the_records_partition_the_options():
    engine = {f.name for f in fields(EngineOptions)}
    pool = {f.name for f in fields(PoolOptions)}
    assert engine.isdisjoint(pool)
    assert engine | pool == OPTION_NAMES


def test_an_unknown_option_is_a_type_error():
    from repro.parallel import StreamingExplorer

    with pytest.raises(TypeError, match="force_seral"):
        StreamingExplorer(force_seral=True)
