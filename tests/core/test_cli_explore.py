"""The ``repro explore`` batch flags on the paper's Fig. 2 testbed.

``--workers N`` and ``--all-seeds`` explore every observed seed buffer
as one batch; ``--stream`` feeds the same seeds through the streaming
pool.  Whatever engine runs them, the same seeds must give the same
finding count, and the printed summary must keep its keys.
"""

import pytest

from repro.cli import main

FIG2 = ["explore", "--prefixes", "300", "--updates", "60", "--executions", "4"]

#: What the batch summary has always printed.
BATCH_KEYS = {
    "sessions",
    "workers",
    "used_processes",
    "total_executions",
    "executions_per_second",
    "findings",
    "leaked_prefixes",
    "wall_seconds",
    "cache_hits",
    "cache_misses",
}


def run_explore(capsys, *flags):
    """Exit code and the printed ``key: value`` summary of one run."""
    code = main(FIG2 + list(flags))
    out = capsys.readouterr().out
    summary = {}
    for line in out.splitlines():
        if line.startswith("  ") and ": " in line and not line.startswith("  ["):
            key, value = line.strip().split(": ", 1)
            summary[key] = value
    return code, summary


@pytest.fixture(scope="module")
def streamed_findings():
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(FIG2 + ["--stream", "--workers", "2"]) == 0
    for line in buffer.getvalue().splitlines():
        if line.strip().startswith("findings: "):
            return int(line.split(": ", 1)[1])
    raise AssertionError("the streamed run printed no findings count")


@pytest.mark.parametrize("flags", [["--workers", "2"], ["--all-seeds"]])
def test_batch_flags_match_the_stream(capsys, streamed_findings, flags):
    code, summary = run_explore(capsys, *flags)
    assert code == 0
    assert BATCH_KEYS <= set(summary)
    assert int(summary["sessions"]) > 1
    assert int(summary["findings"]) == streamed_findings
