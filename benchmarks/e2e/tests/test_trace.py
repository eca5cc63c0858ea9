import json
import time

import pytest

import layers
import trace
from trace import END, NAME, PARENT, START, Tracer


def test_local_trace_module_is_the_one_imported():
    # benchmarks/e2e/trace.py shadows the stdlib module of the same name.
    assert hasattr(trace, "Tracer")


class Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.01)

    @classmethod
    def make(cls):
        return cls()

    @staticmethod
    def double(x):
        return 2 * x

    def boom(self):
        raise RuntimeError("boom")


def test_self_time_and_parent_links_on_a_nested_call():
    tracer = Tracer(run_id="toy")
    with tracer.installed([(Toy, "outer", "outer"), (Toy, "inner", "inner")]):
        with tracer.span("root"):
            assert Toy().outer() == "done"
    names = [span[NAME] for span in tracer.spans]
    assert names == ["root", "outer", "inner", "inner"]
    assert [span[PARENT] for span in tracer.spans] == [-1, 0, 1, 1]
    assert all(span[END] >= span[START] for span in tracer.spans)

    own = tracer.self_times()
    outer = tracer.spans[1][END] - tracer.spans[1][START]
    inner = sum(s[END] - s[START] for s in tracer.spans[2:])
    assert own["inner"] == pytest.approx(inner)
    assert own["outer"] == pytest.approx(outer - inner)
    assert own["outer"] >= 0.02 and own["inner"] >= 0.02
    # Self times partition the root: nothing is counted twice or lost.
    root = tracer.spans[0][END] - tracer.spans[0][START]
    assert sum(own.values()) == pytest.approx(root)
    assert tracer.calls() == {"root": 1, "outer": 1, "inner": 2}
    assert tracer.child_cover(0) == pytest.approx(outer / root)
    assert tracer.inclusive(["outer", "inner"]) == pytest.approx(outer)


def test_wrapped_attributes_are_restored_to_the_original_objects():
    originals = {name: vars(Toy)[name] for name in ("outer", "make", "double")}
    tracer = Tracer()
    with tracer.installed([
        (Toy, "outer", "outer"),
        (Toy, "make", "make", lambda toy: 1),
        (Toy, "double", "double"),
    ]):
        assert vars(Toy)["outer"] is not originals["outer"]
        assert isinstance(vars(Toy)["make"], classmethod)
        assert isinstance(vars(Toy)["double"], staticmethod)
        assert isinstance(Toy.make(), Toy)
        assert Toy.double(4) == 8
    for name, original in originals.items():
        assert vars(Toy)[name] is original
    assert tracer.values == {"make": 1}
    assert tracer.calls() == {"make": 1, "double": 1}


def test_restore_happens_after_an_exception_and_the_span_is_closed():
    original = vars(Toy)["boom"]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed([(Toy, "boom", "boom")]):
            Toy().boom()
    assert vars(Toy)["boom"] is original
    assert tracer.spans[0][END] >= tracer.spans[0][START] > 0
    assert tracer._stack == []


def test_a_disabled_tracer_calls_through_without_recording():
    tracer = Tracer()
    with tracer.installed([(Toy, "inner", "inner")]):
        tracer.enabled = False  # what a forked pool worker's copy does
        Toy().inner()
    assert tracer.spans == []


def test_every_pinned_callable_is_restored_after_a_traced_run():
    pins = layers.pins()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in pins]
    tracer = Tracer()
    with pytest.raises(KeyError):
        with tracer.installed(pins):
            assert all(
                vars(owner)[attr] is not original
                for owner, attr, original in originals
            )
            raise KeyError("mid-run failure")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)
    # Every span the pins can produce feeds a named layer metric.
    assert {pin[2] for pin in pins} <= set(layers.SPAN_LAYER)


def test_jsonl_has_one_line_per_span(tmp_path):
    tracer = Tracer(run_id="r1")
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["id"], r["parent"], r["name"], r["run"]) for r in rows] == [
        (0, -1, "a", "r1"), (1, 0, "b", "r1"),
    ]
