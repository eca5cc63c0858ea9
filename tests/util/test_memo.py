"""Every long-lived table is a bounded :class:`~repro.util.memo.Memo`.

The process-global memos are listed by :func:`registry`; each is driven
past its (shrunk) bound through the function that owns it, as are the
per-instance constraint tables.  A source scan keeps hand-rolled tables
(a bound constant or a counter dict beside a dict) from growing back.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.bgp.config import parse_config_cached
from repro.bgp.messages import NotificationMessage, decode_message
from repro.concolic.solver.cache import DictConstraintCache, SemanticIndex
from repro.core.privacy import origin_digest, prefix_digest
from repro.topology import AsGraph
from repro.topology.graph import render_structured
from repro.util.ip import Prefix
from repro.util.memo import Memo, clear_all, registry

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith("__main__"):
        importlib.import_module(_module.name)

SRC = Path(repro.__file__).resolve().parent
SALT = b"salt"
BOUND = 4


def prefix(i):
    return Prefix((10 << 24) | (i << 8), 24)


def stub_with_networks(i):
    """A lone stub whose template key differs by its network count."""
    graph = AsGraph()
    graph.add_as("a", networks=tuple(prefix(n) for n in range(i + 1)))
    return render_structured(graph, "a")


#: Registered name -> one call of its owner that inserts a distinct key.
OWNERS = {
    "bgp.decode": lambda i: decode_message(NotificationMessage(6, i).encode()),
    "bgp.config.parse": lambda i: parse_config_cached(
        f"router bgp {65000 + i};\nrouter-id 10.0.0.1;\n"
    ),
    "topology.structural": stub_with_networks,
    "privacy.prefix_digest": lambda i: prefix_digest(SALT, prefix(i)),
    "privacy.origin_digest": lambda i: origin_digest(SALT, prefix(0), 64512 + i),
}


def drive_past_bound(memo, insert, monkeypatch):
    """Insert ``BOUND + 3`` distinct keys and check the FIFO bound held."""
    monkeypatch.setattr(memo, "bound", BOUND)
    memo.clear()
    inserts = BOUND + 3
    for i in range(inserts):
        insert(i)
        assert len(memo) <= memo.bound
    assert len(memo) == BOUND
    assert memo.evictions == inserts - BOUND
    hits = memo.hits
    insert(inserts - 1)  # the newest key is kept
    assert memo.hits == hits + 1
    insert(0)  # the oldest was evicted
    assert memo.hits == hits + 1


def test_registry_lists_every_process_global_table():
    assert set(registry()) == set(OWNERS)
    OWNERS["bgp.decode"](0)
    clear_all()
    assert all(
        memo.info() == {"hits": 0, "misses": 0, "evictions": 0, "size": 0,
                        "bound": memo.bound}
        for memo in registry().values()
    )


def test_bound_must_be_positive_and_names_unique():
    with pytest.raises(ValueError, match="bound"):
        Memo(0)
    with pytest.raises(ValueError, match="already registered"):
        Memo(BOUND, "bgp.decode")


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_registered_memo_holds_its_bound(name, monkeypatch):
    memo = registry()[name]
    try:
        drive_past_bound(memo, OWNERS[name], monkeypatch)
    finally:
        memo.clear()


@pytest.mark.parametrize("name", ["privacy.prefix_digest", "privacy.origin_digest"])
def test_digest_memos_evict_one_at_a_time(name, monkeypatch):
    memo = registry()[name]
    monkeypatch.setattr(memo, "bound", BOUND)
    memo.clear()
    try:
        first = OWNERS[name](0)
        for i in range(1, BOUND + 1):
            OWNERS[name](i)
        assert len(memo) == BOUND  # not emptied wholesale when full
        assert OWNERS[name](0) == first  # an evicted digest recomputes equal
    finally:
        memo.clear()


def exact_insert(cache):
    def insert(i):
        key = bytes((i,))
        if cache.get(key) is None:
            cache.put(key, ("unsat",))

    return insert


def test_constraint_tables_hold_their_bounds(monkeypatch):
    exact = DictConstraintCache()
    drive_past_bound(exact, exact_insert(exact), monkeypatch)
    index = SemanticIndex()
    drive_past_bound(
        index._index,
        lambda i: index.put(bytes((i,)), {"x": (0, 10)}, ("unsat",)),
        monkeypatch,
    )


HAND_ROLLED = re.compile(r"_(CACHE|MEMO)_MAX$|^_[A-Z_]+_STATS$")


def hand_rolled_tables(root):
    """``module:name`` of module-level bound constants and counter dicts."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and HAND_ROLLED.search(target.id):
                    found.append(f"{path.relative_to(root)}:{target.id}")
    return found


def test_no_hand_rolled_tables():
    found = hand_rolled_tables(SRC)
    assert not found, (
        f"hand-rolled bounded tables {found}: keep long-lived tables in a "
        "repro.util.memo.Memo, which bounds, counts and registers them"
    )
