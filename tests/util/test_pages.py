"""Tests for page-level memory accounting (the section 4.1 page image)."""

import pytest
from hypothesis import given, strategies as st

from repro.checkpoint.manager import PAGE_SIZE, CheckpointManager, PageSet, paginate


def image(data: bytes) -> PageSet:
    """A one-segment page image."""
    return PageSet.from_segments([data])


class TestPaginate:
    def test_exact_pages(self):
        assert len(paginate(b"x" * (3 * PAGE_SIZE))) == 3

    def test_partial_last_page(self):
        assert len(paginate(b"x" * (PAGE_SIZE + 1))) == 2

    def test_empty(self):
        assert paginate(b"") == []

    def test_identical_content_identical_digests(self):
        a = paginate(b"a" * PAGE_SIZE + b"b" * PAGE_SIZE)
        b = paginate(b"a" * PAGE_SIZE + b"b" * PAGE_SIZE)
        assert a == b


class TestPageSet:
    def test_identical_images_share_everything(self):
        data = bytes(range(256)) * 64
        a = image(data)
        b = image(data)
        assert a.unique_pages(b) == 0
        assert a.unique_fraction(b) == 0.0

    def test_disjoint_images_share_nothing(self):
        a = image(b"a" * PAGE_SIZE * 4)
        b = image(b"b" * PAGE_SIZE * 4)
        assert a.unique_fraction(b) == 1.0

    def test_multiset_semantics(self):
        # Two identical pages in one image count as two resident pages.
        double = image(b"a" * PAGE_SIZE * 2)
        single = image(b"a" * PAGE_SIZE)
        assert len(double) == 2
        assert double.unique_pages(single) == 1

    def test_segments_are_independent(self):
        # Growth in the first segment must not dirty the second's pages.
        seg2 = b"s" * (PAGE_SIZE * 3)
        before = PageSet.from_segments([b"a" * 100, seg2])
        after = PageSet.from_segments([b"a" * 150, seg2])
        assert after.unique_pages(before) == 1  # only segment 1's page

    def test_growth_fraction(self):
        base = image(b"a" * PAGE_SIZE * 10)
        grown = PageSet.from_segments(
            [b"a" * PAGE_SIZE * 10, b"new" * PAGE_SIZE]
        )
        assert grown.growth_fraction(base) == pytest.approx(
            grown.unique_pages(base) / 10
        )

    def test_empty_baseline(self):
        empty = image(b"")
        other = image(b"x" * PAGE_SIZE)
        assert other.growth_fraction(empty) == 0.0
        assert empty.unique_fraction(other) == 0.0

    @given(st.binary(max_size=PAGE_SIZE * 4), st.binary(max_size=PAGE_SIZE * 4))
    def test_unique_fraction_bounds(self, a, b):
        sa = image(a)
        sb = image(b)
        assert 0.0 <= sa.unique_fraction(sb) <= 1.0

    @given(st.binary(min_size=1, max_size=PAGE_SIZE * 4))
    def test_self_comparison_is_zero(self, data):
        s = image(data)
        assert s.unique_pages(s) == 0


class BlobNode:
    """A Checkpointable node whose whole image is one byte segment."""

    def __init__(self, blob: bytes):
        self.blob = blob

    def checkpoint_state(self):
        return self.blob

    def snapshot_segments(self):
        return {"blob": self.blob}

    @classmethod
    def restore_from_state(cls, state, env):
        return cls(state)


class TestPageStore:
    """The physical page pool a manager's memory report describes.

    ``resident_pages`` counts the distinct pages behind the live image,
    every checkpoint and every clone — what a COW kernel would allocate —
    and ``virtual_pages`` sums their sizes without sharing.
    """

    def test_sharing_accounting(self):
        manager = CheckpointManager()
        manager.checkpoint(BlobNode(b"a" * PAGE_SIZE * 5))  # live + checkpoint
        report = manager.memory_report()
        assert report.resident_pages == 1  # all ten pages identical content
        assert report.virtual_pages == 10

    def test_distinct_content_not_shared(self):
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(BlobNode(bytes([1]) * PAGE_SIZE))
        manager.clone(checkpoint).node.blob = bytes([2]) * PAGE_SIZE
        assert manager.memory_report().resident_pages == 2

    def test_unregister_releases(self):
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(BlobNode(b"a" * PAGE_SIZE))
        record = manager.clone(checkpoint)
        record.node.blob = b"b" * PAGE_SIZE
        assert manager.memory_report().resident_pages == 2
        manager.release(record.name)
        assert manager.memory_report().resident_pages == 1

    def test_reregister_replaces(self):
        manager = CheckpointManager()
        manager.register_live(BlobNode(b"1" * PAGE_SIZE))
        manager.register_live(BlobNode(b"2" * PAGE_SIZE))
        assert manager.memory_report().virtual_pages == 1

    def test_unregister_unknown_is_noop(self):
        manager = CheckpointManager()
        manager.register_live(BlobNode(b"a" * PAGE_SIZE))
        before = manager.memory_report()
        manager.release_all_clones()  # there are none
        assert manager.memory_report() == before

    def test_empty_store_ratio(self):
        manager = CheckpointManager()
        manager.register_live(BlobNode(b""))
        report = manager.memory_report()
        assert report.resident_pages == 0
        assert report.sharing_ratio == 1.0
