"""Tests for paged storage and the LRU buffer pool."""

import pytest

from repro.relational import Database
from repro.relational.pages import PAGE_CAPACITY, BufferPool


def build_table(database, rows):
    database.execute("CREATE TABLE t (x INTEGER)")
    table = database.table("t")
    with database.scope(writes=("t",)):
        for i in range(rows):
            table.insert((i,))
    return table


class TestBufferPool:
    def test_unbounded_pool_never_evicts(self):
        database = Database()
        build_table(database, PAGE_CAPACITY * 5)
        assert database.buffer_pool.evictions == 0

    def test_bounded_pool_evicts(self):
        database = Database(buffer_pool_pages=2)
        build_table(database, PAGE_CAPACITY * 5)
        assert database.buffer_pool.evictions > 0
        assert len(database.buffer_pool) <= 2

    def test_data_survives_eviction(self):
        database = Database(buffer_pool_pages=1)
        rows = PAGE_CAPACITY * 3 + 17
        build_table(database, rows)
        result = database.execute("SELECT COUNT(*), SUM(x) FROM t")
        assert result.rows == [(rows, rows * (rows - 1) // 2)]

    def test_hit_miss_accounting(self):
        database = Database(buffer_pool_pages=1)
        build_table(database, PAGE_CAPACITY * 3)
        database.buffer_pool.reset_counters()
        database.execute("SELECT COUNT(*) FROM t")
        # with a one-page pool every page fetch of the scan is a miss
        assert database.buffer_pool.misses >= 3

    def test_warm_scan_hits(self):
        database = Database()
        build_table(database, PAGE_CAPACITY * 2)
        database.execute("SELECT COUNT(*) FROM t")
        database.buffer_pool.reset_counters()
        database.execute("SELECT COUNT(*) FROM t")
        assert database.buffer_pool.misses == 0
        assert database.buffer_pool.hits >= 2

    def test_resize_shrinks(self):
        database = Database()
        build_table(database, PAGE_CAPACITY * 6)
        assert len(database.buffer_pool) == 6
        database.buffer_pool.resize(2)
        assert len(database.buffer_pool) <= 2
        result = database.execute("SELECT COUNT(*) FROM t")
        assert result.scalar() == PAGE_CAPACITY * 6

    def test_clear_writes_back(self):
        database = Database()
        table = build_table(database, PAGE_CAPACITY + 1)
        database.buffer_pool.clear()
        assert len(database.buffer_pool) == 0
        assert table.storage_bytes() > 0
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == (
            PAGE_CAPACITY + 1
        )

    def test_updates_survive_eviction_cycles(self):
        database = Database(buffer_pool_pages=1)
        table = build_table(database, PAGE_CAPACITY * 2)
        database.execute("UPDATE t SET x = 999 WHERE x = 0")
        database.buffer_pool.clear()
        result = database.execute("SELECT COUNT(*) FROM t WHERE x = 999")
        assert result.scalar() == 1
        assert table.live_rows == PAGE_CAPACITY * 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_drop_table_discards_pages(self):
        database = Database()
        build_table(database, PAGE_CAPACITY)
        database.execute("DROP TABLE t")
        assert len(database.buffer_pool) == 0


class TestFlushAndDrop:
    """Write-back paths used by checkpoints (flush) and DDL (drop)."""

    def test_flush_table_writes_dirty_pages_and_evicts(self):
        database = Database()
        table = build_table(database, PAGE_CAPACITY * 2 + 5)
        pool = database.buffer_pool
        assert table.storage_bytes() == 0  # all pages resident-only, dirty
        resident = len(pool)
        assert resident == 3
        pool.flush_table(table)
        assert len(pool) == 0
        assert table.storage_bytes() > 0
        # no page was lost on the way out
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == (
            PAGE_CAPACITY * 2 + 5
        )

    def test_flush_table_skips_clean_pages(self):
        database = Database()
        table = build_table(database, PAGE_CAPACITY)
        pool = database.buffer_pool
        pool.flush_table(table)
        first_bytes = table.storage_bytes()
        # re-read the page (clean fetch), then flush again: the stored blob
        # must not be rewritten — same object, same size
        blob_before = table.page_blob(0)
        database.execute("SELECT COUNT(*) FROM t")
        pool.flush_table(table)
        assert table.page_blob(0) is blob_before
        assert table.storage_bytes() == first_bytes

    def test_flush_all_keeps_pages_resident(self):
        database = Database()
        table = build_table(database, PAGE_CAPACITY + 3)
        pool = database.buffer_pool
        resident = len(pool)
        pool.flush_all()
        assert len(pool) == resident  # still cached ...
        assert table.storage_bytes() > 0  # ... but durably written back
        pool.reset_counters()
        database.execute("SELECT COUNT(*) FROM t")
        assert pool.misses == 0  # the scan was served from the pool

    def test_flush_all_clears_dirty_flags(self):
        database = Database()
        table = build_table(database, PAGE_CAPACITY)
        pool = database.buffer_pool
        pool.flush_all()
        size = table.storage_bytes()
        # mutate, flush again: write-back happens exactly for the re-dirtied
        database.execute("UPDATE t SET x = -1 WHERE x = 0")
        pool.flush_all()
        assert table.storage_bytes() >= size
        database.buffer_pool.clear()
        assert database.execute(
            "SELECT COUNT(*) FROM t WHERE x = -1"
        ).scalar() == 1

    def test_drop_table_discards_dirty_pages_without_write_back(self):
        database = Database()
        table = build_table(database, PAGE_CAPACITY * 2)
        pool = database.buffer_pool
        assert table.storage_bytes() == 0
        pool.drop_table(table.name)
        assert len(pool) == 0
        # dirty pages were thrown away, not serialized
        assert table.storage_bytes() == 0

    def test_eviction_counter_tracks_pressure_not_flushes(self):
        database = Database(buffer_pool_pages=2)
        table = build_table(database, PAGE_CAPACITY * 4)
        pool = database.buffer_pool
        evictions_after_build = pool.evictions
        assert evictions_after_build > 0  # capacity pressure evicted
        pool.flush_table(table)
        pool.flush_all()
        # flush paths write back but never count as evictions
        assert pool.evictions == evictions_after_build

    def test_flush_table_only_touches_that_table(self):
        database = Database()
        build_table(database, PAGE_CAPACITY)
        database.execute("CREATE TABLE other (y INTEGER)")
        other = database.table("other")
        with database.scope(writes=("other",)):
            for i in range(5):
                other.insert((i,))
        pool = database.buffer_pool
        pool.flush_table(database.table("t"))
        assert len(pool) == 1  # other's page is still resident
        assert other.storage_bytes() == 0
