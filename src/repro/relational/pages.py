"""Paged row storage behind an LRU buffer pool.

Tables keep their rows in fixed-capacity pages.  A page is either *resident*
(a Python list of row tuples held in the buffer pool) or *evicted* (a pickled
byte blob owned by the table).  Every row access goes through
:class:`BufferPool`, so shrinking the pool converts row accesses into real
deserialization work — this is how the paper's memory-size experiment
(Figure 8c) is reproduced without fake sleeps.

Deleted slots are stored as ``None``; live rows are always tuples, so the two
cannot be confused.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict

PAGE_CAPACITY = 256
"""Number of row slots per page."""


class PageFrame:
    """A resident page: its rows plus a dirty flag."""

    __slots__ = ("rows", "dirty")

    def __init__(self, rows, dirty=False):
        self.rows = rows
        self.dirty = dirty


class BufferPool:
    """An LRU cache of resident pages shared by all tables of a database.

    :param capacity_pages: maximum number of resident pages, or ``None`` for
        an unbounded pool (everything stays in memory).
    """

    def __init__(self, capacity_pages=None):
        if capacity_pages is not None and capacity_pages < 1:
            raise ValueError("buffer pool needs capacity of at least one page")
        self.capacity_pages = capacity_pages
        self._frames: OrderedDict[tuple[str, int], PageFrame] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._frames)

    def resize(self, capacity_pages):
        """Change the pool capacity, evicting pages if it shrank."""
        self.capacity_pages = capacity_pages
        if capacity_pages is not None:
            while len(self._frames) > capacity_pages:
                self._evict_one()

    def reset_counters(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def fetch(self, table, page_no, for_write=False):
        """Return the row list of page *page_no* of *table*.

        The returned list is the live page content; callers that mutate it
        must pass ``for_write=True`` so the dirty flag is set.
        """
        key = (table.name, page_no)
        frame = self._frames.get(key)
        if frame is not None:
            self._frames.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
            blob = table.page_blob(page_no)
            rows = pickle.loads(blob) if blob is not None else []
            frame = PageFrame(rows)
            self._frames[key] = frame
            self._maybe_evict()
        if for_write:
            frame.dirty = True
        return frame.rows

    def add_page(self, table, page_no, rows):
        """Register a brand new (dirty) page created by an insert."""
        key = (table.name, page_no)
        self._frames[key] = PageFrame(rows, dirty=True)
        self._frames.move_to_end(key)
        self._maybe_evict()

    def flush_table(self, table):
        """Serialize and drop every resident page belonging to *table*."""
        keys = [key for key in self._frames if key[0] == table.name]
        for key in keys:
            self._write_back(key, self._frames.pop(key))

    def drop_table(self, table_name):
        """Discard resident pages of a dropped (or truncated) table without
        write-back; returns them as ``{page_no: frame}``."""
        keys = [key for key in self._frames if key[0] == table_name]
        return {key[1]: self._frames.pop(key) for key in keys}

    def adopt_pages(self, table_name, frames):
        """Make *frames* (from :meth:`drop_table`) resident again."""
        for page_no, frame in frames.items():
            self._frames[(table_name, page_no)] = frame
        self._maybe_evict()

    def clear(self):
        """Evict (with write-back) every resident page.

        Used by benchmarks to start from a cold cache.
        """
        while self._frames:
            self._evict_one()

    def flush_all(self):
        """Write back every dirty page, keeping all pages resident.

        Checkpoints of a bounded pool use this so the snapshot sees
        current page blobs without paying the re-deserialization cost
        :meth:`clear` would.
        """
        for key, frame in self._frames.items():
            if frame.dirty:
                self._write_back(key, frame)
                frame.dirty = False

    def page_image(self, table, page_no):
        """The serialized current content of one page of *table*: its
        stored blob, or a pickle of the resident page when that is newer."""
        frame = self._frames.get((table.name, page_no))
        if frame is not None and frame.dirty:
            return pickle.dumps(frame.rows, protocol=5)
        return table.page_blob(page_no)

    def _maybe_evict(self):
        if self.capacity_pages is None:
            return
        while len(self._frames) > self.capacity_pages:
            self._evict_one()

    def _evict_one(self):
        key, frame = self._frames.popitem(last=False)
        self.evictions += 1
        self._write_back(key, frame)

    def _write_back(self, key, frame):
        if not frame.dirty:
            return
        table_name, page_no = key
        table = self._table_resolver(table_name)
        if table is not None:
            table.store_page_blob(page_no, pickle.dumps(frame.rows, protocol=5))

    # The database installs a resolver so evicted dirty pages can be written
    # back to their owning table.  A standalone pool (unit tests) keeps pages
    # resident in the frame map instead.
    def _table_resolver(self, table_name):  # pragma: no cover - overridden
        return None

    def bind_catalog(self, resolver):
        """Install a ``table_name -> HeapTable`` resolver for write-back."""
        self._table_resolver = resolver
