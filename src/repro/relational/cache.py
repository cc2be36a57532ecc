"""Bounded LRU caches for compiled queries.

Two caches in the engine are built on :class:`LRUCache`:

* the **prepared-statement cache** in :class:`repro.relational.Database`
  (normalized SQL text -> parsed AST + lock sets), and
* the **translation cache** in :class:`repro.core.SQLGraphStore`
  (Gremlin query shape -> learned slot map + translated statements).

Entries are stamped with the database's *schema epoch* at insertion time.
Any DDL (``CREATE TABLE``, ``CREATE INDEX``, ``DROP TABLE`` — and therefore
``create_attribute_index`` and ``reorganize()``, which go through DDL) bumps
the epoch, so a lookup that finds an entry from an older epoch drops it and
reports a miss.  This keeps cached plans honest without the caches having to
know *what* changed.

Both hold at most :data:`DEFAULT_CAPACITY` entries; least-recently-used
entries are evicted.

Each cache keeps always-on integer counters (``hits``/``misses``/
``invalidations``); :meth:`LRUCache.stats` reads them with the size.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

DEFAULT_CAPACITY = 256


class LRUCache:
    """Thread-safe bounded LRU map with epoch validation and counters.

    ``capacity`` bounds the entry count; ``None`` means unbounded.
    ``get``/``put`` take an optional ``epoch``: entries stored under a
    different epoch are treated as invalidated on lookup.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def get(self, key, epoch=None):
        """Return the cached value, or None on miss / stale epoch."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and epoch is not None and entry[0] != epoch:
                del self._entries[key]
                self.invalidations += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key, value, epoch=None):
        with self._lock:
            self._entries[key] = (epoch, value)
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)

    def invalidate_all(self):
        """Drop every entry (counted as invalidations)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.invalidations += dropped
        return dropped

    def stats(self):
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
