"""Graph update "stored procedures" (paper §4.5.2).

Basic CRUD spans multiple tables of the hybrid schema, so each operation is
implemented as one procedure that opens one write scope
(:meth:`~repro.relational.database.Database.scope`) over the tables it
changes and mutates OPA/OSA/IPA/ISA/VA/EA consistently.  The scope takes the
locks and, outside an explicit transaction, makes the procedure its own
transaction: its WAL records reach the commit point before it returns.

* ``add_edge`` locates (or spills) the label's column triad in the primary
  adjacency rows and migrates single values to the secondary tables when a
  label becomes multi-valued;
* ``delete_vertex`` uses the paper's negative-id optimization: the vertex's
  VA and adjacency rows get ``vid := -vid - 1`` (queries filter
  ``vid >= 0``), its EA rows are deleted, and dangling references in other
  vertices' adjacency lists are left for an offline cleanup.
"""

from __future__ import annotations

import threading


class GraphProcedures:
    """CRUD over one loaded SQLGraph schema."""

    def __init__(self, database, schema, out_coloring, in_coloring,
                 lid_start=0):
        self.database = database
        self.schema = schema
        self.out_coloring = out_coloring
        self.in_coloring = in_coloring
        self._next_lid = lid_start
        self._lid_lock = threading.Lock()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _tables(self):
        names = self.schema.table_names
        return {key: self.database.table(name) for key, name in names.items()}

    def _vid_index(self, table):
        return table.indexes[f"{table.name}_vid"]

    def _valid_index(self, table):
        return table.indexes[f"{table.name}_valid"]

    def _allocate_lid(self):
        # concurrent sessions must never mint the same multi-value list id
        with self._lid_lock:
            self._next_lid += 1
            return f"lid:{self._next_lid}"

    # ------------------------------------------------------------------
    # vertices
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id, properties=None):
        va = self._tables()["va"]
        with self.database.scope(writes=(va.name,)):
            va.insert((vertex_id, dict(properties or {})), coerce=False)
        return vertex_id

    def get_vertex_properties(self, vertex_id):
        va = self._tables()["va"]
        with self.database.scope(reads=(va.name,)):
            for rid in va.indexes[f"{va.name}_pk"].lookup(vertex_id):
                row = va.get(rid)
                if row is not None:
                    return row[1]
            return None

    def update_vertex(self, vertex_id, properties):
        """Merge *properties* into the vertex's JSON attributes."""
        table = self._tables()["va"]
        with self.database.scope(writes=(table.name,)):
            for rid in table.indexes[f"{table.name}_pk"].lookup(vertex_id):
                row = table.get(rid)
                if row is None:
                    continue
                attrs = dict(row[1] or {})
                attrs.update(properties)
                table.update(rid, (vertex_id, attrs), coerce=False)
                return True
        return False

    def delete_vertex(self, vertex_id):
        """Negative-id lazy delete (paper §4.5.2)."""
        tables = self._tables()
        names = [
            tables[key].name for key in ("va", "opa", "ipa", "ea", "osa", "isa")
        ]
        with self.database.scope(writes=names):
            tombstone = -vertex_id - 1
            va = tables["va"]
            found = False
            index = va.indexes[f"{va.name}_pk"]
            for rid in list(index.lookup(vertex_id)):
                row = va.get(rid)
                if row is not None:
                    va.update(rid, (tombstone,) + row[1:], coerce=False)
                    found = True
            for key in ("opa", "ipa"):
                table = tables[key]
                vid_index = self._vid_index(table)
                for rid in list(vid_index.lookup(vertex_id)):
                    row = table.get(rid)
                    if row is not None:
                        table.update(rid, (tombstone,) + row[1:], coerce=False)
            # delete the vertex's EA rows (both directions)
            ea = tables["ea"]
            for column in ("outv", "inv"):
                ea_index = ea.indexes[f"{ea.name}_{column}"]
                for rid in list(ea_index.lookup(vertex_id)):
                    ea.delete(rid)
        return found

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, edge_id, out_vertex_id, in_vertex_id, label,
                 properties=None):
        tables = self._tables()
        names = [
            tables[key].name for key in ("ea", "opa", "osa", "ipa", "isa")
        ]
        with self.database.scope(writes=names):
            tables["ea"].insert(
                (edge_id, out_vertex_id, in_vertex_id, label,
                 dict(properties or {})),
                coerce=False,
            )
            self._adjacency_insert(
                tables["opa"], tables["osa"], self.out_coloring, "out",
                out_vertex_id, edge_id, label, in_vertex_id,
            )
            self._adjacency_insert(
                tables["ipa"], tables["isa"], self.in_coloring, "in",
                in_vertex_id, edge_id, label, out_vertex_id,
            )
        return edge_id

    def _adjacency_insert(self, primary, secondary, coloring, direction, vid,
                          eid, label, value):
        column = coloring.column_for(label)
        eid_pos, lbl_pos, val_pos = self.schema.triad_positions(column)
        width = self.schema.adjacency_row_width(direction)
        vid_index = self._vid_index(primary)
        rids = list(vid_index.lookup(vid))
        rows = [(rid, primary.get(rid)) for rid in rids]
        rows = [(rid, row) for rid, row in rows if row is not None]

        # 1. a row already holding this label in the triad?
        for rid, row in rows:
            if row[lbl_pos] == label:
                existing = row[val_pos]
                if isinstance(existing, str) and existing.startswith("lid:"):
                    secondary.insert((existing, eid, value), coerce=False)
                else:
                    lid = self._allocate_lid()
                    secondary.insert((lid, row[eid_pos], existing), coerce=False)
                    secondary.insert((lid, eid, value), coerce=False)
                    new_row = list(row)
                    new_row[eid_pos] = None
                    new_row[val_pos] = lid
                    primary.update(rid, new_row, coerce=False)
                return
        # 2. a row with a free slot for this column?
        for rid, row in rows:
            if row[lbl_pos] is None:
                new_row = list(row)
                new_row[eid_pos] = eid
                new_row[lbl_pos] = label
                new_row[val_pos] = value
                primary.update(rid, new_row, coerce=False)
                return
        # 3. spill: a fresh row for this vertex
        fresh = [None] * width
        fresh[0] = vid
        fresh[1] = 1 if rows else 0
        fresh[eid_pos] = eid
        fresh[lbl_pos] = label
        fresh[val_pos] = value
        primary.insert(tuple(fresh), coerce=False)
        if rows:
            for rid, row in rows:
                if row[1] != 1:
                    new_row = list(row)
                    new_row[1] = 1
                    primary.update(rid, new_row, coerce=False)

    def get_edge_row(self, edge_id):
        ea = self._tables()["ea"]
        with self.database.scope(reads=(ea.name,)):
            for rid in ea.indexes[f"{ea.name}_pk"].lookup(edge_id):
                row = ea.get(rid)
                if row is not None:
                    return row
            return None

    def update_edge(self, edge_id, properties):
        ea = self._tables()["ea"]
        with self.database.scope(writes=(ea.name,)):
            for rid in ea.indexes[f"{ea.name}_pk"].lookup(edge_id):
                row = ea.get(rid)
                if row is None:
                    continue
                attrs = dict(row[4] or {})
                attrs.update(properties)
                ea.update(rid, row[:4] + (attrs,), coerce=False)
                return True
        return False

    def delete_edge(self, edge_id):
        tables = self._tables()
        names = [
            tables[key].name for key in ("ea", "opa", "osa", "ipa", "isa")
        ]
        with self.database.scope(writes=names):
            ea = tables["ea"]
            index = ea.indexes[f"{ea.name}_pk"]
            row = None
            for rid in list(index.lookup(edge_id)):
                candidate = ea.get(rid)
                if candidate is not None:
                    row = candidate
                    ea.delete(rid)
                    break
            if row is not None:
                __, out_vertex, in_vertex, label, __attrs = row
                self._adjacency_delete(
                    tables["opa"], tables["osa"], self.out_coloring,
                    out_vertex, edge_id, label,
                )
                self._adjacency_delete(
                    tables["ipa"], tables["isa"], self.in_coloring,
                    in_vertex, edge_id, label,
                )
        return row is not None

    def _adjacency_delete(self, primary, secondary, coloring, vid, eid, label):
        column = coloring.column_for(label)
        eid_pos, lbl_pos, val_pos = self.schema.triad_positions(column)
        vid_index = self._vid_index(primary)
        for rid in list(vid_index.lookup(vid)):
            row = primary.get(rid)
            if row is None or row[lbl_pos] != label:
                continue
            value = row[val_pos]
            if isinstance(value, str) and value.startswith("lid:"):
                valid_index = self._valid_index(secondary)
                for srid in list(valid_index.lookup(value)):
                    srow = secondary.get(srid)
                    if srow is not None and srow[1] == eid:
                        secondary.delete(srid)
                        return
            elif row[eid_pos] == eid:
                new_row = list(row)
                new_row[eid_pos] = None
                new_row[lbl_pos] = None
                new_row[val_pos] = None
                primary.update(rid, new_row, coerce=False)
                return
