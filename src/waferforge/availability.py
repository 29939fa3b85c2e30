"""Availability database: per-component usable/excluded flags.

Each state holds one boolean mask per resource kind, shaped by the kind's
index bounds in ``TopologyConfig.index_shapes`` (``True`` = excluded). A
mask is allocated on the first exclusion of its kind, so a wafer without
synapse faults never holds the synapse mask. A database keeps states by
name. The two canonical states are "individual" (what the tests
discovered, one flag per failing component) and "effective" (the
dependency closure over the individual state). Flags are hierarchical in
interpretation but flat in storage: excluding a HICANN does not
automatically flag each of its children; closure rules decide which child
flags get cleared, and reports decide which HICANNs' children are counted.

Each state also keeps the exact number of excluded cells of every mask,
kept up to date by the writers (``exclude``, ``exclude_many``,
``exclude_blocks``, ``from_json``) and shared by ``copy()``, so a count is
read, not scanned; for a paged mask (below) it keeps the count of every
die as well. A writer into a kind without exclusions, or into a die of a
paged mask without exclusions, knows every cell it writes there is new, so
it writes them without reading them first. ``mask()``
hands out the raw writable array and forgets its kind's counts: the next
``count_excluded`` of the kind recounts its mask once, and a paged mask's
dies are counted from their cells from then on. Write through a mask
before the next count of its kind, as a mask must not be held across a
``copy()``.

A mask of ``PAGED_MASK_BYTES`` (4 MiB) or more, such as the reference
module's 43 MB synapse mask, is a zero-filled private anonymous mapping
advised against huge pages, not an ``np.zeros`` array. numpy advises huge
pages from 4 MiB on, and then the first write into a 2 MiB page zeroes
the whole page: the few dozen stuck synapses a memory test finds, spread
over the wafer, cost more than the rest of commissioning. The mapping
makes a 4 KiB page resident on its first write and never maps a page
that is not written, so a mask costs about what is excluded. A read of a
whole large mask (``to_json``, ``_indices``, a recount) reads the kernel's
shared zero page where nothing was written, not resident zeroed pages.
Smaller masks, which numpy would not advise, stay ``np.zeros``, as do all
masks where ``mmap.MAP_PRIVATE`` does not exist. The mapping is private,
so writes in a forked process stay in that process.
"""

from __future__ import annotations

import json
import math
import mmap

import numpy as np

from .topology import (Coord, Kind, TopologyConfig, check_schema,
                       validate_coord)

SCHEMA = "waferforge.availability/1"
# numpy's own huge-page cutoff: only arrays numpy would advise are mapped
PAGED_MASK_BYTES = 1 << 22


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed boolean mask; from ``PAGED_MASK_BYTES`` on, a private
    anonymous mapping whose 4 KiB pages become resident on first write."""
    n = math.prod(shape)
    if n < PAGED_MASK_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape, dtype=bool)
    # private, so a forked process's writes stay its own
    buf = mmap.mmap(-1, n, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=bool).reshape(shape)


class AvailabilityState:
    """One named snapshot of per-coordinate exclusions on one topology."""

    def __init__(self, topology: TopologyConfig, excluded=None):
        self.topology = topology
        self._masks: dict[Kind, np.ndarray] = {}
        self._shared: set[Kind] = set()  # masks a copy() shares, copied before a write
        self._counts: dict[Kind, int] = {}  # excluded cells per mask; absent = recount
        # excluded cells per die of each paged mask; absent = count the dies' cells
        self._die_counts: dict[Kind, np.ndarray] = {}
        if excluded:
            self.exclude_many(excluded)

    def mask(self, kind: Kind) -> np.ndarray:
        """Writable exclusion mask of ``kind``, allocated on first use:
        from ``PAGED_MASK_BYTES`` on as a private mapping whose pages
        become resident only where they are written (see the module
        docstring), else as ``np.zeros``.

        Do not hold it across a ``copy()``: both states share their masks
        until one of them asks for a mask to write. The kind's count is
        recomputed on its next ``count_excluded``, so write through the mask
        before counting that kind again.
        """
        m = self._writable(kind)
        self._counts.pop(kind, None)
        self._die_counts.pop(kind, None)
        return m

    def read_mask(self, kind: Kind) -> np.ndarray:
        """Read-only exclusion mask of ``kind``; allocates nothing."""
        m = self._masks.get(kind)
        if m is None:
            return np.broadcast_to(False, self.topology.index_shapes[kind])
        m = m.view()
        m.flags.writeable = False
        return m

    def _writable(self, kind: Kind) -> np.ndarray:
        m = self._masks.get(kind)
        if m is None:
            m = self._masks[kind] = _zeros(self.topology.index_shapes[kind])
            self._counts[kind] = 0
            if m.nbytes >= PAGED_MASK_BYTES:
                self._die_counts[kind] = np.zeros(len(m), dtype=np.int64)
        elif kind in self._shared:  # written where set, so a paged copy stays sparse
            out = _zeros(m.shape)
            np.copyto(out, m, where=m)
            m = self._masks[kind] = out
            self._shared.discard(kind)
        return m

    def _add(self, kind: Kind, n: int) -> None:
        if kind in self._counts:
            self._counts[kind] += n

    def exclude(self, coord: Coord) -> None:
        validate_coord(self.topology, coord)
        m = self._writable(coord.kind)
        if not m[coord.indices]:
            m[coord.indices] = True
            self._add(coord.kind, 1)
            per = self._die_counts.get(coord.kind)
            if per is not None:
                per[coord.hicann] += 1

    def exclude_many(self, coords) -> None:
        """Exclude every coordinate of ``coords``, or none if one is invalid."""
        coords = list(coords)
        by_kind: dict[Kind, list] = {}
        for c in coords:
            by_kind.setdefault(c.kind, []).append(c.indices)
        try:
            flat = {kind: self._flat(kind, indices) for kind, indices in by_kind.items()}
        except ValueError:
            for c in coords:  # name the batch's first invalid coordinate
                validate_coord(self.topology, c)
            raise
        for kind, f in flat.items():
            self._write_flat(kind, f)

    def exclude_blocks(self, kind: Kind, leading) -> None:
        """Exclude every cell of ``kind`` whose leading indices are one of
        the index tuples of ``leading``, all of one length from 1 to the
        kind's rank; none if one is outside the kind's shape."""
        shape = self.topology.index_shapes[kind]
        blocks = sorted(set(map(tuple, leading)))
        for b in blocks:
            if not (0 < len(b) == len(blocks[0]) <= len(shape)
                    and all(0 <= i < n for i, n in zip(b, shape))):
                raise ValueError(f"{kind.value}[{','.join(map(str, b))}]: "
                                 f"outside index shape {shape}")
        if not blocks:
            return
        m = self._writable(kind)
        fresh = self._counts.get(kind) == 0
        per = self._die_counts.get(kind)
        size = math.prod(shape[len(blocks[0]):])
        # blocks of one length are disjoint, so a block in a kind or on a die
        # without exclusions is new: count it without reading (and faulting in) it
        new = [size if fresh or per is not None and per[b[0]] == 0
               else size - int(np.count_nonzero(m[b])) for b in blocks]
        for b in blocks:
            m[b] = True
        self._add(kind, sum(new))
        if per is not None:
            for b, n in zip(blocks, new):
                per[b[0]] += n

    def _flat(self, kind: Kind, indices: list) -> np.ndarray:
        """Flat mask positions of index tuples of ``kind``; a ValueError
        names the first one outside the kind's shape."""
        try:
            return np.ravel_multi_index(np.asarray(indices, dtype=np.int64).T,
                                        self.topology.index_shapes[kind])
        except ValueError:
            for idx in indices:
                validate_coord(self.topology, Coord(kind, idx))
            raise

    def _write_flat(self, kind: Kind, flat: np.ndarray) -> None:
        m = self._writable(kind).reshape(-1)
        per = self._die_counts.get(kind)
        # a cell in a kind or on a die without exclusions is new, and reading
        # it first would fault its page of a paged mask in twice
        if self._counts.get(kind) == 0:
            new = flat
        elif per is None:
            new = flat[~m[flat]]
        else:
            known = per[flat // (m.size // len(per))] == 0
            rest = flat[~known]
            new = np.concatenate((flat[known], rest[~m[rest]]))
        # sorted so that repeats are adjacent (np.unique's first call maps ~1.7 MB more)
        new = np.sort(new)
        m[new] = True
        distinct = np.ones(new.size, dtype=bool)
        np.not_equal(new[1:], new[:-1], out=distinct[1:])
        new = new[distinct]
        self._add(kind, new.size)
        if per is not None:
            per += np.bincount(new // (m.size // len(per)), minlength=len(per))

    def is_usable(self, coord: Coord) -> bool:
        validate_coord(self.topology, coord)
        m = self._masks.get(coord.kind)
        return m is None or not m[coord.indices]

    def excluded_of(self, kind: Kind) -> set[Coord]:
        return {Coord(kind, idx) for idx in self._indices(kind)}

    def count_excluded(self, kind: Kind, hicanns=None) -> int:
        """Exclusions of ``kind``, on the given first-axis indices if any."""
        m = self._masks.get(kind)
        if m is None:
            return 0
        if hicanns is not None:
            hicanns = np.asarray(hicanns, dtype=np.intp)
            if m.nbytes < PAGED_MASK_BYTES:
                return int(np.count_nonzero(m[hicanns]))
            per = self._die_counts.get(kind)
            if per is not None:
                return int(per[hicanns].sum())
            # die by die: a gather would copy out every listed die's rows
            return sum(int(np.count_nonzero(m[h])) for h in hicanns.tolist())
        n = self._counts.get(kind)
        if n is None:
            n = self._counts[kind] = int(np.count_nonzero(m))
        return n

    def kinds(self) -> list[Kind]:
        return [k for k in Kind if self.count_excluded(k)]

    def all_excluded(self) -> list[Coord]:
        return [Coord(k, idx) for k in Kind for idx in self._indices(k)]

    def _indices(self, kind: Kind) -> list[list[int]]:
        # a C-ordered mask's flat order is Coord.sort_key order
        m = self._masks.get(kind)
        if m is None:
            return []
        return np.column_stack(np.unravel_index(np.flatnonzero(m), m.shape)).tolist()

    def copy(self) -> "AvailabilityState":
        new = AvailabilityState(self.topology)
        new._masks = dict(self._masks)
        new._counts = dict(self._counts)
        new._die_counts = {k: per.copy() for k, per in self._die_counts.items()}
        self._shared.update(self._masks)
        new._shared.update(self._masks)
        return new

    def issuperset(self, other: "AvailabilityState") -> bool:
        for k, m in other._masks.items():
            mine = self._masks.get(k)
            if mine is None:
                if m.any():
                    return False
            elif m is not mine and (m.shape != mine.shape or np.any(m > mine)):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, AvailabilityState):
            return NotImplemented
        return self.issuperset(other) and other.issuperset(self)

    def __len__(self) -> int:
        return sum(self.count_excluded(k) for k in self._masks)

    def to_json(self) -> dict:
        excluded = {k.value: self._indices(k) for k in sorted(self._masks, key=lambda k: k.value)}
        return {"schema": SCHEMA, "excluded": {k: v for k, v in excluded.items() if v}}

    @classmethod
    def from_json(cls, data: dict, topology: TopologyConfig) -> "AvailabilityState":
        check_schema(data.get("schema", SCHEMA), SCHEMA)
        state = cls(topology)
        for kind_value, coords in data.get("excluded", {}).items():
            kind = Kind(kind_value)
            if coords:
                state._write_flat(kind, state._flat(kind, coords))
        return state


class AvailabilityDb:
    """Named availability states of one wafer."""

    def __init__(self, topology: TopologyConfig):
        self.topology = topology
        self._states: dict[str, AvailabilityState] = {}

    def names(self) -> list[str]:
        return sorted(self._states)

    def state(self, name: str) -> AvailabilityState:
        if name not in self._states:
            raise KeyError(f"unknown availability state {name!r}")
        return self._states[name]

    def ensure(self, name: str) -> AvailabilityState:
        if name not in self._states:
            self._states[name] = AvailabilityState(self.topology)
        return self._states[name]

    def set_state(self, name: str, state: AvailabilityState) -> None:
        self._states[name] = state


def save_state(db: AvailabilityDb, name: str, path) -> None:
    data = db.state(name).to_json()
    data["name"] = name
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def load_state(db: AvailabilityDb, name: str, path) -> AvailabilityState:
    with open(path) as f:
        data = json.load(f)
    state = AvailabilityState.from_json(data, db.topology)
    db.set_state(name, state)
    return state
