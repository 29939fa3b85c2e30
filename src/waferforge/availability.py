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
"""

from __future__ import annotations

import json

import numpy as np

from .topology import (Coord, Kind, TopologyConfig, check_schema,
                       validate_coord)

SCHEMA = "waferforge.availability/1"


class AvailabilityState:
    """One named snapshot of per-coordinate exclusions on one topology."""

    def __init__(self, topology: TopologyConfig, excluded=None):
        self.topology = topology
        self._masks: dict[Kind, np.ndarray] = {}
        self._shared: set[Kind] = set()  # masks a copy() shares, copied before a write
        if excluded:
            self.exclude_many(excluded)

    def mask(self, kind: Kind) -> np.ndarray:
        """Writable exclusion mask of ``kind``, allocated on first use.

        Do not hold it across a ``copy()``: both states share their masks
        until one of them asks for a mask to write.
        """
        m = self._masks.get(kind)
        if m is None:
            m = self._masks[kind] = np.zeros(self.topology.index_shapes[kind], dtype=bool)
        elif kind in self._shared:
            m = self._masks[kind] = m.copy()
            self._shared.discard(kind)
        return m

    def exclude(self, coord: Coord) -> None:
        validate_coord(self.topology, coord)
        self.mask(coord.kind)[coord.indices] = True

    def exclude_many(self, coords) -> None:
        for coord in coords:
            self.exclude(coord)

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
        if hicanns is None:
            return int(np.count_nonzero(m))
        return sum(int(np.count_nonzero(m[h])) for h in hicanns)

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
        return sum(int(np.count_nonzero(m)) for m in self._masks.values())

    def to_json(self) -> dict:
        excluded = {k.value: self._indices(k) for k in sorted(self._masks, key=lambda k: k.value)}
        return {"schema": SCHEMA, "excluded": {k: v for k, v in excluded.items() if v}}

    @classmethod
    def from_json(cls, data: dict, topology: TopologyConfig) -> "AvailabilityState":
        check_schema(data.get("schema", SCHEMA), SCHEMA)
        state = cls(topology)
        for kind_value, coords in data.get("excluded", {}).items():
            kind = Kind(kind_value)
            if not coords:
                continue
            try:
                flat = np.ravel_multi_index(np.asarray(coords, dtype=np.int64).T,
                                            topology.index_shapes[kind])
            except ValueError:
                for indices in coords:  # name the first coordinate outside the shape
                    validate_coord(topology, Coord(kind, indices))
                raise
            state.mask(kind).reshape(-1)[flat] = True
        return state


class AvailabilityDb:
    """Named availability states of one wafer."""

    def __init__(self, topology: TopologyConfig):
        self.topology = topology
        self._states: dict[str, AvailabilityState] = {}

    def names(self) -> list[str]:
        return sorted(self._states)

    def has_state(self, name: str) -> bool:
        return name in self._states

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

    def diff(self, a: str, b: str) -> list[tuple[Coord, bool, bool]]:
        """All coords excluded in either state, with per-state usability."""
        sa, sb = self.state(a), self.state(b)
        coords = set(sa.all_excluded()) | set(sb.all_excluded())
        return [(c, sa.is_usable(c), sb.is_usable(c))
                for c in sorted(coords, key=Coord.sort_key)]

    def write_diff_csv(self, path, a: str = "individual",
                       b: str = "effective") -> None:
        rows = self.diff(a, b)
        with open(path, "w") as f:
            f.write(f"coord,kind,usable_{a},usable_{b}\n")
            for coord, ua, ub in rows:
                idx = ":".join(str(i) for i in coord.indices)
                f.write(f"{idx},{coord.kind.value},{int(ua)},{int(ub)}\n")


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
