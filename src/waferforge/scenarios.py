"""Canonical defect scenarios used by demos, fixtures and regression tests.

The golden scenario is a hand-placed defect set whose commissioning outcome
is known exactly: 13 dies effectively without control link, 30 without
high-speed traffic, 144 counted external-input mergers, 2626 buses and 263
repeaters excluded. Placement is constrained so every fault is discoverable
and no two exclusions overlap, which keeps the expected counts exact:

  * a 4x3 cluster of dead control links (a failed JTAG chain segment),
  * one broken FG controller on a reachable corner die,
  * twelve dead high-speed links, eleven of them on the cluster,
  * two repeater pairs sharing a block (whole-block closures), one facing
    off-grid so only its own buses go, one with a full partner group,
  * 183 scattered repeater singles, one per die and block: ten facing the
    off-grid north rim, ten facing the west rim, 163 facing east with a
    live partner group, never into a group already lost to the cluster,
    the corner die, the edge row or another fault.
"""

from __future__ import annotations

from importlib.resources import files

from .defects import Defect, DefectSet, DefectType
from .topology import Coord, TopologyConfig

GOLDEN_FILE = "golden_defects.json"


def _column_range(cfg: TopologyConfig, y: int) -> range:
    xs = [x for x in range(cfg.grid_width) if cfg.hicann_at(x, y) is not None]
    return range(min(xs), max(xs) + 1)


def golden_defect_set(cfg: TopologyConfig | None = None) -> DefectSet:
    """Build the golden scenario for the default wafer layout."""
    cfg = cfg or TopologyConfig()
    at = cfg.hicann_at
    lanes = cfg.lanes_per_group

    jtag_ids = [at(x, y) for y in (6, 7, 8) for x in (1, 2, 3, 4)]
    fg_id = at(12, 0)
    highspeed_ids = jtag_ids[:11] + [at(20, 10)]
    pair_a, pair_a_reps = at(20, 0), (0, 17)  # block 0, north rim: no partners
    pair_b, pair_b_reps = at(10, 3), (160, 185)  # block 4, partner group on (10, 4)

    # repeater singles: north rim (lane 5), west rim (lane 3), east-facing
    # with live partners (lane 7)
    singles: list[tuple[int, int]] = []
    for x in _column_range(cfg, 0):
        if at(x, 0) not in (fg_id, pair_a):
            singles.append((at(x, 0), 5))
    west_slots = []
    for y in range(1, cfg.grid_height - 1):
        if len(west_slots) == 10:
            break
        west_slots.append(at(_column_range(cfg, y).start, y))
    for h in west_slots:
        singles.append((h, 3 * lanes + 3))
    blocked = set(jtag_ids) | set(west_slots) | {fg_id, at(10, 3), at(10, 4)}
    east_pool = []
    for y in range(1, cfg.grid_height - 1):
        cols = _column_range(cfg, y)
        for x in range(cols.start, cols.stop - 1):  # east neighbor must exist
            h = at(x, y)
            if h in blocked or at(x + 1, y) in (set(jtag_ids) | {fg_id}):
                continue
            east_pool.append(h)
    east_pool.sort()
    for h in east_pool[:163]:
        singles.append((h, lanes + 7))

    if len(singles) != 183 or len(set(h for h, _ in singles)) != 183:
        raise ValueError("the golden scenario's placement needs the default wafer layout")

    ds = DefectSet()
    for h in jtag_ids:
        ds.add(Defect(DefectType.JTAG_DEAD, Coord.hicann_(h)))
    ds.add(Defect(DefectType.FG_CONTROLLER_BROKEN, Coord.hicann_(fg_id)))
    for h in highspeed_ids:
        ds.add(Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(h)))
    for h, reps in ((pair_a, pair_a_reps), (pair_b, pair_b_reps)):
        for r in reps:
            ds.add(Defect(DefectType.REPEATER_BROKEN, Coord.repeater(h, r)))
    for h, r in singles:
        ds.add(Defect(DefectType.REPEATER_BROKEN, Coord.repeater(h, r)))
    return ds


def golden_defects_path():
    return files("waferforge").joinpath(f"data/{GOLDEN_FILE}")


def load_golden_defects() -> DefectSet:
    with golden_defects_path().open() as f:
        import json

        return DefectSet.from_json(json.load(f))


def jtag_fault_sample(cfg: TopologyConfig | None = None, n: int = 11) -> DefectSet:
    """``n`` dead control links spread over the wafer, nothing else."""
    cfg = cfg or TopologyConfig()
    ds = DefectSet()
    step = cfg.n_hicanns // n
    for i in range(n):
        ds.add(Defect(DefectType.JTAG_DEAD, Coord.hicann_(i * step + step // 2)))
    return ds
