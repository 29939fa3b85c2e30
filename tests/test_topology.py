import ast
import dataclasses
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from waferforge.topology import (
    Coord,
    Direction,
    Kind,
    TopologyConfig,
    resource_count,
    validate_coord,
)
from waferforge.variability import VariabilityConfig
from waferforge.wafer import FgState, build_wafer, program_floating_gates

SRC = Path(__file__).resolve().parents[1] / "src" / "waferforge"
BENCH = Path(__file__).resolve().parents[1] / "bench"

CFG = TopologyConfig()
# a reduced fabric on the 32-die wafer: 128 buses, a modulus of 8 and 12
# select switches per driver
SMALL_FABRIC = TopologyConfig(reticle_rows=(1, 2, 1), lanes_per_group=32,
                              crossbar_lane_modulus=8, select_fanin=12,
                              rows_per_array=104, driven_rows_per_array=100)

# Reference wafer totals: (kind, hicann subset size, expected count).
# 356 is the experiment subset, 373 the JTAG-reachable subset of the
# reference module.
REFERENCE_TOTALS = [
    (Kind.SYNAPSE_DRIVER, 356, 78320),
    (Kind.SYNAPSE_ARRAY, 356, 712),
    (Kind.SYNAPSE_ROW, 356, 159488),
    (Kind.SYNAPSE, 356, 40099840),
    (Kind.FG_BLOCK, 373, 1492),
    (Kind.EXT_MERGER, 373, 2984),
    (Kind.EXT_MERGER, 356, 2848),
    (Kind.BG_GEN, 356, 2848),
    (Kind.MERGER, 356, 5340),
    (Kind.ANALOG_OUT, 356, 712),
    (Kind.BUS, 373, 119360),
    (Kind.REPEATER, 373, 119360),
    (Kind.SWITCH, 373, 2864640),
]


@pytest.mark.parametrize("kind,subset,expected", REFERENCE_TOTALS)
def test_resource_totals(kind, subset, expected):
    assert resource_count(CFG, kind, subset) == expected


def test_wafer_constants():
    assert CFG.n_hicanns == 384
    assert CFG.n_groups == 48
    assert CFG.neurons_per_hicann == 512
    assert FgState.blank(CFG).d_set.size == 12384
    assert CFG.buses_per_hicann == 320
    assert CFG.switches_per_hicann == 7680
    assert CFG.synapses_per_hicann == 112640
    assert CFG.drivers_per_array == 110
    assert len(CFG.no_highspeed_hicanns()) == 16


def test_resource_count_edges():
    assert resource_count(CFG, Kind.NEURON, 0) == 0
    assert resource_count(CFG, Kind.HICANN, 356) == 356
    with pytest.raises(ValueError):
        resource_count(CFG, Kind.NEURON, -1)


def row_widths(cfg):
    rows = Counter(cfg.hicann_xy(h)[1] for h in range(cfg.n_hicanns))
    return [rows[y] for y in range(cfg.grid_height)]


def test_grid_row_widths():
    assert row_widths(CFG) == [12, 12, 20, 20, 28, 28, 36, 36, 36, 36, 28, 28, 20, 20, 12, 12]
    assert sum(row_widths(CFG)) == 384


def test_grid_roundtrip_and_neighbors():
    seen = set()
    for h in range(CFG.n_hicanns):
        xy = CFG.hicann_xy(h)
        assert xy not in seen
        seen.add(xy)
        assert CFG.hicann_at(*xy) == h
    # neighbor relation is symmetric
    for h in range(CFG.n_hicanns):
        for d, n in CFG.neighbors(h).items():
            assert CFG.neighbor(n, d.opposite) == h


def test_grid_corner_has_two_neighbors():
    # top-left corner of the top row
    top_row = [h for h in range(CFG.n_hicanns) if CFG.hicann_xy(h)[1] == 0]
    corner = min(top_row, key=lambda h: CFG.hicann_xy(h)[0])
    assert len(CFG.neighbors(corner)) == 2
    interior = CFG.hicann_at(18, 8)
    assert len(CFG.neighbors(interior)) == 4


def test_groups_are_grid_blocks():
    # each group occupies a contiguous 4x2 block of grid positions; group g
    # holds hicanns g * group_size .. (g + 1) * group_size - 1, the layout
    # memory_test's reshape by group relies on
    size = CFG.group_size
    for g in range(CFG.n_groups):
        xs = []
        ys = []
        for h in range(g * size, (g + 1) * size):
            x, y = CFG.hicann_xy(h)
            xs.append(x)
            ys.append(y)
        assert max(xs) - min(xs) == 3
        assert max(ys) - min(ys) == 1


def test_center_groups_are_central():
    cx = (CFG.grid_width - 1) / 2
    cy = (CFG.grid_height - 1) / 2
    for g in CFG.no_highspeed_groups:
        xs, ys = zip(*(CFG.hicann_xy(h) for h in
                       range(g * CFG.group_size, (g + 1) * CFG.group_size)))
        assert abs(sum(xs) / 8 - cx) < 2.1
        assert abs(sum(ys) / 8 - cy) < 2.1


def test_default_edge_hicanns_is_bottom_row():
    ys = {CFG.hicann_xy(h)[1] for h in CFG.edge_hicanns}
    assert ys == {CFG.grid_height - 1}
    assert len(CFG.edge_hicanns) == 12


def test_bus_partner_pairing():
    h = CFG.hicann_at(18, 8)
    for b in range(CFG.buses_per_hicann):
        p = CFG.bus_partner(h, b)
        assert p is not None
        h2, b2 = p
        # crossing is mutual: the facing repeater drives our bus
        assert CFG.bus_partner(h2, b2) == (h, b)
    # off-grid border has no partner
    top_left = CFG.hicann_at(12, 0)
    assert CFG.bus_partner(top_left, 0) is None  # north group, no north neighbor


def test_switch_pattern_counts():
    # the Kind.SWITCH mask is sized by switches_per_hicann: the wiring
    # pattern must have exactly that many distinct switches
    for cfg, crossbar, select in ((CFG, 2400, 5280), (SMALL_FABRIC, 768, 1200)):
        n_drivers = cfg.arrays_per_hicann * cfg.drivers_per_array
        pairs = {(min(b1, b2), max(b1, b2)) for b1 in range(cfg.buses_per_hicann)
                 for b2 in cfg.crossbar_partners(b1)}
        selects = {(b, d) for d in range(n_drivers) for b in cfg.select_buses(d)}
        assert (len(pairs), len(selects)) == (crossbar, select)
        assert len(pairs) + len(selects) == cfg.switches_per_hicann
        assert cfg.index_shapes[Kind.SWITCH][1] == cfg.switches_per_hicann


def test_drivers_on_bus_inverse():
    for cfg in (CFG, SMALL_FABRIC):
        by_bus = [set() for _ in range(cfg.buses_per_hicann)]
        for d in range(cfg.arrays_per_hicann * cfg.drivers_per_array):
            for b in cfg.select_buses(d):
                by_bus[b].add(d)
        for b in range(cfg.buses_per_hicann):
            assert cfg.drivers_on_bus(b) == sorted(by_bus[b])


def test_injection_buses_cover_two_groups():
    for c in range(8):
        a, b = CFG.injection_buses(c)
        assert CFG.bus_direction(a).opposite == CFG.bus_direction(b)
        assert CFG.bus_lane(a) == CFG.bus_lane(b)


def test_memory_map_sizes():
    mm = CFG.memory_map()
    assert mm["synapse_array"] == 112640  # 110 KiB
    total = sum(mm.values())
    assert total * CFG.n_hicanns > 42 * 1024 * 1024
    assert set(CFG.routing_regions()) <= set(mm)


def test_coord_ordering_and_json():
    a = Coord.neuron(3, 17)
    b = Coord.neuron(3, 18)
    c = Coord(Kind.BUS, (0, 0))
    assert a < b < c  # bus kind enumerates after neuron kind
    assert sorted([c, b, a]) == [a, b, c]
    assert Coord.from_json(a.to_json()) == a
    assert str(a) == "neuron[3,17]"


def test_coord_validation():
    validate_coord(CFG, Coord.synapse(0, 1, 219, 255))
    with pytest.raises(ValueError):
        validate_coord(CFG, Coord.synapse(0, 1, 220, 0))  # not a driven row
    with pytest.raises(ValueError):
        validate_coord(CFG, Coord.neuron(384, 0))
    with pytest.raises(ValueError):
        validate_coord(CFG, Coord(Kind.NEURON, (0,)))


def test_config_json_roundtrip():
    cfg2 = TopologyConfig.from_json(CFG.to_json())
    assert cfg2 == CFG


def test_reduced_wafer_config():
    small = TopologyConfig(reticle_rows=(1, 1))
    assert small.n_hicanns == 16
    assert row_widths(small) == [4, 4, 4, 4]
    assert resource_count(small, Kind.NEURON, small.n_hicanns) == 16 * 512


@pytest.mark.parametrize("blocks", [0, -4, 3, 5])
def test_fg_block_count_must_divide_the_circuits(blocks):
    # a block count that leaves circuits without a column is refused when
    # the config is built, not at the first FG write
    with pytest.raises(ValueError, match="fg_blocks_per_hicann"):
        TopologyConfig(fg_blocks_per_hicann=blocks)
    with pytest.raises(ValueError, match="fg_blocks_per_hicann"):
        program_floating_gates(
            build_wafer(3, TopologyConfig(fg_blocks_per_hicann=blocks)), 0,
            {"e_leak": 300})
    with pytest.raises(ValueError, match="fg_blocks_per_hicann"):
        TopologyConfig.from_json(dict(CFG.to_json(), fg_blocks_per_hicann=blocks))
    assert TopologyConfig(fg_blocks_per_hicann=8).neurons_per_fg_block == 64


@pytest.mark.parametrize("config", [TopologyConfig, VariabilityConfig])
def test_every_config_field_is_read(config):
    # a field that no module reads is a knob that changes nothing
    src = "".join(p.read_text() for p in SRC.glob("*.py"))
    unread = [f.name for f in dataclasses.fields(config) if f".{f.name}" not in src]
    assert unread == []


# public names that nothing in src/ or bench/ has to call
ENTRY_POINTS = (
    # the package's user-facing calls and state queries
    "load_golden_defects", "jtag_fault_sample", "analog_readout_test",
    "apply_calibration", "save", "save_state", "load_state", "write_report_csv",
    "write_trace_csv", "excluded_of", "all_excluded", "build", "kinds", "names",
    "run_experiment", "calibration_exclusion",
    # oracles that see past the tests: the hidden FG values, the flags a
    # fully transparent test suite would record
    "fg_dac_array", "individual_from_defects",
    # the grid and the fabric wiring pattern the module docstring states
    "hicann_xy", "bus_partner", "crossbar_partners",
)


def _code_names(path):
    """The names a module's code uses, and those it reads as attributes
    (``.name``); strings, docstrings and comments do not count."""
    names, attributes = Counter(), Counter()
    prev = None
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME:
                names[tok.string] += 1
                attributes[tok.string] += prev == (tokenize.OP, ".")
            prev = tok.type, tok.string
    return names, attributes


def test_every_public_name_is_used():
    # a public name that appears nowhere in src/ code but in its own
    # definition (``__all__``, a docstring or a comment naming it does not
    # count), or a class member that nothing reads as an attribute, is API
    # that only tests call
    words, attributes = Counter(), Counter()
    for p in SRC.glob("*.py"):
        names, read = _code_names(p)
        words += names
        attributes += read
    # the bench's probes name the functions they wrap in strings, so every
    # word of its text counts
    text = "\n".join(p.read_text() for p in BENCH.glob("*.py"))
    words += Counter(re.findall(r"\w+", text))
    attributes += Counter(re.findall(r"\.(\w+)", text))
    defined, members = Counter(), set()
    for tree in (ast.parse(p.read_text()) for p in SRC.glob("*.py")):
        for node in tree.body:
            inside = node.body if isinstance(node, ast.ClassDef) else []
            for d in (node, *inside):
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_"):
                    defined[d.name] += 1
                    if d is not node:
                        members.add(d.name)
    assert set(ENTRY_POINTS) <= set(defined)
    unused = [name for name, n in sorted(defined.items())
              if name not in ENTRY_POINTS and words[name] <= n]
    unused += ["." + name for name in sorted(members)
               if name not in ENTRY_POINTS and not attributes[name]]
    assert unused == []


def test_calibration_names_no_oracle():
    # the oracle wall: calibration reads the hidden circuit values only
    # through the physics that experiment and wafer.adc_readout simulate
    names, _ = _code_names(SRC / "calibration.py")
    oracles = ("truth", "true_parameter", "true_parameter_array", "fg_dac_array", "fg_state")
    assert [name for name in oracles if names[name]] == []
