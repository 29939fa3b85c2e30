import hashlib
import json

import pytest

from waferforge.defects import DefectRates, random_defects
from waferforge.topology import TopologyConfig

# rates at which every (defect type, component kind) pair is drawn on both
# topologies below
RATES = DefectRates(jtag=0.1, highspeed=0.1, fg_controller=0.1, repeater=0.01,
                    switch=0.002, synapse_driver=0.01, synapse_stuck=2e-5,
                    synapse_unstable=2e-5, merger_stuck=0.02, fg_block_stuck=0.05)

# sha256 of the defect list in draw order: type, coordinate, stuck pattern
# and flip probability of every defect
TOPOLOGIES = {"reference": TopologyConfig(),
              "reduced": TopologyConfig(reticle_rows=(1, 2, 1))}
PINNED = {
    ("reference", 3): "1a08493e8de69a07ef82525bad0b809e6b852e357f1feb4fbffeb08285c4ebd4",
    ("reference", 11): "feb1defe1e2f68b814db698c26dfcce3d9f0ff5554c6a898d1b3bf979a1c302b",
    ("reduced", 3): "6f0c1fe466687a22a87fe14a4d6ff19682c53d4e24ce1c6a55a22ffac08a4e66",
    ("reduced", 11): "b157ab5dc09aa84f36135d3d4941d79eceb5f2c06365dd9a888ef6c5d37ea445",
}


@pytest.mark.parametrize("topology, seed", sorted(PINNED))
def test_random_defects_reproduce_pinned_lists(topology, seed):
    ds = random_defects(seed, TOPOLOGIES[topology], RATES)
    assert len({(d.type, d.coord.kind) for d in ds}) == 10
    listed = json.dumps([d.to_json() for d in ds.defects])
    assert hashlib.sha256(listed.encode()).hexdigest() == PINNED[(topology, seed)]
