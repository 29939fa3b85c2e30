"""waferforge: a virtual wafer-scale analog neuromorphic system.

The package models one wafer module end to end: static topology, a
ground-truth hardware model with fixed-pattern variability, commissioning
(communication and memory tests plus availability closure),
the per-circuit calibration suite and configured experiments on the
calibrated circuits. Everything is deterministic given a master seed.
"""

from .topology import Coord, Direction, Kind, TopologyConfig, resource_count

__all__ = [
    "Coord",
    "Direction",
    "Kind",
    "TopologyConfig",
    "resource_count",
]

__version__ = "0.1.0"
