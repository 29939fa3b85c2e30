"""The bench builds its calibration targets from waferforge's sweep plans and
oracle; a change to either shows up here before it moves a bench score."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# design value at the middle of each parameter's default sweep, on an ideal
# reference-topology wafer
TARGETS = {
    "e_leak": 0.9,
    "v_threshold": 1.1260997067448681,
    "e_syni": 0.3519061583577713,
    "e_synx": 1.3504398826979473,
    "v_reset": 0.6070381231671554,
    "tau_ref": 0.0008245038826574632,
    "tau_mem": 0.004252858629300143,
    "tau_synx": 0.0008630172502485682,
    "tau_syni": 0.0008630172502485682,
}


def test_calibrate_hicann_targets_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    assert workloads.CalibrateHicann(3).targets == TARGETS
