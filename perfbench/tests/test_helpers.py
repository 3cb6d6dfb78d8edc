"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from quality import rebuild_truth, truth_nmse_db  # noqa: E402
from run import wiring_problems  # noqa: E402
from spans import Tracer, percentile, self_times, union_length  # noqa: E402
from workloads import SEED_POOL, WORKLOADS  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        (1, "root", 0.0, 10.0, 0),
        (2, "a", 1.0, 3.0, 1),    # two threads: children overlap in time
        (3, "b", 2.0, 5.0, 1),
        (4, "c", 9.0, 12.0, 1),   # runs past its parent's end
        (5, "d", 2.5, 3.0, 3),    # grandchild: counts against b, not root
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0 - 0.5)
    assert selfs[5] == pytest.approx(0.5)


def test_tracer_nests_per_thread_and_parents_workers_on_root():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    with tracer.root("cli.test") as root:
        outer()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for sid, name, start, end, parent in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
        assert end >= start
    (outer_sid, outer_parent), = by_name["outer"]
    assert outer_parent == root
    parents = sorted(parent for _, parent in by_name["inner"])
    assert parents == sorted([outer_sid, root])
    assert all(value >= 0 for value in self_times(tracer.spans).values())


def test_tracer_after_hook_sees_result_and_counts():
    tracer = Tracer()
    doubled = tracer.wrap("f", lambda x: 2 * x,
                          after=lambda args, kwargs, result: tracer.add("sum", result))
    assert doubled(3) == 6 and doubled(4) == 8
    assert tracer.counters["sum"] == 14


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))           # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_truth_nmse_scales_and_windows():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    est = h * 1.1
    est[:10] = 1e6                               # training window is ignored
    assert truth_nmse_db(est, h, 10) == pytest.approx(-20.0)
    assert truth_nmse_db(np.zeros_like(h), h, 10) == pytest.approx(0.0)
    assert truth_nmse_db(est.conj(), h, 10, conjugate=True) == pytest.approx(-20.0)
    with pytest.raises(ValueError):
        truth_nmse_db(est[:, :3], h, 10)


def test_rebuilt_truth_is_what_the_cli_simulates():
    import subtrack.cli as cli
    from subtrack.config import load_config

    cfg = load_config(None, ["sim.n_taps=8", "sim.n_steps=200", "sim.n_train=50",
                             "sim.r_true=2", "sim.preset=rough"])
    traj, obs = cli._simulate(cfg, 5)
    h_true, r = rebuild_truth(cfg, 5)
    assert np.array_equal(h_true, traj.h) and np.array_equal(r, obs.r)


def test_lms_truth_nmse_is_lower_conjugated():
    from subtrack.config import load_config
    from subtrack.pipeline import run_lms
    import subtrack.cli as cli

    cfg = load_config(None, ["sim.n_taps=8", "sim.n_steps=2000", "sim.n_train=500",
                             "sim.r_true=2", "sim.preset=calm"])
    traj, obs = cli._simulate(cfg, 1)
    h_lms = run_lms(obs, cfg.tracker).h_tracked
    assert (truth_nmse_db(h_lms, traj.h, 500, conjugate=True)
            < truth_nmse_db(h_lms, traj.h, 500) - 1.0)


def test_sim_seeds_are_deterministic_and_disjoint_across_the_pool():
    for workload in WORKLOADS.values():
        seen = set()
        for base in range(SEED_POOL):
            seeds = workload.sim_seeds(base)
            assert seeds == workload.sim_seeds(base + SEED_POOL)
            assert len(seeds) == workload.n_seeds and not seen & set(seeds)
            seen |= set(seeds)


def _layers(**overrides):
    values = {"kalman_core.fb_combine.calls": 0, "kalman_core.backward_model.calls": 0,
              "linalg_spectral.yule_walker.step_calls": 0, "trace.coverage": 0.99}
    values.update(overrides)
    return {name: (value, "") for name, value in values.items()}


def test_wiring_check_flags_unexpected_layers():
    sweep, high, paper = (WORKLOADS[n] for n in ("rank_sweep", "high_order", "paper_rough"))
    assert wiring_problems(sweep, _layers()) == []
    assert wiring_problems(paper, _layers(**{"kalman_core.fb_combine.calls": 10})) == []
    assert wiring_problems(high, _layers(**{"linalg_spectral.yule_walker.step_calls": 5})) == []
    assert wiring_problems(sweep, _layers(**{"kalman_core.backward_model.calls": 1}))
    assert wiring_problems(paper, _layers(**{"linalg_spectral.yule_walker.step_calls": 5}))
    assert wiring_problems(high, _layers(**{"trace.coverage": 0.5}))
