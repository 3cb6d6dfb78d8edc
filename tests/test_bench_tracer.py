"""The benchmark's tracer (``perfbench/layers.py``) wraps names bound in
subtrack's modules and reads some of their arguments and results.  These runs
fail when a binding, argument position or attribute it relies on moves."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from layers import Layers  # noqa: E402
from spans import Tracer  # noqa: E402

import subtrack.cli as cli  # noqa: E402
import subtrack.kalman_core as kalman_core  # noqa: E402
import subtrack.pipeline as pipeline  # noqa: E402
from subtrack.config import load_config  # noqa: E402

SMALL = ["sim.n_taps=12", "sim.n_steps=300", "sim.n_train=100", "sim.r_true=3",
         "tracker.rank=3", "run.seeds=1,"]


def traced_metrics(tmp_path, overrides):
    """Per-layer metrics of one traced ``run_experiment``; a hook that raises
    fails the run."""
    cfg = load_config(None, [*SMALL, *overrides])
    layers = Layers(Tracer())
    restore = layers.install()
    try:
        with layers.tracer.root("cli.run_experiment"):
            cli.run_experiment(cfg, tmp_path / "out")
    finally:
        restore()
    assert pipeline.kf_predict is kalman_core.kf_predict
    assert pipeline.backward_model is kalman_core.backward_model
    return {name: value for name, (value, _) in layers.metrics(1.0).items()}


def test_tracer_sees_the_p1_smoothing_run(tmp_path):
    m = traced_metrics(tmp_path, ["tracker.order=1", "tracker.fb_smoothing=true"])
    assert m["kalman_core.kf_predict.calls"] > 0
    assert m["kalman_core.backward_model.calls"] > 0
    assert m["kalman_core.backward_model.distinct_ratio"] > 0
    assert m["coarse_est.lms.calls"] == 1
    assert m["coarse_est.fit.calls"] == 1


def test_tracer_sees_the_p3_refit_steps(tmp_path):
    m = traced_metrics(tmp_path, ["tracker.order=3", "tracker.fb_smoothing=false",
                                  "run.algos=asrmae,dfb_asrmae"])
    assert m["linalg_spectral.yule_walker.step_calls"] > 0
    assert m["kalman_core.predict_transition.calls"] > 0
    assert m["kalman_core.backward_model.calls"] == 0
