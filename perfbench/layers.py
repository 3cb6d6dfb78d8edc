"""Spans around subtrack's layers, installed at the bindings their callers use.

``pipeline`` does ``from .kalman_core import kf_update``, so the span goes on
``subtrack.pipeline.kf_update``; wrapping ``subtrack.kalman_core.kf_update``
would record nothing.  ``install`` returns a function that puts every
original back.
"""

import hashlib
import os

from spans import percentile, self_times

ALGOS = ("lms", "asrmae", "dfb_asrmae")


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


class Layers:
    """Wires a Tracer into subtrack and turns what it recorded into metrics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.pastd_trackers = []
        self.lms_inputs = set()
        self.backward_inputs = set()

    # Counter hooks; each runs after its span has closed.

    def _pastd_pass(self, args, kwargs, result):
        tracker = args[0]
        if tracker.step_count == 1:
            self.pastd_trackers.append(tracker)

    def _lms(self, args, kwargs, result):
        r_seq = args[1]
        self.tracer.add("lms.steps", len(r_seq))
        self.lms_inputs.add(_digest(r_seq))

    def _backward(self, args, kwargs, result):
        model = args[0]
        self.backward_inputs.add(_digest(model.phi, model.noise_cov))

    def _transition(self, args, kwargs, result):
        if result is kwargs.get("previous"):
            self.tracer.add("predict_transition.fallbacks")

    def _yw_step(self, args, kwargs, result):
        self.tracer.add("yule_walker.step_calls")

    def _synth(self, args, kwargs, result):
        self.tracer.add("truth_bytes", result[1].q_true.nbytes)

    def _csv(self, args, kwargs, result):
        self.tracer.add("csv.rows", len(args[2]))
        self.tracer.add("csv.bytes", os.path.getsize(args[0]))

    def install(self):
        import subtrack.cli as cli
        import subtrack.coarse_est as coarse_est
        import subtrack.kalman_core as kalman_core
        import subtrack.metrics as metrics
        import subtrack.pipeline as pipeline
        import subtrack.subspace_tracking as subspace_tracking

        targets = [
            (subspace_tracking.PastdTracker, "step", "pastd", self._pastd_pass),
            (pipeline, "lms_track", "lms", self._lms),
            (pipeline, "fit_coarse_model", "fit", None),
            (pipeline, "kf_update", "kf_update", None),
            (pipeline, "kf_predict", "kf_predict", None),
            (kalman_core.RecursiveAutocorr, "update", "autocorr", None),
            (pipeline, "predict_transition", "predict_transition", self._transition),
            (pipeline, "backward_model", "backward_model", self._backward),
            (pipeline, "fb_combine", "fb_combine", None),
            (kalman_core, "solve_yule_walker", "yule_walker", self._yw_step),
            (coarse_est, "solve_yule_walker", "yule_walker", None),
            (coarse_est, "evd_hermitian", "evd", None),
            (metrics, "evd_hermitian", "evd", None),
            (pipeline, "normalized_prediction_error", "metrics", None),
            (pipeline, "cross_path_coherence", "metrics", None),
            (pipeline, "eigenvalue_spectrum", "metrics", None),
            (cli, "synth_latent_channel", "synth", self._synth),
            (cli, "gen_symbols", "observe", None),
            (cli, "generate_observations", "observe", None),
            (cli, "write_csv", "csv_write", self._csv),
            (cli, "file_digest", "csv_digest", None),
        ]
        originals = []
        for owner, attr, name, after in targets:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, self.tracer.wrap(name, fn, after))
        table = cli.ALGORITHMS
        saved = dict(table)
        for algo, fn in saved.items():
            table[algo] = self.tracer.wrap(f"pipeline.{algo}", fn)

        def restore():
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            table.update(saved)

        return restore

    def metrics(self, wall_s):
        """Per-layer metrics of one traced experiment, by name -> (value, unit).

        ``trace.overhead_s`` needs an untraced run, so the caller adds it.
        """
        spans = self.tracer.spans
        counters = self.tracer.counters
        selfs = self_times(spans)
        durations = {}
        for sid, name, start, end, _ in spans:
            durations.setdefault(name, []).append(end - start)

        def calls(name):
            return len(durations.get(name, ()))

        def busy(name):
            return sum(durations.get(name, ()))

        def us(name, q):
            return 1e6 * percentile(durations.get(name, ()), q)

        def self_of(prefix):
            return sum(selfs[sid] for sid, name, *_ in spans if name.startswith(prefix))

        root = [(sid, end - start) for sid, name, start, end, _ in spans
                if name.startswith("cli.")]
        root_sid, root_s = root[0]
        lms_steps = counters["lms.steps"]
        m = {
            "subspace_tracking.pastd.passes": (len(self.pastd_trackers), "count"),
            "subspace_tracking.pastd.steps": (calls("pastd"), "count"),
            "subspace_tracking.pastd.busy_s": (busy("pastd"), "s"),
            "subspace_tracking.pastd.us_p50": (us("pastd", 50), "us"),
            "subspace_tracking.pastd.us_p99": (us("pastd", 99), "us"),
            "subspace_tracking.pastd.multiplies": (
                sum(t.multiply_count for t in self.pastd_trackers), "count"),
            "coarse_est.lms.calls": (calls("lms"), "count"),
            "coarse_est.lms.busy_s": (busy("lms"), "s"),
            "coarse_est.lms.us_per_step": (
                1e6 * busy("lms") / lms_steps if lms_steps else 0.0, "us"),
            "coarse_est.lms.distinct_ratio": (
                len(self.lms_inputs) / calls("lms") if calls("lms") else 0.0, "ratio"),
            "coarse_est.fit.calls": (calls("fit"), "count"),
            "coarse_est.fit.busy_s": (busy("fit"), "s"),
            "kalman_core.backward_model.calls": (calls("backward_model"), "count"),
            "kalman_core.backward_model.busy_s": (busy("backward_model"), "s"),
            "kalman_core.backward_model.distinct_ratio": (
                len(self.backward_inputs) / calls("backward_model")
                if calls("backward_model") else 0.0, "ratio"),
            "kalman_core.autocorr.calls": (calls("autocorr"), "count"),
            "kalman_core.autocorr.busy_s": (busy("autocorr"), "s"),
            "kalman_core.predict_transition.calls": (calls("predict_transition"), "count"),
            "kalman_core.predict_transition.busy_s": (busy("predict_transition"), "s"),
            "kalman_core.predict_transition.us_p50": (us("predict_transition", 50), "us"),
            "kalman_core.predict_transition.fallbacks": (
                counters["predict_transition.fallbacks"], "count"),
            "linalg_spectral.yule_walker.calls": (calls("yule_walker"), "count"),
            "linalg_spectral.yule_walker.step_calls": (
                counters["yule_walker.step_calls"], "count"),
            "linalg_spectral.yule_walker.busy_s": (busy("yule_walker"), "s"),
            "linalg_spectral.evd.calls": (calls("evd"), "count"),
            "linalg_spectral.evd.busy_s": (busy("evd"), "s"),
            "channel_sim.synth.calls": (calls("synth"), "count"),
            "channel_sim.synth.busy_s": (busy("synth"), "s"),
            "channel_sim.observe.busy_s": (busy("observe"), "s"),
            "channel_sim.truth_mb": (counters["truth_bytes"] / 1e6, "MB"),
            "pipeline.self_s": (self_of("pipeline."), "s"),
            "metrics.calls": (calls("metrics"), "count"),
            "metrics.busy_s": (busy("metrics"), "s"),
            "csvio.write.calls": (calls("csv_write"), "count"),
            "csvio.write.busy_s": (busy("csv_write"), "s"),
            "csvio.write.rows": (counters["csv.rows"], "count"),
            "csvio.write.mb": (counters["csv.bytes"] / 1e6, "MB"),
            "csvio.digest.busy_s": (busy("csv_digest"), "s"),
            "cli.self_s": (selfs[root_sid], "s"),
            "trace.wall_s": (wall_s, "s"),
            "trace.coverage": (1.0 - selfs[root_sid] / root_s, "ratio"),
        }
        for name in ("fb_combine", "kf_update", "kf_predict"):
            m[f"kalman_core.{name}.calls"] = (calls(name), "count")
            m[f"kalman_core.{name}.busy_s"] = (busy(name), "s")
            m[f"kalman_core.{name}.us_p50"] = (us(name, 50), "us")
            m[f"kalman_core.{name}.us_p99"] = (us(name, 99), "us")
        for algo in ALGOS:
            m[f"pipeline.{algo}.calls"] = (calls(f"pipeline.{algo}"), "count")
            m[f"pipeline.{algo}.busy_s"] = (busy(f"pipeline.{algo}"), "s")
        return dict(sorted(m.items()))
