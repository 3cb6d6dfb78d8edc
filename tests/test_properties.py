"""Property test: every configuration the library accepts tracks or fails typed.

Hypothesis draws small simulator and tracker settings: up to 12 taps and 250
steps, AR orders 1-3, every combination of the three tracker flags, and SNRs
from -40 to 80 dB or noise-free.  Each of the three trackers must return
finite results or raise a ``SubtrackError``; no warning may escape.  The draw
is derandomized, so the suite stays deterministic.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from subtrack.channel_sim import (SimConfig, gen_symbols, generate_observations,
                                  noise_variance_for_snr, synth_latent_channel)
from subtrack.errors import SubtrackError
from subtrack.pipeline import TrackerConfig, run_asrmae, run_dfb_asrmae, run_lms


@st.composite
def configs(draw):
    n_taps = draw(st.integers(1, 12))
    n_steps = draw(st.integers(8, 250))
    r_true = draw(st.integers(1, n_taps))
    preset = draw(st.sampled_from(["calm", "rough"]))
    sim = SimConfig(
        n_taps=n_taps, n_steps=n_steps, n_train=draw(st.integers(1, n_steps - 1)),
        r_true=r_true, seed=draw(st.integers(0, 2**16)),
        snr_db=draw(st.one_of(st.floats(-40.0, 80.0), st.just(np.inf))),
        preset=preset,
        # A rotating basis needs two taps beyond its rank.
        omega_q=None if r_true + 2 <= n_taps else 0.0)
    tracker = TrackerConfig(
        order=draw(st.integers(1, 3)), rank=draw(st.integers(1, n_taps)),
        mu=draw(st.floats(1e-4, 0.2)), beta=draw(st.floats(0.5, 1.0)),
        n_train=sim.n_train, dynamic_phi=draw(st.booleans()),
        correlated_noise=draw(st.booleans()), fb_smoothing=draw(st.booleans()))
    return sim, tracker


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(configs())
def test_every_accepted_configuration_tracks_or_fails_typed(drawn):
    sim, tracker = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, _ = synth_latent_channel(sim)
        symbols = gen_symbols(sim.n_steps, seed=sim.seed + 1)
        sigma_v2 = noise_variance_for_snr(traj, sim.snr_db)
        obs = generate_observations(traj, symbols, sigma_v2, seed=sim.seed + 2)
        for run in (run_lms, run_asrmae, run_dfb_asrmae):
            try:
                res = run(obs, tracker)
            except SubtrackError:
                continue
            assert np.isfinite(res.mean_err_db)
            assert np.isfinite(res.xi).all() and np.isfinite(res.err_db).all()
            assert np.isfinite(res.h_tracked).all()
