import json
from pathlib import Path

import numpy as np
import pytest

import subtrack.pipeline as pipeline
from subtrack.cli import main
from subtrack.config import load_config
from subtrack.csvio import (file_digest, format_value, load_cir_csv, read_csv,
                            write_csv)
from subtrack.errors import ConfigError
from subtrack.subspace_tracking import PastdTracker

SMALL = [
    "--override", "sim.n_taps=12",
    "--override", "sim.n_steps=300",
    "--override", "sim.n_train=100",
    "--override", "sim.r_true=3",
    "--override", "tracker.rank=3",
]


def run_cli(args):
    return main([str(a) for a in args])


def read_body(path):
    return Path(path).read_bytes()


def test_run_summary_cardinality(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["run", *SMALL, "--seeds", "5", "--out", out,
                    "--algos", "lms,asrmae,dfb_asrmae"])
    assert code == 0
    header, rows = read_csv(out / "summary.csv")
    assert header == ["seed", "algo", "mean_err_db", "train_len", "p", "r"]
    assert len(rows) == 5 * 3
    assert {r[0] for r in rows} == set(range(5))


def test_run_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(["run", *SMALL, "--seeds", "2", "--out", out]) == 0
    for name in ("summary.csv", "errors.csv", "phi_traj.csv",
                 "coherence_taps.csv", "coherence_components.csv",
                 "eigenspectrum.csv"):
        assert read_body(out1 / name) == read_body(out2 / name), name


@pytest.mark.parametrize("n_seeds", [1, 2])
def test_run_shares_one_front_end_per_seed(tmp_path, monkeypatch, n_seeds):
    lms_calls, trackers = [], []
    real_lms, real_init = pipeline.lms_track, PastdTracker.__init__

    def counting_init(self, *args, **kwargs):
        trackers.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "lms_track",
                        lambda *a, **kw: lms_calls.append(1) or real_lms(*a, **kw))
    monkeypatch.setattr(PastdTracker, "__init__", counting_init)
    assert run_cli(["run", *SMALL, "--seeds", n_seeds, "--out", tmp_path / "out",
                    "--algos", "lms,asrmae,dfb_asrmae"]) == 0
    assert len(lms_calls) == n_seeds
    assert len(trackers) == n_seeds


def test_run_emits_expected_files_and_manifest(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", *SMALL, "--seed", "3", "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [3]
    assert manifest["version"]
    for name, digest in manifest["files"].items():
        assert file_digest(out / name) == digest


def test_run_exit_2_on_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[sim]\nn_tapz = 64\n")
    assert run_cli(["run", "--config", cfg]) == 2
    assert "n_tapz" in capsys.readouterr().err


def test_run_exit_2_on_missing_config():
    assert run_cli(["run", "--config", "/nonexistent/x.cfg"]) == 2


def test_config_file_round_trip(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "[sim]\nn_taps = 24\nn_steps = 400\nn_train = 120\nr_true = 4\n"
        "preset = rough\n"
        "[tracker]\nrank = 4\nmu = 0.004\n"
        "[run]\nalgos = asrmae\nseeds = 2,5\nout_dir = somewhere\n")
    cfg = load_config(cfg_file)
    assert cfg.sim.n_taps == 24
    assert cfg.sim.omega_q == 2e-3  # rough preset fills variation params
    assert cfg.tracker.rank == 4
    assert cfg.tracker.n_train == 120  # inherited from sim section
    assert cfg.run.algos == ("asrmae",)
    assert cfg.run.seeds == (2, 5)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        load_config(None, ["tracker.rank=abc"])
    with pytest.raises(ConfigError):
        load_config(None, ["run.algos=nosuch"])
    with pytest.raises(ConfigError):
        load_config(None, ["sim.phi_lo=1.5"])
    with pytest.raises(ConfigError):
        load_config(None, ["nosection.key=1"])


def test_sweep_rank_singleton(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["sweep-rank", *SMALL, "--seed", "1", "--out", out,
                    "--ranks", "3", "--algo", "asrmae"])
    assert code == 0
    header, rows = read_csv(out / "rank_sweep.csv")
    assert header == ["r", "seed", "mean_err_db"]
    assert len(rows) == 2  # one per-seed row plus the aggregate
    assert rows[1][1] == "all"
    assert rows[0][2] == pytest.approx(rows[1][2])


def test_sweep_rank_exit_2_before_running(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["sweep-rank", *SMALL, "--seed", "1", "--out", out,
                    "--ranks", "1-14"])  # 14 > n_taps=12
    assert code == 2
    assert not (out / "rank_sweep.csv").exists()


def test_coherence_and_spectrum_commands(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["coherence", *SMALL, "--seed", "1", "--out", out]) == 0
    header, rows = read_csv(out / "coherence_taps.csv")
    assert header == ["row", "col", "rho_re", "rho_im", "defined"]
    diag = [r for r in rows if r[0] == r[1]]
    assert all(r[2] == 1.0 and r[3] == 0.0 for r in diag)

    assert run_cli(["spectrum", *SMALL, "--seed", "1", "--out", out]) == 0
    header, rows = read_csv(out / "eigenspectrum.csv")
    assert header == ["k", "value"]
    assert rows[0][1] == pytest.approx(1.0)
    values = [r[1] for r in rows]
    assert values == sorted(values, reverse=True)


def test_csv_round_trip_exact():
    rng = np.random.default_rng(0)
    rows = [[int(rng.integers(0, 100)), "name", float(rng.standard_normal())]
            for _ in range(50)]
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, ["i", "s", "x"], rows)
        header, back = read_csv(path)
        assert header == ["i", "s", "x"]
        assert back == rows  # 17 significant digits round-trip floats exactly


def test_format_value_17_digits():
    x = 0.1 + 0.2
    assert float(format_value(x)) == x
    assert format_value(3) == "3"


def test_cir_csv_loader_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    h = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    rows = [[n, k, h[n, k].real, h[n, k].imag]
            for n in range(6) for k in range(3)]
    path = tmp_path / "cir.csv"
    write_csv(path, ["n", "k", "h_re", "h_im"], rows)
    traj = load_cir_csv(path)
    np.testing.assert_allclose(traj.h, h)


def test_cir_csv_loader_rejects_holes(tmp_path):
    path = tmp_path / "cir.csv"
    write_csv(path, ["n", "k", "h_re", "h_im"], [[0, 0, 1.0, 0.0],
                                                 [1, 1, 1.0, 0.0]])
    with pytest.raises(ConfigError):
        load_cir_csv(path)


def test_replay_recorded_channel(tmp_path):
    rng = np.random.default_rng(2)
    n, k = 240, 6
    walk = np.cumsum(0.05 * (rng.standard_normal((n, k))
                             + 1j * rng.standard_normal((n, k))), axis=0)
    walk += rng.standard_normal(k) + 1j * rng.standard_normal(k)
    path = tmp_path / "cir.csv"
    write_csv(path, ["n", "k", "h_re", "h_im"],
              [[i, j, walk[i, j].real, walk[i, j].imag]
               for i in range(n) for j in range(k)])
    out = tmp_path / "out"
    code = run_cli(["run", "--override", f"run.cir_csv={path}",
                    "--override", "tracker.rank=3",
                    "--override", "tracker.n_train=80",
                    "--seed", "0", "--out", out, "--algos", "asrmae"])
    assert code == 0
    _, rows = read_csv(out / "summary.csv")
    assert len(rows) == 1 and np.isfinite(rows[0][2])


def test_algorithm_ordering_majority_of_seeds(tmp_path):
    # Small-scale version of the rough-preset ordering contract.
    out = tmp_path / "out"
    code = run_cli(["run", "--preset", "rough",
                    "--override", "sim.n_taps=24",
                    "--override", "sim.n_steps=1200",
                    "--override", "sim.n_train=400",
                    "--override", "sim.r_true=6",
                    "--override", "tracker.rank=6",
                    "--seeds", "5", "--out", out])
    assert code == 0
    _, rows = read_csv(out / "summary.csv")
    by_seed = {}
    for seed, algo, err, *_ in rows:
        by_seed.setdefault(seed, {})[algo] = err
    ordered = sum(1 for v in by_seed.values()
                  if v["dfb_asrmae"] < v["asrmae"] < v["lms"])
    assert ordered >= 4  # >= 80% of seeds
