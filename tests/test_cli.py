import csv
import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subtrack.cli as cli
import subtrack.pipeline as pipeline
from subtrack.cli import main
from subtrack.config import load_config
from subtrack.csvio import (file_digest, format_value, load_cir_csv, read_csv,
                            write_csv)
from subtrack.errors import ConfigError
from subtrack.metrics import cross_path_coherence
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


def run_python(args):
    """Run ``python *args`` in a fresh process that imports this tree's subtrack."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, env=env)


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


def count_front_ends(monkeypatch):
    """Lists that grow by one per LMS pass and per PastdTracker built."""
    lms_calls, trackers = [], []
    real_lms, real_init = pipeline.lms_track, PastdTracker.__init__

    def counting_init(self, *args, **kwargs):
        trackers.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(pipeline, "lms_track",
                        lambda *a, **kw: lms_calls.append(1) or real_lms(*a, **kw))
    monkeypatch.setattr(PastdTracker, "__init__", counting_init)
    return lms_calls, trackers


@pytest.mark.parametrize("n_seeds", [1, 2])
def test_run_shares_one_front_end_per_seed(tmp_path, monkeypatch, n_seeds):
    lms_calls, trackers = count_front_ends(monkeypatch)
    assert run_cli(["run", *SMALL, "--seeds", n_seeds, "--out", tmp_path / "out",
                    "--algos", "lms,asrmae,dfb_asrmae"]) == 0
    assert len(lms_calls) == n_seeds
    assert len(trackers) == n_seeds


@pytest.mark.parametrize("n_seeds", [1, 2])
def test_sweep_rank_shares_one_front_end_per_seed(tmp_path, monkeypatch, n_seeds):
    lms_calls, trackers = count_front_ends(monkeypatch)
    assert run_cli(["sweep-rank", *SMALL, "--seeds", n_seeds, "--out", tmp_path / "out",
                    "--ranks", "2,4,1,3", "--algo", "dfb_asrmae"]) == 0
    assert len(lms_calls) == n_seeds
    assert len(trackers) == n_seeds
    assert {t.rank for t in trackers} == {4}


def test_track_drops_each_record_before_the_next(tmp_path, monkeypatch):
    # A record keeps its front end (PAST-d's (N, K, r) bases) while it lives.
    held = []
    real = cli._simulate
    monkeypatch.setattr(cli, "_simulate",
                        lambda *a: held.append(len(pipeline._FRONT_ENDS)) or real(*a))
    assert run_cli(["run", *SMALL, "--seeds", "3", "--out", tmp_path / "out"]) == 0
    assert held == [held[0]] * 3


def test_sweep_rank_rows_match_standalone_runs(tmp_path):
    # Unsorted, with a repeated rank: rows keep the --ranks order, one block
    # per occurrence, each equal to a standalone run on a fresh record.
    ranks = [2, 5, 1, 3, 5]
    out = tmp_path / "out"
    assert run_cli(["sweep-rank", *SMALL, "--seeds", "2", "--out", out,
                    "--ranks", ",".join(map(str, ranks)), "--algo", "dfb_asrmae"]) == 0
    _, rows = read_csv(out / "rank_sweep.csv")

    cfg = load_config(None, [*SMALL[1::2], "run.seeds=2"])
    sims = [cli._simulate(cfg, seed)[1] for seed in cfg.run.seeds]
    expected = []
    for rank in ranks:
        job = dataclasses.replace(cfg.tracker, rank=rank)
        errs = [pipeline.run_dfb_asrmae(dataclasses.replace(obs), job).mean_err_db
                for obs in sims]
        expected += [[rank, seed, err] for seed, err in zip(cfg.run.seeds, errs)]
        expected.append([rank, "all", float(np.mean(errs))])
    assert [row[:2] for row in rows] == [row[:2] for row in expected]
    for row, want in zip(rows, expected):
        if row[0] == 1:
            # A rank-1 slice of the record's widest PAST-d pass differs from a
            # rank-1 pass by rounding (see pipeline._shared).
            assert row[2] == pytest.approx(want[2], rel=1e-12)
        else:
            assert row[2] == want[2], row


def test_run_emits_expected_files_and_manifest(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", *SMALL, "--seed", "3", "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [3]
    assert manifest["version"]
    # The variation values simulated, not the None they were configured as.
    assert manifest["config"]["sim"]["omega_q"] == 2e-4
    assert manifest["config"]["sim"]["phi_drift"] == 0.0
    assert "seed" not in manifest["config"]["sim"]
    for name, digest in manifest["files"].items():
        assert file_digest(out / name) == digest


def test_run_exit_2_on_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[sim]\nn_tapz = 64\n")
    assert run_cli(["run", "--config", cfg]) == 2
    assert "n_tapz" in capsys.readouterr().err


def test_config_file_rejects_unknown_section(tmp_path):
    for body in ("[bogus]\n", "[bogus]\nkey = 1\n"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        with pytest.raises(ConfigError, match="bogus"):
            load_config(cfg)


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
    assert cfg.sim.variation()["omega_q"] == 2e-3  # rough preset fills variation params
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


def test_descending_rank_range_is_a_config_error(tmp_path, capsys):
    assert cli._parse_ranks("3-3,1-2") == [3, 1, 2]
    with pytest.raises(ConfigError, match="'12-8'"):
        cli._parse_ranks("4,12-8")
    out = tmp_path / "out"
    assert run_cli(["sweep-rank", *SMALL, "--seed", "1", "--out", out,
                    "--ranks", "4,12-8", "--algo", "asrmae"]) == 2
    assert "12-8" in capsys.readouterr().err
    assert not out.exists()


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



@pytest.mark.parametrize("args", [
    ["sweep-rank", "--algos", "lms"],
    ["coherence", "--seeds", "2"],
    ["coherence", "--algos", "lms"],
    ["spectrum", "--seeds", "2"],
    ["spectrum", "--algos", "lms"],
], ids=["sweep-rank-algos", "coherence-seeds", "coherence-algos", "spectrum-seeds",
        "spectrum-algos"])
def test_commands_reject_flags_they_do_not_read(tmp_path, capsys, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([*args, *SMALL, "--out", out])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["coherence", "spectrum"])
def test_analysis_manifest_lists_only_the_analysed_seed(tmp_path, command):
    out = tmp_path / "out"
    assert run_cli([command, *SMALL, "--override", "run.seeds=4,1,2",
                    "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [4]
    assert manifest["config"]["run"]["seeds"] == [4]
    # The first seed listed is the one analysed: the files equal a --seed 4 run's.
    assert run_cli([command, *SMALL, "--seed", "4", "--out", tmp_path / "one"]) == 0
    for name in manifest["files"]:
        assert read_body(out / name) == read_body(tmp_path / "one" / name)


def test_phi_traj_rows_count_components(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", *SMALL, "--seed", "0", "--out", out,
                    "--algos", "dfb_asrmae"]) == 0
    header, rows = read_csv(out / "phi_traj.csv")
    assert header == ["n", "component", "abs_phi"]
    assert sorted({row[1] for row in rows}) == [0, 1, 2]  # rank 3 of 12 taps
    assert len(rows) == 300 * 3

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


def reference_write_csv(path, header, rows):
    """The csv.writer-based writer and per-type formatter ``write_csv`` replaced."""
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def test_write_csv_matches_reference_writer(tmp_path):
    rng = np.random.default_rng(11)
    floats = (rng.uniform(-1.0, 1.0, 5000) * 10.0 ** rng.uniform(-300.0, 300.0, 5000)).tolist()
    floats += [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
               1e300, 1e-300, 0.1 + 0.2]
    ints = rng.integers(-10**12, 10**12, len(floats))
    names = ["lms", "asrmae", "dfb_asrmae", "all"]
    rows = [[x, np.float64(x), int(i), i, names[k % 4]]
            for k, (x, i) in enumerate(zip(floats, ints))]
    header = ["x", "x64", "i", "i64", "name"]
    write_csv(tmp_path / "new.csv", header, rows)
    reference_write_csv(tmp_path / "ref.csv", header, rows)
    assert read_body(tmp_path / "new.csv") == read_body(tmp_path / "ref.csv")


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


def test_cir_csv_loader_one_based_grid(tmp_path):
    path = tmp_path / "cir.csv"
    write_csv(path, ["n", "k", "h_re", "h_im"],
              [[n + 1, k + 1, float(n), float(k)] for n in range(3) for k in range(2)])
    traj = load_cir_csv(path)
    assert traj.h.shape == (3, 2)
    assert np.array_equal(traj.h, np.arange(3)[:, None] + 1j * np.arange(2))


def test_cir_csv_loader_grid_from_any_offset(tmp_path):
    path = tmp_path / "cir.csv"
    write_csv(path, ["n", "k", "h_re", "h_im"],
              [[n, k, float(n), float(k)] for n in (5, 6) for k in (0, 1)])
    traj = load_cir_csv(path)
    assert traj.h.shape == (2, 2)
    assert np.array_equal(traj.h, np.array([5, 6])[:, None] + 1j * np.arange(2))


NON_FINITE_IN_ROW_2 = r"non-finite cell in data row 2\b"
NON_INTEGER_IN_ROW_2 = r"non-integer index in data row 2\b"


@pytest.mark.parametrize("body,match", [
    ("0,0,1.0,0.0\n1,0,abc,0.0", None),
    ("0,0,1.0,0.0\n1,0,0.5", None),
    ("0,0,1.0\n1,0,0.5", None),
    ("0,0,1.0,0.0\n1,0,inf,0.0", NON_FINITE_IN_ROW_2),
    ("0,0,1.0,0.0\n1,0,nan,0.0", NON_FINITE_IN_ROW_2),
    ("0,0,1.0,0.0\n1,0,0.5,-inf\n0,1,nan,0.0", NON_FINITE_IN_ROW_2),
    ("0,0,1.0,0.0\nnan,0,0.5,0.0", NON_FINITE_IN_ROW_2),
    ("0,0,1,0\n1.7,0,1,0", NON_INTEGER_IN_ROW_2),
    ("0,0,1,0\n0,0.5,1,0\n1,0,1,0\n1,1,1,0", NON_INTEGER_IN_ROW_2),
    ("0,0,1,0\n0,1,1,0\n1e20,0,1,0\n1e20,1,1,0",
     r"index off every complete grid of 4 rows in data row 3\b"),
], ids=["malformed-cell", "short-row", "every-row-short", "inf-cell", "nan-cell",
        "first-of-two-non-finite", "non-finite-index", "fractional-step",
        "fractional-tap", "step-index-off-grid"])
def test_cir_csv_loader_bad_rows_are_config_errors(tmp_path, body, match):
    path = tmp_path / "cir.csv"
    path.write_text(f"n,k,h_re,h_im\n{body}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        load_cir_csv(path)
    assert run_cli(["run", "--override", f"run.cir_csv={path}", "--seed", "0",
                    "--out", tmp_path / "out", "--algos", "asrmae"]) == 2


def write_walk_cir(path, n=240, k=6):
    """A recorded random-walk channel of n steps and k taps."""
    rng = np.random.default_rng(2)
    walk = np.cumsum(0.05 * (rng.standard_normal((n, k))
                             + 1j * rng.standard_normal((n, k))), axis=0)
    walk += rng.standard_normal(k) + 1j * rng.standard_normal(k)
    write_csv(path, ["n", "k", "h_re", "h_im"],
              [[i, j, walk[i, j].real, walk[i, j].imag]
               for i in range(n) for j in range(k)])
    return path


def test_replay_recorded_channel(tmp_path):
    path = write_walk_cir(tmp_path / "cir.csv")
    out = tmp_path / "out"
    code = run_cli(["run", "--override", f"run.cir_csv={path}",
                    "--override", "tracker.rank=3",
                    "--override", "tracker.n_train=80",
                    "--seed", "0", "--out", out, "--algos", "asrmae"])
    assert code == 0
    _, rows = read_csv(out / "summary.csv")
    assert len(rows) == 1 and np.isfinite(rows[0][2])



def test_replay_takes_a_sim_n_train_beyond_the_simulators_steps(tmp_path):
    # sim.n_train is only the tracker's default; the record fixes the steps.
    path = write_walk_cir(tmp_path / "cir.csv")
    out = tmp_path / "out"
    assert run_cli(["run", "--override", f"run.cir_csv={path}",
                    "--override", "sim.n_steps=100", "--override", "sim.n_train=150",
                    "--override", "tracker.rank=3",
                    "--seed", "0", "--out", out, "--algos", "asrmae"]) == 0
    _, rows = read_csv(out / "summary.csv")
    assert rows[0][3] == 150  # train_len
    # A simulated record still rejects a training length it cannot carry.
    out = tmp_path / "sim"
    assert run_cli(["run", *SMALL, "--override", "sim.n_train=300",
                    "--seed", "0", "--out", out, "--algos", "asrmae"]) == 2
    assert not out.exists()

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


@pytest.mark.parametrize("args", [
    ["sweep-rank", "--algo", "asrmae", "--ranks", "1-8",  # 8 > 6 taps
     "--override", "tracker.n_train=80"],
    ["sweep-rank", "--algo", "asrmae", "--ranks", "3"],  # n_train 1000 >= 240 steps
    ["run", "--algos", "asrmae", "--override", "tracker.rank=8",
     "--override", "tracker.n_train=80"],
], ids=["sweep-rank-over-taps", "sweep-rank-n-train", "run-rank-over-taps"])
def test_replayed_record_checked_before_tracking(tmp_path, monkeypatch, args):
    monkeypatch.setitem(pipeline.ALGORITHMS, "asrmae",
                        lambda *a: pytest.fail("tracked before the record check"))
    path = write_walk_cir(tmp_path / "cir.csv")
    out = tmp_path / "out"
    assert run_cli([*args, "--override", f"run.cir_csv={path}", "--seed", "0",
                    "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["sweep-rank", "--algo", "asrmae", "--ranks", "1-3"],
    ["run", "--algos", "asrmae", "--override", "tracker.rank=3"],
], ids=["sweep-rank", "run"])
def test_replayed_record_loaded_once_per_command(tmp_path, monkeypatch, args):
    calls = []
    real = cli.load_cir_csv
    monkeypatch.setattr(cli, "load_cir_csv",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    path = write_walk_cir(tmp_path / "cir.csv")
    assert run_cli([*args, "--override", f"run.cir_csv={path}",
                    "--override", "tracker.n_train=80", "--seeds", "3",
                    "--out", tmp_path / "out"]) == 0
    assert len(calls) == 1


def test_negative_seeds_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="seeds"):
        load_config(None, ["run.seeds=-1,"])
    with pytest.raises(ConfigError, match="seeds"):
        load_config(None, ["run.seeds=2,-3"])
    assert run_cli(["run", *SMALL, "--seed", "-1", "--out", tmp_path / "out"]) == 2


# One accepted value (raw, parsed) and one rejected raw value per config key;
# str keys take any value, so they have no rejected one.
CONFIG_KEYS = {
    ("sim", "n_taps"): ("32", 32, "3.5"),
    ("sim", "n_steps"): ("4000", 4000, "many"),
    ("sim", "n_train"): ("500", 500, "1e3"),
    ("sim", "r_true"): ("4", 4, "four"),
    ("sim", "snr_db"): ("15.5", 15.5, "loud"),
    ("sim", "phi_lo"): ("0.95", 0.95, "high"),
    ("sim", "phi_hi"): ("0.9999", 0.9999, "1..0"),
    ("sim", "omega_q"): ("1e-3", 1e-3, "fast"),
    ("sim", "phi_drift"): ("0.02", 0.02, "x"),
    ("sim", "preset"): (" rough ", "rough", None),
    ("sim", "power_decay"): ("0.8", 0.8, "-"),
    ("tracker", "order"): ("2", 2, "2.0"),
    ("tracker", "rank"): ("6", 6, "six"),
    ("tracker", "mu"): ("0.01", 0.01, "big"),
    ("tracker", "beta"): ("0.99", 0.99, "one"),
    ("tracker", "n_train"): ("500", 500, "5e2"),
    ("tracker", "sigma_v2"): ("0.25", 0.25, "quiet"),
    ("tracker", "dynamic_phi"): ("false", False, "maybe"),
    ("tracker", "correlated_noise"): ("no", False, "2"),
    ("tracker", "fb_smoothing"): ("Off", False, "nope"),
    ("tracker", "floor_db"): ("-90.5", -90.5, "low"),
    ("tracker", "reorth_period"): ("25", 25, "often"),
    ("run", "algos"): ("lms, asrmae", ("lms", "asrmae"), "kalman"),
    ("run", "seeds"): ("3", (0, 1, 2), "three"),
    ("run", "out_dir"): (" elsewhere ", "elsewhere", None),
    ("run", "emit_errors"): ("0", False, "none"),
    ("run", "emit_phi_traj"): ("no", False, "y"),
    ("run", "emit_coherence"): ("false", False, "f"),
    ("run", "emit_spectrum"): ("off", False, "disabled"),
    ("run", "cir_csv"): (" rec.csv ", "rec.csv", None),
}


def test_config_keys_are_the_dataclass_fields():
    cfg = load_config()
    fields = {(section, f.name) for section in ("sim", "tracker", "run")
              for f in dataclasses.fields(getattr(cfg, section))}
    # The seeds run come from run.seeds, so sim.seed is no key.
    assert set(CONFIG_KEYS) == fields - {("sim", "seed")}
    for key in ("sim.pulse_span", "sim.n_tapz", "tracker.ranks", "run.seed", "sim.seed"):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(None, [f"{key}=1"])


@pytest.mark.parametrize("section,key", sorted(CONFIG_KEYS))
def test_config_key_override_typed(section, key):
    raw, parsed, bad = CONFIG_KEYS[(section, key)]
    value = getattr(getattr(load_config(None, [f"{section}.{key}={raw}"]), section), key)
    assert value == parsed
    assert type(value) is type(parsed)
    if bad is not None:
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_config(None, [f"{section}.{key}={bad}"])


ALL_RUN_FILES = {"summary.csv", "errors.csv", "phi_traj.csv", "coherence_taps.csv",
                 "coherence_components.csv", "eigenspectrum.csv"}


@pytest.mark.parametrize("flag,dropped", [
    ("emit_errors", {"errors.csv"}),
    ("emit_phi_traj", {"phi_traj.csv"}),
    ("emit_coherence", {"coherence_taps.csv", "coherence_components.csv"}),
    ("emit_spectrum", {"eigenspectrum.csv"}),
])
def test_run_emit_flag_off_drops_its_files(tmp_path, flag, dropped):
    out = tmp_path / "out"
    assert run_cli(["run", *SMALL, "--seed", "1", "--out", out,
                    "--override", f"run.{flag}=false"]) == 0
    expected = ALL_RUN_FILES - dropped
    assert {p.name for p in out.iterdir()} == expected | {"manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == expected


def test_coherence_table_matches_reference_loop():
    series = np.random.default_rng(3).standard_normal((50, 4)) + 0j
    series[:, 2] = 0.0  # a zero-power column: undefined off the diagonal
    matrix = cross_path_coherence(series)
    reference = []
    for j in range(4):
        for k in range(4):
            value = matrix.rho[j, k]
            defined = bool(matrix.defined[j] and matrix.defined[k])
            shown = defined or j == k
            reference.append([j, k, value.real if shown else float("nan"),
                              value.imag if shown else float("nan"), int(defined)])
    header, rows = cli._coherence_table(matrix)
    assert header == ["row", "col", "rho_re", "rho_im", "defined"]
    assert ([[format_value(v) for v in row] for row in rows]
            == [[format_value(v) for v in row] for row in reference])
    assert sum(row[4] for row in rows) == 9


# Tracker and simulator values their field's type accepts but the run cannot use.
OUT_OF_RANGE = ["tracker.mu=0", "tracker.mu=-0.01", "tracker.mu=nan", "tracker.mu=inf",
                "tracker.sigma_v2=-1", "tracker.sigma_v2=0", "tracker.sigma_v2=nan",
                "tracker.sigma_v2=inf", "tracker.reorth_period=-1",
                "tracker.floor_db=nan", "tracker.floor_db=inf",
                "sim.snr_db=nan", "sim.snr_db=-inf", "sim.omega_q=nan",
                "sim.phi_drift=nan", "sim.power_decay=nan", "sim.power_decay=-1",
                "sim.preset=stormy", "sim.r_true=63", "sim.r_true=64"]


def in_section(section):
    return [o for o in OUT_OF_RANGE if o.startswith(section + ".")]


def assert_out_of_range_exits_2(tmp_path, override):
    key = override.split("=")[0].split(".")[1]
    with pytest.raises(ConfigError, match=key):
        load_config(None, [override])
    out = tmp_path / "out"
    assert run_cli(["run", *SMALL, "--override", override, "--seed", "0",
                    "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("override", in_section("tracker"))
def test_out_of_range_tracker_value_exits_2(tmp_path, override):
    assert_out_of_range_exits_2(tmp_path, override)


@pytest.mark.parametrize("override", in_section("sim"))
def test_out_of_range_sim_value_exits_2(tmp_path, override):
    assert_out_of_range_exits_2(tmp_path, override)


def test_reorth_period_zero_still_means_never():
    assert load_config(None, ["tracker.reorth_period=0"]).tracker.reorth_period == 0


# A rotating basis needs r_true + 2 <= n_taps (12 here); a fixed one takes every tap.
@pytest.mark.parametrize("override", ["sim.snr_db=inf", "sim.power_decay=0", "sim.r_true=10",
                                      "sim.omega_q=0 sim.r_true=12"])
def test_edge_sim_values_still_run(tmp_path, override):
    overrides = [arg for item in override.split() for arg in ("--override", item)]
    assert run_cli(["run", *SMALL, *overrides, "--seed", "0",
                    "--out", tmp_path / "out"]) == 0


@pytest.mark.parametrize("args,calls", [
    (["run", "--seeds", "2", "--algos", "lms,asrmae,dfb_asrmae"], 2),
    (["run", "--seeds", "2", "--algos", "lms,asrmae,dfb_asrmae",
      "--override", "run.emit_coherence=false"], 0),
    (["sweep-rank", "--seeds", "2", "--ranks", "2,3"], 0),
], ids=["run", "run-no-coherence", "sweep-rank"])
def test_coherence_computed_only_for_written_tables(tmp_path, monkeypatch, args, calls):
    seen = []
    for module in (cli, pipeline):
        real = module.cross_path_coherence
        monkeypatch.setattr(module, "cross_path_coherence",
                            lambda *a, _name=module.__name__, _real=real:
                            seen.append(_name) or _real(*a))
    assert run_cli([*args, *SMALL, "--out", tmp_path / "out"]) == 0
    assert seen == ["subtrack.cli"] * calls


@pytest.mark.parametrize("command", ["run", "coherence"])
@pytest.mark.parametrize("content", [None, b"n,k,h_re,h_im\n0,0,\xff,0\n"],
                         ids=["missing", "not-utf8"])
def test_unreadable_cir_csv_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "cir.csv"
    if content is not None:
        path.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli([command, "--override", f"run.cir_csv={path}", "--seed", "0",
                    "--out", out]) == 2
    assert f"cannot read {path}" in capsys.readouterr().err
    assert not out.exists()


def test_override_section_and_key_are_stripped():
    assert load_config(None, ["tracker.rank = 5"]).tracker.rank == 5
    assert load_config(None, [" tracker . rank=5"]).tracker.rank == 5
    with pytest.raises(ConfigError, match=r"unknown key tracker\.bogus$"):
        load_config(None, ["tracker. bogus=1"])


def test_cli_import_loads_no_scipy():
    proc = run_python(["-c", "import sys, subtrack.cli; "
                             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def count_whole_results():
    gc.collect()
    return sum(isinstance(obj, pipeline.TrackResult) and obj.h_tracked is not None
               for obj in gc.get_objects())


@pytest.mark.parametrize("algos", ["lms,asrmae,dfb_asrmae", "lms"])
def test_run_holds_only_the_diagnostic_result_whole(tmp_path, monkeypatch, algos):
    before = count_whole_results()
    held = []
    write = cli._write_outputs

    def counting_write(*args, **kwargs):
        held.append(count_whole_results() - before)
        return write(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_outputs", counting_write)
    assert run_cli(["run", *SMALL, "--seeds", "3", "--algos", algos,
                    "--out", tmp_path / "out"]) == 0
    assert held == [1 if "asrmae" in algos else 0]


def test_higher_order_smoothing_overflow_exits_3_without_warnings(tmp_path):
    # The p >= 2 backward pass overflows on this record: the inverted
    # companion matrix has eigenvalues far above one.
    proc = run_python(["-m", "subtrack.cli", "run", "--seed", "3", "--algos", "dfb_asrmae",
                       "--override", "tracker.order=2", "--override", "sim.n_taps=32",
                       "--override", "sim.n_steps=3000", "--override", "tracker.rank=6",
                       "--out", tmp_path / "out"])
    assert proc.returncode == 3, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "backward pass" in proc.stderr and "tracker.fb_smoothing=false" in proc.stderr
