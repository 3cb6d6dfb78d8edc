"""Experiment harness CLI.

Subcommands::

    subtrack run        --config exp.cfg --seeds 20 --out results
    subtrack sweep-rank --config exp.cfg --ranks 1-20 --algo dfb_asrmae
    subtrack coherence  --config exp.cfg --out results
    subtrack spectrum   --config exp.cfg --out results

Shared flags: ``--config PATH``, ``--seed N`` / ``--seeds N``, ``--out DIR``,
``--algos LIST``, ``--preset calm|rough``, and repeatable
``--override section.key=value``.  ``SUBTRACK_THREADS`` caps the number of
seed-level workers.  Exit codes: 0 success, 2 invalid configuration,
3 runtime/numeric failure, 4 output I/O failure.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .channel_sim import (gen_symbols, generate_observations,
                          noise_variance_for_snr, synth_latent_channel)
from .config import ExperimentConfig, load_config
from .csvio import file_digest, load_cir_csv, write_csv
from .errors import ConfigError, SubtrackError
from .linalg_spectral import evd_hermitian, truncate_subspace
from .metrics import cross_path_coherence, eigenvalue_spectrum
from .pipeline import ALGORITHMS, shared_front_end

SYMBOL_SEED_OFFSET = 1_000_000
NOISE_SEED_OFFSET = 2_000_000


def _max_workers() -> int:
    raw = os.environ.get("SUBTRACK_THREADS", "")
    if raw.strip():
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"SUBTRACK_THREADS must be an integer, got {raw!r}") from None
        if value < 1:
            raise ConfigError(f"SUBTRACK_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def _simulate(cfg: ExperimentConfig, seed: int):
    """Build (trajectory, observations) for one seed."""
    if cfg.run.cir_csv:
        traj = load_cir_csv(cfg.run.cir_csv)
    else:
        sim = dataclasses.replace(cfg.sim, seed=seed)
        traj, _ = synth_latent_channel(sim)
    symbols = gen_symbols(traj.n_steps, seed=seed + SYMBOL_SEED_OFFSET)
    sigma_v2 = noise_variance_for_snr(traj, cfg.sim.snr_db)
    obs = generate_observations(traj, symbols, sigma_v2, seed=seed + NOISE_SEED_OFFSET)
    return traj, obs


def _run_seed(cfg: ExperimentConfig, seed: int) -> dict:
    traj, obs = _simulate(cfg, seed)
    tracker = cfg.tracker
    if tracker.n_train >= traj.n_steps:
        raise ConfigError(
            f"tracker.n_train {tracker.n_train} must be smaller than the "
            f"{traj.n_steps}-step record")
    with shared_front_end():
        results = {algo: ALGORITHMS[algo](obs, tracker) for algo in cfg.run.algos}
    return {"seed": seed, "results": results}


def _coherence_rows(matrix):
    rows = []
    m = matrix.rho.shape[0]
    for j in range(m):
        for k in range(m):
            value = matrix.rho[j, k]
            defined = bool(matrix.defined[j] and matrix.defined[k])
            rows.append([j, k,
                         value.real if defined or j == k else float("nan"),
                         value.imag if defined or j == k else float("nan"),
                         int(defined)])
    return rows


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run every configured algorithm for every seed and emit the CSV set.

    Returns the manifest dictionary (also written as ``manifest.json``).
    """
    started = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    workers = min(_max_workers(), max(len(cfg.run.seeds), 1))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(lambda s: _run_seed(cfg, s), cfg.run.seeds))
    else:
        per_seed = [_run_seed(cfg, s) for s in cfg.run.seeds]

    files = []
    summary_rows = []
    error_rows = []
    for entry in per_seed:
        seed = entry["seed"]
        for algo in cfg.run.algos:
            res = entry["results"][algo]
            summary_rows.append([seed, algo, res.mean_err_db, res.n_train,
                                 res.order, res.rank])
            if cfg.run.emit_errors:
                for n in range(len(res.xi)):
                    error_rows.append([seed, algo, n, res.xi[n].real,
                                       res.xi[n].imag, res.err_db[n]])
    write_csv(out / "summary.csv",
              ["seed", "algo", "mean_err_db", "train_len", "p", "r"], summary_rows)
    files.append("summary.csv")
    if cfg.run.emit_errors:
        write_csv(out / "errors.csv",
                  ["seed", "algo", "n", "xi_re", "xi_im", "err_db"], error_rows)
        files.append("errors.csv")

    # Diagnostics come from the first seed's richest result.
    diag = None
    for algo in ("dfb_asrmae", "asrmae"):
        if algo in per_seed[0]["results"]:
            diag = per_seed[0]["results"][algo]
            break
    if diag is not None:
        if cfg.run.emit_phi_traj and diag.phi_traj is not None:
            rows = [[n, tap, diag.phi_traj[n, tap]]
                    for n in range(diag.phi_traj.shape[0])
                    for tap in range(diag.phi_traj.shape[1])]
            write_csv(out / "phi_traj.csv", ["n", "tap", "abs_phi"], rows)
            files.append("phi_traj.csv")
        if cfg.run.emit_coherence and diag.coherence_taps is not None:
            write_csv(out / "coherence_taps.csv",
                      ["row", "col", "rho_re", "rho_im", "defined"],
                      _coherence_rows(diag.coherence_taps))
            files.append("coherence_taps.csv")
        if cfg.run.emit_coherence and diag.coherence_components is not None:
            write_csv(out / "coherence_components.csv",
                      ["row", "col", "rho_re", "rho_im", "defined"],
                      _coherence_rows(diag.coherence_components))
            files.append("coherence_components.csv")
        if cfg.run.emit_spectrum and diag.eigen_spectrum is not None:
            write_csv(out / "eigenspectrum.csv", ["k", "value"],
                      [[k, v] for k, v in enumerate(diag.eigen_spectrum)])
            files.append("eigenspectrum.csv")

    manifest = _write_manifest(cfg, out, files, started)
    return manifest


def sweep_rank(cfg: ExperimentConfig, ranks, algo: str, out_dir) -> dict:
    """Mean prediction error as a function of the tracked subspace rank."""
    if algo not in ALGORITHMS:
        raise ConfigError(f"sweep-rank: unknown algorithm {algo!r}")
    n_taps = cfg.sim.n_taps
    bad = [r for r in ranks if not 1 <= r <= n_taps]
    if bad:
        raise ConfigError(f"sweep-rank: ranks {bad} outside [1, {n_taps}]")
    started = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # One simulation per seed, shared read-only across every rank.
    sims = {seed: _simulate(cfg, seed) for seed in cfg.run.seeds}
    jobs = [(r, seed) for r in ranks for seed in cfg.run.seeds]

    def one(job):
        rank, seed = job
        job_cfg = dataclasses.replace(cfg.tracker, rank=rank)
        _, obs = sims[seed]
        return rank, seed, ALGORITHMS[algo](obs, job_cfg).mean_err_db

    workers = min(_max_workers(), len(jobs))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, jobs))
    else:
        outcomes = [one(job) for job in jobs]

    rows = []
    for rank in ranks:
        errs = [e for r, _, e in outcomes if r == rank]
        rows.extend([[rank, seed, err] for r, seed, err in outcomes if r == rank])
        rows.append([rank, "all", float(np.mean(errs))])
    write_csv(out / "rank_sweep.csv", ["r", "seed", "mean_err_db"], rows)
    manifest = _write_manifest(cfg, out, ["rank_sweep.csv"], started,
                               extra={"ranks": list(ranks), "algo": algo})
    return manifest


def coherence_analysis(cfg: ExperimentConfig, out_dir) -> dict:
    """Tap and component coherence of one simulated (or replayed) channel."""
    started = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.run.seeds[0]
    traj, _ = _simulate(cfg, seed)
    taps = cross_path_coherence(traj.h, kind="taps")
    cov = traj.h.T @ traj.h.conj() / traj.n_steps
    basis = truncate_subspace(evd_hermitian(0.5 * (cov + cov.conj().T)),
                              min(cfg.tracker.rank, traj.n_taps))
    comps = cross_path_coherence(traj.h @ basis.conj(), kind="components")
    write_csv(out / "coherence_taps.csv",
              ["row", "col", "rho_re", "rho_im", "defined"], _coherence_rows(taps))
    write_csv(out / "coherence_components.csv",
              ["row", "col", "rho_re", "rho_im", "defined"], _coherence_rows(comps))
    return _write_manifest(cfg, out, ["coherence_taps.csv", "coherence_components.csv"],
                           started)


def spectrum_analysis(cfg: ExperimentConfig, out_dir) -> dict:
    """Normalized eigenvalue spectrum of one simulated (or replayed) channel."""
    started = time.time()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.run.seeds[0]
    traj, _ = _simulate(cfg, seed)
    cov = traj.h.T @ traj.h.conj() / traj.n_steps
    spectrum = eigenvalue_spectrum(0.5 * (cov + cov.conj().T))
    write_csv(out / "eigenspectrum.csv", ["k", "value"],
              [[k, v] for k, v in enumerate(spectrum)])
    return _write_manifest(cfg, out, ["eigenspectrum.csv"], started)


def _write_manifest(cfg, out: Path, files, started, extra=None) -> dict:
    manifest = {
        "tool": "subtrack",
        "version": __version__,
        "config": cfg.as_dict(),
        "seeds": list(cfg.run.seeds),
        "wall_clock_s": time.time() - started,
        "created_unix": time.time(),
        "conventions": {
            "mean_err_db": "linear-scale mean of |xi|^2/E|r|^2 over the "
                           "post-training window, converted to dB",
            "complex_columns": "_re/_im pairs",
            "float_format": "17 significant digits",
        },
        "files": {name: file_digest(out / name) for name in files},
    }
    if extra:
        manifest.update(extra)
    with (out / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _parse_ranks(raw: str):
    ranks = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            try:
                ranks.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise ConfigError(f"--ranks: bad range {part!r}") from None
        else:
            try:
                ranks.append(int(part))
            except ValueError:
                raise ConfigError(f"--ranks: bad value {part!r}") from None
    if not ranks:
        raise ConfigError("--ranks: empty list")
    return ranks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subtrack",
        description="Subspace Kalman channel-tracking experiment harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file (sim/tracker/run sections)")
        p.add_argument("--seed", type=int, help="single seed to run")
        p.add_argument("--seeds", type=int, help="number of seeds (0..N-1)")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--algos", help="comma list from {lms,asrmae,dfb_asrmae}")
        p.add_argument("--preset", choices=["calm", "rough"],
                       help="variation preset for the simulator")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override (repeatable)")

    common(sub.add_parser("run", help="track with every configured algorithm"))
    sweep = sub.add_parser("sweep-rank", help="error as a function of subspace rank")
    common(sweep)
    sweep.add_argument("--ranks", default="1-20",
                       help="comma list / ranges, e.g. 1-20 or 4,8,12")
    sweep.add_argument("--algo", default="dfb_asrmae",
                       help="algorithm the sweep runs (default dfb_asrmae)")
    common(sub.add_parser("coherence", help="tap/component coherence matrices"))
    common(sub.add_parser("spectrum", help="normalized eigenvalue spectrum"))
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = list(args.override)
    if args.preset:
        overrides.append(f"sim.preset={args.preset}")
    if args.algos:
        overrides.append(f"run.algos={args.algos}")
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("use either --seed or --seeds, not both")
    if args.seed is not None:
        overrides.append(f"run.seeds={args.seed},")
    elif args.seeds is not None:
        overrides.append(f"run.seeds={args.seeds}")
    if args.out:
        overrides.append(f"run.out_dir={args.out}")
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        out_dir = cfg.run.out_dir
        if args.command == "run":
            manifest = run_experiment(cfg, out_dir)
        elif args.command == "sweep-rank":
            manifest = sweep_rank(cfg, _parse_ranks(args.ranks), args.algo, out_dir)
        elif args.command == "coherence":
            manifest = coherence_analysis(cfg, out_dir)
        elif args.command == "spectrum":
            manifest = spectrum_analysis(cfg, out_dir)
        else:  # pragma: no cover - argparse enforces the choice
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"subtrack: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (SubtrackError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"subtrack: run failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"subtrack: output I/O failure: {exc}", file=sys.stderr)
        return 4
    for name in sorted(manifest["files"]):
        print(f"wrote {Path(out_dir) / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
