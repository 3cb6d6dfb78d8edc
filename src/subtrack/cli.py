"""Experiment harness CLI.

Subcommands::

    subtrack run        --config exp.cfg --seeds 20 --out results
    subtrack sweep-rank --config exp.cfg --ranks 1-20 --algo dfb_asrmae
    subtrack coherence  --config exp.cfg --out results
    subtrack spectrum   --config exp.cfg --out results

Shared flags: ``--config PATH``, ``--seed N``, ``--out DIR``, ``--preset
calm|rough`` and repeatable ``--override section.key=value``; ``run`` and
``sweep-rank`` also take ``--seeds N``, and ``run`` ``--algos LIST``.  Exit
codes: 0 success, 2 invalid configuration, 3 runtime/numeric failure, 4 output
I/O failure.
"""

import argparse
import dataclasses
import json
import sys
import time
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .channel_sim import (gen_symbols, generate_observations,
                          noise_variance_for_snr, synth_latent_channel)
from .coarse_est import estimate_channel_covariance
from .config import ExperimentConfig, load_config
from .csvio import file_digest, load_cir_csv, write_csv
from .errors import ConfigError, InvalidInputError, SubtrackError
from .linalg_spectral import evd_hermitian, truncate_subspace
from .metrics import cross_path_coherence, eigenvalue_spectrum
from .pipeline import ALGORITHMS, check_training, register_jobs

SYMBOL_SEED_OFFSET = 1_000_000
NOISE_SEED_OFFSET = 2_000_000


def _simulate(cfg: ExperimentConfig, seed: int, record=None):
    """Build (trajectory, observations) for one seed; ``record`` is the
    replayed ``run.cir_csv`` channel, loaded here when not passed in."""
    if record is None and cfg.run.cir_csv:
        record = load_cir_csv(cfg.run.cir_csv)
    if record is not None:
        traj = record
    else:
        traj, _ = synth_latent_channel(dataclasses.replace(cfg.sim, seed=seed))
    symbols = gen_symbols(traj.n_steps, seed=seed + SYMBOL_SEED_OFFSET)
    sigma_v2 = noise_variance_for_snr(traj, cfg.sim.snr_db)
    obs = generate_observations(traj, symbols, sigma_v2, seed=seed + NOISE_SEED_OFFSET)
    return traj, obs


def _check_record(obs, jobs) -> None:
    """Reject tracker settings the record cannot carry, before any tracking."""
    for _, algo, job_cfg in jobs:
        try:
            check_training(job_cfg, obs.d.shape, subspace=algo != "lms")
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None


def _track(cfg: ExperimentConfig, jobs, keep) -> dict:
    """Run each ``(key, algo, tracker config)`` job on every seed, seed by seed,
    on one record (so one front end) per seed; returns ``keep(key, seed, result)``
    by ``(key, seed)``.  The jobs of a record are announced to the pipeline
    first, so one lockstep forward loop serves them all; each job is still one
    ``ALGORITHMS[algo]`` call.  A replayed record is loaded once for all seeds."""
    record = load_cir_csv(cfg.run.cir_csv) if cfg.run.cir_csv else None
    results = {}
    for seed in cfg.run.seeds:
        traj, obs = _simulate(cfg, seed, record)
        _check_record(obs, jobs)
        register_jobs(obs, [(algo, job_cfg) for _, algo, job_cfg in jobs])
        for key, algo, job_cfg in jobs:
            results[key, seed] = keep(key, seed, ALGORITHMS[algo](obs, job_cfg))
        # The record, and with it its front end, goes before the next seed's.
        del traj, obs
    return results


def _first_seed_channel(cfg: ExperimentConfig):
    """``cfg`` narrowed to its first seed, that seed's channel and its covariance."""
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, seeds=cfg.run.seeds[:1]))
    traj, _ = _simulate(cfg, cfg.run.seeds[0])
    return cfg, traj, estimate_channel_covariance(traj.h)


def _coherence_table(matrix):
    """Row-major (header, rows) of a coherence matrix; undefined pairs read NaN."""
    m = matrix.rho.shape[0]
    row, col = np.divmod(np.arange(m * m), m)
    defined = matrix.defined[row] & matrix.defined[col]
    shown = defined | (row == col)
    rho = matrix.rho.ravel()
    return (["row", "col", "rho_re", "rho_im", "defined"],
            list(zip(row.tolist(), col.tolist(),
                     np.where(shown, rho.real, np.nan).tolist(),
                     np.where(shown, rho.imag, np.nan).tolist(),
                     defined.astype(int).tolist())))


def _spectrum_table(spectrum):
    return ["k", "value"], list(enumerate(spectrum.tolist()))


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run every configured algorithm for every seed and emit the CSV set.

    Returns the manifest dictionary (also written as ``manifest.json``).
    """
    started = time.time()
    seeds, algos, tracker = cfg.run.seeds, cfg.run.algos, cfg.tracker
    # Diagnostics come from the first seed's richest result, the only one held
    # whole; the others keep what the summary and error tables read.
    diag_algo = next((a for a in ("dfb_asrmae", "asrmae") if a in algos), None)

    def keep(algo, seed, res):
        if (algo, seed) == (diag_algo, seeds[0]):
            return res
        return dataclasses.replace(res, h_tracked=None, components=None, phi_traj=None,
                                   eigen_spectrum=None)

    found = _track(cfg, [(algo, algo, cfg.tracker) for algo in algos], keep)
    results = [(seed, algo, found[algo, seed]) for seed in seeds for algo in algos]

    tables = {"summary.csv": (
        ["seed", "algo", "mean_err_db", "train_len", "p", "r"],
        [[seed, algo, res.mean_err_db, tracker.n_train, tracker.order, tracker.rank]
         for seed, algo, res in results])}
    if cfg.run.emit_errors:
        tables["errors.csv"] = (
            ["seed", "algo", "n", "xi_re", "xi_im", "err_db"],
            list(chain.from_iterable(
                zip(repeat(seed), repeat(algo), range(len(res.xi)), res.xi.real.tolist(),
                    res.xi.imag.tolist(), res.err_db.tolist())
                for seed, algo, res in results)))

    if diag_algo is not None:
        diag = found[diag_algo, seeds[0]]
        n, comp = np.divmod(np.arange(diag.phi_traj.size), diag.phi_traj.shape[1])
        tables["phi_traj.csv"] = (
            ["n", "component", "abs_phi"],
            list(zip(n.tolist(), comp.tolist(), diag.phi_traj.ravel().tolist())))
        for name, series in (("taps", diag.h_tracked), ("components", diag.components)):
            tables[f"coherence_{name}.csv"] = _coherence_table(
                cross_path_coherence(series[tracker.n_train:]))
        tables["eigenspectrum.csv"] = _spectrum_table(diag.eigen_spectrum)
    return _write_outputs(cfg, out_dir, started, tables, run_outputs=True)


def sweep_rank(cfg: ExperimentConfig, ranks, algo: str, out_dir) -> dict:
    """Mean prediction error as a function of the tracked subspace rank."""
    if algo not in ALGORITHMS:
        raise ConfigError(f"sweep-rank: unknown algorithm {algo!r}")
    started = time.time()
    # Widest rank first, so its PAST-d pass holds every narrower one.
    err = _track(cfg, [(rank, algo, dataclasses.replace(cfg.tracker, rank=rank))
                       for rank in sorted(set(ranks), reverse=True)],
                 keep=lambda rank, seed, res: res.mean_err_db)
    rows = []
    for rank in ranks:
        errs = [err[rank, seed] for seed in cfg.run.seeds]
        rows.extend([rank, seed, e] for seed, e in zip(cfg.run.seeds, errs))
        rows.append([rank, "all", float(np.mean(errs))])
    return _write_outputs(cfg, out_dir, started,
                          {"rank_sweep.csv": (["r", "seed", "mean_err_db"], rows)},
                          extra={"ranks": list(ranks), "algo": algo})


def coherence_analysis(cfg: ExperimentConfig, out_dir) -> dict:
    """Tap and component coherence of one simulated (or replayed) channel."""
    started = time.time()
    cfg, traj, cov = _first_seed_channel(cfg)
    basis = truncate_subspace(evd_hermitian(cov), min(cfg.tracker.rank, traj.n_taps))
    taps = cross_path_coherence(traj.h)
    comps = cross_path_coherence(traj.h @ basis.conj())
    return _write_outputs(cfg, out_dir, started,
                          {"coherence_taps.csv": _coherence_table(taps),
                           "coherence_components.csv": _coherence_table(comps)})


def spectrum_analysis(cfg: ExperimentConfig, out_dir) -> dict:
    """Normalized eigenvalue spectrum of one simulated (or replayed) channel."""
    started = time.time()
    cfg, _, cov = _first_seed_channel(cfg)
    return _write_outputs(cfg, out_dir, started,
                          {"eigenspectrum.csv": _spectrum_table(eigenvalue_spectrum(cov))})


def _write_outputs(cfg, out_dir, started, tables, extra=None, run_outputs=False) -> dict:
    """Write each ``{name: (header, rows)}`` CSV into ``out_dir``, then the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        write_csv(out / name, header, rows)
    config = dataclasses.asdict(cfg)
    config["sim"].update(cfg.sim.variation())
    del config["sim"]["seed"]  # the seeds run are listed under "seeds"
    if not run_outputs:  # only ``run`` reads run.algos and run.emit_errors
        config["run"] = {key: value for key, value in config["run"].items()
                         if key not in ("algos", "emit_errors")}
    manifest = {
        "tool": "subtrack",
        "version": __version__,
        "config": config,
        "seeds": list(cfg.run.seeds),
        "wall_clock_s": time.time() - started,
        "created_unix": time.time(),
        "conventions": {
            "mean_err_db": "linear-scale mean of |xi|^2/E|r|^2 over the "
                           "post-training window, converted to dB",
            "complex_columns": "_re/_im pairs",
            "float_format": "17 significant digits",
        },
        "files": {name: file_digest(out / name) for name in tables},
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
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise ConfigError(f"--ranks: bad range {part!r}") from None
            if hi < lo:
                raise ConfigError(f"--ranks: descending range {part!r}")
            ranks.extend(range(lo, hi + 1))
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

    def common(p, seeds=True):
        p.add_argument("--config", help="INI config file (sim/tracker/run sections)")
        p.add_argument("--seed", type=int, help="single seed to run")
        if seeds:
            p.add_argument("--seeds", type=int, help="number of seeds (0..N-1)")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--preset", choices=["calm", "rough"],
                       help="variation preset for the simulator")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override (repeatable)")
        return p

    run = common(sub.add_parser("run", help="track with every configured algorithm"))
    run.add_argument("--algos", help="comma list from {lms,asrmae,dfb_asrmae}")
    sweep = common(sub.add_parser("sweep-rank", help="error as a function of subspace rank"))
    sweep.add_argument("--ranks", default="1-20",
                       help="comma list / ranges, e.g. 1-20 or 4,8,12")
    sweep.add_argument("--algo", default="dfb_asrmae",
                       help="algorithm the sweep runs (default dfb_asrmae)")
    common(sub.add_parser("coherence", help="tap/component coherence matrices"), seeds=False)
    common(sub.add_parser("spectrum", help="normalized eigenvalue spectrum"), seeds=False)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    overrides = list(args.override)
    if args.preset:
        overrides.append(f"sim.preset={args.preset}")
    algos, seeds = getattr(args, "algos", None), getattr(args, "seeds", None)
    if algos:
        overrides.append(f"run.algos={algos}")
    if args.seed is not None and seeds is not None:
        raise ConfigError("use either --seed or --seeds, not both")
    if args.seed is not None:
        overrides.append(f"run.seeds={args.seed},")
    elif seeds is not None:
        overrides.append(f"run.seeds={seeds}")
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
