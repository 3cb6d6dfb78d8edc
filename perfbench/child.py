"""One benchmark experiment in a fresh process, reported as one JSON line.

``run.py`` starts this script once per experiment, so peak RSS and set-up time
are those of a new process.  Set-up time runs from the moment the parent
spawned the process (``--spawned``, on the system-wide monotonic clock) to
the first call into the workload: interpreter start, imports, config load.

Exit codes: 0 with a record on stdout; 2 when subtrack cannot be imported or
configured (the benchmark cannot run); 3 when the experiment raised.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment():
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "SUBTRACK_THREADS": os.environ.get("SUBTRACK_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import subtrack.cli as cli
        from subtrack.config import load_config
        from subtrack.csvio import read_csv
        from subtrack.errors import ConfigError, SubtrackError
    except ImportError as exc:
        print(f"perfbench: cannot import subtrack from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from quality import rebuild_truth, truth_nmse_db
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    try:
        cfg = load_config(None, workload.overrides_for(args.base, args.out))
    except ConfigError as exc:
        print(f"perfbench: workload config rejected: {exc}", file=sys.stderr)
        return 2
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "environment": environment()}))
        return 0

    sweep = workload.entry == "sweep_rank"
    captured = {}

    def capture(algo, fn):
        def run(obs, tracker_cfg):
            result = fn(obs, tracker_cfg)
            key = tracker_cfg.rank if sweep else algo
            captured[(key, obs.seed - cli.NOISE_SEED_OFFSET)] = (result.h_tracked, obs.r)
            return result
        return run

    table = cli.ALGORITHMS
    saved = dict(table)
    for algo, fn in saved.items():
        table[algo] = capture(algo, fn)

    layers = restore = None
    if args.trace:
        from layers import Layers
        from spans import Tracer
        layers = Layers(Tracer())
        restore = layers.install()

    error = None
    root = layers.tracer.root(f"cli.{workload.entry}") if layers else nullcontext()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        with root:
            if sweep:
                cli.sweep_rank(cfg, list(workload.ranks), workload.algos[0], args.out)
            else:
                cli.run_experiment(cfg, args.out)
    except (SubtrackError, np.linalg.LinAlgError, FloatingPointError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    if restore is not None:
        restore()
    table.update(saved)

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss * 1024 / 1e6,
    }
    if error is not None:
        record["error"] = error
        print(json.dumps(record))
        return 3

    # Outputs, checked outside the timed window.
    out = Path(args.out)
    if sweep:
        _, rows = read_csv(out / "rank_sweep.csv")
        err_db = {(r, seed): e for r, seed, e in rows if seed != "all"}
    else:
        _, rows = read_csv(out / "summary.csv")
        err_db = {(algo, seed): e for seed, algo, e, *_ in rows}
    runs = {}
    for seed in workload.sim_seeds(args.base):
        h_true, r_true = rebuild_truth(cfg, seed)
        for (key, run_seed), (h_tracked, r_seen) in captured.items():
            if run_seed != seed:
                continue
            runs[f"{key}/{seed}"] = {
                "err_db": err_db.get((key, seed)),
                "truth_nmse_db": truth_nmse_db(h_tracked, h_true, cfg.tracker.n_train,
                                               conjugate=key == "lms"),
                "same_input": bool(np.array_equal(r_seen, r_true)),
            }
        del h_true, r_true
    record["runs"] = runs
    record["digests"] = json.loads((out / "manifest.json").read_text())["files"]
    if layers is not None:
        record["layers"] = layers.metrics(wall_s)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
