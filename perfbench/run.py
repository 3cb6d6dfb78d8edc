"""subtrack benchmark: Monte-Carlo experiments through the public CLI entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_rough --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each experiment runs in a fresh process (``child.py``), one at a time (a
closed loop with one client), on one thread (``CHILD_ENV``).  A run
makes at least two experiments and starts another only while it can finish
within ``--seconds``.  Every experiment's outputs are checked against
``references.json``; the experiments of one run must write byte-identical
files.  ``--trace 0`` reports the end-to-end metrics (medians over the run's
experiments); ``--trace 1`` runs one untraced and one traced experiment and
reports the per-layer metrics.  The last line of stdout is the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SEED_POOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

# |measured - reference| allowed for err_db and truth_nmse_db: far above the
# rounding-level differences of reordered arithmetic, far below any change to
# what the trackers compute.
TOLERANCE_DB = 1e-6
SETUP_ONLY_SAMPLES = 5
MIN_EXPERIMENTS = 2
MIN_COVERAGE = 0.9
CHILD_BUDGET_S = 170.0
# Each experiment runs on one thread.  The CLI's default of one seed worker per
# core only adds interpreter-lock hand-offs (the trackers are GIL-bound), and
# OpenBLAS worker threads spin on tiny matrices; both make wall time follow the
# host's other load rather than the program.
CHILD_ENV = {"SUBTRACK_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to the program failing)."""


def run_child(workload, base, out_dir, trace=0, setup_only=False, timeout=CHILD_BUDGET_S):
    """Run child.py once; returns (exit code, record or None, stderr)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--base", str(base), "--out", str(out_dir), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT, check=False,
                              env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {timeout:.0f} s"
    if proc.returncode == 2:
        raise BenchError(proc.stderr.strip() or "child could not start")
    record = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    return proc.returncode, record, proc.stderr


def median(values):
    return statistics.median(values) if values else 0.0


def check_runs(workload, base, record, references):
    """Failed planned runs of one experiment, as messages."""
    problems = []
    runs = (record or {}).get("runs", {})
    for key, seed in workload.planned_runs(base):
        name = f"{key}/{seed}"
        got, ref = runs.get(name), references.get(name)
        if ref is None:
            raise BenchError(f"{workload.name}: no reference for run {name}")
        if got is None or got["err_db"] is None:
            problems.append(f"{name}: missing from the outputs")
        elif not got["same_input"]:
            problems.append(f"{name}: rebuilt observations differ from the run's")
        else:
            for field in ("err_db", "truth_nmse_db"):
                if abs(got[field] - ref[field]) > TOLERANCE_DB:
                    problems.append(f"{name}: {field} {got[field]!r} != reference "
                                    f"{ref[field]!r}")
                    break
    return problems


def wiring_problems(workload, layers):
    """The traced run's spans must match what each workload is known to run."""
    value = {name: v for name, (v, _) in layers.items()}
    problems = []
    if workload.name != "paper_rough":
        for name in ("kalman_core.fb_combine.calls", "kalman_core.backward_model.calls"):
            if value[name]:
                problems.append(f"{name} = {value[name]} on {workload.name}")
    if workload.name != "high_order" and value["linalg_spectral.yule_walker.step_calls"]:
        problems.append(f"per-step Yule-Walker calls on {workload.name}")
    if value["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {value['trace.coverage']:.3f} < {MIN_COVERAGE}")
    return problems


def run_workload(workload, seed, seconds, trace, references):
    base = seed % SEED_POOL
    out_root = OUT_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
    started = time.monotonic()

    def remaining():
        return max(CHILD_BUDGET_S - (time.monotonic() - started), 1.0)

    problems = []
    setup = []
    environment = None
    experiments = []
    try:
        for i in range(SETUP_ONLY_SAMPLES):
            code, record, err = run_child(workload, base, out_root / f"setup{i}",
                                          setup_only=True, timeout=remaining())
            if code != 0 or record is None:
                raise BenchError(f"set-up probe failed: {err.strip()}")
            setup.append(record["setup_s"])
            environment = record["environment"]
        longest = 0.0
        while True:
            traced = int(trace and len(experiments) == 1)
            t0 = time.monotonic()
            code, record, err = run_child(workload, base, out_root / f"exp{len(experiments)}",
                                          trace=traced, timeout=remaining())
            longest = max(longest, time.monotonic() - t0)
            experiments.append((traced, code, record, err))
            if trace and len(experiments) == 2:
                break
            elapsed = time.monotonic() - started
            if len(experiments) >= MIN_EXPERIMENTS and elapsed + longest > seconds:
                break
            if remaining() < 2 * longest:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    planned = workload.planned_runs(base)
    attempted = failed = 0
    digests = None
    for traced, code, record, err in experiments:
        attempted += len(planned)
        if code != 0 or record is None:
            failed += len(planned)
            detail = (record or {}).get("error") or err.strip()
            problems.append(f"experiment failed (exit {code}): {detail}")
            continue
        setup.append(record["setup_s"])
        bad = check_runs(workload, base, record, references)
        failed += len(bad)
        problems += bad
        if digests is None:
            digests = record["digests"]
        elif record["digests"] != digests:
            problems.append("outputs differ between experiments of one run")

    ok = [(t, r) for t, c, r, _ in experiments if c == 0 and r is not None]
    untraced = [r for t, r in ok if not t]
    if trace:
        traced_records = [r for t, r in ok if t]
        if traced_records and untraced:
            layers = traced_records[0]["layers"]
            layers["trace.overhead_s"] = [
                traced_records[0]["wall_s"] - untraced[0]["wall_s"], "s"]
            problems += wiring_problems(workload, layers)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
        else:
            problems.append("no traced experiment completed")
            metrics = {}
    else:
        dfb = []
        if ok:
            runs = ok[0][1]["runs"]
            dfb = [runs[f"{key}/{s}"] for key, s in planned
                   if workload.entry == "sweep_rank" or key == "dfb_asrmae"]
        metrics = {
            "wall_s": {"value": median([r["wall_s"] for r in untraced]), "unit": "s"},
            "cpu_s": {"value": median([r["cpu_s"] for r in untraced]), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in untraced]),
                            "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "err_lin.dfb_asrmae": {"value": 10 ** (statistics.fmean(
                [r["err_db"] for r in dfb]) / 10) if dfb else 0.0, "unit": "ratio"},
            "truth_nmse_lin.dfb_asrmae": {"value": 10 ** (statistics.fmean(
                [r["truth_nmse_db"] for r in dfb]) / 10) if dfb else 0.0, "unit": "ratio"},
        }

    detail = {
        "workload": workload.name,
        "seed": seed,
        "base_seed": base,
        "sim_seeds": list(workload.sim_seeds(base)),
        "trace": trace,
        "environment": environment,
        "experiments": len(experiments),
        "fail_frac": failed / attempted if attempted else 1.0,
        "setup_samples": setup,
        "samples": [{k: r.get(k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                    for _, r in ok],
        "runs": ok[0][1]["runs"] if ok else {},
        "problems": problems,
    }
    result = {"correct": not problems and bool(ok), "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    return detail, result


def report(detail, result):
    for problem in detail["problems"]:
        print(f"perfbench: {detail['workload']}: {problem}", file=sys.stderr)
    print(f"# {detail['workload']} seed={detail['seed']} "
          f"experiments={detail['experiments']} fail_frac={detail['fail_frac']:.3g}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SystemExit unwinds through subprocess.run, which kills and reaps the
    # running experiment, and through run_workload's clean-up of its outputs.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    try:
        if not (ROOT / "src" / "subtrack" / "__init__.py").is_file():
            raise BenchError(f"no subtrack sources under {ROOT / 'src'}")
        references = json.loads((HERE / "references.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            detail, result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                          args.trace, references[name])
            report(detail, result)
            results[name] = result
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
