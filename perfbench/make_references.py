"""Regenerate references.json: every workload's quality numbers for every base
seed of the pool, from the program as it stands.

    python3 perfbench/make_references.py [--workload NAME]

Run this only in a change that means to alter what the trackers compute, and
say so in that change; a speed-up must reproduce the stored values.
"""

import argparse
import json
import shutil
import sys

from run import HERE, OUT_ROOT, run_child
from workloads import SEED_POOL, WORKLOADS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    path = HERE / "references.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        table = {}
        for base in range(SEED_POOL):
            out = OUT_ROOT / f"reference-{name}-{base}"
            code, record, err = run_child(workload, base, out)
            shutil.rmtree(out, ignore_errors=True)
            if code != 0:
                print(f"{name} base {base}: exit {code}: {err.strip()}", file=sys.stderr)
                return 1
            for run_name, run in record["runs"].items():
                table[run_name] = {"err_db": run["err_db"],
                                   "truth_nmse_db": run["truth_nmse_db"]}
            print(f"{name} base {base}: wall {record['wall_s']:.1f} s", flush=True)
        references[name] = dict(sorted(table.items()))
        path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
