#!/usr/bin/env python
"""Run every reference config and collect the outputs under out/.

Usage: python scripts/run_reference.py [--only NAME] [--out DIR]

Each config gets the subcommand that exercises it best: the comparison for
the barrier regimes, a plain simulation for the reaction sanity check, and
the amplitude scan for the blow-up config.  After each job it prints the
exit status, the wall time and the number of solver steps the job's
verdict.json or summary.json records.
"""

import argparse
import json
import os
import sys
import time

from pme_react import cli

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")

JOBS = (
    ("ge1a", "compare"),
    ("ge1b", "compare"),
    ("ge2", "compare"),
    ("blowup", "blow-up-scan"),
    ("reaction_check", "simulate"),
)


def _steps_written(out_dir, since):
    """The ``steps`` field of the verdict.json or summary.json written into
    ``out_dir`` after ``since`` (seconds since the epoch), or None."""
    for name in ("verdict.json", "summary.json"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path) and os.path.getmtime(path) >= since:
            with open(path) as fh:
                return json.load(fh).get("steps")
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--only", default=None, help="run just this config (stem name)")
    ap.add_argument("--out", default=os.path.join(HERE, "..", "out"))
    args = ap.parse_args()

    worst = 0
    for stem, command in JOBS:
        if args.only is not None and stem != args.only:
            continue
        cfg = os.path.join(CONFIGS, stem + ".cfg")
        out_dir = os.path.join(args.out, stem)
        started = time.time()
        t0 = time.perf_counter()
        print(f"== {stem}: pme-react {command} ==", flush=True)
        code = cli.main([command, "--config", cfg, "--out", out_dir])
        print(f"   exit {code} in {time.perf_counter() - t0:.1f} s -> {out_dir}", flush=True)
        steps = _steps_written(out_dir, started)
        if steps is not None:
            print(f"   steps {steps}", flush=True)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
