#!/usr/bin/env python
"""Run the twelve reference commands and collect their outputs under out/.

Usage: python scripts/run_reference.py [--only NAME] [--out DIR]

The commands are the ones the benchmark times:

* each bundled config with the subcommand that exercises it best: the
  comparison for the barrier regimes, a plain simulation for the reaction
  sanity check, and the amplitude scan for the blow-up config;
* ``compare`` on ``ge2`` at 256, 512 and 1024 cells, from temporary copies
  of ``configs/ge2.cfg`` that change only ``cells``;
* ``barrier-check --seed 12345`` on the four barrier configs.

Each runs as ``python -m pme_react.cli`` in a fresh interpreter (so
``pme_react`` must be importable, e.g. with ``PYTHONPATH=src``) and writes
its standard output, standard error and exit status into its output
directory as ``stdout.txt``, ``stderr.txt`` and ``exit.txt``, beside the
files the command writes.  ``diff -r`` of the output trees of two checkouts
is therefore a byte-for-byte comparison of the twelve commands.  After each
job the script prints the exit status, the wall time and the number of
solver steps the job's verdict.json or summary.json records.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")

# (output directory, config stem, subcommand, cells override, extra arguments)
JOBS = (
    ("ge1a", "ge1a", "compare", None, ()),
    ("ge1b", "ge1b", "compare", None, ()),
    ("ge2", "ge2", "compare", None, ()),
    ("blowup", "blowup", "blow-up-scan", None, ()),
    ("reaction_check", "reaction_check", "simulate", None, ()),
    *((f"ge2@{cells}", "ge2", "compare", cells, ()) for cells in (256, 512, 1024)),
    *(
        (f"barrier-check-{stem}", stem, "barrier-check", None, ("--seed", "12345"))
        for stem in ("ge1a", "ge1b", "ge2", "blowup")
    ),
)


def _config(stem, cells, tmp):
    """Path of the config for ``stem``, copied into ``tmp`` with its
    ``cells`` line replaced when ``cells`` is given."""
    path = os.path.join(CONFIGS, stem + ".cfg")
    if cells is None:
        return path
    with open(path) as fh:
        text, n = re.subn(r"(?m)^(\s*cells\s*=\s*).*$", rf"\g<1>{cells}", fh.read())
    if n != 1:
        raise ValueError(f"{path} has no single 'cells' line")
    copy = os.path.join(tmp, f"{stem}@{cells}.cfg")
    with open(copy, "w") as fh:
        fh.write(text)
    return copy


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
    ap.add_argument("--only", default=None, help="run just the jobs on this config (stem name)")
    ap.add_argument("--out", default=os.path.join(HERE, "..", "out"))
    args = ap.parse_args()

    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, stem, command, cells, extra in JOBS:
            if args.only is not None and stem != args.only:
                continue
            cfg = _config(stem, cells, tmp)
            out_dir = os.path.join(args.out, name)
            os.makedirs(out_dir, exist_ok=True)
            started = time.time()
            t0 = time.perf_counter()
            print(f"== {name}: pme-react {command} {' '.join(extra)}".rstrip() + " ==", flush=True)
            proc = subprocess.run(
                [sys.executable, "-m", "pme_react.cli", command, "--config", cfg, "--out", out_dir, *extra],
                capture_output=True,
            )
            for fname, data in (
                ("stdout.txt", proc.stdout),
                ("stderr.txt", proc.stderr),
                ("exit.txt", f"{proc.returncode}\n".encode()),
            ):
                with open(os.path.join(out_dir, fname), "wb") as fh:
                    fh.write(data)
            print(f"   exit {proc.returncode} in {time.perf_counter() - t0:.1f} s -> {out_dir}", flush=True)
            steps = _steps_written(out_dir, started)
            if steps is not None:
                print(f"   steps {steps}", flush=True)
            worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
