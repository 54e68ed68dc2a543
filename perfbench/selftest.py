"""Self-tests of the benchmark's checks.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

It runs ``blow-up-scan`` on ``configs/blowup.cfg`` three times (about five
seconds) and checks that:

1. the untraced and traced runs write byte-identical ``verdict.json`` and
   ``series.csv``, so tracing changes no result, and both pass the gate;
2. expecting ``fail`` from that passing command counts it as failed;
3. a ``series.csv`` that lost a row is reported as malformed;
4. the ledger reports a step count or an output that differs from an
   earlier run of the same command.

Exits 0 when all hold, 1 otherwise.
"""

import shutil
import sys
from dataclasses import replace

import run

CMD = run.Command("blow-up-scan blowup", "blow-up-scan", "blowup")


def main() -> int:
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    run_dir = run.WORK / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    deadline = run.now() + run.DEADLINE_S
    try:
        plain = run.run_command(CMD, 0, run_dir, False, deadline)
        traced = run.run_command(CMD, 1, run_dir, True, deadline)
        flipped = run.run_command(replace(CMD, expect="fail"), 2, run_dir, False, deadline)

        check(not plain["failed"] and not traced["failed"], "untraced and traced runs pass the gate")
        check(len(traced["spans"]) > len(plain["spans"]), "the traced run recorded layer spans")
        for name in ("verdict.json", "series.csv"):
            a, b = (run_dir / tag / name for tag in ("000", "001"))
            check(a.read_bytes() == b.read_bytes(), f"tracing leaves {name} byte-identical")
        check(sum(r["failed"] for r in (plain, flipped)) == 1 and not flipped["problems"],
              "a flipped expected verdict raises the failed count by one")

        series = run_dir / "000" / "series.csv"
        series.write_text("".join(series.read_text().splitlines(keepends=True)[:-1]))
        _, _, problems = run.check_outputs(CMD, run_dir / "000", run.config_cells(run.config_text(CMD)), 0)
        check(any("snapshots.csv" in p for p in problems), "a series.csv missing a row is malformed")

        ledger = run.Ledger(run_dir / "ledger.json")
        ledger.check(plain)
        ledger.check(traced)
        check(not ledger.mismatches, "the ledger accepts a repeat with equal steps and outputs")
        ledger.check(dict(plain, steps=plain["steps"] + 1))
        ledger.check(dict(plain, digests=dict(plain["digests"], **{"series.csv": "0"})))
        check(len(ledger.mismatches) == 2, "the ledger reports a changed step count and a changed output")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{len(failures)} self-test(s) failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
