"""Command line front end.

Subcommands, all driven by one config file (see :mod:`pme_react.config`):

* ``feasibility``: run or search the closed-form conditions, write
  ``summary.json``.
* ``barrier-check``: feasibility plus the residual sign sweep and the
  derivative cross-check, write ``verdict.json``.
* ``simulate``: run the scheme, write ``series.csv``, ``snapshots.csv``
  and ``summary.json``; works without a barrier section.
* ``compare``: run the scheme against the barrier prediction, write the
  series/snapshot files and ``verdict.json``.
* ``blow-up-scan``: the blow-up comparison plus reruns with scaled initial
  data, adding ``scan.csv``.

Reports are named tuples; their fields are the JSON keys, and only the
compare payload is reshaped here (the raw run becomes its outcome, the
keys it shares with ``summary.json``, and ``implicit``).  ``series.csv`` is
read off the run's snapshots.
Non-finite floats are written as ``null``.

Exit status: 0 when the requested check passed (or the simulation
terminated normally), 2 when it failed, was infeasible or inconclusive,
1 for usage and config errors.  When the barrier parameter search finds
nothing, every subcommand writes its output file with the search error,
prints ``infeasible:`` and exits 2; ``compare`` and ``blow-up-scan`` do
the same with given parameters that fail their certificate, since a run
against an uncertified barrier shows nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import Optional, Sequence

from . import config as config_mod
from .barrier import REGIME_BLOWUP
from .feasibility import FeasibilitySearchError, refuse_failing
from .harness import (
    VERDICT_PASS,
    blowup_scan,
    comparison_experiment,
    build_initial,
    derivative_crosscheck,
    residual_sweep,
)
from .solver import TERM_BLOWUP, TERM_COMPLETED, RadialGrid, RunResult, run, support_radius_numeric

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; our contract reserves 2 for
    # semantic failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _finite_or_null(value):
    if hasattr(value, "_asdict"):  # a record's fields are keys, not tuple items
        value = value._asdict()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: str, payload: dict) -> None:
    # strict JSON: NaN and Infinity are not JSON, so non-finite floats are
    # written as null
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")


def _write_run(out: str, res: RunResult) -> None:
    """``snapshots.csv``, and ``series.csv`` with each snapshot's time, sup
    norm and support radius."""
    radii = res.grid.centers.tolist()
    with open(os.path.join(out, "series.csv"), "w", encoding="utf-8") as series, \
            open(os.path.join(out, "snapshots.csv"), "w", encoding="utf-8") as fh:
        series.write("t,sup_norm,support_radius\n")
        fh.write("t,r,u\n")
        for t, u in res.snapshots:
            ts = _fmt(t)
            series.write(f"{ts},{_fmt(float(u.max()))},{_fmt(support_radius_numeric(u, res.grid))}\n")
            # streamed, radii formatted per row: a joined snapshot, or every radius held formatted, set the peak memory
            fh.writelines(f"{ts},{_fmt(r)},{_fmt(v)}\n" for r, v in zip(radii, u.tolist()))


def _write_scan(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("factor,blowup,s_num,tau0\n")
        for row in rows:
            s_num = _fmt(row.s_num) if row.s_num is not None else ""
            tau0 = _fmt(row.tau0) if row.tau0 is not None else ""
            fh.write(f"{_fmt(row.factor)},{str(row.blew_up).lower()},{s_num},{tau0}\n")


def _run_outcome(res: RunResult) -> dict:
    """How a run ended: the keys ``summary.json`` and ``verdict.json`` share."""
    return {
        "termination": res.termination,
        "steps": res.steps,
        "final_sup": float(res.final_state.u.max()),
        "s_num": res.s_num,
        "blowup_flag": res.blowup_flag,
        "tau0": res.tau0,
        "clamp_total": res.clamp_total,
    }


def _load(args) -> config_mod.Resolved:
    return config_mod.resolve(config_mod.load(args.config))


def _compare_payload(result, defaults_used) -> dict:
    """A comparison's fields, with the raw run reduced to its outcome and ``implicit``."""
    payload = result._asdict()
    res = payload.pop("run")
    payload.update(_run_outcome(res), implicit=res.implicit, defaults_used=defaults_used)
    return payload


def _need_regime(resolved: config_mod.Resolved, command: str) -> None:
    if resolved.barrier is None:
        raise ValueError(f"'{command}' needs a [barrier] section with a regime")


def _cmd_feasibility(args) -> int:
    resolved = _load(args)
    _need_regime(resolved, "feasibility")
    report = resolved.report
    payload = {**report._asdict(), "defaults_used": resolved.defaults_used}
    _write_json(os.path.join(args.out, "summary.json"), payload)
    print(f"{report.mode}: {'feasible' if report.overall else 'infeasible'}")
    return EXIT_OK if report.overall else EXIT_FAIL


def _cmd_barrier_check(args) -> int:
    resolved = _load(args)
    _need_regime(resolved, "barrier-check")
    bar, report = resolved.barrier, resolved.report
    sweep = residual_sweep(bar, t_end=resolved.solver.t_end)
    cross = derivative_crosscheck(bar, seed=args.seed)
    passed = bool(report.overall and sweep.passed and cross.passed)
    _write_json(
        os.path.join(args.out, "verdict.json"),
        {
            "passed": passed,
            "feasibility": report,
            "residual_sweep": sweep,
            "derivative_crosscheck": cross,
            "defaults_used": resolved.defaults_used,
        },
    )
    print(f"barrier-check: {'pass' if passed else 'fail'} "
          f"(feasible={report.overall}, sweep={sweep.passed}, derivatives={cross.passed})")
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_simulate(args) -> int:
    resolved = _load(args)
    grid = RadialGrid(N=resolved.constants.N, R=resolved.solver.R, cells=resolved.solver.cells)
    u0 = build_initial(resolved.initial, grid, resolved.barrier)
    res = run(u0, grid, resolved.density, resolved.constants, resolved.solver)
    _write_run(args.out, res)
    payload = _run_outcome(res)
    payload.update(final_time=res.final_state.t, cells=res.grid.cells, R=res.grid.R, t_end=resolved.solver.t_end,
                   defaults_used=resolved.defaults_used)
    _write_json(os.path.join(args.out, "summary.json"), payload)
    ok = res.termination in (TERM_COMPLETED, TERM_BLOWUP)
    print(f"simulate: {res.termination} at t={res.final_state.t:.6g} "
          f"(sup={float(res.final_state.u.max()):.6g}, steps={res.steps})")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_compare(args) -> int:
    """``compare``, and ``blow-up-scan``: the same comparison, then reruns
    with scaled data (``scan.csv`` and the verdict's ``scan``)."""
    resolved = _load(args)
    _need_regime(resolved, args.command)
    scan = args.command == "blow-up-scan"
    if scan and resolved.barrier.regime != REGIME_BLOWUP:
        raise ValueError("'blow-up-scan' needs the blow-up regime")
    refuse_failing(resolved.report, "given")
    inputs = (resolved.barrier, resolved.solver, resolved.initial)
    result = comparison_experiment(*inputs)
    payload = _compare_payload(result, resolved.defaults_used)
    line = (f"compare[{result.regime}]: {result.verdict} "
            f"(termination={result.run.termination}, max_violation={result.max_violation:.3e})")
    if scan:
        rows = payload["scan"] = blowup_scan(*inputs)
        _write_scan(os.path.join(args.out, "scan.csv"), rows)
        blew = sum(row.blew_up for row in rows)
        line = f"blow-up-scan: compare {result.verdict}; {blew}/{len(rows)} scaled runs blew up"
    _write_run(args.out, result.run)
    _write_json(os.path.join(args.out, "verdict.json"), payload)
    print(line)
    return EXIT_OK if result.verdict == VERDICT_PASS else EXIT_FAIL


# (name, handler, help, output file and the payload it gets, next to the
# error, when the parameter search fails)
SPECS = (
    ("feasibility", _cmd_feasibility, "evaluate or search the closed-form conditions",
     "summary.json", {"feasible": False}),
    ("barrier-check", _cmd_barrier_check, "feasibility plus residual and derivative checks",
     "verdict.json", {"passed": False}),
    ("simulate", _cmd_simulate, "run the scheme and write series/snapshots",
     "summary.json", {"feasible": False}),
    ("compare", _cmd_compare, "run the scheme against the barrier prediction",
     "verdict.json", {"verdict": "fail"}),
    ("blow-up-scan", _cmd_compare, "compare, then rerun with scaled initial data",
     "verdict.json", {"verdict": "fail"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pme-react", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, out_file, infeasible in SPECS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        if fn is _cmd_barrier_check:
            p.add_argument("--seed", type=config_mod.nonnegative_int, default=0,
                           help="seed of the derivative crosscheck's points (default 0)")
        p.set_defaults(fn=fn, infeasible=(out_file, infeasible))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and return its exit status.

    ``feasibility`` and ``barrier-check`` run on Python floats and never
    load numpy; ``simulate``, ``compare`` and ``blow-up-scan`` load it where
    the solver and the cell arrays need it, after the config is read.

    Whatever the status, ``main`` freezes the garbage collector on its way
    out (``gc.freeze()``), after every output file is closed: the objects
    the process holds, mostly the import graph of this package and, when
    the command loaded it, numpy, move to the permanent generation.
    Interpreter shutdown then skips them in its final collection instead
    of walking and freeing them one by one, and a command ends about 15 ms
    sooner.  An in-process caller that keeps running after ``main`` may
    call ``gc.unfreeze()`` to hand those objects back to the collector.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.fn(args)
    except FeasibilitySearchError as exc:
        out_file, payload = args.infeasible
        _write_json(os.path.join(args.out, out_file), {**payload, "error": str(exc)})
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except config_mod.ConfigError as exc:
        print(f"config error(s) in {args.config}:", file=sys.stderr)
        for issue in exc.issues:
            print(f"  {issue}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        # Shutdown's final collection freed the ~22,600 tracked objects of
        # the import graph one by one: 21-22 ms from main's return to exit,
        # 5-7 ms with them frozen.  Freezing here, after the command's work,
        # leaves its peak RSS alone; stdout, stderr and atexit still run.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
