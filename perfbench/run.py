"""Benchmark of the ``pme-react`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs ``src/`` and
``configs/`` and refuses to run without them.

Each workload is a fixed list of ``pme-react`` subcommands, run one after
another from this process: a closed loop with one client.  Every command
gets a fresh interpreter running ``child.py``, which imports
``pme_react.cli`` and calls ``cli.main`` exactly as ``python -m
pme_react.cli`` does, so start-up and imports are paid per command and no
in-process cache carries over.  The list is repeated until ``--seconds``
have passed (at least once); each repetition is a pass.

Workloads (why each is here):

* ``ge2-ladder``: ``compare`` on ``configs/ge2.cfg`` at 256, 512, 1024 and
  2048 cells.  The kernel and solver do almost all the work and the step
  count grows like cells squared; fewer or cheaper steps show here.
* ``ref-small``: the other reference configs with the subcommand
  ``scripts/run_reference.py`` gives them.  Grids are tiny, so each step
  costs Python dispatch; a kernel change that adds fixed cost per step
  shows here as a loss.
* ``certify``: ``barrier-check`` on the four barrier configs, with a
  ``--seed`` per pass drawn from the workload seed.  The solver never runs;
  start-up, the parameter search and the sweeps do the work.

With ``--trace 0`` the run reports, from each command's median over the
passes, ``wall_s`` (the summed wall time of a pass's commands), ``setup_s``
(summed time from each launch until ``config.load`` returns) and
``peak_rss_mb`` (largest peak RSS of any command).  With ``--trace 1`` it
alternates an untraced and a traced pass and reports per-layer numbers from
the traced ones; the difference of the two walls is ``trace.overhead_s``.

``wall_s`` and ``setup_s`` are scaled to a reference core speed.  On a
shared two-vCPU VM, other tenants were seen to slow a core by up to 40%
for tens of seconds, which no affordable run length averages out.  Each command therefore times a fixed pure-Python loop in its
own process every quarter second (see ``child.py``), and its times are
multiplied by ``PROBE_REF_S`` over the loop's mean time during that phase.
A change to the program leaves the loop's time alone, so scaled times of
two commits compare as raw times would on an idle machine.  The raw times
are printed for every command and kept in the details file.

Every command counts as one operation.  It fails when its exit status,
verdict or outputs differ from what is expected: every command is expected
to pass.  ``correct`` turns false when an output is missing or malformed,
or when a step count or output file differs between two runs of the same
command on the same sources (in this run or an earlier one in the same
checkout, which a state file under ``.bench_build/perfbench`` remembers).
The last line of standard output is the JSON result; the lines before it
show each command, the environment, and where the full records went.

``python3 perfbench/selftest.py`` checks the checks: tracing leaves the
outputs byte-identical, a flipped expected verdict counts as a failure, and
malformed outputs and changed step counts are caught.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from child import now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"

# A run ends well inside the 180 s a benchmark run may take: no pass starts
# when it would not finish by then, and a command still running is killed.
DEADLINE_S = 165.0

# Reference time of the child's speed probe, about its time on an uncontended
# core of a two-vCPU x86-64 VM running CPython 3.11; scaled times are
# seconds at that speed.
PROBE_REF_S = 0.001

EXIT_OK, EXIT_FAIL = 0, 2
SERIES_HEADER = "t,sup_norm,support_radius"
SNAPSHOT_HEADER = "t,r,u"
SCAN_HEADER = "factor,blowup,s_num,tau0"
SCAN_ROWS = 5
S_NUM_TOL = 0.05  # relative, acceptance criterion 6
LADDER_CELLS = (256, 512, 1024, 2048)


@dataclass(frozen=True)
class Command:
    label: str
    sub: str
    config: str  # stem under configs/
    cells: Optional[int] = None  # overrides [solver] cells
    seed: Optional[int] = None
    expect: str = "pass"
    s_num: Optional[float] = None  # expected numerical blow-up time

    @property
    def key(self) -> str:
        return self.label if self.seed is None else f"{self.label} --seed {self.seed}"


def ge2_ladder(_rng) -> List[Command]:
    return [Command(f"compare ge2@{c}", "compare", "ge2", cells=c) for c in LADDER_CELLS]


def ref_small(_rng) -> List[Command]:
    return [
        Command("compare ge1a", "compare", "ge1a"),
        Command("compare ge1b", "compare", "ge1b"),
        Command("simulate reaction_check", "simulate", "reaction_check", s_num=0.5),
        Command("blow-up-scan blowup", "blow-up-scan", "blowup"),
    ]


def certify(rng) -> List[Command]:
    seed = rng.randrange(2**31)
    return [
        Command(f"barrier-check {stem}", "barrier-check", stem, seed=seed)
        for stem in ("ge1a", "ge1b", "ge2", "blowup")
    ]


# commands of one pass, from the workload's random generator
WORKLOADS = {"ge2-ladder": ge2_ladder, "ref-small": ref_small, "certify": certify}


# ---------------------------------------------------------------------------
# output gate


def _csv(path: Path, header: str, problems: List[str]) -> Optional[List[List[float]]]:
    if not path.is_file():
        problems.append(f"{path.name} missing")
        return None
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{path.name} header is not {header!r}")
        return None
    width = header.count(",") + 1
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != width:
                raise ValueError
            rows.append([float(c) for c in cells])
        except ValueError:
            problems.append(f"{path.name} line {n} is malformed: {line!r}")
            return None
    return rows


def _json(path: Path, problems: List[str]) -> Optional[dict]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name} unreadable: {exc}")
        return None
    if not isinstance(data, dict):
        problems.append(f"{path.name} is not an object")
        return None
    return data


def _fields(data: dict, spec: Dict[str, tuple], where: str, problems: List[str]) -> bool:
    ok = True
    for key, types in spec.items():
        value = data.get(key)
        if not isinstance(value, types) or (bool not in types and isinstance(value, bool)):
            problems.append(f"{where}: field {key!r} is {value!r}")
            ok = False
    return ok


def _check_run_files(out: Path, cells: int, problems: List[str]) -> None:
    series = _csv(out / "series.csv", SERIES_HEADER, problems)
    snaps = _csv(out / "snapshots.csv", SNAPSHOT_HEADER, problems)
    if series is None or snaps is None:
        return
    if not series:
        problems.append("series.csv has no rows")
    if len(snaps) != len(series) * cells:
        problems.append(f"snapshots.csv has {len(snaps)} rows, expected {len(series)} x {cells}")
    elif [row[0] for row in snaps[::cells]] != [row[0] for row in series]:
        problems.append("snapshots.csv times differ from series.csv")


NUMBER = (int, float)
COMPARE_FIELDS = {"verdict": (str,), "regime": (str,), "termination": (str,), "steps": (int,),
                  "checked_times": (list,), "max_violation": NUMBER}


def check_outputs(cmd: Command, out: Path, cells: int, exit_code: int) -> Tuple[Optional[str], int, List[str]]:
    """Return the command's verdict, its solver steps and what is wrong with
    its outputs (empty when they are complete and well formed)."""
    problems: List[str] = []
    verdict, steps = None, 0
    if exit_code not in (EXIT_OK, EXIT_FAIL):
        problems.append(f"exit status {exit_code}")
        return verdict, steps, problems
    if cmd.sub == "barrier-check":
        data = _json(out / "verdict.json", problems)
        if data is not None and _fields(data, {"passed": (bool,)}, "verdict.json", problems):
            parts = [("feasibility", "overall"), ("residual_sweep", "passed"), ("derivative_crosscheck", "passed")]
            flags = [data.get(part, {}).get(flag) if isinstance(data.get(part), dict) else None for part, flag in parts]
            if not all(isinstance(f, bool) for f in flags):
                problems.append(f"verdict.json: sub-verdicts are {flags}")
            elif data["passed"] != all(flags):
                problems.append("verdict.json: 'passed' disagrees with its parts")
            verdict = "pass" if data["passed"] else "fail"
    elif cmd.sub == "simulate":
        _check_run_files(out, cells, problems)
        data = _json(out / "summary.json", problems)
        if data is not None and _fields(data, {"termination": (str,), "steps": (int,)}, "summary.json", problems):
            steps = data["steps"]
            verdict = "pass" if data["termination"] in ("completed", "blowup") else "fail"
            if cmd.s_num is not None:
                s_num = data.get("s_num")
                if not isinstance(s_num, NUMBER) or abs(s_num - cmd.s_num) > S_NUM_TOL * cmd.s_num:
                    verdict = "fail"
    else:  # compare, blow-up-scan
        _check_run_files(out, cells, problems)
        data = _json(out / "verdict.json", problems)
        if data is not None and _fields(data, COMPARE_FIELDS, "verdict.json", problems):
            verdict, steps = data["verdict"], data["steps"]
            if verdict not in ("pass", "fail", "inconclusive"):
                problems.append(f"verdict.json: unknown verdict {verdict!r}")
        if cmd.sub == "blow-up-scan":
            _check_scan(out, data, problems)
    if verdict is not None and (exit_code == EXIT_OK) != (verdict == "pass"):
        problems.append(f"exit status {exit_code} with verdict {verdict}")
    return verdict, steps, problems


def _check_scan(out: Path, data: Optional[dict], problems: List[str]) -> None:
    path = out / "scan.csv"
    if not path.is_file():
        problems.append("scan.csv missing")
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        problems.append(f"scan.csv header is not {SCAN_HEADER!r}")
    elif len(lines) - 1 != SCAN_ROWS:
        problems.append(f"scan.csv has {len(lines) - 1} rows, expected {SCAN_ROWS}")
    elif any(len(row.split(",")) != 4 or row.split(",")[1] not in ("true", "false") for row in lines[1:]):
        problems.append("scan.csv rows are malformed or their booleans are not lowercase")
    if data is not None and len(data.get("scan") or ()) != SCAN_ROWS:
        problems.append(f"verdict.json: 'scan' does not hold {SCAN_ROWS} rows")


# ---------------------------------------------------------------------------
# running commands


def config_text(cmd: Command) -> str:
    text = (CONFIGS / f"{cmd.config}.cfg").read_text(encoding="utf-8")
    if cmd.cells is None:
        return text
    text, n = re.subn(r"(?m)^(\s*cells\s*=\s*).*$", rf"\g<1>{cmd.cells}", text)
    if n != 1:
        raise ValueError(f"configs/{cmd.config}.cfg has no single 'cells' line")
    return text


def config_cells(text: str) -> int:
    match = re.search(r"(?m)^\s*cells\s*=\s*(\d+)\s*$", text)
    if match is None:
        raise ValueError("config has no 'cells' line")
    return int(match.group(1))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` and return its exit code and resource usage;
    kill it when ``timeout`` runs out first."""

    def kill():
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            kill()
            proc.wait()
    return proc.returncode, usage


def run_command(cmd: Command, index: int, run_dir: Path, trace: bool, deadline: float) -> dict:
    tag = f"{index:03d}"
    text = config_text(cmd)
    cfg = run_dir / f"{tag}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = run_dir / tag
    record = run_dir / f"{tag}.record.json"
    argv = [sys.executable, str(CHILD), str(record), "1" if trace else "0", "--",
            cmd.sub, "--config", str(cfg), "--out", str(out)]
    if cmd.seed is not None:
        argv += ["--seed", str(cmd.seed)]
    with open(run_dir / f"{tag}.stdout", "wb") as fo, open(run_dir / f"{tag}.stderr", "wb") as fe:
        launch = now()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT, env=child_env())
        code, usage = _wait(proc, deadline - launch)
        end = now()
    verdict, steps, problems = check_outputs(cmd, out, config_cells(text), code)
    spans, probes, load_end, t_start = [], [], math.nan, math.nan
    if record.is_file():
        rec = json.loads(record.read_text(encoding="utf-8"))
        spans, probes, t_start = rec["spans"], rec["probes"], rec["t_start"]
        load_end = next((s[2] for s in spans if s[0] == "config.load"), math.nan)
    if math.isnan(load_end):
        problems.append("config.load never returned")
    stderr = (run_dir / f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")
    files = [f for f in out.iterdir() if f.is_file()] if out.is_dir() else []
    return {
        "label": cmd.label, "key": cmd.key, "config": cmd.config, "cells": config_cells(text), "exit": code,
        "verdict": verdict, "expect": cmd.expect, "problems": problems,
        "failed": bool(problems) or verdict != cmd.expect,
        "steps": steps, "wall_raw_s": end - launch, "setup_raw_s": load_end - launch,
        "wall_s": (end - launch) * speed(probes, end), "setup_s": (load_end - launch) * speed(probes, load_end),
        "start_s": t_start - launch, "rss_mb": usage.ru_maxrss / 1024.0,
        "runtime_warnings": sum("RuntimeWarning" in line for line in stderr.splitlines()),
        "bytes_written": sum(f.stat().st_size for f in files),
        "digests": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in files if f.name in ("verdict.json", "summary.json", "series.csv")},
        "spans": spans,
    }


def speed(probes: List[List[float]], until: float) -> float:
    """Reference probe time over the mean probe time up to ``until``."""
    times = [d for t, d in probes if t <= until]
    return PROBE_REF_S / statistics.fmean(times) if times else math.nan


class Ledger:
    """Step counts and output digests per command, for one source tree.

    A command run twice on the same sources must take the same number of
    solver steps and write the same bytes, traced or not; the ledger keeps
    the first run of each command in a state file so later runs in the same
    checkout are held to it too.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        self.mismatches: List[str] = []

    def check(self, rec: dict) -> None:
        if rec["problems"]:  # already reported; do not hold later runs to it
            return
        seen = {"steps": rec["steps"], "digests": rec["digests"]}
        prior = self.known.setdefault(rec["key"], seen)
        if prior["steps"] != seen["steps"]:
            self.mismatches.append(f"{rec['key']}: {seen['steps']} solver steps, earlier {prior['steps']}")
        for name in sorted(set(prior["digests"]) | set(seen["digests"])):
            if prior["digests"].get(name) != seen["digests"].get(name):
                self.mismatches.append(f"{rec['key']}: {name} differs from an earlier run")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


# ---------------------------------------------------------------------------
# metrics


def pass_totals(records: List[dict]) -> dict:
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "setup_s": sum(r["setup_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def end_to_end(passes: List[List[dict]]) -> dict:
    """Totals of one pass, taking each command's median over the passes, so
    a pass that a burst of load hit does not move the result."""
    typical = [
        {key: statistics.median(r[key] for r in runs) for key in ("wall_s", "setup_s", "rss_mb")}
        for runs in zip(*passes)
    ]
    return pass_totals(typical)


def step_growth(records: List[dict]) -> float:
    """Least-squares slope of log steps against log cells over the commands
    that run one config at several grid sizes; 0 when there are none."""
    by_config = defaultdict(list)
    for r in records:
        if r["steps"] > 0:
            by_config[r["config"]].append((math.log(r["cells"]), math.log(r["steps"])))
    pts = max(by_config.values(), key=lambda p: len({x for x, _ in p}), default=[])
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def layer_metrics(records: List[dict]) -> Dict[str, float]:
    """Per-layer totals of one traced pass.

    A ``_s`` metric is the time inside the outermost calls of that span
    name; ``config.resolve_s``, ``harness.verdict_s``, ``solver.self_s`` and
    ``cli.self_s`` are self times (the span minus its child spans).
    ``kernels.bytes_per_step`` is computed, not measured: the bytes of the
    kernel's array arguments, weighted by the steps of each call.
    """
    incl: Dict[str, float] = defaultdict(float)  # outermost calls of each name
    own: Dict[str, float] = defaultdict(float)  # self time
    calls: Counter = Counter()
    steps = adv_steps = adv_bytes = scan_runs = 0
    for rec in records:
        spans = rec["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - children[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                incl[name] += end - start
                if name == "solver.run":
                    steps += extra
            if name == "solver.run" and "harness.blowup_scan" in ancestors:
                scan_runs += 1
            if name == "kernels.advance":
                adv_steps += extra[0]
                adv_bytes += extra[0] * extra[1]
    return {
        "process.start_s": sum(r["start_s"] for r in records),
        "pme_react.import_s": incl["pme_react.import"],
        "config.load_s": incl["config.load"],
        "config.resolve_s": own["config.resolve"],
        "feasibility.find_params_s": incl["feasibility.find_params"],
        "feasibility.check_auto_s": incl["feasibility.check_auto"],
        "barrier.eval_s": incl["barrier.eval"],
        "barrier.eval_derivatives_s": incl["barrier.eval_derivatives"],
        "barrier.calls": calls["barrier.eval"] + calls["barrier.eval_derivatives"],
        "density.rho_s": incl["density.rho"],
        "harness.residual_sweep_s": incl["harness.residual_sweep"],
        "harness.derivative_crosscheck_s": incl["harness.derivative_crosscheck"],
        "harness.verdict_s": own["harness.comparison_experiment"],
        "harness.blowup_scan_s": incl["harness.blowup_scan"],
        "harness.scan_runs": scan_runs,
        "solver.run_s": incl["solver.run"],
        "solver.run_calls": calls["solver.run"],
        "solver.self_s": own["solver.run"],
        "solver.steps": steps,
        "solver.step_growth": step_growth(records),
        "kernels.advance_s": incl["kernels.advance"],
        "kernels.advance_calls": calls["kernels.advance"],
        "kernels.us_per_step": 1e6 * incl["kernels.advance"] / adv_steps if adv_steps else 0.0,
        "kernels.bytes_per_step": adv_bytes / adv_steps if adv_steps else 0.0,
        "kernels.runtime_warnings": sum(r["runtime_warnings"] for r in records),
        "cli.self_s": own["cli.main"],
        "cli.bytes_written": sum(r["bytes_written"] for r in records),
    }


def metric_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# environment


def source_digest(env: dict) -> str:
    h = hashlib.sha256(json.dumps(env, sort_keys=True).encode())
    for path in sorted(list(SRC.rglob("*.py")) + list(CONFIGS.glob("*.cfg"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _quiet(argv: List[str], **kw) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kw)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout if done.returncode == 0 else ""


def environment() -> dict:
    """Warm-up child plus machine facts; the child's import also writes the
    byte-compiled files, so the first timed command does not pay for that."""
    out = _quiet([sys.executable, str(CHILD), "--env"], cwd=ROOT, env=child_env())
    if not out:
        raise RuntimeError("the package does not import; see: python perfbench/child.py --env")
    env = json.loads(out.splitlines()[-1])
    env["nproc"] = len(os.sched_getaffinity(0))
    caches = {}
    for line in _quiet(["getconf", "-a"]).splitlines():
        parts = line.split()
        if len(parts) == 2 and re.fullmatch(r"LEVEL\d\w*CACHE_SIZE", parts[0]) and parts[1] != "0":
            caches[parts[0]] = int(parts[1])
    env["caches_bytes"] = caches
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env["git_commit"] = _quiet(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env).strip() or "unknown"
    return env


# ---------------------------------------------------------------------------
# driver


def run_pass(cmds: List[Command], start_index: int, run_dir: Path, trace: bool,
             deadline: float, ledger: Ledger) -> List[dict]:
    records = []
    for i, cmd in enumerate(cmds):
        rec = run_command(cmd, start_index + i, run_dir, trace, deadline)
        ledger.check(rec)
        records.append(rec)
        status = "FAILED " + "; ".join(rec["problems"] or [f"verdict {rec['verdict']}, expected {rec['expect']}"]) if rec["failed"] else "ok"
        print(f"  {'traced ' if trace else ''}{rec['key']:<32} exit {rec['exit']}  {rec['verdict']}  "
              f"wall {rec['wall_raw_s']:.3f} s (scaled {rec['wall_s']:.3f})  setup {rec['setup_raw_s']:.3f} s "
              f"(scaled {rec['setup_s']:.3f})  rss {rec['rss_mb']:.1f} MB  "
              f"steps {rec['steps']}  {status}", flush=True)
    return records


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = now() + DEADLINE_S
    env = environment()
    env["source_digest"] = source_digest(env)
    ledger = Ledger(WORK / "state" / f"{env['source_digest']}.json")
    run_dir = WORK / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    rng = random.Random(seed)
    t_measure = now()
    passes: List[Tuple[List[dict], Optional[List[dict]]]] = []  # (untraced, traced)
    longest = 0.0
    try:
        # another pass only when it should end within the measuring time
        while not passes or (now() + longest - t_measure <= seconds and now() + longest < deadline):
            started = now()
            cmds = WORKLOADS[workload](rng)
            index = sum(len(u) + len(t or ()) for u, t in passes)
            plain = run_pass(cmds, index, run_dir, False, deadline, ledger)
            traced = run_pass(cmds, index + len(cmds), run_dir, True, deadline, ledger) if trace else None
            passes.append((plain, traced))
            longest = max(longest, now() - started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ledger.save()
    records = [r for u, t in passes for r in u + (t or [])]
    problems = [f"{r['key']}: {p}" for r in records for p in r["problems"]] + ledger.mismatches
    if trace:
        per_pass = []
        for plain, traced in passes:
            values = layer_metrics(traced)
            values["trace.overhead_s"] = pass_totals(traced)["wall_s"] - pass_totals(plain)["wall_s"]
            per_pass.append(values)
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    else:
        metrics = end_to_end([plain for plain, _ in passes])
    units = metric_spec()
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "passes": len(passes), "problems": problems, "result": result,
              "commands": [{k: v for k, v in r.items() if k != "spans"} for r in records]}
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if trace:
        spans = [[i, *s] for i, r in enumerate(records) for s in r["spans"]]
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    ops = len(passes[0][0])
    print(f"{workload}: {len(passes)} pass(es) of {ops} commands; ops {result['attempted']}, "
          f"failed_ops {result['failed']}; details in {out_dir / stem}.json")
    print("env: " + json.dumps(env, sort_keys=True))
    if trace:
        print(f"kernels.bytes_per_step {metrics['kernels.bytes_per_step']:.0f} B is computed from array sizes; "
              f"L2 is {env['caches_bytes'].get('LEVEL2_CACHE_SIZE', 'unknown')} B per core")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (SRC / "pme_react" / "cli.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"not a pme-react checkout: {', '.join(map(str, missing))} missing", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
