"""Run one ``pme-react`` command in this process and record when its phases end.

Usage::

    python child.py RECORD TRACE -- pme-react arguments...
    python child.py --env

The first form imports ``pme_react.cli``, calls ``cli.main`` with the given
arguments and exits with its status, as ``python -m pme_react.cli`` would.
It writes RECORD (JSON) when the command ends: the runner's start time, the
import span and one span per call of each traced function.  With TRACE 0
only ``config.load`` is wrapped, so the driver can take set-up time; with
TRACE 1 every function in ``TRACED`` is wrapped at every module that binds
it.  Spans stay in memory until the command ends.

RECORD also holds speed probes: a fixed pure-Python loop timed when the
command starts, every ``PROBE_PERIOD_S`` while it runs (on ``SIGALRM``) and
when it ends.  The probes run on whichever core runs the command, at the
time it runs, so the driver can scale the command's times to a reference
core speed; each costs about 1 ms, under 0.5% of the command's time.

``--env`` imports the package, prints the environment the results were
measured in as one JSON line, and exits; the driver uses it as an untimed
warm-up, so byte-compiled files exist before the first timed command.

Times are ``CLOCK_MONOTONIC`` seconds, which is one clock for every process
on the machine, so the driver can subtract its own launch time.
"""

from time import CLOCK_MONOTONIC, clock_gettime

T_START = clock_gettime(CLOCK_MONOTONIC)

import functools  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

PROBE_LOOPS = 15000
PROBE_PERIOD_S = 0.25

# (span name, module, attribute) of every function the traced run wraps.
# An attribute "Class.method" wraps the method on the class.
TRACED = (
    ("config.load", "config", "load"),
    ("config.resolve", "config", "resolve"),
    ("feasibility.find_params", "feasibility", "find_params"),
    ("feasibility.check_auto", "feasibility", "check_auto"),
    ("barrier.eval", "barrier", "GE1Barrier.eval"),
    ("barrier.eval", "barrier", "GE2Barrier.eval"),
    ("barrier.eval", "barrier", "BlowupSubsolution.eval"),
    ("barrier.eval_derivatives", "barrier", "GE1Barrier.eval_derivatives"),
    ("barrier.eval_derivatives", "barrier", "GE2Barrier.eval_derivatives"),
    ("barrier.eval_derivatives", "barrier", "BlowupSubsolution.eval_derivatives"),
    ("density.rho", "density", "rho"),
    ("density.rho", "density", "inverse_rho"),
    ("harness.residual_sweep", "harness", "residual_sweep"),
    ("harness.derivative_crosscheck", "harness", "derivative_crosscheck"),
    ("harness.comparison_experiment", "harness", "comparison_experiment"),
    ("harness.blowup_scan", "harness", "blowup_scan"),
    ("solver.run", "solver", "run"),
    ("kernels.advance", "_kernels", "advance"),
)


def now() -> float:
    return clock_gettime(CLOCK_MONOTONIC)


def probe(probes) -> None:
    """Append ``[end, duration]`` of one run of a fixed pure-Python loop."""
    t0 = now()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    t1 = now()
    probes.append([t1, t1 - t0])


def _run_steps(args, result):
    return result.steps


def _advance_work(args, result):
    # steps taken, and the bytes of the array arguments (read or written
    # once per step by the kernel)
    return [result[3], sum(a.nbytes for a in args if getattr(a, "ndim", 0))]


# what a span keeps from the call, by span name
EXTRA = {"solver.run": _run_steps, "kernels.advance": _advance_work}


class Tracer:
    """Spans as ``[name, start, end, parent index, extra]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, start, end):
        self.spans.append([name, start, end, -1, None])

    def wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = now()
            if extra is not None:
                spans[idx][4] = extra(args, result)
            return result

        return traced


def install(tracer, targets):
    """Replace every binding of each target function in the package.

    Modules import names directly (``from .solver import run``), so patching
    only the defining module would miss the copies the callers hold.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "pme_react" or n.startswith("pme_react.")]
    for name, mod_name, attr in targets:
        owner = sys.modules["pme_react." + mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def environment() -> dict:
    import platform

    import numpy
    import scipy

    from pme_react import _kernels

    return {
        "backend": "numba" if _kernels.HAVE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv) -> int:
    if argv == ["--env"]:
        import pme_react.cli  # noqa: F401

        print(json.dumps(environment(), sort_keys=True))
        return 0
    record_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD TRACE -- pme-react arguments...")
    probes = []
    probe(probes)
    signal.signal(signal.SIGALRM, lambda *_: probe(probes))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    tracer = Tracer()
    t0 = now()
    from pme_react import cli

    tracer.span("pme_react.import", t0, now())
    install(tracer, TRACED if trace == "1" else TRACED[:1])
    main_fn = tracer.wrap("cli.main", cli.main)
    code = None
    try:
        code = main_fn(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        probe(probes)
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"t_start": T_START, "exit": code, "spans": tracer.spans, "probes": probes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
