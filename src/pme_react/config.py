"""Config files for the command line tools.

The format is a small INI dialect:

* ``[section]`` headers, ``key = value`` lines, blank lines and full-line
  comments starting with ``#`` or ``;``.
* Sections: ``[problem]`` (m, p, N), ``[density]`` (family, alpha, r0,
  then k for H1 or k1, k2 for H2Smooth; a key of the other family is an
  error, and so are the derived constants k0, rho1 and rho2, which a
  config never sets), ``[barrier]`` (regime, then C and the parameters
  the regime takes: T, beta, b, eps for GE1a and GE1b, a, T for GE2 and
  Blowup; any other key is an error), ``[solver]`` (R, cells, t_end,
  cfl_safety, blowup_threshold, boundary, reaction, output_times),
  ``[harness]`` (initial_data).
* ``R = auto`` and ``output_times = auto`` defer to regime-specific rules;
  ``initial_data`` is one of ``equals_barrier``, ``scaled_barrier:<factor>``,
  ``constant:<value>``, ``csv:<path>`` (the kind in any case).

Parsing is done by hand rather than with :mod:`configparser` so that every
diagnostic carries its line (a missing section has none) and its key as
spelt above, and all problems in a file are reported together; every number
must be finite.  Each value is read once, at its line, and every rule the
file alone decides is checked there; the barrier's certificate judges the
rest.  Omitted barrier parameters are filled by the feasibility search or
by :func:`pme_react.feasibility.build_barrier`.
``[barrier]`` may be left out entirely for plain simulation runs, in which
case R, t_end and output_times must be numbers and the initial data cannot
reference a barrier.  The seed of ``barrier-check``'s derivative
crosscheck is its ``--seed`` option, not a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .barrier import REGIME_BLOWUP, REGIME_GE2, REGIMES
from .density import (
    FAMILIES,
    FAMILY_H1,
    FAMILY_H2SMOOTH,
    DensityParams,
    ProblemConstants,
)
from .feasibility import BARRIER_KEYS, FeasibilityReport, build_barrier, check_auto, find_params
from .feasibility import _check_family, _check_pair, _check_regime, refuse_degenerate_support
from .harness import INIT_CONSTANT, INIT_CSV, INIT_EQUALS_BARRIER, INIT_SCALED_BARRIER, Barrier, InitialData
from .solver import BOUNDARIES, SolverConfig

_SECTIONS = ("problem", "density", "barrier", "solver", "harness")
# The [density] keys each family takes besides family, alpha and r0.
_DENSITY_KEYS = {
    FAMILY_H1: ("k",),
    FAMILY_H2SMOOTH: ("k1", "k2"),
}
_IGNORED = object()  # sentinel section for keys under an unknown header


@dataclass(frozen=True)
class ConfigIssue:
    """One problem found in a config file, with its line."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}" if self.line else self.message


class ConfigError(ValueError):
    """Carries every problem found in a config file."""

    def __init__(self, issues: List[ConfigIssue]):
        self.issues = list(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


_REQUIRED = object()


class _Section:
    """Typed access to one parsed section, accumulating issues."""

    def __init__(self, name, table, header_line, issues, defaults):
        self.name = name
        self.table = table if table is not None else {}
        self.present = table is not None
        self.header_line = header_line
        self.issues = issues
        self.defaults = defaults
        self.seen = set()

    def _fail(self, line: int, message: str) -> None:
        self.issues.append(ConfigIssue(line, f"[{self.name}] {message}"))

    def get(self, key, parse, default=_REQUIRED):
        """``parse`` of the value under ``key`` (as spelt above, in any
        case), or ``default`` when it is absent (a string default is parsed).
        A missing required key, a value ``parse`` rejects (its
        ``ValueError`` text) and a non-finite number are issues at the
        key's line, and give None."""
        self.seen.add(key.lower())
        if key.lower() not in self.table:
            if default is _REQUIRED:
                self._fail(self.header_line, f"missing required key '{key}'")
                return None
            if default is not None:
                self.defaults.append(f"[{self.name}] {key} = {default} (default)")
            return parse(default) if isinstance(default, str) else default
        raw, line = self.table[key.lower()]
        try:
            val = parse(raw)
        except ValueError as exc:
            self._fail(line, f"{key}: {exc}")
            return None
        numbers = val if isinstance(val, tuple) else (val,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            self._fail(line, f"{key}: value must be finite, got {raw!r}")
            return None
        return val

    def judge(self, line: int, rule, *args, **kwargs):
        """``rule(*args, **kwargs)``, or None with its ``ValueError`` an issue at ``line``."""
        try:
            return rule(*args, **kwargs)
        except ValueError as exc:
            self._fail(line, str(exc))

    def finish(self, note: str = "") -> None:
        for key, (_, line) in self.table.items():
            if key not in self.seen:
                self._fail(line, f"unknown key '{key}'{note}")


def _convert(convert, raw: str, expected: str):
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"expected {expected}, got {raw!r}") from None


def _float(raw: str) -> float:
    return _convert(float, raw, "a number")


def _int(raw: str) -> int:
    return _convert(int, raw, "an integer")


def nonnegative_int(raw: str) -> int:
    """A seed: ``random.Random(-s)`` draws what ``random.Random(s)`` draws."""
    value = _convert(int, raw, "a non-negative integer")
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _choice(choices):
    """Case-insensitive match against canonical spellings."""

    def parse(raw: str) -> str:
        for c in choices:
            if raw.lower() == c.lower():
                return c
        raise ValueError(f"expected one of {', '.join(choices)}, got {raw!r}")

    return parse


def _floats(raw: str) -> Tuple[float, ...]:
    return tuple(_convert(float, part.strip(), "comma-separated numbers") for part in raw.split(","))


def _or_auto(parse):
    """``parse``, with ``auto`` (in any case) read as "auto"."""

    def parse_or_auto(raw: str):
        return "auto" if raw.lower() == "auto" else parse(raw)

    return parse_or_auto


def _parse_sections(text: str):
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    header_lines: Dict[str, int] = {}
    issues: List[ConfigIssue] = []
    current: Union[str, None, object] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                issues.append(ConfigIssue(lineno, f"unterminated section header {line!r}"))
                current = _IGNORED
                continue
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                issues.append(
                    ConfigIssue(lineno, f"unknown section [{name}]; expected one of {_SECTIONS}")
                )
                current = _IGNORED
                continue
            if name in sections:
                issues.append(ConfigIssue(lineno, f"duplicate section [{name}]"))
            else:
                sections[name] = {}
                header_lines[name] = lineno
            current = name
            continue
        if "=" not in line:
            issues.append(ConfigIssue(lineno, f"expected 'key = value' or '[section]', got {line!r}"))
            continue
        if current is _IGNORED:
            continue
        if current is None:
            issues.append(ConfigIssue(lineno, "key before any section header"))
            continue
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if not key:
            issues.append(ConfigIssue(lineno, "empty key"))
            continue
        if key in sections[current]:
            issues.append(ConfigIssue(lineno, f"[{current}] duplicate key '{key}'"))
            continue
        sections[current][key] = (val, lineno)
    return sections, header_lines, issues


@dataclass
class LoadedConfig:
    """A parsed and validated config, before any search or regime-dependent default.

    ``solver`` holds the :class:`SolverConfig` keywords; with a barrier,
    ``R`` and ``output_times`` may be "auto" and ``t_end`` None (10 T).
    """

    constants: ProblemConstants
    density: DensityParams
    regime: Optional[str]
    barrier_given: Dict[str, float]
    solver: Dict[str, object]
    initial: InitialData
    defaults_used: List[str] = field(default_factory=list)


def loads(text: str) -> LoadedConfig:
    """Parse and validate config text; raises :class:`ConfigError` with all
    problems found."""
    tables, header_lines, issues = _parse_sections(text)
    defaults: List[str] = []

    def section(name: str) -> _Section:
        if name not in tables and name in ("problem", "density"):
            issues.append(ConfigIssue(0, f"missing required section [{name}]"))
        return _Section(name, tables.get(name), header_lines.get(name, 0), issues, defaults)

    prob = section("problem")
    m = prob.get("m", _float)
    p = prob.get("p", _float)
    N = prob.get("N", _int)
    prob.finish()

    dens_s = section("density")
    family = dens_s.get("family", _choice(FAMILIES))
    alpha = dens_s.get("alpha", _float)
    r0 = dens_s.get("r0", _float)
    # an unreadable family reads every family's keys, so none is judged against it
    taken = _DENSITY_KEYS.get(family, _DENSITY_KEYS[FAMILY_H1] + _DENSITY_KEYS[FAMILY_H2SMOOTH])
    dens_kw = {key: dens_s.get(key, _float, getattr(DensityParams, key)) for key in taken}
    note = f" for family {family} (its keys: family, alpha, r0, {', '.join(taken)})" if family else ""
    dens_s.finish(note)

    bar_s = section("barrier")
    regime = bar_s.get("regime", _choice(REGIMES)) if bar_s.present else None
    # an unreadable regime, too, reads every regime's keys
    taken = ("C",) + BARRIER_KEYS.get(regime, tuple(sorted(set().union(*BARRIER_KEYS.values()))))
    given = {name: bar_s.get(name, _float, None) for name in taken}
    barrier_given = {name: val for name, val in given.items() if val is not None}
    bar_s.finish(f" for regime {regime} (its keys: regime, {', '.join(taken)})" if regime else "")

    # a barrier sizes the domain, the horizon and the output times the file
    # leaves to it ("auto", None); without one the file gives all three
    if bar_s.present:
        number, numbers, auto, horizon = _or_auto(_float), _or_auto(_floats), "auto", None
    else:
        number, numbers, auto, horizon = _float, _floats, _REQUIRED, _REQUIRED
    solver_s = section("solver")
    solver = {
        "R": solver_s.get("R", number, auto),
        "cells": solver_s.get("cells", _int, 256),
        "t_end": solver_s.get("t_end", _float, horizon),
    }
    # a dataclass field's default is its class attribute: each is written once
    for key, parse in (
        ("cfl_safety", _float),
        ("blowup_threshold", _float),
        ("boundary", _choice(BOUNDARIES)),
        ("reaction", _bool),
    ):
        solver[key] = solver_s.get(key, parse, getattr(SolverConfig, key))
    solver["output_times"] = solver_s.get("output_times", numbers, auto)
    solver_s.finish()

    har_s = section("harness")
    initial = har_s.get("initial_data", lambda raw: _parse_initial(raw, bar_s.present),
                        INIT_EQUALS_BARRIER if bar_s.present else _REQUIRED)
    har_s.finish()

    constants = density = None
    if None not in (m, p, N):
        constants = prob.judge(prob.header_line, ProblemConstants, m=m, p=p, N=N)
    if None not in (family, alpha, r0, *dens_kw.values()):
        density = dens_s.judge(dens_s.header_line, DensityParams, family=family, alpha=alpha, r0=r0, **dens_kw)
    # the library's own regime rules, at the line of a lone C or a and of the regime
    if regime is not None:
        C_line, a_line = (bar_s.table.get(key, (None, None))[1] for key in ("c", "a"))
        bar_s.judge(C_line or a_line, _check_pair, regime, C_line, a_line)
        regime_line = bar_s.table["regime"][1]
        if constants is not None:
            bar_s.judge(regime_line, _check_regime, constants, regime)
        if family is not None:
            bar_s.judge(regime_line, _check_family, regime, family)

    if issues:
        raise ConfigError(sorted(issues, key=lambda i: i.line))

    return LoadedConfig(
        constants=constants,
        density=density,
        regime=regime,
        barrier_given=barrier_given,
        solver=solver,
        initial=initial,
        defaults_used=defaults,
    )


def load(path: str) -> LoadedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _parse_initial(raw: str, barrier: bool) -> InitialData:
    """``equals_barrier``, ``scaled_barrier:<factor>``, ``constant:<value>``
    or ``csv:<path>``; the barrier kinds only in a config with a barrier."""
    # the kind in any case, as a _choice takes it; the number or path as written
    kind, colon, arg = raw.strip().partition(":")
    kind = kind.lower()
    if kind in (INIT_EQUALS_BARRIER, INIT_SCALED_BARRIER) and not barrier:
        raise ValueError(f"{kind} needs a [barrier] section")
    if kind == INIT_EQUALS_BARRIER and not colon:
        return InitialData(kind=kind)
    if kind in (INIT_SCALED_BARRIER, INIT_CONSTANT) and colon:
        number = _float(arg.strip())
        if not math.isfinite(number):
            raise ValueError(f"expected a finite number after '{kind}:', got {raw!r}")
        if kind == INIT_CONSTANT:
            return InitialData(kind=kind, value=number)
        return InitialData(kind=kind, factor=number)
    if kind == INIT_CSV and colon:
        return InitialData(kind=kind, path=arg.strip())
    raise ValueError(
        "expected equals_barrier, scaled_barrier:<factor>, constant:<value> or csv:<path>, "
        f"got {raw!r}"
    )


# ---------------------------------------------------------------------------
# resolution: config -> runnable objects


@dataclass
class Resolved:
    """A config made runnable: the certified barrier, its report, solver settings and initial data."""

    constants: ProblemConstants
    density: DensityParams
    barrier: Optional[Barrier]  # carries its regime
    report: Optional[FeasibilityReport]  # the barrier's certificate, None without one
    solver: SolverConfig
    initial: InitialData
    defaults_used: List[str]


def resolve(loaded: LoadedConfig) -> Resolved:
    """Search or certify the barrier and fill the solver settings it
    decides; raises ``ValueError``/``FeasibilitySearchError`` on
    inconsistent requests."""
    defaults = list(loaded.defaults_used)
    cc, dens = loaded.constants, loaded.density
    solver = dict(loaded.solver)
    barrier: Optional[Barrier] = None
    report: Optional[FeasibilityReport] = None

    if loaded.regime is not None:
        given = dict(loaded.barrier_given)
        C = given.pop("C", None)
        if C is None:  # a compact regime's a comes with its C (loads)
            barrier, report = find_params(cc, dens, loaded.regime, **given)
            defaults.append(f"[barrier] C = {report.params['C']:.6g} (search)")
        else:
            barrier = build_barrier(cc, dens, loaded.regime, C, **given)
            report = check_auto(barrier, dens)
            refuse_degenerate_support(barrier)
            defaults += [
                f"[barrier] {key} = {getattr(barrier, key):g} (default)"
                for key in BARRIER_KEYS[loaded.regime]
                if key not in given
            ]

    # "auto" and None come only with a barrier (loads)
    t_end = solver["t_end"]
    if t_end is None:
        t_end = solver["t_end"] = 10.0 * barrier.T
        defaults.append(f"[solver] t_end = {t_end:g} (10 T)")

    if solver["R"] == "auto":
        if barrier.regime in (REGIME_GE2, REGIME_BLOWUP):
            # the GE2 support is widest at t_end, the shrinking blow-up one at 0
            R = 2.0 * float(barrier.support_radius(t_end if barrier.regime == REGIME_GE2 else 0.0))
            if not math.isfinite(R):
                raise ValueError(f"[solver] R = auto overflows at t_end = {t_end:g}; give R")
        else:
            R = 2.0 * dens.r0
        solver["R"] = R
        defaults.append(f"[solver] R = {R:.6g} (auto)")

    if solver["output_times"] == "auto":
        solver["output_times"] = tuple(float(t) for t in np.linspace(0.0, t_end, 21))
        defaults.append("[solver] output_times = 21 evenly spaced (auto)")

    return Resolved(
        constants=cc,
        density=dens,
        barrier=barrier,
        report=report,
        solver=SolverConfig(**solver),
        initial=loaded.initial,
        defaults_used=defaults,
    )
