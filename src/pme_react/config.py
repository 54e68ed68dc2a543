"""Config files for the command line tools.

The format is a small INI dialect:

* ``[section]`` headers, ``key = value`` lines, blank lines and full-line
  comments starting with ``#`` or ``;``.
* Sections: ``[problem]`` (m, p, N), ``[density]`` (family, alpha, r0,
  then k for H1 or k1, k2 for H2Smooth; a key of the other family is an
  error, and so are the derived constants k0, rho1 and rho2, which a
  config never sets), ``[barrier]`` (regime, C, a, T, beta, b,
  eps), ``[solver]`` (R, cells, t_end, cfl_safety, blowup_threshold,
  boundary, reaction, output_times), ``[harness]`` (initial_data,
  scale_factor, seed).
* ``R = auto`` and ``output_times = auto`` defer to regime-specific rules;
  ``initial_data`` is one of ``equals_barrier``, ``scaled_barrier``,
  ``constant:<value>``, ``csv:<path>`` (the kind in any case); ``seed`` is
  a non-negative integer; ``scale_factor`` is an error with any but
  ``scaled_barrier``.

Parsing is done by hand rather than with :mod:`configparser` so that every
diagnostic carries a line number and all problems in a file are reported
together; every number must be finite.  Omitted barrier parameters are
filled by the feasibility search or by the regime defaults of
:func:`pme_react.feasibility.build_barrier`, and a barrier key the regime
does not take is an error.  ``[barrier]`` may be left out entirely for
plain simulation runs, in which case R, t_end and output_times must be
explicit and the initial data cannot reference a barrier.
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
from .feasibility import refuse_degenerate_support
from .harness import (
    INIT_CONSTANT,
    INIT_CSV,
    INIT_EQUALS_BARRIER,
    INIT_SCALED_BARRIER,
    Barrier,
    InitialData,
)
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
        return f"line {self.line}: {self.message}"


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
        """``parse`` of the value under ``key``, or ``default`` when the key
        is absent.  A missing required key, a value ``parse`` rejects (its
        ``ValueError`` text) and a non-finite number are issues at the
        key's line, and give None."""
        self.seen.add(key)
        if key not in self.table:
            if default is _REQUIRED:
                self._fail(self.header_line, f"missing required key '{key}'")
                return None
            if default is not None:
                self.defaults.append(f"[{self.name}] {key} = {default} (default)")
            return default
        raw, line = self.table[key]
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


def _float_or_auto(raw: str):
    if raw.lower() == "auto":
        return "auto"
    return _convert(float, raw, "a number or 'auto'")


def _float_list_or_auto(raw: str):
    if raw.lower() == "auto":
        return "auto"
    return tuple(_convert(float, part.strip(), "numbers or 'auto'") for part in raw.split(","))


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
    """A parsed and validated config, before any search or regime-dependent default."""

    constants: ProblemConstants
    density: DensityParams
    regime: Optional[str]
    barrier_given: Dict[str, float]
    solver_R: Union[float, str]  # number or "auto"
    solver_cells: int
    solver_t_end: Optional[float]  # None means 10 T
    solver_kwargs: Dict[str, object]
    output_times: Union[Tuple[float, ...], str]  # tuple or "auto"
    initial: InitialData
    seed: int
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
    N = prob.get("n", _int)
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
    regime = None
    barrier_given: Dict[str, float] = {}
    if bar_s.present:
        regime = bar_s.get("regime", _choice(REGIMES))
        for name in ("C", "a", "T", "beta", "b", "eps"):
            val = bar_s.get(name.lower(), _float, None)
            if val is not None:
                barrier_given[name] = val
    bar_s.finish()

    solver_s = section("solver")
    R = solver_s.get("r", _float_or_auto, "auto")
    cells = solver_s.get("cells", _int, 256)
    t_end = solver_s.get("t_end", _float, None)
    # a dataclass field's default is its class attribute: each is written once
    solver_kwargs = {
        key: solver_s.get(key, parse, getattr(SolverConfig, key))
        for key, parse in (
            ("cfl_safety", _float),
            ("blowup_threshold", _float),
            ("boundary", _choice(BOUNDARIES)),
            ("reaction", _bool),
        )
    }
    output_times = solver_s.get("output_times", _float_list_or_auto, "auto")
    solver_s.finish()

    har_s = section("harness")
    init_raw = har_s.get("initial_data", str, INIT_EQUALS_BARRIER)
    # the factor, and so its default, applies to scaled_barrier data only
    scaled = init_raw is not None and init_raw.strip().lower() == INIT_SCALED_BARRIER
    scale_factor = har_s.get("scale_factor", _float, 1.0 if scaled else None)
    seed = har_s.get("seed", nonnegative_int, 0)
    har_s.finish()

    initial = None
    if init_raw is not None and not (scaled and scale_factor is None):
        init_line = har_s.table.get("initial_data", ("", har_s.header_line))[1]
        try:
            initial = _parse_initial(init_raw, scale_factor)
        except ValueError as exc:
            issues.append(ConfigIssue(init_line, f"[harness] initial_data: {exc}"))
    if initial is not None and initial.kind != INIT_SCALED_BARRIER and "scale_factor" in har_s.table:
        message = f"only used with initial_data = {INIT_SCALED_BARRIER}, got {initial.kind}"
        issues.append(ConfigIssue(har_s.table["scale_factor"][1], f"[harness] scale_factor: {message}"))

    constants = density = None
    if None not in (m, p, N):
        try:
            constants = ProblemConstants(m=m, p=p, N=N)
        except ValueError as exc:
            issues.append(ConfigIssue(header_lines.get("problem", 0), f"[problem] {exc}"))
    if None not in (family, alpha, r0, *dens_kw.values()):
        try:
            density = DensityParams(family=family, alpha=alpha, r0=r0, **dens_kw)
        except ValueError as exc:
            issues.append(ConfigIssue(header_lines.get("density", 0), f"[density] {exc}"))

    if issues:
        raise ConfigError(sorted(issues, key=lambda i: i.line))

    return LoadedConfig(
        constants=constants,
        density=density,
        regime=regime,
        barrier_given=barrier_given,
        solver_R=R,
        solver_cells=cells,
        solver_t_end=t_end,
        solver_kwargs=solver_kwargs,
        output_times=output_times,
        initial=initial,
        seed=seed,
        defaults_used=defaults,
    )


def load(path: str) -> LoadedConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def _parse_initial(raw: str, factor: float) -> InitialData:
    # the kind in any case, as a _choice takes it; the csv path or value as written
    kind, colon, arg = raw.strip().partition(":")
    kind = kind.lower()
    if kind == INIT_EQUALS_BARRIER and not colon:
        return InitialData(kind=INIT_EQUALS_BARRIER)
    if kind == INIT_SCALED_BARRIER and not colon:
        return InitialData(kind=INIT_SCALED_BARRIER, factor=factor)
    if kind == INIT_CONSTANT and colon:
        value = float(arg)
        if not math.isfinite(value):
            raise ValueError(f"constant value must be finite, got {raw!r}")
        return InitialData(kind=INIT_CONSTANT, value=value)
    if kind == INIT_CSV and colon:
        return InitialData(kind=INIT_CSV, path=arg.strip())
    raise ValueError(
        "expected equals_barrier, scaled_barrier, constant:<value> or csv:<path>, "
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
    seed: int
    defaults_used: List[str]


def resolve(loaded: LoadedConfig) -> Resolved:
    """Search or certify the barrier and fill regime-dependent solver
    defaults; raises ``ValueError``/``FeasibilitySearchError`` on
    inconsistent requests."""
    defaults = list(loaded.defaults_used)
    cc, dens = loaded.constants, loaded.density
    barrier: Optional[Barrier] = None
    report: Optional[FeasibilityReport] = None

    if loaded.regime is not None:
        given = dict(loaded.barrier_given)
        C = given.pop("C", None)
        if C is None and "a" not in given:
            barrier, report = find_params(cc, dens, loaded.regime, **given)
            defaults.append(f"[barrier] C = {report.params['C']:.6g} (search)")
        else:
            barrier = build_barrier(cc, dens, loaded.regime, C, **given)
            report = check_auto(barrier, dens)
            if barrier.regime in (REGIME_GE2, REGIME_BLOWUP):
                refuse_degenerate_support(barrier)
            defaults += [
                f"[barrier] {key} = {getattr(barrier, key):g} (default)"
                for key in BARRIER_KEYS[loaded.regime]
                if key not in given
            ]

    if loaded.solver_t_end is not None:
        t_end = loaded.solver_t_end
    else:
        if barrier is None:
            raise ValueError("[solver] t_end is required when no barrier regime is set")
        t_end = 10.0 * barrier.T
        defaults.append(f"[solver] t_end = {t_end:g} (10 T)")

    if loaded.solver_R == "auto":
        if barrier is None:
            raise ValueError("[solver] R must be a number when no barrier regime is set")
        if barrier.regime in (REGIME_GE2, REGIME_BLOWUP):
            # the GE2 support is widest at t_end, the shrinking blow-up one at 0
            R = 2.0 * float(barrier.support_radius(t_end if barrier.regime == REGIME_GE2 else 0.0))
            if not math.isfinite(R):
                raise ValueError(f"[solver] R = auto overflows at t_end = {t_end:g}; give R")
        else:
            R = 2.0 * dens.r0
        defaults.append(f"[solver] R = {R:.6g} (auto)")
    else:
        R = float(loaded.solver_R)

    if loaded.output_times == "auto":
        if barrier is None:
            raise ValueError("[solver] output_times must be explicit when no barrier regime is set")
        output_times = tuple(float(t) for t in np.linspace(0.0, t_end, 21))
        defaults.append("[solver] output_times = 21 evenly spaced (auto)")
    else:
        output_times = tuple(loaded.output_times)

    if barrier is None and loaded.initial.kind in (INIT_EQUALS_BARRIER, INIT_SCALED_BARRIER):
        raise ValueError(
            f"[harness] initial_data = {loaded.initial.kind} needs a barrier regime"
        )

    solver = SolverConfig(
        t_end=t_end,
        R=R,
        cells=loaded.solver_cells,
        output_times=output_times,
        **loaded.solver_kwargs,
    )
    return Resolved(
        constants=cc,
        density=dens,
        barrier=barrier,
        report=report,
        solver=solver,
        initial=loaded.initial,
        seed=loaded.seed,
        defaults_used=defaults,
    )
