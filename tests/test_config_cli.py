import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pme_react import cli
from pme_react.config import ConfigError, load, loads, resolve
from pme_react.density import E
from pme_react.feasibility import REGIME_BLOWUP, REGIME_GE1B, REGIME_GE2, FeasibilitySearchError, check_auto
from pme_react.feasibility import refuse_failing
from pme_react.harness import VERDICT_FAIL, comparison_experiment, derivative_crosscheck, residual_sweep
from pme_react.solver import SUPPORT_THRESHOLD, RadialGrid

GE1B_TEXT = """\
[problem]
m = 2
p = 3
N = 3

[density]
family = H1
alpha = 2
r0 = 25

[barrier]
regime = GE1b

[solver]
cells = 32
"""

BLOWUP_TEXT = f"""\
[problem]
m = 2
p = 3
N = 3

[density]
family = H2Smooth
alpha = 2
r0 = {E!r}

[barrier]
regime = Blowup

[solver]
cells = 48
t_end = 2.0e-5
output_times = 0, 1.0e-5
"""

PLAIN_TEXT = """\
[problem]
m = 2
p = 3
N = 3

[density]
family = H2Smooth
alpha = 2
r0 = 8

[solver]
R = 1.0
cells = 16
t_end = 0.6
boundary = neumann0
output_times = 0, 0.2, 0.4

[harness]
initial_data = constant:1.0
"""


# -- parsing ----------------------------------------------------------------


def test_loads_happy_path():
    cfg = loads(GE1B_TEXT)
    assert cfg.constants.m == 2.0 and cfg.constants.N == 3
    assert cfg.density.family == "H1" and cfg.density.r0 == 25.0
    assert cfg.regime == REGIME_GE1B
    assert cfg.barrier_given == {}
    assert cfg.solver == {
        "R": "auto", "cells": 32, "t_end": None, "cfl_safety": 0.9, "blowup_threshold": 1.0e6,
        "boundary": "dirichlet0", "reaction": True, "output_times": "auto",
    }
    assert cfg.initial.kind == "equals_barrier"
    assert any("cfl_safety = 0.9 (default)" in d for d in cfg.defaults_used)


def test_readme_example_is_ge1b_cfg():
    readme = (CONFIGS.parent / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    lines = (CONFIGS / "ge1b.cfg").read_text().splitlines(keepends=True)
    assert example == "".join(line for line in lines if not line.startswith("#")).lstrip("\n")
    assert loads(example).regime == REGIME_GE1B


def test_loads_collects_every_issue():
    text = """\
stray = 1
[problem]
m = 2
p = abc
[density]
family = H9
alpha = 2
r0 = 8
bogus = 1
alpha = 3
[orbit]
x = 1
[solver
cells = 64
"""
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    issues = exc_info.value.issues
    lines = [i.line for i in issues]
    assert lines == sorted(lines)

    def has(line, fragment):
        return any(i.line == line and fragment in i.message for i in issues)

    assert has(1, "key before any section header")
    assert has(4, "expected a number, got 'abc'")
    assert has(6, "family")
    assert has(9, "unknown key 'bogus'")
    assert has(10, "duplicate key 'alpha'")
    assert has(11, "unknown section [orbit]")
    assert has(13, "unterminated section header")
    # missing required N is attributed to the [problem] header, spelled as
    # the docs spell it
    assert has(2, "missing required key 'N'")
    # the swallowed keys under bad headers produce no extra noise
    assert not any("x" in i.message and i.line == 12 for i in issues)


PLAIN_BOUNDARY_LINE = PLAIN_TEXT.splitlines().index("boundary = neumann0") + 1


@pytest.mark.parametrize(
    "spelling, value",
    [(v, True) for v in ("true", "True", "YES", "on", "1")] + [(v, False) for v in ("false", "No", "OFF", "0")],
)
def test_solver_reaction_spellings(spelling, value):
    text = PLAIN_TEXT.replace("boundary = neumann0", f"boundary = neumann0\nreaction = {spelling}")
    assert loads(text).solver["reaction"] is value


def test_solver_reaction_rejects_other_words():
    text = PLAIN_TEXT.replace("boundary = neumann0", "boundary = neumann0\nreaction = maybe")
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    (issue,) = exc_info.value.issues
    assert issue.line == PLAIN_BOUNDARY_LINE + 1
    assert issue.message == "[solver] reaction: expected true/false, got 'maybe'"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("[density]", "duplicate section [density]"),
        ("cells 16", "expected 'key = value' or '[section]', got 'cells 16'"),
        ("= 16", "empty key"),
    ],
    ids=["duplicate-section", "no-equals", "empty-key"],
)
def test_loads_line_errors(bad, message):
    with pytest.raises(ConfigError) as exc_info:
        loads(PLAIN_TEXT + bad + "\n")
    (issue,) = exc_info.value.issues
    assert (issue.line, issue.message) == (len(PLAIN_TEXT.splitlines()) + 1, message)


def test_loads_missing_required_sections():
    with pytest.raises(ConfigError) as exc_info:
        loads("[solver]\ncells = 8\n")
    msgs = [i.message for i in exc_info.value.issues]
    assert any("[problem]" in m for m in msgs)
    assert any("[density]" in m for m in msgs)


def test_loads_domain_errors_carry_section_lines():
    text = GE1B_TEXT.replace("r0 = 25", "r0 = 1.5")
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    (issue,) = exc_info.value.issues
    assert issue.line == 6  # the [density] header
    assert "r0" in issue.message


def test_initial_data_spellings():
    base = PLAIN_TEXT.replace("initial_data = constant:1.0", "initial_data = {}")
    assert loads(PLAIN_TEXT).initial.value == 1.0
    cfg = loads(base.format("csv:/tmp/u0.csv"))
    assert cfg.initial.kind == "csv" and cfg.initial.path == "/tmp/u0.csv"
    with pytest.raises(ConfigError) as exc_info:
        loads(base.format("random_noise"))
    (issue,) = exc_info.value.issues
    assert "initial_data" in issue.message
    assert issue.line == PLAIN_TEXT.splitlines().index("initial_data = constant:1.0") + 1


def test_initial_data_kind_matches_in_any_case():
    # like every choice key; the csv path and the constant value stay as written
    base = PLAIN_TEXT.replace("initial_data = constant:1.0", "initial_data = {}")
    assert loads(base.format("Constant:1.5")).initial.value == 1.5
    cfg = loads(base.format("CSV:/tmp/U0.csv"))
    assert cfg.initial.kind == "csv" and cfg.initial.path == "/tmp/U0.csv"
    assert loads(GE1B_TEXT + "\n[harness]\ninitial_data = Equals_Barrier\n").initial.kind == "equals_barrier"
    scaled = loads(GE1B_TEXT + "\n[harness]\ninitial_data = SCALED_BARRIER:0.25\n").initial
    assert scaled.kind == "scaled_barrier" and scaled.factor == 0.25
    # equals_barrier takes no number, and scaled_barrier needs its factor
    for bad in ("Equals_Barrier:1.0", "scaled_barrier"):
        with pytest.raises(ConfigError) as exc_info:
            loads(GE1B_TEXT + f"\n[harness]\ninitial_data = {bad}\n")
        (issue,) = exc_info.value.issues
        assert issue.message.startswith("[harness] initial_data: expected equals_barrier, scaled_barrier:<factor>")


@pytest.mark.parametrize(
    "line, bad",
    [
        pytest.param("initial_data = constant:1.0", f"initial_data = constant:{v}", id=v)
        for v in ("nan", "inf", "-inf")
    ]
    + [
        pytest.param("R = 1.0", "R = inf", id="R-inf"),
        pytest.param("R = 1.0", "R = nan", id="R-nan"),
        pytest.param("output_times = 0, 0.2, 0.4", "output_times = 0, nan", id="output_times-nan"),
        pytest.param("output_times = 0, 0.2, 0.4", "output_times = 0, 0.2, inf", id="output_times-inf"),
    ],
)
def test_initial_constant_must_be_finite(line, bad):
    text = PLAIN_TEXT.replace(line, bad)
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    (issue,) = exc_info.value.issues
    assert "finite" in issue.message
    assert issue.line == PLAIN_TEXT.splitlines().index(line) + 1


def test_scaled_barrier_picks_up_factor():
    text = GE1B_TEXT + "\n[harness]\ninitial_data = scaled_barrier:0.25\n"
    cfg = loads(text)
    assert cfg.initial.kind == "scaled_barrier"
    assert cfg.initial.factor == 0.25


def test_negative_constant_data_is_an_issue_at_its_line(tmp_path, capsys):
    # it used to load, and compare ran the whole search before the solver
    # refused the data with no line
    text = (CONFIGS / "ge1b.cfg").read_text().replace("equals_barrier", "constant:-1")
    cfg = write(tmp_path, "negative.cfg", text)
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    line = text.splitlines().index("initial_data = constant:-1") + 1
    assert capsys.readouterr().err == (
        f"config error(s) in {cfg}:\n  line {line}: [harness] initial_data: constant value must be nonnegative, got -1.0\n"
    )


@pytest.mark.parametrize(
    "initial",
    ["initial_data = equals_barrier\n", "", "initial_data = constant:0.5\n"],
    ids=["equals_barrier", "default", "constant"],
)
def test_scale_factor_without_scaled_barrier_is_an_error(tmp_path, capsys, initial):
    # ignored, it would let an unscaled run pass as the scaled one; the
    # factor is written in the value, scaled_barrier:<factor>
    text = (CONFIGS / "ge1b.cfg").read_text()
    text = text.replace("initial_data = equals_barrier\n", initial + "scale_factor = 5.0\n")
    cfg = write(tmp_path, "scaled.cfg", text)
    rc = cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    line = text.splitlines().index("scale_factor = 5.0") + 1
    assert f"line {line}: [harness] unknown key 'scale_factor'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stem, family, key, takes",
    [
        ("ge1b", "H1", "k1 = 2.0", "k"),
        ("ge2", "H2Smooth", "k = 50", "k1, k2"),
    ],
    ids=["H1", "H2Smooth"],
)
def test_density_key_of_another_family_is_an_error(tmp_path, capsys, stem, family, key, takes):
    # ignored, it would let a run claim a weight it never used
    text = (CONFIGS / f"{stem}.cfg").read_text()
    text = re.sub(r"family = \w+\n", f"family = {family}\n{key}\n", text)
    cfg = write(tmp_path, "family.cfg", text)
    rc = cli.main(["barrier-check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    line = text.splitlines().index(key) + 1
    name = key.partition(" ")[0]
    assert (
        f"line {line}: [density] unknown key '{name}' for family {family} "
        f"(its keys: family, alpha, r0, {takes})"
    ) in capsys.readouterr().err


@pytest.mark.parametrize("stem, key", [("ge1b", "k0 = 50.0"), ("ge2", "rho1 = 1.0"), ("ge2", "rho2 = 1.0")])
def test_derived_density_constant_is_not_a_key(tmp_path, capsys, stem, key):
    # k0 = 50.0 on ge1b.cfg used to certify a searched C of 17.87 (0.340
    # without it), a barrier whose residual sweep fails (margin -0.775)
    text = (CONFIGS / f"{stem}.cfg").read_text()
    text = text.replace("r0 = ", f"{key}\nr0 = ", 1)
    cfg = write(tmp_path, "derived.cfg", text)
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    line = text.splitlines().index(key) + 1
    family, takes = ("H1", "k") if stem == "ge1b" else ("H2Smooth", "k1, k2")
    assert capsys.readouterr().err == (
        f"config error(s) in {cfg}:\n  line {line}: [density] unknown key '{key.partition(' ')[0]}' "
        f"for family {family} (its keys: family, alpha, r0, {takes})\n"
    )


def test_family_h2_is_an_error(tmp_path, capsys):
    # the unshifted H2 band misses its own canonical member near r = e;
    # H2Smooth is the two-sided family the laboratory builds
    text = (CONFIGS / "ge2.cfg").read_text().replace("family = H2Smooth\n", "family = H2\n")
    cfg = write(tmp_path, "h2.cfg", text)
    rc = cli.main(["barrier-check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    line = text.splitlines().index("family = H2") + 1
    err = capsys.readouterr().err
    assert f"line {line}: [density] family: expected one of H1, H2Smooth, got 'H2'" in err
    assert err.count("line ") == 1  # the band keys k1, k2 are not judged against it


def test_defaults_used_lists_only_defaults_that_apply():
    h1 = loads(GE1B_TEXT).defaults_used
    assert "[density] k = 1.0 (default)" in h1
    h2 = loads(BLOWUP_TEXT).defaults_used
    assert "[density] k1 = 1.0 (default)" in h2 and "[density] k2 = 1.0 (default)" in h2
    for used, foreign in ((h1, ("k1", "k2")), (h2, ("k",))):
        names = [d.split(" = ")[0] for d in used]
        assert not any(f"[density] {key}" in names for key in foreign)


# -- resolution -------------------------------------------------------------


def test_resolve_ge1_auto_rules():
    res = resolve(loads(GE1B_TEXT))
    assert res.barrier.regime == REGIME_GE1B
    assert res.report is not None and res.report.overall
    assert res.solver.t_end == 10.0  # 10 T with the default T = 1
    assert res.solver.R == 50.0  # 2 r0
    assert len(res.solver.output_times) == 21
    assert res.solver.output_times[0] == 0.0 and res.solver.output_times[-1] == 10.0
    assert any("(search)" in d for d in res.defaults_used)
    assert any("(auto)" in d for d in res.defaults_used)


def test_resolve_blowup_auto_R():
    res = resolve(loads(BLOWUP_TEXT))
    assert res.barrier.regime == REGIME_BLOWUP
    assert res.solver.R == pytest.approx(2.0 * res.barrier.support_radius(0.0), rel=1e-12)
    assert res.solver.R == pytest.approx(831.2, rel=1e-3)


def test_resolve_explicit_barrier_needs_full_pair():
    # the file alone decides it, so loads reports it at the given key's line
    for key in ("C = 0.7", "a = 40"):
        text = BLOWUP_TEXT.replace("regime = Blowup", f"regime = GE2\n{key}")
        with pytest.raises(ConfigError) as exc_info:
            loads(text)
        assert [str(i) for i in exc_info.value.issues] == [
            f"line {text.splitlines().index(key) + 1}: [barrier] regime GE2 needs both C and a (or neither, to search)"
        ]


def test_resolve_explicit_ge2_pair():
    text = BLOWUP_TEXT.replace(
        "regime = Blowup", "regime = GE2\nC = 0.722675\na = 46.713714"
    ).replace("r0 = " + repr(E), "r0 = 8")
    res = resolve(loads(text))
    assert res.barrier.regime == REGIME_GE2
    # explicit parameters skip the search, not the certificate
    assert res.report == check_auto(res.barrier)
    assert not any("(search)" in d for d in res.defaults_used)
    assert res.barrier.bbar == 4.0  # alpha + 2 from the density
    assert any("T = 1 (default)" in d for d in res.defaults_used)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# what the shipped configs resolve to without running the solver
REFERENCE = {
    "ge1a": {"C": 0.7223383898691894, "R": 2000.0, "t_end": 20.0},
    "ge1b": {"C": 0.339620451625722, "R": 50.0, "t_end": 10.0},
    "ge2": {"C": 0.7226750271573944, "a": 46.71371375545397, "R": 52.0},
    "blowup": {"C": 219.23110174053843, "R": 831.2385683796975},
    "reaction_check": {},
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_reference_configs_resolve_to_pinned_values(path):
    res = resolve(load(str(path)))
    want = REFERENCE[path.stem]
    if not want:
        assert res.barrier is None
        return
    got = {"C": res.barrier.C, "R": res.solver.R, "t_end": res.solver.t_end}
    if "a" in want:
        got["a"] = res.barrier.a
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12), key


def test_ge2_at_256_cells_takes_the_pinned_step_count():
    """The default cfl_safety and the dt rule fix the step count of the
    shipped GE2 comparison; a change to either shows here."""
    loaded = load(str(CONFIGS / "ge2.cfg"))
    loaded.solver["cells"] = 256
    res = resolve(loaded)
    out = comparison_experiment(res.barrier, res.solver, res.initial)
    assert out.run.steps == 1664
    assert out.run.clamp_total == 0.0
    # the one-cell support check fails at this resolution (a spatial error)
    assert out.verdict == VERDICT_FAIL


# steps and s_num bits of the shipped runs whose kernel calls settle steps
# late (see pme_react._kernels); ge2@256 above settles only at each return.
# The GE1 comparisons take backward-Euler steps (pme_react.implicit.run_implicit).
# The blow-up run starts from the barrier's closed form on Python floats
# (libm's log and pow, not numpy's SIMD loops): 38 of its 2,048 initial
# cells moved by an ulp, and s_num's last bit with them, with the same steps.
SETTLED_RUNS = {
    ("compare", "ge1a"): (40, None),
    ("compare", "ge1b"): (20, None),
    ("simulate", "reaction_check"): (25424, "0x1.0007bfe4790f8p-1"),
    ("blow-up-scan", "blowup"): (106, "0x1.7354840af7785p-17"),
}


@pytest.mark.parametrize("command,stem", sorted(SETTLED_RUNS))
def test_shipped_runs_take_the_pinned_steps(tmp_path, command, stem):
    """A stop or a reaction cap that a late settle misses changes the step
    count or the blow-up time of these runs."""
    rc = cli.main([command, "--config", str(CONFIGS / f"{stem}.cfg"), "--out", str(tmp_path)])
    assert rc == 0
    name = "summary.json" if command == "simulate" else "verdict.json"
    payload = json.loads((tmp_path / name).read_text())
    s_num = payload["s_num"]
    assert (payload["steps"], s_num if s_num is None else float.hex(s_num)) == SETTLED_RUNS[command, stem]


def _shipped(stem, extra):
    text = (CONFIGS / f"{stem}.cfg").read_text()
    return text.replace("[barrier]\n", "[barrier]\n" + extra, 1)


def _unknown_barrier_key(stem, extra, regime):
    text = _shipped(stem, extra)
    key = extra.partition(" ")[0]
    return text, f"line {text.splitlines().index(extra.splitlines()[0]) + 1}: [barrier] unknown key '{key}' for regime {regime}"


# a key the regime never reads is refused at its line. Each case: (text,
# message, stderr prefix)
UNUSED_KEYS = {
    "ge2-b-eps-search": (*_unknown_barrier_key("ge2", "b = 0.5\neps = 7\n", "GE2"), "  "),
}

# GE1b takes beta, and its certificate entry beta_mode judges the value,
# searched or given. Each case: (text, the refusal)
GE1B_BETA = {
    "ge1b-beta-search": (
        _shipped("ge1b", "beta = 0.3\n"),
        "no feasible GE1b parameters: beta_mode fails at every amplitude (lhs 0.3, rhs 0)",
    ),
    "ge1b-beta-explicit": (
        _shipped("ge1b", "beta = 0.3\nC = 0.3\n"),
        "the given GE1b parameters fail their certificate (beta_mode: 0.3 > 0)",
    ),
}


@pytest.mark.parametrize("case", list(GE1B_BETA))
def test_resolve_judges_ge1b_beta_by_its_certificate(case):
    text, message = GE1B_BETA[case]
    with pytest.raises(FeasibilitySearchError) as err:
        refuse_failing(resolve(loads(text)).report, "given")
    assert str(err.value) == message


@pytest.mark.parametrize("case", list(GE1B_BETA))
def test_cli_ge1b_beta_exits_2(tmp_path, capsys, case):
    text, message = GE1B_BETA[case]
    cfg = write(tmp_path, "beta.cfg", text)
    rc = cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"infeasible: {message}\n"


@pytest.mark.parametrize("case", list(UNUSED_KEYS))
def test_resolve_rejects_barrier_keys_the_regime_does_not_take(case):
    text, message, _ = UNUSED_KEYS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        resolve(loads(text))


@pytest.mark.parametrize("case", list(UNUSED_KEYS))
def test_cli_barrier_keys_the_regime_does_not_take_exit_1(tmp_path, capsys, case):
    text, message, prefix = UNUSED_KEYS[case]
    cfg = write(tmp_path, "extra.cfg", text)
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"\n{prefix}{message}" in "\n" + capsys.readouterr().err


@pytest.mark.parametrize(
    "stem, extra, regime, takes",
    [("ge2", "b = 0.5\neps = 7\n", "GE2", "C, a, T"), ("ge1b", "a = 5\n", "GE1b", "C, T, beta, b, eps")],
    ids=["ge2-b-eps", "ge1b-a"],
)
def test_barrier_key_the_regime_does_not_take_is_an_issue_at_its_line(tmp_path, capsys, stem, extra, regime, takes):
    # like a density key of another family: ignored, it would let a run
    # claim a barrier it never used
    text = _shipped(stem, extra)
    cfg = write(tmp_path, "extra.cfg", text)
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = text.splitlines()
    assert capsys.readouterr().err == f"config error(s) in {cfg}:\n" + "".join(
        f"  line {lines.index(key) + 1}: [barrier] unknown key '{key.partition(' ')[0]}' "
        f"for regime {regime} (its keys: regime, {takes})\n"
        for key in extra.splitlines()
    )


def test_resolve_plain_simulation():
    res = resolve(loads(PLAIN_TEXT))
    assert res.barrier is None
    assert res.solver.output_times == (0.0, 0.2, 0.4)


def test_loads_plain_requires_explicit_numbers():
    # without a barrier nothing sizes the domain, the horizon, the output
    # times or the data, and the file alone shows it: one error, four lines
    text = PLAIN_TEXT
    for old, new in (
        ("R = 1.0", "R = auto"),
        ("t_end = 0.6\n", ""),
        ("output_times = 0, 0.2, 0.4", "output_times = auto"),
        ("initial_data = constant:1.0", "initial_data = equals_barrier"),
    ):
        text = text.replace(old, new)
    lines = text.splitlines()
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    assert [(i.line, i.message) for i in exc_info.value.issues] == [
        (lines.index("[solver]") + 1, "[solver] missing required key 't_end'"),
        (lines.index("R = auto") + 1, "[solver] R: expected a number, got 'auto'"),
        (lines.index("output_times = auto") + 1, "[solver] output_times: expected comma-separated numbers, got 'auto'"),
        (lines.index("initial_data = equals_barrier") + 1,
         "[harness] initial_data: equals_barrier needs a [barrier] section"),
    ]
    text = PLAIN_TEXT.replace("\n[harness]\ninitial_data = constant:1.0\n", "")
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    # an absent section has no line to name
    assert [str(i) for i in exc_info.value.issues] == ["[harness] missing required key 'initial_data'"]


# a [solver] rule the file alone decides, broken on ge2.cfg. Each case: (the
# setting, in place of the key's line or added to the section, the key whose
# line is named, the message)
SOLVER_RULES = {
    "cells": ("cells = 1", "cells", "cells must be an integer >= 2, got 1"),
    "cfl_safety": ("cfl_safety = 2.0", "cfl_safety", "cfl_safety must lie in (0, 1], got 2.0"),
    "blowup_threshold": ("blowup_threshold = 0", "blowup_threshold", "blowup_threshold must be positive, got 0.0"),
    "t_end": ("t_end = 0", "t_end", "t_end must be positive, got 0.0"),
    "R": ("R = -52", "R", "R must be positive and finite, got -52.0"),
    "output_times-negative": ("output_times = -1, 0, 10", "output_times", "output_times must lie within [0, t_end]"),
    "output_times-order": ("output_times = 0, 2, 1", "output_times", "output_times must be strictly increasing"),
    "output_times-past-t_end": ("t_end = 5", "output_times", "output_times must lie within [0, t_end]"),
    # no t_end: the horizon is 10 T, at the default T = 1
    "output_times-past-10-T": ("output_times = 0, 5, 12", "output_times", "output_times must lie within [0, t_end]"),
}


def _broken_solver(case):
    setting, key, message = SOLVER_RULES[case]
    text = (CONFIGS / "ge2.cfg").read_text()
    text, n = re.subn(rf"(?m)^{setting.partition(' ')[0]} = .*$", setting, text)
    if not n:
        text = text.replace("[solver]\n", f"[solver]\n{setting}\n")
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith(f"{key} = "))
    return text, f"line {line}: [solver] {message}"


@pytest.mark.parametrize("case", list(SOLVER_RULES))
def test_loads_reports_a_solver_rule_at_its_line(case):
    # SolverConfig refused these only after the search, with no line, and
    # barrier-check, which builds none, passed cells = 1
    text, issue = _broken_solver(case)
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    assert [str(i) for i in exc_info.value.issues] == [issue]


@pytest.mark.parametrize(
    "stem, given_T, times, horizon",
    [
        ("ge2", None, "0, 5, 10", 10.0),
        ("ge2", None, "0, 5, 10.5", 10.0),
        ("ge2", 2.0, "0, 5, 12", 20.0),
        ("ge2", 0.5, "0, 5, 6", 5.0),
        ("ge2", -1.0, "0, 5, 12", None),  # a T the barrier refuses holds no time
        ("ge1a", None, "0, 20", 20.0),  # GE1a's default T is 2
        ("ge1a", None, "0, 21", 20.0),
    ],
)
def test_loads_holds_output_times_to_the_derived_horizon(stem, given_T, times, horizon):
    # without t_end a barrier config runs to 10 T, T given or the regime's
    # default, and the file alone decides that horizon
    text = re.sub(r"(?m)^output_times = .*$", f"output_times = {times}", (CONFIGS / f"{stem}.cfg").read_text())
    if given_T is not None:
        text = text.replace("[barrier]\n", f"[barrier]\nT = {given_T}\n")
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith("output_times = "))
    if horizon is None or max(map(float, times.split(","))) <= horizon:
        assert loads(text).solver["t_end"] is None
        return
    with pytest.raises(ConfigError) as exc_info:
        loads(text)
    assert [str(i) for i in exc_info.value.issues] == [f"line {line}: [solver] output_times must lie within [0, t_end]"]


@pytest.mark.parametrize("case", list(SOLVER_RULES))
def test_cli_barrier_check_reports_a_solver_rule_at_its_line(tmp_path, capsys, case):
    text, issue = _broken_solver(case)
    cfg = write(tmp_path, "solver.cfg", text)
    assert cli.main(["barrier-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error(s) in {cfg}:\n  {issue}\n"


# -- command line -----------------------------------------------------------


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_config_errors_exit_1(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "[problem]\nm = two\n")
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 2" in err


def test_cli_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["feasibility"])  # --config/--out missing
    assert exc_info.value.code == 1
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["no-such-command", "--config", "x", "--out", "y"])
    assert exc_info.value.code == 1


def test_cli_feasibility_writes_summary(tmp_path, capsys):
    cfg = write(tmp_path, "ge1b.cfg", GE1B_TEXT)
    out = tmp_path / "out"
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "feasible" in capsys.readouterr().out
    payload = json.loads((out / "summary.json").read_text())
    assert payload["overall"] is True
    assert payload["mode"] == REGIME_GE1B
    assert {e["name"] for e in payload["inequalities"]} >= {"amplitude_balance", "epsilon_floor"}
    assert "defaults_used" in payload


# output file and the key/value that mark a failed parameter search, by subcommand
INFEASIBLE_OUTPUTS = {
    "feasibility": ("summary.json", "feasible", False),
    "barrier-check": ("verdict.json", "passed", False),
    "simulate": ("summary.json", "feasible", False),
    "compare": ("verdict.json", "verdict", "fail"),
    "blow-up-scan": ("verdict.json", "verdict", "fail"),
}


# regime GE1a with p > m: the GE1 barrier itself builds for any beta, so
# only the regime check keeps compare from running it
GE1A_WITH_P_ABOVE_M = GE1B_TEXT.replace("regime = GE1b", "regime = GE1a\nC = 0.5")


@pytest.mark.parametrize("command", list(INFEASIBLE_OUTPUTS))
def test_cli_regime_exponent_mismatch_exits_1(tmp_path, capsys, command):
    # the file alone decides it: a config error at the regime's line
    cfg = write(tmp_path, "ge1a.cfg", GE1A_WITH_P_ABOVE_M)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    line = GE1A_WITH_P_ABOVE_M.splitlines().index("regime = GE1a") + 1
    assert capsys.readouterr().err == (
        f"config error(s) in {cfg}:\n  line {line}: [barrier] regime GE1a requires p < m\n"
    )


@pytest.mark.parametrize("command", list(INFEASIBLE_OUTPUTS))
def test_cli_infeasible_search_exits_2(tmp_path, capsys, command):
    out_file, key, value = INFEASIBLE_OUTPUTS[command]
    text = GE1B_TEXT.replace("regime = GE1b", "regime = GE1b\nb = 1.5")
    cfg = write(tmp_path, "bad_shape.cfg", text)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "infeasible:" in capsys.readouterr().err
    payload = json.loads((out / out_file).read_text())
    assert payload[key] == value
    assert payload["error"]


# a given GE1b value outside its window (C = 0.3 is otherwise certified),
# and the certificate entry that refuses it first, with both sides; b <= -1
# leaves the eps window undefined, not the barrier
GE1_GIVEN_OUTSIDE = {
    "b=-2": ("b = -2", "b_positive: 0 >= -2"),
    "b=1.5": ("b = 1.5", "b_below_alpha_window: 1.5 >= 1"),
    "eps=5": ("eps = 5", "laplacian_margin: 7.5 >= 1"),
    "eps=0.1": ("eps = 0.1", "epsilon_floor: 0.310667 >= 0.1"),
    "beta=0.3": ("beta = 0.3", "beta_mode: 0.3 > 0"),
}


@pytest.mark.parametrize("command", ["feasibility", "barrier-check", "compare"])
@pytest.mark.parametrize("case", list(GE1_GIVEN_OUTSIDE))
def test_cli_given_ge1_value_outside_its_window_exits_2(tmp_path, capsys, case, command):
    extra, first = GE1_GIVEN_OUTSIDE[case]
    cfg = write(tmp_path, "given.cfg", GE1B_TEXT.replace("regime = GE1b", f"regime = GE1b\nC = 0.3\n{extra}"))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    if command == "compare":
        assert captured.err.startswith(f"infeasible: the given GE1b parameters fail their certificate ({first}")
        return
    assert captured.err == ""
    assert captured.out.startswith("GE1b: infeasible" if command == "feasibility" else "barrier-check: fail")
    payload = json.loads((out / ("summary.json" if command == "feasibility" else "verdict.json")).read_text())
    report = payload if command == "feasibility" else payload["feasibility"]
    failing = [e["name"] for e in report["inequalities"] if not e["passed"]]
    assert failing[0] == first.partition(":")[0] and set(failing[1:]) <= {"amplitude_balance"}


@pytest.mark.parametrize("command", ["barrier-check", "compare"])
def test_cli_explicit_ge2_with_empty_support_exits_2(tmp_path, capsys, command):
    # given C and a skip the search but not its refusal of a barrier that is
    # zero at t = 0; without it both commands passed on all-zero data and
    # printed 2,030 "support degenerates" warnings
    text = (CONFIGS / "ge2.cfg").read_text()
    for old, new in (("r0 = 8.0", "r0 = 25"), ("R = 52.0", "R = auto"), ("cells = 2048", "cells = 256"),
                     ("regime = GE2", "regime = GE2\nC = 0.8315561018810539\na = 53.75178642559133")):
        text = text.replace(old, new)
    cfg = write(tmp_path, "ge2_empty.cfg", text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", cfg, "--out", str(out)])
    assert rc == 2 and caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("infeasible: the certified GE2 barrier is identically zero at t = 0")
    out_file, key, value = INFEASIBLE_OUTPUTS[command]
    payload = json.loads((out / out_file).read_text())
    assert payload[key] == value and "opens for T > 3.98885" in payload["error"]


# a blow-up density the search certifies at C = a = 2.7e6, where the support
# radius at t = 0 is exp(838.6): it used to end in an OverflowError traceback
OVERFLOWING_BLOWUP_TEXT = """\
[problem]
m = 2
p = 2.05
N = 5

[density]
family = H2Smooth
alpha = 1.2
r0 = 20
k1 = 2
k2 = 3

[barrier]
regime = Blowup
{given}
[solver]
R = {R}
cells = 32
t_end = 1e-5
output_times = 0, 1e-6
"""


GIVEN_OVERFLOWING_BLOWUP = "C = 2703041.6635985197\na = 2703041.6635985197\n"


@pytest.mark.parametrize("given", ["", GIVEN_OVERFLOWING_BLOWUP], ids=["search", "given"])
@pytest.mark.parametrize("R", ["auto", "10"])
@pytest.mark.parametrize("command", ["feasibility", "barrier-check", "compare"])
def test_cli_blowup_with_overflowing_support_exits_2(tmp_path, capsys, command, R, given):
    cfg = write(tmp_path, "overflow.cfg", OVERFLOWING_BLOWUP_TEXT.format(R=R, given=given))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0] == (
        "infeasible: the certified Blowup barrier's support radius R(0) ~ exp(838.628) "
        "at t = 0 is not a finite float"
    )
    out_file, key, value = INFEASIBLE_OUTPUTS[command]
    payload = json.loads((out / out_file).read_text())
    assert payload[key] == value and payload["error"] == err[0][len("infeasible: "):]


# R(0) = 5.9e170 is a float, but R(0)^4 is not: the sweep's powers of r and
# the grid's cell volumes overflow, so the certificate must not pass it on
HUGE_BLOWUP_TEXT = """\
[problem]
m = 2
p = 2.01
N = 4

[density]
family = H2Smooth
alpha = 1.1
r0 = 8

[barrier]
regime = Blowup
{given}
[solver]
R = auto
cells = 32
t_end = 1e-5
output_times = 0, 1e-6
"""


@pytest.mark.parametrize("given", ["", "C = 281007.23069392756\na = 281007.23069392756\n"], ids=["search", "given"])
@pytest.mark.parametrize("command", ["feasibility", "barrier-check", "compare"])
def test_cli_blowup_with_unevaluable_support_exits_2(tmp_path, capsys, command, given):
    cfg = write(tmp_path, "huge.cfg", HUGE_BLOWUP_TEXT.format(given=given))
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0] == (
        "infeasible: the certified Blowup barrier's support radius R(0) = 5.88903e+170 at t = 0 "
        "has R(0)^N past the float range at N = 4, so its residual cannot be evaluated"
    )
    out_file, key, value = INFEASIBLE_OUTPUTS[command]
    payload = json.loads((out / out_file).read_text())
    assert payload[key] == value and payload["error"] == err[0][len("infeasible: "):]


def test_cli_auto_radius_overflowing_at_t_end_exits_1(tmp_path, capsys):
    # R(0) = exp(178) and R(0)^3 are floats, but the spreading support
    # reaches exp(750) by t_end = 1e5, so R = auto has no finite value to take
    text = (CONFIGS / "ge2.cfg").read_text()
    for old, new in (("R = 52.0", "R = auto\nt_end = 1e5"), ("cells = 2048", "cells = 32"),
                     ("regime = GE2", "regime = GE2\nC = 0.1\na = 1e9")):
        text = text.replace(old, new)
    cfg = write(tmp_path, "ge2_wide.cfg", text)
    rc = cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: [solver] R = auto overflows at t_end = 100000; give R")


# GE2 with a given amplitude that fails its certificate: R(0) = exp(178)
# and R(0)^3 are floats, but R(1e5) = exp(750), at the t_end the sweep
# reaches, is not
GE2_WIDE = (CONFIGS / "ge2.cfg").read_text().replace("R = 52.0", "R = 10\nt_end = 1e5").replace(
    "cells = 2048", "cells = 32").replace("regime = GE2", "regime = GE2\nC = 0.1\na = 1e9")


@pytest.mark.parametrize("command", ["barrier-check"])
def test_cli_ge2_support_overflowing_after_t0_fails_quietly(tmp_path, capsys, command):
    # the sweep up to 10 T used to end in an OverflowError traceback; now the
    # non-finite values fail where they occur
    cfg = write(tmp_path, "ge2_wide.cfg", GE2_WIDE)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and caught == [] and captured.err == ""
    assert captured.out.count("\n") == 1 and ": fail" in captured.out
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["passed"] is False
    assert payload["residual_sweep"]["passed"] is False
    assert payload["residual_sweep"]["min_margin"] is None  # nan, at its point


# a Python-float power of C passes the float range: C_HI^(p-1) in the
# blow-up search at p = 40, C^m of a given GE1 amplitude in the sweep, and
# sup(u0)^(p-1) in the reaction time of the data that barrier gives; each
# used to end in an OverflowError traceback
GE1B_C1E200 = _shipped("ge1b", "C = 1e200\n")
OVERFLOWING_POWERS = {
    "blowup-p40": (
        "barrier-check",
        (CONFIGS / "blowup.cfg").read_text().replace("p = 3.0", "p = 40.0"),
        0,
        "barrier-check: pass (feasible=True, sweep=True, derivatives=True)\n",
    ),
    "ge1b-C1e200": (
        "barrier-check",
        GE1B_C1E200,
        2,
        "barrier-check: fail (feasible=False, sweep=False, derivatives=False)\n",
    ),
    # the reaction cap on dt underflows to 0 at this sup: a blow-up that t
    # cannot resolve
    "ge1b-C1e200-simulate": ("simulate", GE1B_C1E200, 0, "simulate: blowup at t=0 (sup=7.4568e+199, steps=0)\n"),
}


@pytest.mark.parametrize("case", list(OVERFLOWING_POWERS))
def test_cli_overflowing_power_of_c_gives_inf(tmp_path, capsys, case):
    command, text, code, line = OVERFLOWING_POWERS[case]
    cfg = write(tmp_path, "power.cfg", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err, caught) == (code, line, "", [])


# given parameters whose certificate fails: (config, regime, the failing
# inequalities)
UNCERTIFIED = {
    "compare": (GE2_WIDE, "GE2", "amplitude_balance_pointwise: 0.51 > 6.67574e-09"),
    "blow-up-scan": (
        _shipped("blowup", "C = 10.0\na = 3.0\n").replace("cells = 2048", "cells = 64"),
        "Blowup",
        "outer_coupling: 644.432 > 5; inner_coupling: 322.652 > 5",
    ),
}


@pytest.mark.parametrize("command", list(UNCERTIFIED))
def test_cli_given_barrier_failing_its_certificate_is_refused(tmp_path, capsys, command):
    # a run against an uncertified barrier confirms nothing (compare used to
    # print "compare[GE2]: fail (..., max_violation=3.285e-02)"), so it is
    # refused the way a failed search is, before the solver runs
    text, regime, failing = UNCERTIFIED[command]
    cfg = write(tmp_path, "given.cfg", text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    error = f"the given {regime} parameters fail their certificate ({failing})"
    assert rc == 2 and caught == [] and captured.out == ""
    assert captured.err == f"infeasible: {error}\n"
    assert sorted(p.name for p in out.iterdir()) == ["verdict.json"]
    assert json.loads((out / "verdict.json").read_text()) == {"verdict": "fail", "error": error}
    # feasibility reports the same certificate as infeasible
    assert cli.main(["feasibility", "--config", cfg, "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().out == f"{regime}: infeasible\n"


# GE1 parameters given on a density the GE1 certificate does not cover: the
# search path refused them, but compare used to run a verdict against the
# uncertified barrier (exit 2) and simulate to run it (exit 0); the file
# alone decides the family rule, so every command refuses it at the regime line
GE1B_GIVEN_ON_H2SMOOTH = (
    _shipped("ge1b", "C = 0.3\n").replace("family = H1", "family = H2Smooth").replace("k = 1.0", "k1 = 1.0")
)


@pytest.mark.parametrize("command", list(INFEASIBLE_OUTPUTS))
def test_cli_given_barrier_is_certified_by_every_command(tmp_path, capsys, command):
    cfg = write(tmp_path, "ge1b_h2.cfg", GE1B_GIVEN_ON_H2SMOOTH)
    line = GE1B_GIVEN_ON_H2SMOOTH.splitlines().index("regime = GE1b") + 1
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config error(s) in {cfg}:\n  line {line}: [barrier] GE1 certificates require an H1-family density\n"
    )


# each regime on the family its certificate does not cover: the
# certificates' own rule, reported by loads at the regime line
WRONG_FAMILY = {
    "ge1a": ("family = H1", "family = H2Smooth", "GE1 certificates require an H1-family density"),
    "ge1b": ("family = H1", "family = H2Smooth", "GE1 certificates require an H1-family density"),
    "ge2": ("family = H2Smooth", "family = H1",
            "the GE2 certificate requires a two-sided (H2Smooth) density"),
    "blowup": ("family = H2Smooth", "family = H1",
               "the blow-up certificate requires a two-sided (H2Smooth) density"),
}


@pytest.mark.parametrize("stem", list(WRONG_FAMILY))
def test_loads_reports_the_density_family_at_the_regime_line(stem):
    shipped, swapped, message = WRONG_FAMILY[stem]
    text = (CONFIGS / f"{stem}.cfg").read_text().replace(shipped, swapped)
    text = re.sub(r"(?m)^k1? = .*\n(k2 = .*\n)?", "", text)
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.startswith("regime ="))
    with pytest.raises(ConfigError) as err:
        loads(text)
    assert [str(issue) for issue in err.value.issues] == [f"line {line}: [barrier] {message}"]


def test_cli_compare_fast_ge1b(tmp_path, capsys):
    text = GE1B_TEXT + "t_end = 0.5\noutput_times = 0, 0.25, 0.5\n"
    cfg = write(tmp_path, "cmp.cfg", text)
    out = tmp_path / "out"
    rc = cli.main(["compare", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "compare[GE1b]: pass" in capsys.readouterr().out
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "pass"
    assert verdict["termination"] == "completed"
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "t,sup_norm,support_radius"
    assert len(series) == 4
    snaps = (out / "snapshots.csv").read_text().splitlines()
    assert snaps[0] == "t,r,u"
    assert len(snaps) == 1 + 3 * 32


def test_cli_simulate_plain_reaction(tmp_path, capsys):
    cfg = write(tmp_path, "plain.cfg", PLAIN_TEXT)
    out = tmp_path / "out"
    rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "simulate: blowup" in capsys.readouterr().out
    payload = json.loads((out / "summary.json").read_text())
    assert payload["termination"] == "blowup"
    assert payload["s_num"] == pytest.approx(0.5, rel=0.05)
    assert payload["tau0"] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("command, stem", [("simulate", "reaction_check"), ("compare", "ge2")])
def test_cli_series_rows_are_read_off_the_snapshots(tmp_path, command, stem):
    # each series.csv row is (t, max u, support radius) of its snapshot
    # block; the radius is the outer face of the last cell above
    # SUPPORT_THRESHOLD.  Rounding to 12 digits keeps the order of values,
    # so the max of the written values is the written max.
    text = (CONFIGS / f"{stem}.cfg").read_text()
    if stem == "ge2":
        text = re.sub(r"(?m)^cells = .*$", "cells = 256", text)
    cfg = write(tmp_path, f"{stem}.cfg", text)
    out = tmp_path / "out"
    # ge2 at 256 cells fails its support allowance, and still writes both files
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == (2 if stem == "ge2" else 0)
    resolved = resolve(load(cfg))
    solver = resolved.solver
    faces = RadialGrid(N=resolved.constants.N, R=solver.R, cells=solver.cells).faces
    blocks = {}
    for row in (out / "snapshots.csv").read_text().splitlines()[1:]:
        t, _, u = row.split(",")
        blocks.setdefault(t, []).append(float(u))
    expected = ["t,sup_norm,support_radius"]
    for t, u in blocks.items():
        assert len(u) == solver.cells
        inside = np.flatnonzero(np.asarray(u) > SUPPORT_THRESHOLD)
        radius = faces[inside[-1] + 1] if inside.size else 0.0
        expected.append(f"{t},{max(u):.12g},{radius:.12g}")
    assert len(expected) > 2
    assert (out / "series.csv").read_text().splitlines() == expected


def test_cli_simulate_plain_short_csv_exits_1(tmp_path, capsys):
    data = write(tmp_path, "u0.csv", "1.0,1.0,1.0\n")
    cfg = write(tmp_path, "plain.cfg", PLAIN_TEXT.replace("constant:1.0", f"csv:{data}"))
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "csv initial data has 3 values, grid has 16 cells" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


# the JSON keys of each report: its dataclass fields, and for compare the run
# reduced to the eight values it reports (the raw run never reaches the file)
COMPARE_KEYS = {
    "verdict", "regime", "checked_times", "max_violation", "worst_time", "support_ok",
    "support_worst_cells", "blowup_window_ok", "s_num", "blowup_flag", "tau0", "termination", "notes",
    "headroom", "headroom_time", "headroom_radius", "implicit", "half_dt",
    "steps", "final_sup", "clamp_total", "defaults_used",
}
IMPLICIT_KEYS = {"newton_iterations", "halvings", "dt_bound", "dt_smallest", "dt_largest"}
HALF_DT_KEYS = {"max_dt", "steps", "newton_iterations", "max_violation", "headroom", "verdict"}
SCAN_ROW_KEYS = {"factor", "blew_up", "s_num", "tau0", "termination"}
FEASIBILITY_KEYS = {"mode", "inequalities", "params", "overall"}
INEQUALITY_KEYS = {"name", "lhs", "rhs", "slack", "passed", "strict"}
SWEEP_KEYS = {"regime", "role", "grid", "rel_tol", "min_margin", "worst_r", "worst_t", "passed"}
CROSSCHECK_KEYS = {"n_points", "h", "rel_tol", "max_err", "passed"}


def test_cli_writes_strict_json(tmp_path, capsys):
    # NaN and Infinity are not JSON; strict readers reject the file
    cfg = write(tmp_path, "cmp.cfg", GE1B_TEXT + "t_end = 0.5\noutput_times = 0, 0.25, 0.5\n")
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp")]) == 0
    verdict = _strict_json(tmp_path / "cmp" / "verdict.json")
    assert set(verdict) == COMPARE_KEYS and "run" not in verdict
    assert set(verdict["implicit"]) == IMPLICIT_KEYS
    assert set(verdict["implicit"]["dt_bound"]) == {"output", "positivity", "max_dt"}
    assert set(verdict["half_dt"]) == HALF_DT_KEYS
    assert verdict["support_ok"] is None and verdict["support_worst_cells"] is None
    cfg = write(tmp_path, "zero.cfg", PLAIN_TEXT.replace("constant:1.0", "constant:0.0"))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "zero")]) == 0
    summary = _strict_json(tmp_path / "zero" / "summary.json")
    assert summary["termination"] == "completed"
    assert summary["tau0"] is None


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy.optimize alone cost about 0.5 s of every command's start-up.
    # The second run puts an importable numba first on the path: the
    # package has one kernel and must not pick it up.
    src = Path(__file__).resolve().parents[1] / "src"
    stub = tmp_path / "stub" / "numba"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("def njit(*args, **kwargs):\n    return lambda f: f\n")
    code = (
        "import json, sys, pme_react.cli\n"
        "from pme_react import _kernels\n"
        "top = {m.split('.')[0] for m in sys.modules}\n"
        "print(json.dumps([sorted(top & {'scipy', 'numba'}), _kernels.HAVE_NUMBA]))\n"
    )
    for path in (str(src), os.pathsep.join((str(stub.parent), str(src)))):
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout) == [[], False]


def test_cli_compare_with_nothing_to_check_is_inconclusive(tmp_path, capsys):
    # the only output time lies past the blow-up, so no snapshot is compared
    text = (CONFIGS / "blowup.cfg").read_text()
    cfg = write(tmp_path, "late.cfg", re.sub(r"(?m)^output_times = .*$", "output_times = 1.5e-5", text))
    out = tmp_path / "out"
    rc = cli.main(["compare", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "compare[Blowup]: inconclusive" in capsys.readouterr().out
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["termination"] == "blowup" and verdict["blowup_window_ok"] is True
    assert verdict["checked_times"] == [] and verdict["max_violation"] is None
    assert verdict["support_ok"] is None and verdict["support_worst_cells"] is None
    assert any("untested" in note for note in verdict["notes"])


def test_cli_scan_writes_rows(tmp_path, capsys):
    cfg = write(tmp_path, "bu.cfg", BLOWUP_TEXT)
    out = tmp_path / "out"
    rc = cli.main(["blow-up-scan", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "5/5 scaled runs blew up" in capsys.readouterr().out
    rows = (out / "scan.csv").read_text().splitlines()
    assert rows[0] == "factor,blowup,s_num,tau0"
    assert len(rows) == 6
    for line in rows[1:]:
        factor, fired, s_num, tau0 = line.split(",")
        assert fired == "true"
        assert float(s_num) >= 0.95 * float(tau0)
    verdict = _strict_json(out / "verdict.json")
    assert set(verdict) == COMPARE_KEYS | {"scan"}
    # the blow-up regime runs the explicit scheme
    assert verdict["implicit"] is None and verdict["half_dt"] is None
    assert len(verdict["scan"]) == 5
    assert all(set(row) == SCAN_ROW_KEYS for row in verdict["scan"])
    assert verdict["verdict"] == "pass"


def test_cli_compare_blowup_that_completes_fails_with_a_null_support_verdict(tmp_path, capsys):
    # the run ends at t_end = 5e-6, before it blows up: the verdict is a
    # fail with its note, and no support check is reported that never ran
    text = re.sub(r"(?m)^cells = .*$", "cells = 256", (CONFIGS / "blowup.cfg").read_text())
    text = re.sub(r"(?m)^output_times = .*$", "output_times = 0, 5e-6", text.replace("t_end = 2.0e-5", "t_end = 5e-6"))
    cfg = write(tmp_path, "short.cfg", text)
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().out.startswith("compare[Blowup]: fail (termination=completed, ")
    verdict = _strict_json(out / "verdict.json")
    assert set(verdict) == COMPARE_KEYS
    assert verdict["notes"] == ["expected blow-up but the run completed"]
    assert verdict["checked_times"] == [] and verdict["support_ok"] is None
    assert verdict["blowup_window_ok"] is False


# data at or above blowup_threshold: (command, config, initial data,
# threshold, the data and their sup); compare printed "fail" for the shipped
# data, after 0 steps ("unexpected numerical blow-up") on ge2 and with
# "s_num=0 outside [9.88617e-06, 1.05]" on blowup, and the scan wrote the
# row "1.25,true,0,..." for data scaled past the threshold with no step
AT_THRESHOLD = {
    "ge2-compare": ("compare", "ge2", "equals_barrier", "0.3", "initial data reach sup 0.426333"),
    "blowup-compare": ("compare", "blowup", "equals_barrier", "100", "initial data reach sup 219.196"),
    "blowup-scan": ("blow-up-scan", "blowup", "equals_barrier", "100", "initial data reach sup 219.196"),
    "blowup-constant": ("compare", "blowup", "constant:300", "250", "initial data reach sup 300"),
    "blowup-scan-factor": (
        "blow-up-scan", "blowup", "equals_barrier", "250", "initial data scaled by 1.25 reach sup 273.995",
    ),
}


@pytest.mark.parametrize("case", list(AT_THRESHOLD))
def test_cli_compare_refuses_data_at_the_blowup_threshold(tmp_path, capsys, case):
    command, stem, initial, threshold, data = AT_THRESHOLD[case]
    text = re.sub(r"(?m)^cells = .*$", f"cells = 256\nblowup_threshold = {threshold}",
                  (CONFIGS / f"{stem}.cfg").read_text()).replace("equals_barrier", initial)
    cfg = write(tmp_path, f"{stem}.cfg", text)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out, list(out.iterdir())) == (1, "", [])
    assert captured.err == (
        f"error: {data} >= blowup_threshold = {threshold}: "
        "the run would blow up before its first step; raise [solver] blowup_threshold\n"
    )


@pytest.mark.parametrize("stem", ["ge1a", "ge1b", "ge2", "blowup"])
def test_cli_barrier_check_names_one_regime(tmp_path, capsys, stem):
    # the regime is the barrier's: the certificate and the sweep name the
    # config's regime
    out = tmp_path / "out"
    rc = cli.main(["barrier-check", "--config", str(CONFIGS / f"{stem}.cfg"), "--out", str(out)])
    assert rc == 0
    verdict = _strict_json(out / "verdict.json")
    assert set(verdict) == {"passed", "feasibility", "residual_sweep", "derivative_crosscheck", "defaults_used"}
    feas, sweep = verdict["feasibility"], verdict["residual_sweep"]
    assert feas["mode"] == sweep["regime"] == load(str(CONFIGS / f"{stem}.cfg")).regime
    assert set(feas) == FEASIBILITY_KEYS
    assert all(set(e) == INEQUALITY_KEYS for e in feas["inequalities"])
    assert set(sweep) == SWEEP_KEYS and sweep["grid"] == [200, 50]
    assert set(verdict["derivative_crosscheck"]) == CROSSCHECK_KEYS


def test_cli_barrier_check_seed_reaches_the_crosscheck(tmp_path, capsys):
    """``--seed`` (default 0) picks the crosscheck's points; a negative
    seed is refused by the parser, and a seed key at its config line."""
    text = (CONFIGS / "ge1b.cfg").read_text()
    bar = resolve(loads(text)).barrier

    def block(cfg, *extra):
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        assert cli.main(["barrier-check", "--config", cfg, "--out", str(out), *extra]) == 0
        return _strict_json(out / "verdict.json")["derivative_crosscheck"]

    def expected(seed):
        return json.loads(json.dumps(cli._finite_or_null(derivative_crosscheck(bar, seed=seed))))

    assert "seed" not in text
    shipped = str(CONFIGS / "ge1b.cfg")
    assert block(shipped, "--seed", "7") == expected(7) != expected(0)
    assert block(shipped) == expected(0)

    # the seed is an option only: a leftover key is an error at its line
    keyed = text.replace("initial_data = equals_barrier\n", "initial_data = equals_barrier\nseed = 5\n")
    bad = write(tmp_path, "keyed.cfg", keyed)
    for command in ("barrier-check", "compare"):
        out = tmp_path / f"keyed-{command}"
        assert cli.main([command, "--config", bad, "--out", str(out)]) == 1
        line = keyed.splitlines().index("seed = 5") + 1
        err = capsys.readouterr().err
        assert f"line {line}: [harness] unknown key 'seed'" in err
        assert not any(out.iterdir())
    # only barrier-check reads the seed, so only it takes the flag
    for argv in (["barrier-check", "--seed", "-3"], ["compare", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc_info:
            cli.main([*argv, "--config", shipped, "--out", str(tmp_path / "unused")])
        assert exc_info.value.code == 1
    assert "argument --seed: invalid nonnegative_int value: '-3'" in capsys.readouterr().err


@pytest.mark.parametrize("k", [3, 4])
def test_cli_barrier_check_sweeps_to_t_end(tmp_path, k):
    # ge2.cfg's barrier rescaled by k (C k^(-1/(p-1)), a k^((p-m)/(p-1)),
    # T/k) holds its residual sign up to 10 T = 10/k, but not up to the
    # t_end = 10 that compare would check: worst at t = 10
    text = (CONFIGS / "ge2.cfg").read_text()
    bar = resolve(loads(text)).barrier
    given = f"regime = GE2\nC = {bar.C * k ** -0.5!r}\na = {bar.a * k ** 0.5!r}\nT = {bar.T / k!r}"
    text = text.replace("regime = GE2", given).replace("cells = 2048", "cells = 2048\nt_end = 10")
    cfg = write(tmp_path, f"ge2_k{k}.cfg", text)
    resolved = resolve(load(cfg))
    assert residual_sweep(resolved.barrier).passed  # t <= 10 T alone misses it
    out = tmp_path / "out"
    assert cli.main(["barrier-check", "--config", cfg, "--out", str(out)]) == 2
    sweep = _strict_json(out / "verdict.json")["residual_sweep"]
    assert sweep["passed"] is False and sweep["worst_t"] == 10.0
    assert sweep["min_margin"] == pytest.approx(-0.092 if k == 3 else -0.323, abs=1e-3)


@pytest.mark.parametrize("R", ["1e-300", "1e120", "1e-120"])
@pytest.mark.parametrize("command, stem", [("simulate", "reaction_check"), ("compare", "ge2")])
def test_cli_degenerate_grid_is_an_error(tmp_path, capsys, command, stem, R):
    # r^N in the cell volumes underflows to 0 for a tiny R and overflows to
    # inf - inf = nan for a huge one; a run on such a grid reports nonsense
    # (a nan blow-up, a stall at t = 0), so it must not start
    text = re.sub(r"(?m)^R = .*$", f"R = {R}", (CONFIGS / f"{stem}.cfg").read_text())
    cfg = write(tmp_path, f"{stem}.cfg", text)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: R = {float(R)!r} with N = 3 and cells = ")


def _freeze_case(tmp_path, case):
    """Arguments of one command that ends on the named return path."""
    if case == "pass":
        return ["barrier-check", "--config", str(CONFIGS / "ge2.cfg")]
    if case == "fail":
        text = re.sub(r"(?m)^cells = .*$", "cells = 256", (CONFIGS / "ge2.cfg").read_text())
        return ["compare", "--config", write(tmp_path, "ge2_256.cfg", text)]
    if case == "infeasible":
        text = GE1B_TEXT.replace("regime = GE1b", "regime = GE1b\nb = 1.5")
        return ["feasibility", "--config", write(tmp_path, "bad_shape.cfg", text)]
    if case == "config error":
        return ["feasibility", "--config", write(tmp_path, "bad.cfg", "[problem]\nm = two\n")]
    text = re.sub(r"(?m)^R = .*$", "R = 1e120", (CONFIGS / "reaction_check.cfg").read_text())
    return ["simulate", "--config", write(tmp_path, "huge.cfg", text)]


@pytest.mark.parametrize("case, code", [("pass", 0), ("fail", 2), ("infeasible", 2), ("config error", 1), ("error", 1)])
def test_cli_main_freezes_the_collector_on_every_exit(tmp_path, case, code):
    # shutdown then skips the process's objects instead of freeing them one
    # by one; gc.get_objects() does not list the permanent generation
    assert gc.get_freeze_count() == 0
    marker = [object()]
    assert cli.main(_freeze_case(tmp_path, case) + ["--out", str(tmp_path / "out")]) == code
    assert gc.get_freeze_count() > 0
    assert not any(obj is marker for obj in gc.get_objects())


def test_cli_subprocess_matches_in_process_byte_for_byte(tmp_path, capsys):
    # the freeze on the way out still lets the interpreter flush a piped
    # stdout and leaves the output file whole
    cfg = str(CONFIGS / "ge2.cfg")
    assert cli.main(["barrier-check", "--config", cfg, "--out", str(tmp_path / "in")]) == 0
    line = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pme_react.cli", "barrier-check", "--config", cfg, "--out", str(tmp_path / "sub")],
        env=env, capture_output=True, check=False,
    )
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == line.encode()
    assert (tmp_path / "sub" / "verdict.json").read_bytes() == (tmp_path / "in" / "verdict.json").read_bytes()
