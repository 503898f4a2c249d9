import contextlib
import functools
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cavity_beats.composite
import cavity_beats.linalg
import cavity_beats.reduced
import cavity_beats.scenario
import cavity_beats.series
from cavity_beats import cli
from cavity_beats._csvformat import CELL, format_rows
from cavity_beats.analytic import beat_frequency, symmetric_solution
from cavity_beats.cli import build_parser, main
from cavity_beats.composite import EliminationCheck
from cavity_beats.linalg import DriftError, stack_coordinates
from cavity_beats.model import CouplingSet, derive_rates, midpoint_levels, tuned_configuration
from cavity_beats.scenario import (
    CSV_BLOCK,
    CSV_COLUMNS,
    MODES,
    SAMPLES_MAX,
    SWEEP_PARAMS,
    T_END_MAX,
    Scenario,
    ScenarioError,
    parse_scenario,
    run_scenario,
    run_sweep,
    sweep_variant,
    write_csv,
    write_summary,
)
from cavity_beats.series import CHANNELS, TimeSeries

SHORTCUT = {"name": "case", "mode": "reduced", "Omega": 1.0, "t_end": 6.0}

EXPLICIT = {
    "name": "case",
    "mode": "reduced",
    "t_end": 6.0,
    "levels": {"omega_eg": 4.3, "omega_1g": 1.9, "omega_2g": 0.4},
    "cavity": {"omega_a": 3.1, "omega_b": 1.2, "kappa_b": 1.7},
    "couplings": {"G_1e": 0.9, "G_2e": [1.1, 0.2], "G_g1": 0.8, "G_g2": [1.3, -0.4]},
}

INF, NAN = float("inf"), float("nan")


# --- parsing ----------------------------------------------------------------

def test_parse_shortcut_defaults():
    sc = parse_scenario(dict(SHORTCUT))
    assert sc.Omega == 1.0 and sc.G == 1.0 + 0j
    assert sc.eta == 1.0 and sc.samples == 1601
    # the exact engine has no tolerances to set
    for key in ("rel_tol", "abs_tol"):
        with pytest.raises(ScenarioError, match=f"unknown field\\(s\\) {key}"):
            parse_scenario(dict(SHORTCUT, **{key: 1e-9}))


def test_parse_explicit_blocks():
    sc = parse_scenario(dict(EXPLICIT))
    assert sc.Omega is None
    assert sc.couplings.G_2e == 1.1 + 0.2j
    assert sc.cavity.kappa_a == 1.0 and sc.cavity.kappa_b == 1.7


def test_parse_rejects_unknown_fields_with_path():
    bad = dict(SHORTCUT, cavty={})
    with pytest.raises(ScenarioError, match=r"scenario: unknown field\(s\) cavty"):
        parse_scenario(bad)
    bad = dict(EXPLICIT)
    bad["levels"] = dict(bad["levels"], omega_3g=1.0)
    with pytest.raises(ScenarioError, match=r"scenario\.levels: unknown field"):
        parse_scenario(bad)


def test_parse_rejects_mixed_configuration():
    bad = dict(EXPLICIT, Omega=1.0)
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(bad)
    bad = {k: v for k, v in EXPLICIT.items() if k != "cavity"}
    with pytest.raises(ScenarioError, match="need levels, cavity and couplings"):
        parse_scenario(bad)
    bad = {"name": "x", "mode": "reduced", "t_end": 1.0, "G": 2.0}
    with pytest.raises(ScenarioError, match="only meaningful together with Omega"):
        parse_scenario(bad)


def test_parse_field_type_checks():
    with pytest.raises(ScenarioError, match="Omega"):
        parse_scenario(dict(SHORTCUT, Omega=True))
    with pytest.raises(ScenarioError, match="G"):
        parse_scenario(dict(SHORTCUT, G="strong"))
    with pytest.raises(ScenarioError, match="t_end"):
        parse_scenario({"name": "x", "mode": "reduced", "Omega": 1.0})
    with pytest.raises(ScenarioError, match="t_end"):
        parse_scenario(dict(SHORTCUT, t_end=-1.0))
    with pytest.raises(ScenarioError, match=r"t_end: must lie in \[1e-100, 1e\+06\]"):
        parse_scenario(dict(SHORTCUT, t_end=0.0))
    with pytest.raises(ScenarioError, match="eta: must be finite"):
        parse_scenario(dict(SHORTCUT, eta=INF))
    with pytest.raises(ScenarioError, match=r"eta: must lie in \[0, 1\]"):
        parse_scenario(dict(SHORTCUT, eta=1.5))
    with pytest.raises(ScenarioError, match="Omega"):
        parse_scenario(dict(SHORTCUT, Omega=-2.0))
    with pytest.raises(ScenarioError, match="samples"):
        parse_scenario(dict(SHORTCUT, samples=1))
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario({"name": "x", "mode": "magic", "Omega": 1.0, "t_end": 1.0})
    with pytest.raises(ScenarioError, match="name"):
        parse_scenario({"mode": "reduced", "Omega": 1.0, "t_end": 1.0})


def test_parse_validate_mode():
    sc = parse_scenario({"name": "v", "mode": "validate"})
    assert sc.g_values == (0.2, 0.1, 0.05) and sc.samples == 151
    with pytest.raises(ScenarioError, match="g_values"):
        parse_scenario({"name": "v", "mode": "validate", "g_values": [0.2]})
    for rung in (1e10, 1e300):  # adiabatic elimination needs g below the cavity linewidth
        with pytest.raises(ScenarioError, match=r"g_values\[0\]: must lie in \[0.001, 1\]"):
            parse_scenario({"name": "v", "mode": "validate", "g_values": [rung, 0.2]})
    for ladder, repeat in (([0.2, 0.2], 1), ([0.2, 0.1, 0.2], 2)):  # equal rungs cannot shrink
        with pytest.raises(ScenarioError, match=rf"g_values\[{repeat}\]: repeats the coupling 0.2 "):
            parse_scenario({"name": "v", "mode": "validate", "g_values": ladder})
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario({"name": "v", "mode": "validate", "t_end": 5.0})


# --- running ----------------------------------------------------------------

def test_composite_mode_rejects_eta():
    sc = parse_scenario({"name": "x", "mode": "composite", "Omega": 1.0, "t_end": 1.0, "eta": 0.5})
    with pytest.raises(ScenarioError, match="interference dial"):
        run_scenario(sc)


def test_analytic_mode_needs_tuned_configuration():
    sc = parse_scenario(dict(EXPLICIT, mode="analytic"))
    with pytest.raises(ScenarioError, match="evenly tuned"):
        run_scenario(sc)


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_analytic_and_reduced_modes_agree():
    base = {"name": "x", "mode": "analytic", "Omega": 1.0, "t_end": 8.0, "samples": 201}
    closed = run_scenario(parse_scenario(base))
    numeric = run_scenario(parse_scenario(dict(base, mode="reduced")))
    for k in ("e", "1", "2", "g"):
        dev = np.max(np.abs(closed.series.population(k) - numeric.series.population(k)))
        assert dev < 1e-6
    assert closed.summary["two_f_predicted"] == pytest.approx(np.sqrt(7.0), rel=1e-12)
    assert closed.summary["two_f_measured"] == pytest.approx(np.sqrt(7.0), rel=0.02)


def test_summary_fields_and_json_round_trip(tmp_path):
    sc = parse_scenario({"name": "x", "mode": "analytic", "Omega": 1.0, "t_end": 8.0, "samples": 401})
    result = run_scenario(sc)
    path = tmp_path / "x.summary.json"
    write_summary(result.summary, str(path))
    loaded = json.loads(path.read_text())
    assert loaded["name"] == "x" and loaded["mode"] == "analytic"
    assert loaded["rates"]["Gamma_1"] == pytest.approx(0.5)
    assert loaded["alpha"] == pytest.approx([0.5, -0.5])
    assert loaded["beats_predicted"] is True
    assert loaded["measure_method"] == "pole_fit"
    assert loaded["partial"] is False
    assert path.read_text().endswith("\n")


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_summary_keys_are_the_records_fields_in_order():
    # the summaries take their keys from RateSet and EliminationCheck; the files pin them
    summary = run_scenario(parse_scenario(dict(SHORTCUT, mode="analytic", samples=41))).summary
    assert list(summary["rates"]) == [
        "Gamma_1", "Gamma_2", "Gamma_1p", "Gamma_2p",
        "delta_1", "delta_2", "delta_1p", "delta_2p", "Omega",
    ]
    ladder = {"name": "v", "mode": "validate", "g_values": [0.4, 0.2], "samples": 41}
    summary = run_scenario(parse_scenario(ladder)).summary
    assert list(summary) == ["name", "mode", "g_values", "deviations", "monotone"]


def test_sweep_variant_naming_and_guards():
    sc = parse_scenario(dict(SHORTCUT))
    var = sweep_variant(sc, "eta", 0.5)
    assert var.name == "case_eta_0.5" and var.eta == 0.5
    var = sweep_variant(sc, "Omega", 3.0)
    assert var.Omega == 3.0
    with pytest.raises(ScenarioError, match="shortcut"):
        sweep_variant(parse_scenario(dict(EXPLICIT)), "Omega", 1.0)
    with pytest.raises(ScenarioError, match="sweep parameter"):
        sweep_variant(sc, "kappa_a", 1.0)


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON constant {token}")


def test_run_sweep_records_bad_points(tmp_path):
    base = {"name": "s", "mode": "analytic", "Omega": 1.0, "t_end": 6.0, "samples": 101}
    sc = parse_scenario(base)
    for param, bad in (("Omega", -3.0), ("eta", NAN)):
        results = run_sweep(sc, param, [1.0, bad])
        assert len(results) == 2
        assert results[0].series is not None and "error" not in results[0].summary
        assert results[1].series is None and "error" in results[1].summary
    # a sweep value is checked as the file field is: the NaN point fails, exit 3
    path = _write_scenario(tmp_path, base)
    out = tmp_path / "out"
    assert main(["sweep", path, "--param", "eta", "--values", "1,nan", "--out-dir", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["s.sweep.json", "s_eta_1.csv"]
    # the combined file is strict JSON: the bad value is written as in its point's name
    combined = json.loads((out / "s.sweep.json").read_text(), parse_constant=_reject_constant)
    assert [row["value"] for row in combined["runs"]] == [1.0, "nan"]
    assert combined["runs"][1]["summary"]["name"] == "s_eta_nan"


# --- file output ------------------------------------------------------------

def test_csv_layout_and_round_trip(tmp_path):
    sc = parse_scenario({"name": "x", "mode": "analytic", "Omega": 1.0, "t_end": 4.0, "samples": 51})
    result = run_scenario(sc)
    path = tmp_path / "x.csv"
    write_csv(result.series, str(path))
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == ",".join(CHANNELS) == "t,rho_ee,rho_11,rho_22,rho_gg,re_rho_12,im_rho_12,abs_rho_12"
    assert len(lines) == 52
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    # 17 significant digits reproduce the doubles exactly
    assert np.array_equal(table[:, 1], result.series.population("e"))
    assert np.array_equal(table[:, 7], np.abs(result.series.coherence("1", "2")))


def test_csv_matches_per_value_formatting(tmp_path):
    # one row past a full block, and the values where float formatting has edge cases
    n = 4096 + 1
    specials = [-0.0, NAN, INF, -INF, 5e-324, 1e300, -1e-300, 0.1, 1 / 3]
    rng = np.random.default_rng(5)
    states = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    for k, x in enumerate(specials):
        states[n - 9 + k, 0, 0] = states[k, 2, 2] = x
        states[n - 1 - k, 1, 2] = complex(x, -x)
    times = np.linspace(0.0, 7.0, n)
    times[-1] = 5e-324
    series = TimeSeries(times, np.arange(16), stack_coordinates(states))
    path = tmp_path / "x.csv"
    write_csv(series, str(path))
    ch = series.channels()
    want = ",".join(CSV_COLUMNS) + "\n" + "".join(
        ",".join(f"{ch[c][k]:.17g}" for c in CSV_COLUMNS) + "\n" for k in range(n)
    )
    assert path.read_bytes() == want.encode()


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_csv_is_deterministic(tmp_path):
    base = {"name": "x", "mode": "reduced", "Omega": 3.0, "t_end": 4.0, "samples": 101}
    paths = []
    for tag in ("a", "b"):
        result = run_scenario(parse_scenario(dict(base)))
        path = tmp_path / f"{tag}.csv"
        write_csv(result.series, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def _lines_17g(block):
    # the reference the block formatter must match byte for byte
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in block.tolist()).encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=48))
@example([0.0, -0.0, NAN, INF, -INF, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308])
def test_format_rows_matches_17g_on_any_float(values):
    block = np.array(values).reshape(1, -1)
    assert format_rows(block, bytearray()) == _lines_17g(block)
    assert format_rows(block.T, bytearray()) == _lines_17g(block.T)


def test_format_rows_matches_17g_on_random_bit_patterns():
    block = np.random.default_rng(8).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64).reshape(-1, 8)
    for a in range(0, len(block), 4096):
        assert format_rows(block[a:a + 4096], bytearray()) == _lines_17g(block[a:a + 4096])


def test_format_rows_matches_17g_at_the_boundaries():
    # powers of ten and their neighbours test the exponent; then a value whose
    # 17 digits round up to a power of ten, exact values, two exact ties at the
    # 17th digit (one rounds down to even, one up) and the fast path's range ends
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    named = np.array([
        9.9999999999999995e-07, 0.5, 2.5, 4503599627370497.5,
        1000000.00048828125, 1000000.00146484375, 1e-290, 1e290,
    ])
    base = np.concatenate([tens, named])
    values = np.concatenate([base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)])
    block = np.concatenate([values, -values]).reshape(-1, 2)
    assert format_rows(block, bytearray()) == _lines_17g(block)


def test_format_rows_matches_17g_in_every_fixed_decade():
    # random bit patterns seldom land in fixed notation or print short; here every
    # fixed decade and four scientific ones get random mantissas and short decimals
    # of 1 to 16 significant digits, so every trimmed group and point position shows
    rng = np.random.default_rng(9)
    values = []
    for x in [*range(-7, 18), -60, -150, 150, 250]:
        values.append(rng.uniform(1.0, 10.0, 200) * 10.0**x)
        for digits in range(1, 17):
            ints = rng.integers(10 ** (digits - 1), 10**digits, 40)
            values.append(np.array([float(f"{k}e{x - digits + 1}") for k in ints]))
    v = np.concatenate(values)
    block = np.concatenate([v, -v]).reshape(-1, 8)
    assert format_rows(block, bytearray()) == _lines_17g(block)
    printed = {len(f"{x:.17g}".split("e")[0].replace(".", "").lstrip("0")) for x in v}
    assert printed == set(range(1, 18))


def test_format_rows_matches_17g_on_fallback_values():
    # values that print short take "%.17g" itself: exact binary fractions of the time
    # grids, integers, k / 2**j, signed zeros and the non-finite values, several to a
    # row and many to a block
    rng = np.random.default_rng(6)
    k = rng.integers(-2**20, 2**20, 4000)
    short = np.concatenate([
        k.astype(float), k / 2.0 ** rng.integers(1, 30, k.size),
        [0.0, -0.0, INF, -INF, NAN, 1.0, -1.0, 0.5, 2.0**-1074, 2.0**1023],
    ])
    for grid in (np.linspace(0.0, 8.0, 1601), np.linspace(0.0, 12.0, 1601)):
        block = np.column_stack([grid, grid[::-1], rng.permutation(short)[:grid.size],
                                 rng.random(grid.size), np.floor(8 * grid) / 8])
        assert format_rows(block, bytearray()) == _lines_17g(block)
    block = rng.permutation(short)[:8000].reshape(-1, 8)
    assert format_rows(block, bytearray()) == _lines_17g(block)


def test_format_rows_leaves_no_stale_byte_in_a_reused_buffer():
    # long texts (values that take "%.17g" itself, fixed notation with its point
    # rotated, exponents) fill the buffer's cells; shorter texts formatted into the
    # same buffer, in a block of the same, a smaller and a larger size, come out as
    # a fresh format of their block
    rng = np.random.default_rng(5)
    long = np.concatenate([
        [1e-300, -2.0**-1074, 2.0**1000, -1.7976931348623157e308],
        -rng.uniform(1.0, 10.0, 12) * 10.0 ** rng.integers(1, 16, 12),
        -rng.uniform(1.0, 10.0, 16) * 10.0 ** rng.integers(-290, -100, 16),
    ]).reshape(4, 8)
    buf = bytearray()
    assert format_rows(long, buf) == _lines_17g(long)
    for rows in (4, 2, 6):
        short = rng.choice([0.0, -0.0, 1.0, 0.5, 3.0, 0.25], (rows, 8))
        short[:, ::3] = rng.integers(1, 10, (rows, 3)) / 10
        assert format_rows(short, buf) == format_rows(short, bytearray()) == _lines_17g(short)
        assert len(buf) == short.size * CELL


@pytest.mark.parametrize("rows", [0, 1, 2, 1023, 1024, 1025, 1601, 2049, 20001])
def test_csv_goes_out_in_equal_blocks(tmp_path, rows, monkeypatch):
    # the fewest blocks of at most CSV_BLOCK rows, as equal as they come (1601 rows as
    # 801 + 800), each row as "%.17g" writes it; an empty series writes the header alone
    sizes = []

    def recording(block, buf):
        sizes.append(len(block))
        return format_rows(block, buf)

    monkeypatch.setattr(cavity_beats.scenario, "format_rows", recording)
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(-20, 20, (rows, 6))
    series = TimeSeries(np.linspace(0.0, 8.0, rows), keep=[0, 1, 2, 3, 7, 13], x=x)
    write_csv(series, str(tmp_path / "x.csv"))
    block = np.column_stack([series.channel(c) for c in CSV_COLUMNS])
    assert (tmp_path / "x.csv").read_bytes() == (",".join(CSV_COLUMNS) + "\n").encode() + _lines_17g(block)
    assert sum(sizes) == rows and len(sizes) == -(-rows // CSV_BLOCK)
    assert all(sizes[-1] <= n == sizes[0] <= CSV_BLOCK for n in sizes[:-1])


def test_csv_memory_stays_flat(tmp_path):
    # blocks bound the writer's working memory, whatever the length of the series
    rng = np.random.default_rng(4)
    states = rng.normal(size=(SAMPLES_MAX, 4, 4)) + 1j * rng.normal(size=(SAMPLES_MAX, 4, 4))
    series = TimeSeries(np.linspace(0.0, 8.0, SAMPLES_MAX), np.arange(16), stack_coordinates(states))
    tracemalloc.start()
    try:
        write_csv(series, str(tmp_path / "x.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_composite_run_builds_no_composite_state_stack():
    # the field is traced out of the propagated coordinates, so a long composite run peaks
    # far below one (N, 16, 16) complex stack (82 MB here; the run peaked above that with it)
    samples = 20001
    sc = parse_scenario(dict(SHORTCUT, mode="composite", t_end=12.0, samples=samples))
    tracemalloc.start()
    try:
        result = run_scenario(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.series) == samples
    assert peak < samples * 16 * 16 * 16 / 2


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_reduced_run_validates_on_coordinates():
    # rotation, trace check and positivity work on the few propagated coordinates, so a
    # long reduced run peaks below two (N, 4, 4) complex stacks (51 MB here)
    sc = parse_scenario(dict(SHORTCUT, t_end=12.0, samples=SAMPLES_MAX))
    tracemalloc.start()
    try:
        result = run_scenario(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.series) == SAMPLES_MAX
    assert peak < 2 * SAMPLES_MAX * 4 * 4 * 16


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_runs_and_csv_build_no_state_stack(monkeypatch, tmp_path):
    # a run holds its coordinates, and every output reads them: no (N, 4, 4) stack
    def refuse(*args, **kwargs):
        raise AssertionError("a stack of 4x4 states was built")

    for module in (cavity_beats.series, cavity_beats.reduced, cavity_beats.composite,
                   cavity_beats.linalg):
        if hasattr(module, "hermitian_states"):
            monkeypatch.setattr(module, "hermitian_states", refuse)
    for mode in ("reduced", "analytic", "composite"):
        result = run_scenario(parse_scenario(dict(SHORTCUT, mode=mode, samples=401)))
        write_csv(result.series, str(tmp_path / f"{mode}.csv"))


def _fresh_python(code: str) -> str:
    """What code prints when a new interpreter runs it with this package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(cavity_beats.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("mode,eta", [("analytic", 1.0), ("reduced", 1.0), ("analytic", 0.0)],
                         ids=["analytic", "reduced", "analytic-eta0"])
def test_run_peaks_below_half_a_state_stack(mode, eta):
    # the series holds six real coordinates per sample, and the closed form, the frame
    # rotation and the checks work in blocks or one coordinate at a time, so a long run
    # peaks below half of one (N, 4, 4) complex stack (2.56 MB here); at eta = 0 the
    # secular cascade holds four coordinates and takes the whole grid at once. The run is
    # measured in a fresh interpreter, so no module or cache an earlier test loaded moves it
    samples = 20001
    scenario = dict(SHORTCUT, mode=mode, eta=eta, t_end=12.0, samples=samples)
    code = (
        "import tracemalloc, warnings; warnings.simplefilter('ignore'); "
        "from cavity_beats.scenario import parse_scenario, run_scenario; "
        f"sc = parse_scenario({scenario!r}); tracemalloc.start(); result = run_scenario(sc); "
        "print(len(result.series), tracemalloc.get_traced_memory()[1])"
    )
    length, peak = map(int, _fresh_python(code).split())
    assert length == samples
    assert peak < samples * 4 * 4 * 16 / 2


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_reduced_run_peak_holds_under_a_wrapper_that_holds_the_check_arguments(monkeypatch):
    # the check keeps the walk's array as the series' storage, so a wrapper that holds its
    # arguments through the call, as a tracing span does, holds nothing beside the series
    check = cavity_beats.reduced.hermitize_and_check
    held = []

    @functools.wraps(check)
    def holding(*args, **kwargs):
        held.append(args)
        try:
            return check(*args, **kwargs)
        finally:
            held.pop()

    monkeypatch.setattr(cavity_beats.reduced, "hermitize_and_check", holding)
    samples = 20001
    sc = parse_scenario(dict(SHORTCUT, t_end=12.0, samples=samples))
    tracemalloc.start()
    try:
        result = run_scenario(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.series) == samples
    assert peak < samples * 4 * 4 * 16 / 2


# --- command line -----------------------------------------------------------

def _write_scenario(tmp_path, obj):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_run_writes_outputs(tmp_path, capsys):
    path = _write_scenario(
        tmp_path, {"name": "quick", "mode": "analytic", "Omega": 1.0, "t_end": 6.0, "samples": 101}
    )
    code = main(["run", path, "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "quick.csv").exists()
    assert (tmp_path / "quick.summary.json").exists()
    out = capsys.readouterr().out
    assert "beats predicted: True" in out
    for flag in ("--seed", "--tol-rel", "--tol-abs"):
        with pytest.raises(SystemExit):
            main(["run", path, "--out-dir", str(tmp_path), flag, "7"])


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_linspace_run_takes_one_step_matrix(monkeypatch):
    # the steps of a 20001-sample linspace grid differ by several 1e-12 relative, but every
    # time lies on the line, so the whole run is stepped with one matrix exponential
    steps = []
    step_matrix = cavity_beats.linalg._step_matrix
    monkeypatch.setattr(
        cavity_beats.linalg, "_step_matrix", lambda gen, h, *walk: steps.append(h) or step_matrix(gen, h, *walk)
    )
    run_scenario(parse_scenario({**SHORTCUT, "t_end": 8.0, "samples": 20001}))
    assert len(steps) == 1


def test_cli_run_survives_one_huge_step(tmp_path, capsys):
    # one step of 1e6 at Omega = 1e5 would need 36 squarings of the Pade exponential, which
    # drift the trace by 4e-6 (exit 3); the step goes through the generator's eigenvectors
    scenario = {"name": "huge", "mode": "reduced", "Omega": 1e5, "G": 1, "eta": 1, "t_end": 1e6, "samples": 2}
    assert main(["run", _write_scenario(tmp_path, scenario), "--out-dir", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "huge.csv", delimiter=",", skiprows=1)
    summary = json.loads((tmp_path / "huge.summary.json").read_text())
    levels, cavity = midpoint_levels(1e5 + 1.0, 1e5, 1e5)
    closed = symmetric_solution(data[:, 0], derive_rates(CouplingSet.uniform(1.0), levels, cavity))
    for col, level in zip((1, 2, 3, 4), "e12g"):
        np.testing.assert_allclose(data[:, col], closed.population(level), rtol=0, atol=1e-12)
    assert summary["max_drift_correction"] < 1e-12  # trace and Hermiticity before the repair
    assert np.max(np.abs(data[:, 1:5].sum(axis=1) - 1.0)) < 1e-12


def test_cli_run_survives_a_long_walk(tmp_path):
    # a step of 10 at Omega = 1e5 needs 19 squarings, and doubling over 100001 samples squares
    # the step 16 more times; a Pade step compounded over the run drifted the trace by 1e-6 at
    # sample 61260 (exit 3), so the walk counts against the budget and the step takes the
    # generator's eigenvectors
    scenario = {"name": "walk", "mode": "reduced", "Omega": 1e5, "G": 1, "eta": 1, "t_end": 1e6, "samples": 100001}
    assert main(["run", _write_scenario(tmp_path, scenario), "--out-dir", str(tmp_path)]) == 0
    data = np.loadtxt(tmp_path / "walk.csv", delimiter=",", skiprows=1)
    summary = json.loads((tmp_path / "walk.summary.json").read_text())
    levels, cavity = midpoint_levels(1e5 + 1.0, 1e5, 1e5)
    closed = symmetric_solution(data[:, 0], derive_rates(CouplingSet.uniform(1.0), levels, cavity))
    for col, level in zip((1, 2, 3, 4), "e12g"):
        np.testing.assert_allclose(data[:, col], closed.population(level), rtol=0, atol=1e-10)
    assert summary["max_drift_correction"] < 1e-10


def test_cli_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    path = _write_scenario(tmp_path, dict(SHORTCUT, extra=1.0))
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 2
    assert "scenario error" in capsys.readouterr().err



BAD_INPUT = {
    "t_end-inf": (dict(SHORTCUT, t_end=INF), None),
    "Omega-nan": (dict(SHORTCUT, Omega=NAN), None),
    "G-inf": (dict(SHORTCUT, G=[1.0, INF]), None),
    "analytic-eta-nan": (dict(SHORTCUT, mode="analytic", eta=NAN), None),
    "analytic-eta-3": (dict(SHORTCUT, mode="analytic", eta=3), None),
    "analytic-eta-huge": (dict(SHORTCUT, mode="analytic", eta=1e200), None),
    "analytic-eta-negative": (dict(SHORTCUT, mode="analytic", eta=-0.5), None),
    "preset-eta-2": (None, ["preset", "fig3", "--eta", "2"]),
    "t_end-overflow": (dict(SHORTCUT, t_end=10**400), None),
    "kappa_a-nan": (dict(EXPLICIT, cavity=dict(EXPLICIT["cavity"], kappa_a=NAN)), None),
    "G_g1-inf": (dict(EXPLICIT, couplings=dict(EXPLICIT["couplings"], G_g1=-INF)), None),
    "g_values-nan": ({"name": "v", "mode": "validate", "g_values": [0.2, NAN]}, None),
    "name-parent": (dict(SHORTCUT, name="../escaped"), None),
    "name-subdir": (dict(SHORTCUT, name="sub/escaped"), None),
    "name-dotdot": (dict(SHORTCUT, name=".."), None),
    "validate-one-sample": (None, ["validate", "--samples", "1"]),
    "validate-omega-nan": (None, ["validate", "--omega", "nan"]),
    "validate-g-text": (None, ["validate", "--g-values", "0.2,abc"]),
    "validate-g-repeated": (None, ["validate", "--g-values", "0.2,0.2"]),
    "validate-name-parent": (None, ["validate", "--name", "../escaped"]),
    "sweep-names-alike": (SHORTCUT, ["sweep", "--param", "Omega", "--values", "1.0000001,1.0000002"]),
    "sweep-value-repeated": (SHORTCUT, ["sweep", "--param", "eta", "--values", "0.5,1,0.5"]),
    "t_end-huge": (dict(SHORTCUT, t_end=1e12, samples=3), None),
    "t_end-max-float": (dict(SHORTCUT, t_end=1e308), None),
    "t_end-tiny": (dict(SHORTCUT, t_end=1e-160), None),
    "Omega-overflow": (dict(SHORTCUT, Omega=1e300), None),
    "G-overflow": (dict(SHORTCUT, G=1e200), None),
    "analytic-G-overflow": (dict(SHORTCUT, mode="analytic", G=1e153, t_end=1e6, samples=41), None),
    "samples-too-many": (dict(SHORTCUT, samples=100002), None),
    "n_max_a-negative": (dict(SHORTCUT, n_max_a=-5), None),
    "n_max_b-set": (dict(SHORTCUT, mode="composite", n_max_b=2), None),
    "g_values-tiny-rung": ({"name": "v", "mode": "validate", "g_values": [0.2, 1e-4]}, None),
    "g_values-strong-rung": ({"name": "v", "mode": "validate", "g_values": [1e10, 0.2]}, None),
    "g_values-huge-rung": ({"name": "v", "mode": "validate", "g_values": [1e300, 0.2]}, None),
    "top-level-list": ([1], None),
    "levels-not-an-object": (dict(EXPLICIT, levels=3), None),
    "levels-without-omega_2g": (dict(EXPLICIT, levels={"omega_eg": 4.3, "omega_1g": 1.9}), None),
    "levels-out-of-order": (
        dict(EXPLICIT, levels={"omega_eg": 1.0, "omega_1g": 1.9, "omega_2g": 0.4}), None
    ),
    "sweep-no-values": (SHORTCUT, ["sweep", "--param", "eta", "--values", ","]),
    "validate-over-budget": (
        {"name": "v", "mode": "validate", "g_values": [0.4, 0.2, 0.1], "samples": 41}, None
    ),
    "validate-g-over-budget": (None, ["validate", "--g-values", "0.4,0.2,0.1", "--samples", "41"]),
    "sweep-over-budget": (dict(SHORTCUT, samples=41), ["sweep", "--param", "eta", "--values", "0,0.5,1"]),
}
# three rungs or points of 41 samples, one sample past scenario.WORK_MAX patched down to 122
OVER_BUDGET = ("validate-over-budget", "validate-g-over-budget", "sweep-over-budget")
# the whole stderr line of the reader's and the sweep's own errors, by BAD_INPUT case
READER_ERRORS = {
    "sweep-names-alike": (
        "sweep value 1.0000002: names its run case_Omega_1, as an earlier value does"
    ),
    "sweep-value-repeated": "sweep value 0.5: names its run case_eta_0.5, as an earlier value does",
    "top-level-list": "scenario: expected an object",
    "levels-not-an-object": "scenario.levels: expected an object",
    "levels-without-omega_2g": "scenario.levels.omega_2g: required",
    "levels-out-of-order": (
        "scenario.levels: cascade ordering requires omega_eg above both intermediate levels"
    ),
    "sweep-no-values": "sweep needs at least one value",
    "validate-over-budget": (
        "scenario.g_values: 3 rungs of 41 samples exceed the budget of 122 samples per command"
    ),
    "validate-g-over-budget": (
        "scenario.g_values: 3 rungs of 41 samples exceed the budget of 122 samples per command"
    ),
    "sweep-over-budget": "--values: 3 points of 41 samples exceed the budget of 122 samples per command",
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_cli_rejects_non_finite_and_escaping_input(tmp_path, capsys, monkeypatch, case):
    # bad input exits 2 before anything is written, inside --out-dir or not
    if case in OVER_BUDGET:
        monkeypatch.setattr(cavity_beats.scenario, "WORK_MAX", 3 * 41 - 1)
    scenario, argv = BAD_INPUT[case]
    work = tmp_path / "work"
    work.mkdir()
    inputs = set()
    if scenario is not None:
        path = work / "scenario.json"
        path.write_text(json.dumps(scenario))
        inputs.add(path)
        argv = argv or ["run"]
        argv = argv[:1] + [str(path)] + argv[1:]
    code = main(argv + ["--out-dir", str(work / "out")])
    assert code == 2
    err = capsys.readouterr().err
    if case in READER_ERRORS:
        assert err == f"scenario error: {READER_ERRORS[case]}\n"
    else:
        assert "scenario error" in err
    assert {p for p in tmp_path.rglob("*") if p.is_file()} == inputs


@pytest.mark.filterwarnings("ignore:positivity violated")
@pytest.mark.parametrize("argv", [
    ["validate", "--g-values", "0.4,0.2,0.1", "--samples", "41"],
    ["sweep", "scenario.json", "--param", "eta", "--values", "0,0.5,1"],
], ids=["validate", "sweep"])
def test_work_at_the_budget_runs(tmp_path, monkeypatch, argv):
    # three rungs or points of 41 samples fill a budget of 123 exactly
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cavity_beats.scenario, "WORK_MAX", 3 * 41)
    Path("scenario.json").write_text(json.dumps(dict(SHORTCUT, samples=41)))
    assert main(argv + ["--out-dir", "out"]) == 0


def test_every_bench_op_and_readme_example_fits_the_budget():
    # the benchmark's ladders and sweeps at both sizes, and the README's sweep of three values
    # over its 1601-sample scenario (its ladder is the benchmark's), stay within WORK_MAX
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    asks = [(3, 1601)]
    for name, size in ((w, s) for w in workloads.WORKLOADS for s in workloads.SIZES):
        plan = workloads.generate(name, 1, size)
        for op in plan["ops"] + [plan["probe"]]:
            argv = op["argv"]
            if argv[0] == "validate":
                ladder = parse_scenario({"name": "v", "mode": "validate",
                                         "g_values": _values_of(argv, "--g-values")})
                asks.append((len(ladder.g_values), ladder.samples))
            elif argv[0] == "sweep":
                asks.append((len(_values_of(argv, "--values")), op["rows"]))
    assert len(asks) > 2 and all(n * samples <= cavity_beats.scenario.WORK_MAX for n, samples in asks)


def _values_of(argv, flag):
    return [float(v) for v in argv[argv.index(flag) + 1].split(",")]


@pytest.mark.parametrize("target,reason", [
    ("missing.json", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory"),
], ids=["missing", "directory"])
def test_cli_unreadable_scenario_exits_2(tmp_path, capsys, monkeypatch, target, reason):
    monkeypatch.chdir(tmp_path)
    assert main(["run", target, "--out-dir", "out"]) == 2
    assert capsys.readouterr().err == f"scenario error: cannot read {target}: {reason}: '{target}'\n"
    assert list(tmp_path.iterdir()) == []


_QUICK = b'"mode": "reduced", "Omega": 1, "t_end": 1, "samples": 11'
# files json.load refuses or would read wrongly, written as bytes; each exits 2 with its
# stderr line, which starts with the scenario's path and then this
RAW_FILES = {
    "deep-nesting": (b"[" * 200000 + b"]" * 200000,
                     " is not valid JSON: maximum recursion depth exceeded"),
    "latin-1": (b'{"name": "caf\xe9", ' + _QUICK + b"}",
                " is not valid JSON: 'utf-8' codec can't decode byte 0xe9"),
    "long-integer": (b'{"name": "d", "mode": "reduced", "Omega": 1, "t_end": 1, "samples": '
                     + b"1" * 5000 + b"}", " is not valid JSON: Exceeds the limit"),
    "utf-8-bom": (b'\xef\xbb\xbf{"name": "b", ' + _QUICK + b"}",
                  " is not valid JSON: Unexpected UTF-8 BOM"),
    "repeated-key": (b'{"name": "d", "name": "e", ' + _QUICK + b"}", ": repeated key 'name'"),
    "repeated-key-in-a-block": (
        json.dumps(EXPLICIT).replace('"omega_eg": 4.3', '"omega_eg": 4.3, "omega_eg": 5').encode(),
        ": repeated key 'omega_eg'",
    ),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("content,message", RAW_FILES.values(), ids=RAW_FILES.keys())
def test_cli_refuses_files_json_cannot_read_whole(tmp_path, capsys, monkeypatch, content, message,
                                                  command):
    # none ends in a traceback (exit 1), and a repeated key is not silently dropped
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_bytes(content)
    extra = ["--param", "eta", "--values", "1"] if command == "sweep" else []
    assert main([command, "scenario.json", *extra, "--out-dir", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: scenario.json{message}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize("argv", [["run", "scenario.json"], ["preset", "fig3", "--eta", "2"]])
def test_eta_outside_the_dial_exits_with_its_path(tmp_path, capsys, monkeypatch, argv):
    # eta weighs the cross terms from 0 (off) to 1 (full strength); beyond that the
    # solvers disagree, so the field table stops it before any prediction or run
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(dict(SHORTCUT, mode="analytic", eta=2)))
    monkeypatch.setattr(cli, "beat_frequency", lambda *a: pytest.fail("predicted first"))
    assert main(argv + ["--out-dir", "out"]) == 2
    assert capsys.readouterr().err == "scenario error: scenario.eta: must lie in [0, 1]\n"
    assert not Path("out").exists()


FIELD_BOUND_ERRORS = {
    # at zero upper detuning the rates divide by kappa_a^2, which underflows to 0 far
    # below the bound
    "kappa_a-underflow": (
        dict(EXPLICIT, levels={"omega_eg": 3.0, "omega_1g": 1.0, "omega_2g": 0.4},
             cavity={"omega_a": 2.0, "omega_b": 1.2, "kappa_a": 1e-200}),
        "scenario.cavity.kappa_a: must lie in [1e-100, inf]",
    ),
    # the shortcut's omega_eg = 2 Omega + 1 and omega_1g = 2 Omega round alike beyond 2^52
    "Omega-past-the-float-spacing": (
        dict(SHORTCUT, Omega=1e16), "scenario.Omega: must lie in [0, 1e+15]"
    ),
}


@pytest.mark.parametrize("mode", ["reduced", "analytic", "composite"])
@pytest.mark.parametrize("scenario,message", FIELD_BOUND_ERRORS.values(),
                         ids=FIELD_BOUND_ERRORS.keys())
def test_inputs_the_model_cannot_hold_exit_with_their_field(
    tmp_path, capsys, monkeypatch, scenario, message, mode
):
    # the field table stops them, naming the field, before the model blames a value the
    # scenario never wrote
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(dict(scenario, mode=mode)))
    assert main(["run", "scenario.json", "--out-dir", "out"]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not Path("out").exists()


def test_analytic_run_of_untuned_blocks_exits_with_the_closed_form_rule(
    tmp_path, capsys, monkeypatch
):
    # the closed form states its one condition itself, with the first relation the rates
    # break, and the scenario names the run
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(dict(EXPLICIT, mode="analytic")))
    assert main(["run", "scenario.json", "--out-dir", "out"]) == 2
    assert capsys.readouterr().err == (
        "scenario error: case: closed-form beats require the evenly tuned configuration: "
        "Gamma_2 = Gamma_1 is off by 0.29 relative, beyond 1e-12\n"
    )
    assert not Path("out").exists()


# couplings turned by a phase that the lower transition gives back: not the shortcut's, but
# with its rates, which is all the closed form reads
PHASE_COMPENSATED = dict(
    EXPLICIT, t_end=8.0, samples=401,
    levels={"omega_eg": 3.0, "omega_1g": 2.0, "omega_2g": 0.0},
    cavity={"omega_a": 2.0, "omega_b": 1.0},
    couplings={"G_1e": 1.0, "G_2e": [math.cos(0.7), math.sin(0.7)],
               "G_g1": 1.0, "G_g2": [math.cos(0.7), -math.sin(0.7)]},
)


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_cli_analytic_run_of_rate_tuned_blocks_matches_the_reduced_run(tmp_path):
    # the analytic run predicts the shortcut's beat, as both runs' summaries say, and its
    # rows are the reduced run's
    want = beat_frequency(derive_rates(*tuned_configuration(1.0, 1.0))).two_f
    tables = {}
    for mode in ("analytic", "reduced"):
        path = _write_scenario(tmp_path, dict(PHASE_COMPENSATED, mode=mode))
        assert main(["run", path, "--out-dir", str(tmp_path / mode)]) == 0
        summary = json.loads((tmp_path / mode / "case.summary.json").read_text())
        assert summary["beats_predicted"] is True
        assert summary["two_f_predicted"] == pytest.approx(want, rel=1e-15)
        tables[mode] = np.loadtxt(tmp_path / mode / "case.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(tables["analytic"] - tables["reduced"])) < 1e-12


MODEL_OVERFLOW = {
    "closed-form-or-step": (dict(SHORTCUT, G=1e77, t_end=5.0, samples=41), ""),
    "rates-G": (dict(SHORTCUT, G=1e200), "the rates overflow at these couplings"),
    # |G|^2 is finite, but the cross coefficients' 2 |G|^2 is not
    "rates-cross": (dict(SHORTCUT, G=1e154, t_end=5.0, samples=41),
                    "the rates overflow at these couplings"),
    "rates-G_1e": (
        dict(EXPLICIT, couplings=dict(EXPLICIT["couplings"], G_1e=1e200)),
        "the rates overflow at these couplings",
    ),
}
# the integrators' step overflows from G = 1e77, but the closed form runs there
# (test_cli_analytic_run_holds_where_the_closed_form_overflowed); at G = 1e153 the rates
# are finite, and the closed form overflows over t_end = 1e6
OVERFLOW_RUNS = [
    pytest.param(
        dict(scenario, G=1e153, t_end=1e6) if (case, mode) == ("closed-form-or-step", "analytic")
        else scenario,
        reason, mode, id=f"{case}-{mode}",
    )
    for case, (scenario, reason) in MODEL_OVERFLOW.items()
    for mode in ("analytic", "composite", "reduced")
]


@pytest.mark.parametrize("scenario,reason,mode", OVERFLOW_RUNS)
def test_cli_overflow_in_the_model_prints_one_clean_error(tmp_path, capsys, scenario, reason, mode):
    # input that passes the field table but overflows the model exits 2 with one stderr
    # line naming the scenario: numpy's warnings stay quiet, and |G|^2 of a Python float
    # that overflows in derive_rates says so
    path = _write_scenario(tmp_path, dict(scenario, mode=mode))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: case: {reason}") and err.count("\n") == 1


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_cli_analytic_run_holds_where_the_closed_form_overflowed(tmp_path):
    # at G = 1e77 the closed form once exited 2 ("the closed form overflows at these
    # rates"); in units of one rate it runs. No t_end the table accepts is short enough for
    # the exact engine at this coupling (8 / Gamma is 1.6e-153), so the rates are checked
    # against it in process on that window, and the run itself reads the decayed atom
    path = _write_scenario(tmp_path, dict(SHORTCUT, mode="analytic", G=1e77, t_end=5.0, samples=41))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in caught] == []
    table = np.loadtxt(tmp_path / "out" / "case.csv", delimiter=",", skiprows=1)
    ground = np.zeros(len(CSV_COLUMNS))
    ground[CSV_COLUMNS.index("rho_gg")] = 1.0
    assert np.max(np.abs(table[1:, 1:] - ground[1:])) < 1e-15
    rates = derive_rates(*tuned_configuration(1.0, 1e77))
    t = np.linspace(0.0, 8.0 / rates.Gamma_1, 41)
    closed = symmetric_solution(t, rates).channels()
    exact = cavity_beats.reduced.evolve(cavity_beats.linalg.pure_state(0, 4), t, rates).channels()
    assert max(np.max(np.abs(closed[k] - exact[k])) for k in closed) < 1e-12


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_cli_analytic_run_near_resonance_matches_the_reduced_run(tmp_path):
    # at Omega = 1e-5 the closed form divided by 2 (delta' + Omega) = 2e-5 and wrote a
    # rho_12 0.11 away from the exact engine, with exit 0
    columns = []
    for mode in ("analytic", "reduced"):
        path = _write_scenario(tmp_path, dict(SHORTCUT, name=mode, mode=mode, Omega=1e-5, eta=1.0,
                                              t_end=8.0, samples=1601))
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 0
        columns.append(np.loadtxt(tmp_path / "out" / f"{mode}.csv", delimiter=",", skiprows=1))
    for name in ("re_rho_12", "im_rho_12"):
        k = CSV_COLUMNS.index(name)
        assert np.max(np.abs(columns[0][:, k] - columns[1][:, k])) < 1e-12, name


def test_cli_overflow_of_the_secular_cascade_prints_one_clean_error(tmp_path, capsys):
    # at eta = 0 the closed form is the secular cascade, which guards its coordinates too:
    # without the guard this run wrote NaN in 10 of its 11 rows and exited 0
    big = {"name": "big", "mode": "analytic", "eta": 0, "Omega": 1, "G": 1e152,
           "t_end": 1e6, "samples": 11}
    path = _write_scenario(tmp_path, big)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "scenario error: big: the closed form overflows at these rates\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["reduced", "composite"])
def test_cli_drift_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, mode):
    # a negative tolerance, which every trace exceeds, stands in for a drifting input:
    # the check names the first sample, and the run writes nothing partial
    monkeypatch.setattr(cavity_beats.series, "DRIFT_TOL", -1.0)
    path = _write_scenario(tmp_path, dict(SHORTCUT, mode=mode, samples=41))
    assert main(["run", path, "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "evolution drifted out of tolerance: sample 0 (t=0): trace drift 0.000e+00 "
        "exceeds tolerance -1.0e+00\n"
    )
    assert not (tmp_path / "out").exists()


def test_cli_unwritable_outputs_exit_2(tmp_path, capsys):
    # an output location the system refuses exits 2 with the reason, as bad input does
    blocker = tmp_path / "file"
    blocker.write_text("")
    quick = {"name": "q", "mode": "analytic", "Omega": 1.0, "t_end": 5.0, "samples": 41}
    cases = {
        "out-dir-is-a-file": (quick, blocker),
        "out-dir-under-a-file": (quick, blocker / "sub"),
        "name-too-long": (dict(quick, name="x" * 300), tmp_path / "out"),
    }
    for case, (scenario, out) in cases.items():
        path = _write_scenario(tmp_path, scenario)
        assert main(["run", path, "--out-dir", str(out)]) == 2, case
        assert capsys.readouterr().err.startswith("cannot write outputs: "), case
    written = {p.name for p in tmp_path.rglob("*") if p.is_file()}
    assert written == {"file", "scenario.json"}


@pytest.mark.parametrize("samples", [2, 7])
def test_summary_of_a_short_run_is_not_measured(samples):
    # below eight samples no pole fit is tried
    sc = parse_scenario(dict(SHORTCUT, mode="analytic", samples=samples))
    summary = run_scenario(sc).summary
    assert summary["measure_detail"] == "not measured"
    assert summary["measure_method"] == "none" and summary["two_f_measured"] is None


def test_cli_run_records_a_failed_measurement(tmp_path, monkeypatch):
    scenario = {"name": "m", "mode": "analytic", "Omega": 1.0, "t_end": 6.0, "samples": 101}
    fields = list(run_scenario(parse_scenario(scenario)).summary)

    def fail(series, allow_tone_fit=False):
        raise ValueError("no poles")

    monkeypatch.setattr(cavity_beats.scenario, "measure_beats", fail)
    assert main(["run", _write_scenario(tmp_path, scenario), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "m.summary.json").read_text())
    assert list(summary) == fields
    assert summary["measure_detail"] == "measurement failed: no poles"
    assert summary["measure_method"] == "none" and summary["two_f_measured"] is None
    assert summary["two_f_predicted"] == pytest.approx(np.sqrt(7.0), rel=1e-12)


def test_cli_validate_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fake(**kwargs):
        return EliminationCheck(g_values=(0.2, 0.1), deviations=(1e-3, 2e-3))

    monkeypatch.setattr(cavity_beats.composite, "validate_elimination", fake)
    code = main(["validate", "--g-values", "0.2,0.1", "--out-dir", str(tmp_path)])
    assert code == 4
    assert "validation FAILED" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_cli_validate_real_ladder(tmp_path, capsys):
    code = main([
        "validate", "--g-values", "0.4,0.2", "--samples", "41",
        "--name", "ladder", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "validation passed" in out
    summary = json.loads((tmp_path / "ladder.summary.json").read_text())
    assert summary["monotone"] is True
    assert summary["deviations"][0] > summary["deviations"][1]


def test_cli_sweep_combined_output(tmp_path):
    path = _write_scenario(
        tmp_path, {"name": "sw", "mode": "analytic", "Omega": 1.0, "t_end": 6.0, "samples": 101}
    )
    code = main(["sweep", path, "--param", "eta", "--values", "0,1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sw_eta_0.csv").exists()
    assert (tmp_path / "sw_eta_1.csv").exists()
    combined = json.loads((tmp_path / "sw.sweep.json").read_text())
    assert combined["param"] == "eta"
    assert len(combined["runs"]) == 2
    assert combined["runs"][0]["value"] == 0.0
    assert combined["runs"][0]["summary"]["beats_predicted"] is False
    assert combined["runs"][1]["summary"]["beats_predicted"] is True


def test_cli_preset_analytic_family(tmp_path):
    code = main(["preset", "fig3", "--mode", "analytic", "--out-dir", str(tmp_path)])
    assert code == 0
    combined = json.loads((tmp_path / "fig3.summary.json").read_text())
    assert combined["preset"] == "fig3"
    assert len(combined["runs"]) == 6  # three splittings, eta 0 and 1
    names = [r["name"] for r in combined["runs"]]
    assert "fig3_omega0.5_eta1" in names
    assert (tmp_path / "fig3_omega3_eta1.csv").exists()
    by_name = {r["name"]: r for r in combined["runs"]}
    meas = by_name["fig3_omega1_eta1"]["two_f_measured"]
    assert meas == pytest.approx(np.sqrt(7.0), rel=0.02)
    assert by_name["fig3_omega1_eta0"]["two_f_measured"] is None


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_write_summary_writes_what_json_dump_writes(tmp_path):
    # one write of json.dumps: the same bytes as json.dump with a final newline
    def dumped(summary):
        buf = io.StringIO()
        json.dump(summary, buf, indent=2)
        return (buf.getvalue() + "\n").encode()

    base = parse_scenario({"name": "s", "mode": "reduced", "Omega": 1.0, "t_end": 6.0, "samples": 101})
    runs = run_sweep(base, "eta", [0.0, 1.0])
    summaries = [
        run_scenario(base).summary,
        {"name": "s", "param": "eta", "runs": [{"value": v, "summary": r.summary}
                                                for v, r in zip((0.0, 1.0), runs)]},
        {"preset": "fig3", "runs": [run_scenario(sc).summary
                                    for sc in cli._preset_scenarios("fig3", (1.0,), "analytic")]},
        run_scenario(parse_scenario({"name": "v", "mode": "validate", "g_values": [0.4, 0.2],
                                     "samples": 41})).summary,
    ]
    for i, summary in enumerate(summaries):
        path = tmp_path / f"{i}.json"
        write_summary(summary, str(path))
        assert path.read_bytes() == dumped(summary)


CALLS = [
    ["run", "analytic.json", "--out-dir", "out"],
    ["run", "--out-dir", "out"],  # argparse rejects it: no scenario
    ["sweep", "reduced.json", "--param", "eta", "--values", "0,1", "--out-dir", "out"],
    ["run", "broken.json", "--out-dir", "out"],  # a scenario error
    ["preset", "fig3", "--mode", "analytic", "--eta", "1", "--out-dir", "out"],
    ["preset", "fig5"],  # argparse rejects it: no such preset
    ["validate", "--g-values", "0.4,0.2", "--samples", "41", "--out-dir", "out"],
    ["run", "analytic.json", "--out-dir", "again"],
]


def _call_all(directory):
    # every call of CALLS in directory: exit codes, stdout and stderr, then every file written
    directory.mkdir()
    os.chdir(directory)
    Path("analytic.json").write_text(json.dumps({"name": "a", "mode": "analytic", "Omega": 1.0,
                                                 "t_end": 6.0, "samples": 101}))
    Path("reduced.json").write_text(json.dumps({"name": "r", "mode": "reduced", "Omega": 3.0,
                                                "t_end": 6.0, "samples": 101}))
    Path("broken.json").write_text("{not json")
    seen = []
    for argv in CALLS:
        out, err = io.StringIO(), io.StringIO()
        # a fresh warnings state per call, so a warning shown once is shown again when
        # the filters print it (the default filter shows one per code location)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        seen.append((code, out.getvalue(), err.getvalue()))
    files = {str(p): p.read_bytes() for p in sorted(Path().rglob("*")) if p.is_file()}
    return seen, files


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_cli_repeated_calls_match_fresh_parsers(tmp_path, monkeypatch):
    # one cached parser serves every call in a process, rejections and errors between them
    monkeypatch.chdir(tmp_path)
    cached = _call_all(tmp_path / "cached")
    assert [c for c, _, _ in cached[0]] == [0, ("SystemExit", 2), 0, 2, 0, ("SystemExit", 2), 0, 0]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = _call_all(tmp_path / "fresh")
    assert cached == fresh
    assert build_parser() is build_parser()


# --- hostile input, property-based -------------------------------------------

HOSTILE = [NAN, INF, -INF, 1e300, -1e300, 10**400, -1.0, 0.0, -5, True, "1", None, [1.0, NAN]]
VALID = {
    "eta": st.floats(0.0, 1.0),
    "Omega": st.floats(0.0, 4.0),
    "G": st.floats(0.1, 2.0),
    "t_end": st.one_of(st.floats(0.5, 20.0), st.just(1e6)),
    "samples": st.integers(2, 300),
    "g_values": st.lists(st.floats(0.05, 0.5), min_size=2, max_size=3),
}
BAD_NAMES = ["../escaped", "sub/escaped", "..", "../../../up", ".hidden", "x/../y", ""]
SWEEP_VALUES = ["0.5", "1,nan", "inf", "-inf", "1e300", "-1", "2,1e7"]


@st.composite
def hostile_invocations(draw):
    """A valid scenario of any mode with up to two fields made hostile, run or swept."""
    mode = draw(st.sampled_from(MODES))
    obj = {"name": draw(st.sampled_from(["case", "a.b-c+1"])), "mode": mode}
    if mode == "validate":
        keys = ("g_values", "Omega", "samples")
    elif draw(st.booleans()):
        keys = ("Omega", "t_end", "eta", "G", "samples")
    else:
        keys = ("eta", "samples", "t_end")
        obj.update({k: dict(EXPLICIT[k]) for k in ("levels", "cavity", "couplings")})
    obj.update({k: draw(VALID[k]) for k in keys if k in ("Omega", "t_end") or draw(st.booleans())})
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(set(obj) - {"mode"}) + ["n_max_a", "n_max_b"]))
        if key == "name":
            obj[key] = draw(st.sampled_from(BAD_NAMES))
        elif isinstance(obj.get(key), (dict, list)):  # a block field or a ladder rung
            inner = sorted(obj[key]) if isinstance(obj[key], dict) else range(len(obj[key]))
            obj[key][draw(st.sampled_from(inner))] = draw(st.sampled_from(HOSTILE + [1e-4]))
        else:
            obj[key] = draw(st.sampled_from(HOSTILE))
    argv = ["run"]
    if draw(st.integers(0, 3)) == 0:
        values = draw(st.sampled_from(SWEEP_VALUES))
        argv = ["sweep", "--param", draw(st.sampled_from(SWEEP_PARAMS)), f"--values={values}"]
    return obj, argv


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=60, derandomize=True, deadline=10_000, database=None)
@given(hostile_invocations())
@example((dict(SHORTCUT, Omega=1e300), ["run"]))  # model errors, past the field table
@example((dict(SHORTCUT, mode="composite", G=1e200), ["run"]))
@example((dict(SHORTCUT, t_end=1e-160), ["run"]))  # steps whose products underflow
def test_cli_exit_codes_and_writes_on_hostile_input(invocation):
    obj, argv = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "scenario.json"
        path.write_text(json.dumps(obj))
        out = root / "a" / "b" / "out"
        code = main(argv[:1] + [str(path)] + argv[1:] + ["--out-dir", str(out)])
        assert code in (0, 2, 3, 4)
        written = {p for p in root.rglob("*") if p.is_file()} - {path}
        assert all(out in p.parents for p in written)
        for p in written:  # strict JSON: no NaN or Infinity
            if p.suffix == ".json":
                json.loads(p.read_text(), parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise AssertionError(f"{name} in a written JSON file")


# --- analytic against the exact engine, property-based -----------------------

@pytest.mark.filterwarnings("ignore:positivity violated")
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(omega=st.floats(0.0, 4.0), eta=st.floats(0.0, 1.0), log_g=st.floats(-3.0, 6.0))
@example(omega=3.54, eta=1.0, log_g=-1.9)  # 2.4e6 radians: 4.2e-12 apart, within 2.5e-11
def test_analytic_and_reduced_runs_agree_across_the_shortcut(omega, eta, log_g):
    # a shortcut run over 8 / Gamma_1 returns or exits 2 (a window past T_END_MAX) or 3 in
    # both modes, and where both return, every channel agrees to 1e-12 at any coupling,
    # plus 1e-17 per radian the coherence turns through the window: the exact engine's
    # step rounds its angle, so its phase drifts with the turns (the closed form keeps
    # 1e-17 of an mpmath reference; over 738 draws the engine read at most 2.2e-18 per
    # radian, and 1.3e-13 below 100 radians)
    g = 10.0**log_g
    rates = derive_rates(*tuned_configuration(omega, g))
    t_end = 8.0 / rates.Gamma_1
    base = {"name": "d", "Omega": omega, "G": g, "eta": eta, "t_end": t_end, "samples": 401}
    runs = {}
    for mode in ("analytic", "reduced"):
        try:
            runs[mode] = run_scenario(parse_scenario(dict(base, mode=mode))).series.channels()
        except (ScenarioError, DriftError):
            pass
    if len(runs) == 2:
        closed, exact = runs.values()
        turns = (omega + abs(rates.delta_1p)) * t_end
        bound = 1e-12 + 1e-17 * turns
        assert max(np.max(np.abs(closed[k] - exact[k])) for k in closed) < bound


def test_cli_needs_no_scipy():
    # the runtime dependency is numpy only; scipy is a cross-check of the tests
    code = "import sys, cavity_beats.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _fresh_python(code) == "[]"


def test_runs_import_no_numpy_ma():
    # numpy imports numpy.ma lazily (np.unique does), which costs a one-shot run about 12 ms
    # and its memory bound about 1.1 MB; a fresh process shows what a user's run loads
    code = (
        "import sys; from cavity_beats.scenario import parse_scenario, run_scenario; "
        f"[run_scenario(parse_scenario(dict({SHORTCUT!r}, mode=m, samples=101))) "
        "for m in ('reduced', 'composite')]; print('numpy.ma' in sys.modules)"
    )
    assert _fresh_python(code) == "False"


def test_cli_import_builds_no_format_tables():
    # the CSV formatter builds its tables on first use, so start-up pays nothing for them
    # (every functools.cache of the module, however many it grows)
    code = (
        "import json, sys, cavity_beats.cli; from cavity_beats import _csvformat as f; "
        "print(json.dumps([sorted(m for m in ('fractions', 'decimal') if m in sys.modules), "
        "{n: v.cache_info().currsize for n, v in vars(f).items() if hasattr(v, 'cache_info')}]))"
    )
    modules, caches = json.loads(_fresh_python(code))
    assert modules == []
    assert {"_powers", "_tables"} <= caches.keys()
    assert set(caches.values()) == {0}
