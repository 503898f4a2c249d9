"""The paired comparison of tools/ab_pairs.py, on made-up run values."""

import importlib.util
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def test_wins_count_the_better_side_and_ties_count_for_neither():
    parent = [10.0, 10.0, 10.0, 10.0]
    c = ab_pairs.compare(parent, [9.0, 10.0, 11.0, 8.0], "lower")
    assert c["wins"] == 2
    c = ab_pairs.compare(parent, [9.0, 10.0, 11.0, 8.0], "higher")
    assert c["wins"] == 1


def test_quartiles_and_iqr_of_each_side():
    c = ab_pairs.compare([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 2.0, 2.0, 2.0], "lower")
    assert c["parent_median"] == 3.0
    assert (c["parent_q1"], c["parent_q3"]) == (1.5, 4.5)
    assert c["parent_iqr"] == 3.0 and c["change_iqr"] == 0.0


@pytest.mark.parametrize(
    "change, better, gain",
    [
        ([9.0] * 9 + [10.5], "lower", True),    # 9 of 10 and 1.0 beyond an IQR of 0.5
        ([9.0] * 8 + [10.5] * 2, "lower", False),  # 8 of 10
        ([9.7] * 10, "lower", False),           # every pair, but inside the parent's IQR
        ([9.0] * 10, "higher", False),          # better only in the other direction
        ([11.0] * 10, "higher", True),
    ],
)
def test_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_iqr(change, better, gain):
    parent = [9.75, 10.25] * 5  # median 10, IQR 0.5
    assert ab_pairs.compare(parent, change, better)["gain"] is gain


class _FakeRun:
    """A finished bench/run.py that printed one result, and the children's faults it adds."""

    def __init__(self, rusage, faults, pass_s):
        self.rusage, self.faults, self.pass_s = rusage, faults, pass_s

    def __call__(self, cmd, **kwargs):
        self.rusage.ru_minflt += self.faults
        self.returncode, self.pid = 0, -1
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def communicate(self, timeout=None):
        return "progress\n" + json.dumps({"metrics": {"pass_s": {"value": self.pass_s}}}), ""


def test_each_run_reports_the_minor_faults_of_its_children(monkeypatch):
    rusage = SimpleNamespace(ru_minflt=1000)  # what earlier children took is not counted

    def snapshot(who):
        return SimpleNamespace(**vars(rusage))

    monkeypatch.setattr(ab_pairs.resource, "getrusage", snapshot)
    monkeypatch.setattr(ab_pairs.subprocess, "Popen", _FakeRun(rusage, 250, 0.5))
    args = SimpleNamespace(workload="w", seed=1, seconds=2.0)
    assert ab_pairs._run("root", args) == {"pass_s": 0.5, "minor_faults": 250}
    assert ab_pairs._run("root", args) == {"pass_s": 0.5, "minor_faults": 250}


def test_minor_faults_print_one_row_per_side_never_marked_as_a_gain(monkeypatch, tmp_path, capsys):
    roots = []
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text("")
        roots.append(str(tmp_path / side))
    shutil.copy(_PATH.parent.parent / "BENCHMARK.json", tmp_path / "change")
    faults = {roots[0]: 3000, roots[1]: 100}
    monkeypatch.setattr(ab_pairs, "_run",
                        lambda root, args: {"pass_s": 1.0, "minor_faults": faults[root]})
    argv = [*roots, "--workload", "w", "--seed", "1", "--pairs", "2", "--seconds", "1"]
    assert ab_pairs.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    at = next(i for i, row in enumerate(rows) if row.startswith("minor_faults"))
    assert rows[at].split() == ["minor_faults", "parent", "3000", "3000", "3000", "0"]
    assert rows[at + 1].split() == ["change", "100", "100", "100", "0", "-96.67%", "2/2"]
