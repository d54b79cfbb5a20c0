"""The pair runner ``tools/pairs.py``, on fixed numbers and stand-in benchmarks."""

import argparse
import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def test_summary_of_fixed_pairs():
    parent = [{"ops_per_s": v, "peak_rss_mb": 50.0} for v in (100.0, 110.0, 90.0, 120.0, 80.0)]
    change = [{"ops_per_s": v, "peak_rss_mb": m}
              for v, m in zip((105.0, 100.0, 95.0, 125.0, 85.0), (56.0, 55.0, 54.0, 50.0, 49.0))]
    ops, rss = pairs.summarise(parent, change, METRICS)
    assert (ops["parent"], ops["q1"], ops["q3"], ops["change"]) == (100.0, 90.0, 110.0, 100.0)
    assert ops["rel"] == 0.0 and ops["won"] == 4 and ops["pairs"] == 5
    assert not ops["over_bound"]
    # lower is better: the change is worse by 8%, within its bound of 10%
    assert rss["change"] == 54.0 and rss["rel"] == pytest.approx(0.08)
    assert rss["won"] == 1 and not rss["over_bound"]
    line = pairs.format_row(rss)
    assert line.split() == "peak_rss_mb parent 50 [50, 50] change 54 MB +8.0% won 1/5".split()


def test_a_metric_worse_than_its_bound_is_marked():
    parent = [{"ops_per_s": 100.0, "peak_rss_mb": 50.0}] * 2
    change = [{"ops_per_s": 74.0, "peak_rss_mb": 55.5}] * 2
    ops, rss = pairs.summarise(parent, change, METRICS)
    assert ops["over_bound"] and rss["over_bound"]
    # every pair lost, past the parent's spread of 0: steadily worse too
    assert ops["worse"] and rss["worse"]
    assert pairs.format_row(ops).endswith("won 0/2  OVER BOUND  WORSE")


def test_a_gain_is_claimable_past_nine_tenths_and_the_parent_spread():
    parent = [{"ops_per_s": 100.0 + k, "peak_rss_mb": 50.0} for k in range(10)]
    # the parent's ops_per_s: median 104.5, quartiles 102.25 and 106.75

    def claimable(ops, rss):
        change = [{"ops_per_s": o, "peak_rss_mb": m} for o, m in zip(ops, rss)]
        return [row["claimable"] for row in pairs.summarise(parent, change, METRICS)]

    p_ops = [run["ops_per_s"] for run in parent]
    # 9 of 10 won, median 110.5: better by 6, past the spread of 4.5
    assert claimable([99.0, *(v + 6 for v in p_ops[1:])], [45.0] * 10) == [True, True]
    # every pair won, but by 1, within the spread
    assert claimable([v + 1 for v in p_ops], [50.0] * 9 + [49.0]) == [False, False]
    # far ahead, but 8 of 10 won; ties count for neither side
    assert claimable([90.0, 90.0, *(v + 20 for v in p_ops[2:])],
                     [50.0, *[45.0] * 9]) == [False, True]
    assert claimable([v + 20 for v in p_ops], [50.0, 50.0, *[45.0] * 8]) == [True, False]
    rows = pairs.summarise(parent, [{"ops_per_s": v + 6, "peak_rss_mb": 50.0} for v in p_ops],
                           METRICS)
    assert pairs.format_row(rows[0]).endswith("won 10/10  CLAIMABLE")
    assert pairs.format_row(rows[1]).endswith("won 0/10")


def test_a_loss_is_worse_past_nine_tenths_and_the_parent_spread():
    # the mirror of a claimable gain: a steady loss well inside the bound
    parent = [{"ops_per_s": 100.0 + k, "peak_rss_mb": 50.0} for k in range(10)]
    p_ops = [run["ops_per_s"] for run in parent]

    def worse(ops, rss):
        change = [{"ops_per_s": o, "peak_rss_mb": m} for o, m in zip(ops, rss)]
        return [row["worse"] for row in pairs.summarise(parent, change, METRICS)]

    # 9 of 10 lost, median 98.5: worse by 6, past the spread of 4.5
    assert worse([110.0, *(v - 6 for v in p_ops[1:])], [55.0] * 10) == [True, True]
    # every pair lost, but by 1, within the spread
    assert worse([v - 1 for v in p_ops], [50.0] * 9 + [51.0]) == [False, False]
    # far behind, but 8 of 10 lost; ties count for neither side
    assert worse([110.0, 110.0, *(v - 20 for v in p_ops[2:])],
                 [50.0, *[55.0] * 9]) == [False, True]
    rows = pairs.summarise(parent, [{"ops_per_s": v - 6, "peak_rss_mb": 50.0} for v in p_ops],
                           METRICS)
    assert not rows[0]["over_bound"]
    assert pairs.format_row(rows[0]).endswith("won 0/10  WORSE")
    assert pairs.format_row(rows[1]).endswith("won 0/10")


def test_a_move_within_one_percent_of_the_parent_median_is_not_marked():
    # a steady spread of 0.05 MB: every pair won or lost by 0.1%, past the
    # spread, but inside the floor of 1% of the median
    parent = [{"ops_per_s": 100.0, "peak_rss_mb": 75.35 + 0.01 * (k % 6)} for k in range(10)]
    p_rss = [run["peak_rss_mb"] for run in parent]
    for step, won in ((-0.08, 10), (0.08, 0)):
        change = [{"ops_per_s": 100.0, "peak_rss_mb": v + step} for v in p_rss]
        rss = pairs.summarise(parent, change, METRICS)[1]
        assert rss["won"] == won and abs(rss["change"] - rss["parent"]) > rss["q3"] - rss["q1"]
        assert not rss["claimable"] and not rss["worse"]
    # past the floor, the same steady move is marked either way
    for step, mark in ((-1.0, "claimable"), (1.0, "worse")):
        change = [{"ops_per_s": 100.0, "peak_rss_mb": v + step} for v in p_rss]
        assert pairs.summarise(parent, change, METRICS)[1][mark]


def test_one_pair_has_its_value_as_quartiles():
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


# what a benchmark run prints before its last line, as perfbench/run.py does
PRINTED = [
    'machine {"numpy": "2.0", "loadavg_before": [0.5]}',
    'runs {"seed": 29, "metrics_sha256": "ab12"}',
    "end-to-end (1 untraced runs, 9 ops): times scaled ...",
    "  setup_s                    0.15 s               0.13 s",
    "  peak_rss_mb                  74 MB",
    "  failed_frac                   0 fraction",
    "  late_payoff              0.518 payoff",
]


def _checkout(tmp_path, last_line, code=0):
    """A stand-in checkout whose benchmark prints ``PRINTED`` and
    ``last_line`` and exits ``code``."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    printed = "\n".join(PRINTED)
    (bench / "run.py").write_text(f"import sys\nprint({printed!r})\nprint({last_line!r})\n"
                                  f"sys.exit({code})\n", encoding="utf-8")
    return tmp_path


def test_run_once_reads_the_last_line(tmp_path):
    line = '{"correct": true, "metrics": {"ops_per_s": {"value": 7.5, "unit": "1/s"}}}'
    assert pairs.run_once(_checkout(tmp_path, line), "rps", 1, 29) == {
        "metrics": {"ops_per_s": 7.5},
        "machine": {"numpy": "2.0", "loadavg_before": [0.5]},
        "metrics_sha256": "ab12",
        "quality": ["late_payoff              0.518 payoff"],
    }


@pytest.mark.parametrize("line, code", [
    ('{"correct": false, "metrics": {}}', 1),
    ('{"correct": false, "metrics": {}}', 0),
    ("no result", 0),
], ids=["failed", "incorrect", "no_json"])
def test_run_once_stops_on_a_failed_run(tmp_path, line, code):
    with pytest.raises(SystemExit, match="the rps run failed"):
        pairs.run_once(_checkout(tmp_path, line, code), "rps", 1, 29)


def test_checkouts_whose_paths_differ_in_length_are_warned_of(tmp_path, capsys):
    line = json.dumps({"correct": True, "metrics": {
        m["name"]: {"value": 1.0, "unit": m["unit"]} for m in METRICS}})
    for name in ("p0", "c0", "change"):
        (tmp_path / name).mkdir()
        _checkout(tmp_path / name, line)
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}),
                                                        encoding="utf-8")
    for change, warned in (("change", True), ("c0", False)):
        pairs.main(["--parent", str(tmp_path / "p0"), "--change", str(tmp_path / change),
                    "--workload", "rps", "--pairs", "2", "--seconds", "1"])
        out, err = capsys.readouterr()
        assert ("differ in length" in err) == warned, err
        assert out.startswith("rps: 2 pairs") and "won 0/2" in out
    # by the resolved paths, which the runs are given
    assert pairs.path_warning(Path("/a/p0"), Path("/a/c0")) is None
    assert pairs.path_warning(Path("/a/parent"), Path("/a/c0")).startswith(
        "warning: the parent's path /a/parent (9 characters) and the change's /a/c0 (5)")


def test_bench_out_writes_both_sides_and_the_summary(tmp_path):
    for name, value in (("p0", 100.0), ("c0", 110.0)):
        line = json.dumps({"correct": True, "metrics": {
            m["name"]: {"value": value, "unit": m["unit"]} for m in METRICS}})
        (tmp_path / name).mkdir()
        _checkout(tmp_path / name, line)
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}),
                                                        encoding="utf-8")
    out = tmp_path / "BENCH_rps.json"
    pairs.main(["--parent", str(tmp_path / "p0"), "--change", str(tmp_path / "c0"),
                "--workload", "rps", "--pairs", "3", "--seconds", "1", "--bench-out", str(out)])
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert (bench["workload"], bench["pairs"], bench["seed"], bench["seconds"]) == ("rps", 3, 29, 1)
    assert bench["machine"] == {"numpy": "2.0"}  # the load averages left out
    for side, value in (("parent", 100.0), ("change", 110.0)):
        assert bench[side] == [{
            "metrics": {"ops_per_s": value, "peak_rss_mb": value},
            "metrics_sha256": "ab12",
            "quality": ["late_payoff              0.518 payoff"],
        }] * 3
    ops, rss = bench["summary"]
    assert (ops["name"], ops["won"], ops["rel"], rss["name"], rss["won"]) == (
        "ops_per_s", 3, pytest.approx(0.1), "peak_rss_mb", 0)


def _usage(text):
    """(required options, {optional option: shown default}) of the first
    ``python tools/pairs.py`` usage line in ``text``."""
    usage = re.search(r"python tools/pairs\.py (.*?)(?:`|\n\n)", text, re.S).group(1)
    optional = dict(re.findall(r"\[--([\w-]+) ([^\]\s]+)\]", usage))
    required = re.findall(r"(?<!\[)--([\w-]+)", usage)
    return required, optional


@pytest.mark.parametrize("where", ["README.md", "docstring"])
def test_the_usage_lines_show_the_parser_defaults(where):
    text = (pairs.__doc__ if where == "docstring"
            else (TOOL.parents[1] / "README.md").read_text(encoding="utf-8"))
    actions = [a for a in pairs.parser()._actions if a.default is not argparse.SUPPRESS]
    required = [a.option_strings[0][2:] for a in actions if a.required]
    # an option with no default shows its metavar
    defaults = {a.option_strings[0][2:]: a.metavar if a.default is None else str(a.default)
                for a in actions if not a.required}
    assert _usage(text) == (required, defaults)
