import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

DECLARED = [
    {"name": "trials_per_s", "better": "higher", "bound": 0.25},
    {"name": "trial_ms_p50", "better": "lower", "bound": 0.25},
]


def run_output(rate, p50, failed=0):
    """Canned output of one `perfbench/run.py --trace 0` run: the metric lines, then the result line."""
    metrics = {"trials_per_s": {"value": rate, "unit": "1/s"}, "trial_ms_p50": {"value": p50, "unit": "ms"}}
    result = {"correct": True, "attempted": 1000, "failed": failed, "metrics": metrics}
    return f"  trials_per_s = {rate} 1/s\n  trial_ms_p50 = {p50} ms\n{json.dumps(result)}\n"


def canned_pairs(parent_rates, change_rates):
    def metrics(rate):
        return pairs.parse_result(run_output(rate, 1000 / rate))["metrics"]

    return [(metrics(p), metrics(c)) for p, c in zip(parent_rates, change_rates)]


def test_parse_result_reads_the_last_line():
    result = pairs.parse_result(run_output(1234.5, 0.74, failed=2))
    assert result["metrics"] == {"trials_per_s": 1234.5, "trial_ms_p50": 0.74}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1000, 2)
    with pytest.raises(ValueError):
        pairs.parse_result("  trials_per_s = 1 1/s\n")
    with pytest.raises(ValueError):
        pairs.parse_result("")


def test_gain_holds_on_nine_wins_and_a_gap_beyond_the_parents_spread():
    parent = [1000, 1010, 990, 1005, 995, 1020, 980, 1000, 1015, 985]
    change = [1100, 1120, 1090, 1110, 1095, 1130, 1080, 1105, 1115, 900]
    rows = {r["name"]: r for r in pairs.summarize(canned_pairs(parent, change), DECLARED)}
    rate = rows["trials_per_s"]
    assert (rate["wins"], rate["pairs"], rate["holds"]) == (9, 10, True)
    assert rate["parent"][1] == 1000 and rate["change"][1] == 1102.5
    # lower is better for latency: the same pairs win it
    assert (rows["trial_ms_p50"]["wins"], rows["trial_ms_p50"]["holds"]) == (9, True)


def test_gain_fails_on_eight_wins():
    parent = [1000] * 10
    change = [1200] * 8 + [900, 900]
    (rate,) = pairs.summarize(canned_pairs(parent, change), DECLARED[:1])
    assert (rate["wins"], rate["holds"]) == (8, False)


def test_gain_fails_inside_the_parents_interquartile_range():
    # every pair won, by less than the parent's quartiles are apart
    parent = [900, 1100] * 5
    change = [x + 50 for x in parent]
    (rate,) = pairs.summarize(canned_pairs(parent, change), DECLARED[:1])
    assert rate["wins"] == 10
    assert rate["change"][1] - rate["parent"][1] == 50 < rate["parent"][2] - rate["parent"][0]
    assert not rate["holds"]


def test_one_pair_summarizes_without_spread():
    # one pair summarizes, but holds no gain: fewer than ten pairs never do
    (rate,) = pairs.summarize(canned_pairs([1000], [1100]), DECLARED[:1])
    assert rate["parent"] == (1000, 1000, 1000)
    assert (rate["wins"], rate["holds"]) == (1, False)
    assert len(pairs.format_rows([rate])) == 2


def test_gain_fails_on_fewer_than_ten_pairs():
    # the change wins both pairs, by far more than the parent's spread
    (rate,) = pairs.summarize(canned_pairs([1000, 1010], [1500, 1510]), DECLARED[:1])
    assert rate["wins"] == rate["pairs"] == 2
    assert rate["change"][1] - rate["parent"][1] > rate["parent"][2] - rate["parent"][0]
    assert not rate["holds"]


def verdicts(parent_rates, change_rates):
    rows = pairs.summarize(canned_pairs(parent_rates, change_rates), DECLARED)
    return {r["name"]: r["verdict"] for r in rows}


def test_verdict_no_worse_within_the_bound():
    # the parent's quartiles are 20 apart, inside 0.25 of its median, and
    # the change trails it by 200: within the bound, in both directions
    parent = [1000, 1010, 990, 1005, 995, 1020, 980, 1000, 1015, 985]
    change = [x - 200 for x in parent]
    assert verdicts(parent, change) == {"trials_per_s": "no worse", "trial_ms_p50": "no worse"}


def test_verdict_worse_beyond_the_bound():
    # a median 300 below the parent's 1000, beyond 0.25 of it; the latency
    # median rises from 1.0 to 1.43, beyond 0.25 as well
    parent = [1000, 1010, 990, 1005, 995, 1020, 980, 1000, 1015, 985]
    change = [x - 300 for x in parent]
    rows = {r["name"]: r for r in pairs.summarize(canned_pairs(parent, change), DECLARED)}
    assert rows["trials_per_s"]["verdict"] == rows["trial_ms_p50"]["verdict"] == "worse"
    line = pairs.format_rows(list(rows.values()))[1]
    assert line.split()[-2:] == ["worse", "False"] and "no worse" not in line


def test_verdict_unresolved_when_the_parents_spread_exceeds_the_bound():
    # the parent's own runs spread 600-1400, an interquartile range of 800
    # against an allowed 250, so no regression of the bound's size shows:
    # neither a change 50 below it nor one far below reads as no worse
    parent = [600, 1400] * 5
    assert verdicts(parent, [x - 50 for x in parent])["trials_per_s"] == "unresolved"
    assert verdicts(parent, [500] * 10)["trials_per_s"] == "unresolved"
    # unless every change run beats every parent run
    assert verdicts(parent, [1500] * 10) == {"trials_per_s": "no worse", "trial_ms_p50": "no worse"}
    row = pairs.format_rows(pairs.summarize(canned_pairs(parent, [500] * 10), DECLARED[:1]))[1]
    assert row.split()[-2:] == ["unresolved", "False"]


def test_verdict_unresolved_on_fewer_than_ten_pairs():
    # two pairs put the parent's quartiles 5 apart, which measures no
    # spread: a change 300 below reads unresolved, not worse
    assert verdicts([1000, 1010], [700, 710]) == {"trials_per_s": "unresolved", "trial_ms_p50": "unresolved"}
    assert verdicts([1000, 1010], [1500, 1510])["trials_per_s"] == "no worse"
