"""Alternating timed pairs of the benchmark in two checkouts.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds T [--seed S]

PARENT and CHANGE are two checkouts of the repository (from ``git clone``
or ``git archive``). Pair i runs ``perfbench/run.py --trace 0`` at seed
S + i in each, the parent first in even pairs and the change first in odd
ones, so that a drift in the host's load falls on both sides alike. Each
run writes its own ``perfbench/out/`` in its checkout.

Per end-to-end metric of the change's ``BENCHMARK.json`` it prints each
side's median and quartiles, the pairs the change wins, the no-regression
verdict against the metric's ``bound``, and whether the gain holds: over
at least 10 pairs, the change wins at least 9 in 10, and its median beats
the parent's by more than the parent's interquartile range. Fewer pairs
never hold a gain. The verdict is "no worse" when every change run beats
every parent run; otherwise "unresolved" when the parent's interquartile
range exceeds bound * |parent median|, since runs of the same code then
spread wider than the regression to detect, or when fewer than 10 pairs
leave that spread unmeasured; otherwise "worse" when the change's median
trails the parent's by more than bound * |parent median|, and "no worse"
when it does not. A run whose last line is not a result, or that failed
operations, is reported and stops the script with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Fewer pairs than this hold no gain, however many the change wins, and
# resolve no regression verdict.
MIN_PAIRS = 10


def parse_result(stdout: str) -> dict:
    """The result object of a ``perfbench/run.py`` run: its last output line.

    Returns {"correct", "attempted", "failed", "metrics"}, with each
    metric's value in place of its {"value", "unit"} record. Raises
    ValueError when the last line is not a result.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"no result line in run output: {lines[-1:]!r}") from exc
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> list[dict]:
    """One row per declared metric over (parent metrics, change metrics) pairs.

    declared is the ``end_to_end`` list of BENCHMARK.json: each entry has
    a "name", "better" ("higher" or "lower") and a relative "bound". A row
    holds the metric's name, the parent's and the change's (q1, median,
    q3), the pairs the change wins (strictly better), the number of
    pairs, the verdict ("no worse", "worse" or "unresolved", as the module
    docstring states) and holds: at least `MIN_PAIRS` pairs, at least 9
    wins in 10 of them and a median gap, in the better direction, wider
    than the parent's interquartile range.
    """
    rows = []
    for m in declared:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gap = sign * (cq[1] - pq[1])
        allowed = m["bound"] * abs(pq[1])
        if min(sign * c for c in change) > max(sign * p for p in parent):
            verdict = "no worse"
        elif len(pairs) < MIN_PAIRS or pq[2] - pq[0] > allowed:
            verdict = "unresolved"
        else:
            verdict = "worse" if gap < -allowed else "no worse"
        holds = len(pairs) >= MIN_PAIRS and 10 * wins >= 9 * len(pairs) and gap > pq[2] - pq[0]
        rows.append({"name": name, "parent": pq, "change": cq, "wins": wins, "pairs": len(pairs),
                     "verdict": verdict, "holds": holds})
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    """The table: one header line, then one line per row, its last token the gain's holds (True or False)."""
    out = [f"{'metric':<14} {'parent q1 / median / q3':>30} {'change q1 / median / q3':>30}  wins  "
           f"{'verdict':<10} gain holds"]
    for r in rows:
        sides = ["{:9.4g} {:9.4g} {:9.4g}".format(*r[k]) for k in ("parent", "change")]
        out.append(f"{r['name']:<14} {sides[0]:>30} {sides[1]:>30}  {r['wins']:>2}/{r['pairs']:<2} "
                   f"{r['verdict']:<10} {r['holds']}")
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise ValueError(f"{checkout}: exit status {done.returncode}: {done.stderr.strip()[-500:]}")
    return parse_result(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--seed", type=int, default=101, help="seed of the first pair (default 101)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {}
        for side in order:
            try:
                result[side] = run_once(sides[side], args.workload, seed, args.seconds)
            except ValueError as exc:
                print(f"pair {i + 1} seed={seed} {side}: {exc}", file=sys.stderr)
                return 1
            r = result[side]
            if r["failed"] or not r["correct"]:
                print(f"pair {i + 1} seed={seed} {side}: failed {r['failed']} of {r['attempted']}, "
                      f"correct {r['correct']}")
                return 1
        pairs.append((result["parent"]["metrics"], result["change"]["metrics"]))
        shown = ", ".join(f"{side} {result[side]['metrics'][declared[0]['name']]:.6g}" for side in order)
        print(f"pair {i + 1} seed={seed}: {declared[0]['name']} {shown}", flush=True)
    print("\n".join(format_rows(summarize(pairs, declared))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
