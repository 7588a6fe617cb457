"""One measuring process of the benchmark.

    python3 perfbench/worker.py --workload W --seed S --order FILE --seconds T
    python3 perfbench/worker.py --workload W --seed S --order FILE --trials N [--trace]
    python3 perfbench/worker.py --workload W --seed S --setup-only
    python3 perfbench/worker.py --workload W --seed S --probe

Set-up imports jacobibands from ``src/`` of this checkout and builds the
workload's operator pool with ``new_periodic``; the process then prints
``ready``. One operation is ``run_trial`` on one operator followed by
``json.dumps(trial_to_jsonable(t), sort_keys=True)``, as in ``jacobibands
ensemble --report``. Operations run one after another in a closed loop, in
the pool order given by FILE (a JSON list written by ``run.py``), either
until T seconds have passed or for the first N operators. ``--probe`` runs
the known-failing operators of ``workloads.PROBE`` instead. The last line
of output is one JSON object with the results, including the edges of
every passing operator, which ``run.py`` checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--order", type=Path)
    size = parser.add_mutually_exclusive_group(required=True)
    size.add_argument("--seconds", type=float)
    size.add_argument("--trials", type=int)
    size.add_argument("--setup-only", action="store_true")
    size.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if (args.seconds is not None or args.trials is not None) and args.order is None:
        parser.error("--seconds and --trials need --order")
    return args


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import jacobibands
    from jacobibands import ensemble, new_periodic

    if Path(jacobibands.__file__).resolve().parent != SRC / "jacobibands":
        print(f"jacobibands imported from {jacobibands.__file__}, not {SRC}", file=sys.stderr)
        return 1
    ops = workloads.probe_operators() if args.probe else workloads.pool(args.workload, args.seed)
    pool = [new_periodic(a, b) for a, b in ops]
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.probe:
        order, limit = list(range(len(pool))), len(pool)
    else:
        order, limit = json.loads(args.order.read_text()), args.trials

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        call = tracer.call
    else:

        def call(_name, fn, *fn_args):
            return fn(*fn_args)

    def serialize(t):
        return json.dumps(ensemble.trial_to_jsonable(t), sort_keys=True)

    digest = hashlib.sha256()
    # Flat arrays, and edges kept once per operator, keep the bookkeeping
    # small next to the program's own memory.
    latencies_ms = array("d")
    periods = array("i")
    family_fails = dict.fromkeys(ensemble.FAMILY_NAMES, 0)
    raised = failed = closed_gaps = 0
    seen = bytearray(len(pool))
    passed, passed_edges = array("i"), array("d")

    peak_rss_mb = None
    start = time.perf_counter()
    deadline = start + args.seconds if args.seconds is not None else None
    trial = 0
    while True:
        k = order[trial % len(order)]
        c = pool[k]
        if tracer is not None:
            tracer.trial = trial
        t0 = time.perf_counter()
        try:
            t = call("ensemble", ensemble.run_trial, c)
        except Exception as exc:  # noqa: BLE001 - a raising trial is a failed operation
            t = None
            text = json.dumps({"index": k, "raised": f"{type(exc).__name__}: {exc}"}, sort_keys=True)
        else:
            t.index = k
            text = call("report", serialize, t)
        t1 = time.perf_counter()

        latencies_ms.append((t1 - t0) * 1e3)
        periods.append(c.p)
        digest.update(text.encode())
        digest.update(b"\n")
        if t is None:
            raised += 1
            failed += 1
        else:
            for name, result in t.families.items():
                family_fails[name] += not result.passed
            if t.band_structure is not None:
                closed_gaps += sum(t.band_structure.closed_gap_flags)
            if not t.all_passed:
                failed += 1
            elif not seen[k]:
                seen[k] = 1
                passed.append(k)
                passed_edges.extend(t.band_structure.edges)
        trial += 1
        if trial == workloads.PREFIX_TRIALS[args.workload]:
            peak_rss_mb = max_rss_mb()
        if deadline is not None and t1 >= deadline:
            break
        if limit is not None and trial >= limit:
            break
    wall_s = t1 - start
    if peak_rss_mb is None:
        peak_rss_mb = max_rss_mb()

    result = {
        "trials": trial,
        "failed": failed,
        "raised": raised,
        "family_fails": family_fails,
        "closed_gaps": closed_gaps,
        "wall_s": wall_s,
        "latencies_ms": latencies_ms.tolist(),
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
        "passed": passed.tolist(),
        "passed_edges": passed_edges.tolist(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, periods)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans_path)
        result["spans_path"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
