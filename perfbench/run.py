"""Benchmark of the jacobibands per-operator pipeline.

    python3 perfbench/run.py --workload acceptance|touching --seed N \
        --seconds T --trace 0|1 [--trials N]

One operation is ``run_trial`` on one operator plus serializing its report,
the per-trial work of ``jacobibands ensemble --report``. It fails when any
of the seven invariant families of the report fails, or when ``run_trial``
raises; every workload is one on which none fails. One client runs
operations back to back in a closed loop, in one process and one thread.
The workloads (see ``workloads.py``) each make a different layer do most of
the work, and each is visited in an order stratified by a cost proxy, so
that every run sees nearly the same mix of cheap and dear operators.

``--trace 0`` gives the end-to-end metrics of BENCHMARK.json from a timed
loop of T seconds in a fresh process:

- trials_per_s: operations completed / wall time of the loop;
- trial_ms_p50, trial_ms_p90: median and 90th percentile (exclusive
  method) of operation latency over every operation of the run; the
  sample count is printed;
- setup_s: median over several fresh processes of the time from starting
  the process to its first operation (interpreter start, importing
  jacobibands, generating the pool with ``new_periodic``);
- peak_rss_mb: ``ru_maxrss`` of the timed process once it has run the
  fixed prefix of ``workloads.PREFIX_TRIALS`` operations (at the end, if
  it ran fewer), so that it does not grow with speed.

``--trace 1`` gives the per-layer metrics: the first ``--trials``
operators of the visiting order run once untraced and once traced, each
in a fresh process; the traced process wraps the calls into each layer
(``tracing.py``) and writes its spans under ``perfbench/out/``. A third
process runs the known-failing operators of ``workloads.PROBE``; the
``probe.*`` metrics count how many still fail. ``--seconds`` is not used,
so that the traced counts repeat exactly.

This process computes the pool's band edges with numpy before it starts
a worker; they give the cost proxy, and afterwards every passing
operator's edges are checked against them. Each worker prints a sha256
over the serialized reports. ``correct`` is true when the edges check
and, traced, when both processes produced identical reports; failed
operations are counted in ``failed``, not in ``correct``. The last line of
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh processes timed from start to the first operation; the median is
# setup_s. The first one may also compile bytecode.
SETUP_SAMPLES = 7

# A worker is killed after this long, so that a run ends within 180 s.
WORKER_TIMEOUT_S = 150.0

# An edge may differ from numpy's by this much, relative to
# max(1, spectrum diameter): the program's own criterion.
EDGE_RTOL = 1e-8


class WorkerFailed(RuntimeError):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Pool:
    """A workload's operators at one seed, their numpy edges and visiting order."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.edges = [workloads.floquet_edges(a, b) for a, b in workloads.pool(workload, seed)]
        costs = [workloads.cost_key(workload, e) for e in self.edges]
        OUT.mkdir(exist_ok=True)
        self.order_path = OUT / f"order-{workload}-{seed}.json"
        self.order_path.write_text(json.dumps(workloads.visit_order(costs, seed, workloads.ROUND[workload])))

    def spawn(self, *extra: str) -> tuple[float, dict | None]:
        return spawn(self.workload, self.seed, "--order", str(self.order_path), *extra)

    def check(self, result: dict) -> bool:
        """Print the output check of one worker; True when it holds."""
        mismatches = []
        offset = 0
        for k in result["passed"]:
            expected = self.edges[k]
            got = result["passed_edges"][offset : offset + len(expected)]
            offset += len(expected)
            tol = EDGE_RTOL * max(1.0, expected[-1] - expected[0])
            worst = max(abs(x - y) for x, y in zip(sorted(got), expected))
            if worst > tol:
                mismatches.append(f"operator {k}: edge off by {worst:.3e} > {tol:.3e}")
        if offset != len(result["passed_edges"]):
            mismatches.append("edge count does not match the periods")
        print(f"  digest sha256={result['digest']} over {result['trials']} reports")
        print(f"  edges of {len(result['passed'])} passing operators checked against numpy eigenvalues")
        for problem in mismatches:
            print(f"  MISMATCH {problem}")
        return not mismatches


def spawn(workload: str, seed: int, *extra: str) -> tuple[float, dict | None]:
    """Run one worker; return (seconds from start to ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"worker-{workload}-{seed}.log"
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        tail = log_path.read_text()[-2000:]
        raise WorkerFailed(f"{' '.join(cmd)} exited with {proc.returncode}\n{tail}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def print_failures(result: dict, what: str = "operations") -> None:
    n = result["trials"]
    print(f"  fail_frac = {result['failed'] / n:.6g} ratio ({result['failed']} of {n} {what} failed, {result['raised']} raised)")
    for name, count in result["family_fails"].items():
        if count:
            print(f"  fail.{name} = {count}")


def timed_run(workload: str, seed: int, seconds: float) -> tuple[bool, int, int, dict]:
    pool = Pool(workload, seed)
    # Set-up samples on both sides of the timed loop, so that a slow
    # stretch of the host before it does not set the median alone.
    before = SETUP_SAMPLES // 2
    setups = [spawn(workload, seed, "--setup-only")[0] for _ in range(before)]
    setup_s, result = pool.spawn("--seconds", str(seconds))
    setups.append(setup_s)
    setups += [spawn(workload, seed, "--setup-only")[0] for _ in range(SETUP_SAMPLES - before - 1)]
    lat = result["latencies_ms"]
    n = result["trials"]
    metrics = {
        "trials_per_s": n / result["wall_s"],
        "trial_ms_p50": statistics.median(lat),
        # Exclusive-method decile; with n >= 100 at least ten samples lie above it.
        "trial_ms_p90": statistics.quantiles(lat, n=10)[8] if n >= 2 else lat[0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"{workload} seed={seed}: {n} operations in {result['wall_s']:.3f} s (p90 over {n} samples)")
    correct = pool.check(result)
    print_failures(result)
    return correct, n, result["failed"], metrics


def traced_run(workload: str, seed: int, trials: int) -> tuple[bool, int, int, dict]:
    pool = Pool(workload, seed)
    _, plain = pool.spawn("--trials", str(trials))
    _, traced = pool.spawn("--trials", str(trials), "--trace")
    _, probe = spawn(workload, seed, "--probe")
    n = traced["trials"]
    metrics = dict(traced["layers"])
    for name, count in probe["family_fails"].items():
        metrics[f"probe.fail.{name}"] = count
    metrics["probe.fail.raised"] = probe["raised"]
    metrics["probe.fail_frac"] = probe["failed"] / probe["trials"]
    metrics["fail_frac"] = traced["failed"] / n
    metrics["bands.closed_gaps"] = traced["closed_gaps"]
    metrics["trace_overhead_frac"] = 1.0 - plain["wall_s"] / traced["wall_s"]
    print(f"{workload} seed={seed}: {n} operations, untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s")
    print("untraced:")
    correct = pool.check(plain)
    print("traced:")
    correct = pool.check(traced) and correct
    same = plain["digest"] == traced["digest"]
    print(f"  untraced and traced reports identical: {same}")
    print_failures(traced)
    print(f"known-failing probe ({len(workloads.PROBE) + 1} fixed operators, not counted in attempted):")
    print_failures(probe, "probe operators")
    stages = {
        stage: sum(v for k, v in metrics.items() if k.startswith(f"{stage}.ms.p"))
        for stage in ("discriminant", "bands", "floquet", "potential")
    }
    stages["bounds"] = metrics["bounds.ms"]
    stages["ensemble"] = metrics["ensemble.ms"] + metrics["ensemble.report_ms"]
    total = sum(stages.values())
    print(f"  self time by stage, {total:.0f} ms in all (a stage includes the evaluator calls it makes):")
    for name, ms in sorted(stages.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<13} {ms:10.1f} ms {100 * ms / total:5.1f}%")
    print(f"  spans written to {traced['spans_path']}")
    return correct and same, n, traced["failed"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--trials", type=int, help="operators in a traced run (default: per workload, see workloads.py)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.trials is not None and args.trials < 1):
        parser.error("--seconds and --trials must be positive")
    if not (ROOT / "src" / "jacobibands" / "__init__.py").is_file():
        print(f"no jacobibands sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        trials = args.trials if args.trials is not None else workloads.PREFIX_TRIALS[args.workload]
        correct, attempted, failed, metrics = traced_run(args.workload, args.seed, trials)
        declared = spec()["per_layer"]
    else:
        correct, attempted, failed, metrics = timed_run(args.workload, args.seed, args.seconds)
        declared = spec()["end_to_end"]
    mismatched = {m["name"] for m in declared} ^ set(metrics)
    if mismatched:
        print(f"metrics do not match BENCHMARK.json: {sorted(mismatched)}", file=sys.stderr)
        return 1
    for m in declared:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
