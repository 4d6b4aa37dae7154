"""Benchmark of the redarg command-line tool.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see BENCHMARK.json):

  oracle-probes  the 15 criterion-6 probes through `redarg oracle` at
                 depth 3/3 and a fixed case cap; inputs do not depend on
                 the seed
  pipeline       `check`, `analyze`, `erase --reduced` and `verify` on
                 the 13 corpus systems and 91 seeded generated systems
  eval-deep      105 seeded deep ground goals through `redarg eval`

Set-up (interpreter start, `import redarg`, generating and writing the
inputs) runs as a fresh process, once before the operations and then
between them until it has run SETUP_REPEATS times; the median is
reported.  The workload's operations run in-process through
`redarg.cli.main`, one at a time, in whole passes over the inputs until
the next pass would end after --seconds.  Every output is checked
against the answer gen.py built into its input.  Times are scaled to a
nominal host speed (see REFERENCE_S); the lines before the result also
show them as measured.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 one pass runs, each operation once untraced and then once
traced, and the last line reports the per-layer metrics of tracing.py.  The human-readable lines
before it name each metric as the workload knows it (cases_per_s,
systems_per_s, steps_per_s, ...).

Peak RSS is that of this process, which runs every operation.  The
exit code is 0 whenever a result is printed, failures included; it is 2
when the checkout lacks redarg's sources or corpus.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

import calibrate  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11

# A shared host's speed drifts by a fifth within seconds and by more over
# minutes, for every program on it.  So a run times the calibration work
# of calibrate.py before every operation, and divides each operation's
# times by how much slower than REFERENCE_S the calibration ran around it
# (the median of the LOCAL_WINDOW calibrations on either side).  The
# metrics then read as if the host ran at a nominal speed.  Any fixed
# value would do for REFERENCE_S; changing it rescales every time metric.
REFERENCE_S = 0.0065
LOCAL_WINDOW = 5

# How each workload names the generic end-to-end metrics.
NAMES = {
    "oracle-probes": {"ops_per_s": "probes_per_s", "work_per_s": "cases_per_s",
                      "latency_s_p50": "probe_s_p50", "latency_s_p90": "probe_s_p90"},
    "pipeline": {"ops_per_s": "systems_per_s", "work_per_s": "verify_trials_per_s",
                 "latency_s_p50": "analyze_s_p50", "latency_s_p90": "analyze_s_p90"},
    "eval-deep": {"ops_per_s": "goals_per_s", "work_per_s": "steps_per_s",
                  "latency_s_p50": "goal_s_p50", "latency_s_p90": "goal_s_p90"},
}

UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "work_per_s": "1/s",
         "latency_s_p50": "s", "latency_s_p90": "s"}


def operation(workload: str, cli):
    if workload == "oracle-probes":
        return lambda p: workloads.oracle_op(cli, p, gen.ORACLE_MAX_CASES, gen.ORACLE_DEPTH)
    if workload == "pipeline":
        return lambda s: workloads.pipeline_op(cli, s, gen.SUFFIX, gen.VERIFY_TRIALS,
                                               gen.VERIFY_DEPTH, gen.VERIFY_SEED)
    return lambda g: workloads.eval_op(cli, g)


def set_up(workload: str, seed: int, out: Path) -> float:
    # A blocking wait: waiting with a timeout polls every 50 ms, which
    # would round the time up to the next poll.
    t0 = time.perf_counter()
    code = subprocess.Popen([sys.executable, str(HERE / "prepare.py"), "--workload",
                             workload, "--seed", str(seed), "--out", str(out)]).wait()
    seconds = time.perf_counter() - t0
    if code:
        raise SystemExit(f"error: set-up exited with code {code}")
    return seconds


def measure(op, items, seconds: float, set_up_again, setup_times: list) -> tuple:
    """Whole passes over the items until the next pass would end after
    `seconds` of operation time.  The set-up repeats are spread over the
    run, between operations and outside their timing, so that their
    median does not hang on how busy the machine was in one moment.  The
    calibration work runs before every operation, outside its timing."""
    results, references, passes, elapsed = [], [], 0, 0.0
    while True:
        for item in items:
            references.append(calibrate.gauge_seconds())
            t0 = time.perf_counter()
            results.append(op(item))
            elapsed += time.perf_counter() - t0
            if (len(setup_times) < SETUP_REPEATS
                    and elapsed >= len(setup_times) * seconds / SETUP_REPEATS):
                setup_times.append((set_up_again(), len(results) - 1))
        passes += 1
        if elapsed + elapsed / passes > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append((set_up_again(), len(results) - 1))
    return results, references, passes, elapsed


def check_repeats(results) -> None:
    """Counts pinned by an operation must read the same in every pass."""
    first = {}
    for r in results:
        if first.setdefault(r.name, r.pinned) != r.pinned:
            r.fail("wrong", f"pinned counts changed between passes: {r.pinned}")


def slowdowns(references: list[float]) -> list[float]:
    """How much slower than nominal the host ran around each operation."""
    k = LOCAL_WINDOW
    return [statistics.median(references[max(0, i - k): i + k + 1]) / REFERENCE_S
            for i in range(len(references))]


def end_to_end(results, setup_times, slow: list[float]) -> dict[str, float]:
    """The end-to-end metrics, each operation's times divided by its
    slowdown.  A set-up time, paired with the operation it ran after, is
    divided by that operation's slowdown."""
    latencies = [r.latency / s for r, s in zip(results, slow)]
    return {
        "setup_s": statistics.median(t / slow[i] for t, i in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": len(results) / sum(r.seconds / s for r, s in zip(results, slow)),
        "work_per_s": sum(r.work for r in results)
        / sum(r.work_seconds / s for r, s in zip(results, slow)),
        "latency_s_p50": statistics.median(latencies),
        "latency_s_p90": statistics.quantiles(latencies, n=10)[8],
    }


def report_failures(results) -> None:
    seen = set()
    for r in results:
        if r.outcome != "ok" and r.name not in seen:
            seen.add(r.name)
            print(f"  {r.outcome:<10} {r.name}: {r.detail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (ROOT / "src" / "redarg" / "cli.py", ROOT / "corpus" /
                           "expectations.json") if not p.is_file()]
    if missing:
        print(f"error: not a redarg checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    out = WORK / f"{args.workload}-{args.seed}"
    setup_times = [(set_up(args.workload, args.seed, out), 0)]
    items = json.loads((out / "manifest.json").read_text())

    sys.path.insert(0, str(ROOT / "src"))
    import redarg.cli as cli

    if Path(cli.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: imported redarg from {cli.__file__}", file=sys.stderr)
        return 2

    op = operation(args.workload, cli)
    gc.collect()
    if args.trace:
        import tracing

        # Each operation runs untraced and then traced, so that the
        # overhead compares two runs made at about the same host speed.
        results: list = []
        tracer = tracing.Tracer()
        untraced = traced = 0.0
        for item in items:
            t0 = time.perf_counter()
            results.append(op(item))
            untraced += time.perf_counter() - t0
            tracer.install()
            try:
                t0 = time.perf_counter()
                sid = tracer.begin(tracing.ROOT_SPAN)
                results.append(op(item))
                tracer.finish(sid)
                traced += time.perf_counter() - t0
            finally:
                tracer.uninstall()
        tracer.write(out / "spans.bin")
        metrics = tracing.per_layer(tracer, len(items), traced, untraced)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        print(f"{args.workload} seed {args.seed}: traced {traced:.3f} s, "
              f"untraced {untraced:.3f} s, overhead x{traced / untraced:.2f}; "
              f"{metrics['trace.spans']} spans in {out / 'spans.bin'}")
        print(f"  self times sum to {metrics['trace.self_sum_s']:.3f} s of "
              f"{traced:.3f} s wall (gap {metrics['trace.gap_s']:.4f} s)")
        spans = [(v, k) for k, v in metrics.items() if k.endswith(".self_pct") and v > 0]
        for pct, name in sorted(spans, reverse=True):
            print(f"  {name.removesuffix('.self_pct'):<40} {pct * traced / 100:10.4f} s "
                  f"{pct:6.2f}% self")
        for name, unit, _ in tracing.PER_LAYER:
            if unit != "%" and not name.startswith("trace."):
                print(f"  {name:<40} {metrics[name]:>12.6g} {unit}")
    else:
        results, references, passes, elapsed = measure(
            op, items, args.seconds, lambda: set_up(args.workload, args.seed, out), setup_times)
        slow = slowdowns(references)
        metrics = end_to_end(results, setup_times, slow)
        raw = end_to_end(results, setup_times, [1.0] * len(results))
        units = UNITS
        print(f"{args.workload} seed {args.seed}: {passes} passes of {len(items)} "
              f"operations in {elapsed:.3f} s; set-up runs "
              + ", ".join(f"{t:.3f}" for t, _ in setup_times) + " s")
        print(f"  calibration work: median {1e3 * statistics.median(references):.3f} ms "
              f"of {len(references)}, nominal {1e3 * REFERENCE_S:.3f} ms; slowdowns "
              f"{min(slow):.3f} to {max(slow):.3f}")
        print(f"  {'metric':<22} {'scaled':>14} {'unit':<5} {'as measured':>14}")
        for name in UNITS:
            alias = NAMES[args.workload].get(name, name)
            print(f"  {alias:<22} {metrics[name]:>14.6g} {UNITS[name]:<5} {raw[name]:>14.6g}"
                  + (f"  (reported as {name})" if alias != name else ""))

    if args.workload == "pipeline":
        print(f"  {sum(map(gen.over_round_cap, items))} of {len(items)} systems need more "
              f"than the analysis's {gen.ROUND_CAP} rounds")
    check_repeats(results)
    failed = sum(r.outcome != "ok" for r in results)
    correct = not any(r.outcome == "wrong" for r in results)
    print(f"  {'fail_frac':<22} {failed / len(results):>14.6g} ratio "
          f"({failed} of {len(results)} operations)")
    report_failures(results)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
