"""One run of one workload, in a fresh process started by run.py.

Set-up (timed as ``setup_s``): import ``oudesign`` and its CLI, build the
workload's inputs from the seed, and run one untimed warm-up item of each
kind.  Then whole rounds of the workload's items are timed until
``--seconds`` have passed (and at least the workload's minimum number of
rounds ran).  Peak RSS is read when the timed rounds end, before the
checks, so the oracle's own memory does not count.  Every operation's
answer is checked afterwards; equal answers are checked once.

Prints one JSON line on stdout.  With ``--setup-only`` it stops after
set-up and reports only ``setup_s``.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_program():
    import oudesign
    import oudesign.cli

    src = os.path.join(ROOT, "src", "oudesign")
    if os.path.dirname(os.path.realpath(oudesign.__file__)) != os.path.realpath(src):
        raise SystemExit(f"oudesign imported from {oudesign.__file__}, not from {src}")
    return oudesign


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    oudesign = _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    runner = workloads.Runner(oudesign.cli.main, tracer)
    items = workload.build(args.seed, oudesign)
    seen = set()
    for item in items:
        if item.kind not in seen:
            seen.add(item.kind)
            for op in item.ops:
                runner.run(op)
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if tracer is not None:
        tracer.reset()
    latencies, round_walls, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        round_start = time.perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item = (len(round_walls), i)
            t0 = time.perf_counter()
            results = [runner.run(op) for op in item.ops]
            latencies.append(time.perf_counter() - t0)
            outcomes.extend(zip(item.ops, results))
        end = time.perf_counter()
        round_walls.append(end - round_start)
        if end - start >= args.seconds and len(round_walls) >= workload.min_rounds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checker = workload.checker()
    verdicts = {}
    failed, unexpected = 0, []
    for op, (code, output) in outcomes:
        key = (op.key, code, output if isinstance(output, str) else repr(output))
        if key not in verdicts:
            verdicts[key] = checker.check(op, code, output)
        verdict = verdicts[key]
        if not verdict:
            failed += 1
            fault = workloads.known_fault(op.key)
            if fault is None and (op.key, verdict.why) not in unexpected:
                unexpected.append((op.key, verdict.why))
    for key, why in unexpected:
        print(f"unexpected failure {key}: {why}", file=sys.stderr)

    # An item's latency is the median of its latencies over the rounds, so
    # a time slice lost to another process moves neither percentile unless
    # it hits the same item in half the rounds.
    typical = [statistics.median(latencies[i::len(items)]) for i in range(len(items))]
    timed = typical * len(round_walls)
    tail = workload.tail_percentile
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": failed,
        "rounds": len(round_walls),
        "items": len(latencies),
        "setup_s": setup_s,
        "wall_s": statistics.median(round_walls),
        "item_p50_ms": 1e3 * statistics.median(timed),
        "item_tail_ms": 1e3 * statistics.quantiles(timed, n=100, method="inclusive")[tail - 1],
        "tail_percentile": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        trace_file = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        tracer.write(trace_file, result)
        result["layers"] = tracer.metrics(len(round_walls))
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
