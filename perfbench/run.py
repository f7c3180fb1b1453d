"""One benchmark command for dersizer.

    python3 perfbench/run.py --workload study-k6 --seed 1 --seconds 27 --trace 0

Runs one workload (``study-k6``, ``reference-root`` or ``reference-sweep``)
in this process: set-up, one untimed warm-up pass, then timed passes
for about ``--seconds`` (at least ``MIN_PASSES``). Every pass is
checked apart from the program afterwards, and the checker's self-test
runs at the end. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS threads capped at the core count; set before numpy is imported.
CORES = os.cpu_count() or 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not (_value.isdigit() and 0 < int(_value) <= CORES):
        os.environ[_var] = str(CORES)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import locate  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 5
OUT_DIR = locate.ROOT / "perfbench_out"


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    started = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=locate.ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        code = child.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="prepare the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    locate.use_source_tree()
    import selftest
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    setup_samples = [] if args.trace else [
        _probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer().install() if args.trace else None
    try:
        workload.setup()
        records, times = [], []
        deadline = None
        elapsed = 0.0
        index = 0                               # pass 0 is the warm-up
        # A timed pass starts while at least half of it fits before the deadline.
        while deadline is None or len(times) < MIN_PASSES \
                or time.perf_counter() + elapsed / 2 < deadline:
            if tracer:
                tracer.pass_index = index
            gc.collect()
            started = time.perf_counter()
            output = workload.run_pass()
            elapsed = time.perf_counter() - started
            record = workload.after_pass(output)
            records.append(record)
            if deadline is None:
                deadline = time.perf_counter() + args.seconds
            else:
                times.append(elapsed)
            index += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.uninstall()

    attempted, failed = workload.check(records)
    selftest_failures = selftest.run()
    for problem in selftest_failures:
        print(f"[perfbench] checker self-test: {problem}", file=sys.stderr)
    correct = failed == 0 and not selftest_failures

    if tracer:
        tracer.require(args.workload, workload.layers,
                       cases=(0, 1, 2, 3) if args.workload == "study-k6" else None)
        setup = tracer.pass_metrics(spans.SETUP_PASS, 0)
        per_pass = [tracer.pass_metrics(i, workload.bytes_written(records[i]))
                    for i in range(1, index)]
        metrics, unsteady = spans.summarize(per_pass, setup)
        if unsteady:
            correct = False
            print(f"[perfbench] counts differ between passes: {unsteady}", file=sys.stderr)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"[perfbench] traced run_s median {statistics.median(times):.6f} s over "
              f"{len(times)} passes; spans in {trace_path}", file=sys.stderr)
    else:
        metrics = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"[perfbench] {args.workload} seed {args.seed}: {len(times)} timed passes, "
          f"pass times {[round(t, 4) for t in times]}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
