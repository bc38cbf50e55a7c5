"""One workload process: import ilab.cli, signal readiness, run timed rounds.

Usage (spawned by run.py, with the checkout's ``src`` on PYTHONPATH):

    python3 perfbench/child.py --probe
    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE TINY ROOT

The first line on stdout is ``ready``, written as soon as ``import ilab.cli``
has finished; the parent times set-up up to that line.  ``--probe`` stops
there.  Otherwise the last line is one JSON object with the round wall
times, peak RSS, attempted operations, failures and (when tracing) the
per-layer metrics.
"""

import sys


def clear_caches() -> None:
    """Drop ilab's in-process memo caches so each round pays what one CLI
    invocation pays."""
    for name, mod in list(sys.modules.items()):
        if name == "ilab" or name.startswith("ilab."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def main(argv: list[str]) -> int:
    import ilab.cli  # noqa: F401  -- set-up ends when this import has finished

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if argv == ["--probe"]:
        return 0

    # everything else is imported after the set-up signal
    import gc
    import json
    import os
    import resource
    import shutil
    import statistics
    import time

    import ilab
    from spans import NullTracer, Tracer, layer_metrics, median_metrics
    from workloads import CLI_SUBS, WORKLOADS, Round

    workload, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    trace, tiny, root = argv[3] == "1", argv[4] == "1", argv[5]
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(ilab.__file__).startswith(src + os.sep):
        print(f"ilab imported from {ilab.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = os.path.join(root, ".bench_build", "tmp", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[workload](seed, tiny, workdir)
        walls, traced_walls, layer_rounds, spans_out = [], [], [], []
        failures, attempted, peak_kb, rss_rise = [], 0, 0, {}
        begin = time.perf_counter()
        i = 0
        while True:
            # with tracing on, rounds alternate traced / untraced, first traced
            traced = trace and i % 2 == 0
            tracer = Tracer() if traced else NullTracer()
            rnd = Round(tracer)
            clear_caches()
            gc.collect()
            t0 = time.perf_counter()
            with tracer.span("round"):
                wl.round(rnd)
            wall = time.perf_counter() - t0
            peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            failures += rnd.finish()
            attempted += len(rnd.outcomes)
            if traced:
                traced_walls.append(wall)
                m = layer_metrics(tracer.records, CLI_SUBS)
                if not layer_rounds:  # ru_maxrss only rises in the process's first round
                    rss_rise = {k: v for k, v in m.items() if k.endswith("rss_rise_mb")}
                layer_rounds.append(m)
                spans_out += [dict(rec, round=i) for rec in tracer.records]
            else:
                walls.append(wall)
            i += 1
            # stop before a round that would end past the measuring time
            expected_end = time.perf_counter() - begin + statistics.median(walls + traced_walls)
            if walls and (traced_walls or not trace) and expected_end > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"walls": walls, "traced_walls": traced_walls, "peak_rss_kb": peak_kb,
              "attempted": attempted, "failures": failures}
    if trace:
        result["layers"] = {**median_metrics(layer_rounds), **rss_rise}
        trace_dir = os.path.join(root, ".bench_build", "trace")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl")
        with open(path, "w") as fh:
            for rec in spans_out:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        result["trace_file"] = os.path.relpath(path, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
