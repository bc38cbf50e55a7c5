"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks that every workload runs
through run.py with tracing off and on and prints exactly the metrics
BENCHMARK.json names, with their units; that a deliberately corrupted output
of each workload is counted as an unexplained failure; that trace records
carry the required fields; that self times are non-negative and sum to no
more than the traced wall time; and that run.py fails, printing no result,
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import spans  # noqa: E402
import workloads  # noqa: E402


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / HERE.name / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics_printed(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            proc = run_bench(["--workload", name, "--seed", "3", "--seconds", "0.5",
                              "--trace", str(trace), "--tiny"], ROOT)
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] is True and out["attempted"] >= 1, out
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == want, f"{name} trace={trace}: metrics differ: {set(got) ^ set(want)}"
            assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    print("ok: every workload runs and prints every metric with its unit")


def corrupt(name: str, outcomes: list) -> None:
    """Replace one correct output of the workload with a wrong one."""
    o = outcomes[0]
    if name == "certify":  # move one certificate's residue off the root
        p, cert = min(o.result.certs.items())
        o.result.certs[p] = dataclasses.replace(cert, z=cert.z + 1)
    elif name == "harmonic":  # the loaded set-file loses an element
        o = next(x for x in outcomes if x.name == "setio.load_set")
        o.result = (o.result[0][1:], o.result[1])
    elif name == "search":  # a set with the forbidden difference 1
        o.result = dataclasses.replace(o.result, best=(0, 1), size=2)
    else:  # a CLI output that is not strict JSON
        code, out, err = o.result
        o.result = (code, out.replace("{", '{"bad": NaN,', 1), err)


def check_rounds_and_traces() -> None:
    tmp = ROOT / ".bench_build" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(5, True, str(tmp))
            tracer = spans.Tracer()
            rnd = workloads.Round(tracer)
            t0 = time.perf_counter_ns()
            with tracer.span("round"):
                wl.round(rnd)
            wall_ns = time.perf_counter_ns() - t0

            for rec in tracer.records:
                assert set(spans.SPAN_FIELDS) <= set(rec), rec
                assert rec["parent"] is None or rec["parent"] < rec["id"], rec
                assert rec["dur_ns"] >= 0 and rec["maxrss_kb"] >= rec["maxrss_open_kb"] > 0, rec
            selfs = spans.self_times_ns(tracer.records)
            assert min(selfs.values()) >= 0, f"{name}: negative self time"
            assert sum(selfs.values()) <= wall_ns, f"{name}: self times exceed the wall time"

            corrupt(name, rnd.outcomes)
            failures = rnd.finish()
            bad = [f for f in failures if f["defect"] is None]
            assert bad, f"{name}: corrupted output was not counted as a failure"
            metrics = spans.layer_metrics(tracer.records, workloads.CLI_SUBS)
            errors = sum(v for k, v in metrics.items() if k.endswith(".errors"))
            assert errors >= len(bad), f"{name}: failures missing from <layer>.errors"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("ok: corrupted outputs fail; trace records complete; self times fit the wall time")


def check_fails_without_program() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(["--workload", "certify", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], bare)
        assert proc.returncode != 0, "run.py succeeded without the program"
        assert '"correct"' not in proc.stdout, "run.py printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: without the program the benchmark fails and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_rounds_and_traces()
    check_fails_without_program()
    check_metrics_printed(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
