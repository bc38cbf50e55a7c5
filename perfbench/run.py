"""Benchmark entry point: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  It byte-compiles ``src/`` (as an
installed package would be) and runs the workload in one fresh process for
``--seconds`` seconds of repeated rounds.  It times set-up (spawn until
``import ilab.cli`` has finished) on that process and on bare spawns before
and after it.  It checks every output and prints, as its last stdout line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from a
traced run, plus ``trace_overhead_frac``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "harmonic", "search", "scan")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the whole run ends within this many seconds
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def build(root: Path, env: dict) -> None:
    """Byte-compile the package once, as an installed package would be."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start child.py, time spawn -> 'ready' line, wait for it; (setup_s, rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first != "ready\n":
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}")
    return setup, out


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree (read without running git)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_sha256(root: Path) -> str:
    """Fingerprint of the program's sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(root),
        "src_sha256": src_sha256(root),
        "machine": platform.machine(),
        "thread_env": THREAD_ENV,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny input sizes (self-test)")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "ilab" / "cli.py").is_file():
        print(f"error: no ilab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        build(root, env)
        # probes before and after the workload sample the host at two times
        setups = [spawn(["--probe"], env, deadline)[0] for _ in range(SETUP_PROBES)]
        setup, out = spawn([args.workload, str(args.seed), str(args.seconds), str(args.trace),
                            "1" if args.tiny else "0", str(root)], env, deadline)
        setups += [setup] + [spawn(["--probe"], env, deadline)[0] for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    failures = res["failures"]
    unknown = [f for f in failures if f["defect"] is None]
    attempted = res["attempted"]
    print("env " + json.dumps(environment(root), sort_keys=True))
    for f in failures[:20]:
        print(f"failure {f['op']} [{f['defect'] or 'UNEXPLAINED'}]: {f['detail']}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures")

    if args.trace:
        layers = res["layers"]
        overhead = statistics.median(res["traced_walls"]) / statistics.median(res["walls"]) - 1
        metrics = {k: metric(v, unit_of(k)) for k, v in sorted(layers.items())}
        metrics["trace_overhead_frac"] = metric(overhead, "ratio")
        print(f"trace file {res['trace_file']}")
    else:
        ok_rate = 1 - len(failures) / attempted
        metrics = {
            "wall_s": metric(statistics.median(res["walls"]), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_kb"] / 1024, "MB"),
            "ok_rate": metric(ok_rate, "ratio"),
        }
        print(f"rounds {len(res['walls'])}: wall_s per round {[round(w, 4) for w in res['walls']]}")
        print(f"setup spawns {len(setups)}: {[round(s, 4) for s in setups]}")
        print(f"error_rate {len(failures) / attempted} ({len(failures)} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not unknown, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_ms_p50") or name.endswith("_ms_p98"):
        return "ms"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
