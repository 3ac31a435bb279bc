"""Benchmark of the adinkra-spectra pipeline: two workloads, end to end and
per layer.  Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload spectra --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py --baseline      # ROADMAP North-star rows, re-measured
    python3 perfbench/run.py --self-check    # determinism of inputs and counters

Each measured run starts worker processes with the library's ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread: SETUP_SAMPLES - 1 that only
set up, then one that sets up and measures; ``setup_s`` is the median of
all of their set-up times (spawn to first timed item).  Times are read at
the reference host speed of ``hostspeed``: each is scaled by the
calibration kernel's time around it.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S, at_reference, kernel_time

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("pipeline", "spectra")
SETUP_SAMPLES = 3
SETUP_KERNEL_SAMPLES = 5
DEADLINE_S = 170.0
RATIOS = {
    "hyperbolic.classes_per_element": ("hyperbolic.classes", "hyperbolic.ball_elements"),
    "torus_spectrum.useful_ratio": ("torus_spectrum.entries", "torus_spectrum.lattice_points"),
}


# BLAS on one thread, here (for the calibration kernel) and in every worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".perfbench_out" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list[str], deadline: float, echo: bool = False) -> tuple[float, dict]:
    """Run one worker; return its spawn time and its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    if echo:
        print("\n".join(lines[:-1]))
    return spawned, json.loads(lines[-1])


def print_env(env: dict) -> None:
    print(f"# env nproc={env['nproc']} blas_threads={env['blas_threads']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4f}..{q3:.4f}"


def timed_setup(phase: str, base: list[str], deadline: float) -> tuple[float, float, dict]:
    """Start a worker; return its raw and reference-speed set-up times and its output.

    The kernel is timed here just before the spawn and by the worker just
    after its set-up, so the two bracket the set-up.
    """
    before = kernel_time(SETUP_KERNEL_SAMPLES)
    spawned, out = call_worker(["--phase", phase, *base], deadline)
    raw = out["setup_done"] - spawned
    return raw, at_reference(raw, (before + out["setup_kernel_s"]) / 2), out


def measured_run(opts, spec: dict, deadline: float) -> dict:
    base = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    raw_setups, setups = [], []
    for i in range(SETUP_SAMPLES):
        raw, scaled, out = timed_setup("run" if i == SETUP_SAMPLES - 1 else "setup",
                                       base, deadline)
        raw_setups.append(raw)
        setups.append(scaled)

    print(f"# perfbench {opts.workload} seed={opts.seed} seconds={opts.seconds} "
          f"trace={opts.trace}")
    print_env(out["env"])
    for msg in out["failures"]:
        print(f"# FAILED {msg}")
    attempted, failed = out["attempted"], out["failed"]
    correct = failed == 0
    if not opts.trace:
        values = {
            "wall_s": out["wall"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        notes = {
            "wall_s": f"median over {out['batches']} batches, item by item; raw batch median "
                      f"{out['raw_wall']:.4f} s",
            "setup_s": f"median of {len(setups)} set-ups{quartiles(setups)}; raw median "
                       f"{statistics.median(raw_setups):.4f} s",
            "peak_rss_mb": "measuring worker, ru_maxrss",
        }
        print(f"# host speed: kernel median {out['kernel_s'] * 1e3:.2f} ms, reference "
              f"{REFERENCE_S * 1e3:.2f} ms; times in s are at the reference speed")
        metrics = {m["name"]: (values[m["name"]], m["unit"], notes[m["name"]])
                   for m in spec["end_to_end"]}
    else:
        busy, counters = out["busy"], out["counters"]
        untraced = out["wall"]
        special = {"trace.overhead_s": out["traced_wall"] - untraced,
                   "trace.wall_s": out["median_traced_wall"]}
        for name, (num, den) in RATIOS.items():
            special[name] = counters.get(num, 0) / counters[den] if counters.get(den) else 0.0
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            value = special.get(name, busy.get(name, counters.get(name, 0)))
            metrics[name] = (value, m["unit"], "")
        if out["counter_drift"]:
            correct = False
            print(f"# FAILED counters changed between batches: {out['counter_drift']}")
        accounted = sum(v for k, v in busy.items()
                        if k.count(".") == 1 and k.endswith(".busy_s")) + busy["bench.self_s"]
        print(f"# layer busy + bench.self_s = {accounted:.4f} s of traced wall_s "
              f"{out['median_traced_wall']:.4f} s (raw); untraced wall_s {untraced:.4f} s")
    width = max(map(len, metrics))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} {note}")
    print(f"{'failed_ratio':<{width}}  {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} items attempted)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="re-measure the ROADMAP North-star baseline rows")
    parser.add_argument("--self-check", action="store_true",
                        help="check that inputs and exact counters are deterministic")
    opts = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "adinkra_spectra" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if opts.baseline:
            _spawned, out = call_worker(["--phase", "baseline"], deadline)
            print_env(out["env"])
            print(f"{'North-star row':<38} {'ROADMAP':>8} {'median':>8}  runs (s)")
            for row in out["rows"]:
                runs = " ".join(f"{t:.3f}" for t in row["runs_s"])
                print(f"{row['row']:<38} {row['roadmap_s']:>7.2f}s {row['median_s']:>7.3f}s  {runs}")
            print(json.dumps(out))
            return 0
        if opts.self_check:
            _spawned, out = call_worker(["--phase", "selfcheck", "--seed", str(opts.seed)],
                                        deadline=time.monotonic() + 600, echo=True)
            for msg in out["problems"]:
                print(f"# PROBLEM {msg}")
            print(json.dumps(out))
            return 0 if out["ok"] else 1
        if opts.workload is None:
            parser.error("--workload is required")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = measured_run(opts, spec, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
