"""Benchmark worker: one process per set-up sample or measured run.

Started by ``run.py`` with the library on ``PYTHONPATH`` and BLAS pinned.
Phases:

* ``setup``: imports, workload set-up and the first batch's inputs, then
  report the monotonic time at which the first item could start and the
  calibration kernel's time right after it (see ``hostspeed``).
* ``run``: the same set-up, then whole batches until ``--seconds`` is spent
  (at least ``MIN_BATCHES``), with the calibration kernel timed before
  every item and after the last.  With ``--trace 1`` even batches run
  untraced and odd batches traced, for the overhead figure and the
  per-layer table.
* ``selfcheck``: determinism of inputs and exact counters across seeds.
* ``baseline``: re-measure the North-star baseline rows of ROADMAP.md.

The worker prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from hostspeed import at_reference, kernel_time

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
MIN_BATCHES = 3
MAX_BATCHES = 64
BASELINE_REPEATS = 3
SETUP_KERNEL_SAMPLES = 5


def _check_library() -> None:
    import adinkra_spectra

    src = (ROOT / "src").resolve()
    if src not in Path(adinkra_spectra.__file__).resolve().parents:
        raise SystemExit(f"adinkra_spectra was imported from outside {src}")


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def run_batch(wl, tr, b: int, traced: bool):
    """Run batch b; return its wall time (kernel calls excluded), per-item
    times, failures, messages, and the kernel time before each item and
    after the last."""
    items = wl.batch(b)
    tr.enabled, tr.batch = traced, b
    failed, messages, times, kernel = 0, [], [], []
    t0 = time.perf_counter()
    for i, item in enumerate(items):
        kernel.append(kernel_time())
        t_item = time.perf_counter()
        try:
            with tr.item(f"{b}.{i}"):
                wl.run(tr, item)
        except Exception as exc:  # any raise or oracle miss fails the item
            failed += 1
            messages.append(f"batch {b} item {i}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t_item)
    kernel.append(kernel_time())
    wall = time.perf_counter() - t0 - sum(kernel)
    tr.enabled = False
    return wall, times, failed, messages, kernel


def batch_at_reference(item_times: list[list[float]], kernels: list[list[float]]) -> float:
    """Batch time at reference host speed: each item's time scaled by the
    mean kernel time around it, the median of that over the batches, summed.

    Item i of every batch is the same work on fresh inputs.  The host's
    speed drifts by up to 2x over seconds to minutes, so the plain batch
    time moves by ~20% from run to run; scaled item by item it repeats to
    a few %.
    """
    columns = zip(*([at_reference(t, (k[i] + k[i + 1]) / 2) for i, t in enumerate(times)]
                    for times, k in zip(item_times, kernels)))
    return sum(statistics.median(column) for column in columns)


def measure(args, wl, workdir: Path) -> dict:
    from tracing import Tracer, batch_busy, median_batch

    wl.setup(args.seed, workdir)
    wl.batch(0)
    setup_done = time.monotonic()
    setup_kernel = kernel_time(SETUP_KERNEL_SAMPLES)
    if args.phase == "setup":
        return {"setup_done": setup_done, "setup_kernel_s": setup_kernel}

    tr = Tracer()
    walls: dict[int, float] = {}
    item_times: dict[int, list[float]] = {}
    kernels: dict[int, list[float]] = {}
    traced: list[int] = []
    attempted = failed = 0
    messages: list[str] = []
    min_batches = MIN_BATCHES + 2 * args.trace  # traced: U T U T U
    start = time.perf_counter()
    b = 0
    while True:
        is_traced = bool(args.trace) and b % 2 == 1
        walls[b], item_times[b], n_failed, msgs, kernels[b] = run_batch(wl, tr, b, is_traced)
        if is_traced:
            traced.append(b)
        attempted += len(item_times[b])
        failed += n_failed
        messages += msgs
        b += 1
        elapsed = time.perf_counter() - start
        if b >= MAX_BATCHES or (
                b >= min_batches and elapsed + elapsed / b > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [i for i in walls if i not in traced]
    out = {
        "setup_done": setup_done,
        "setup_kernel_s": setup_kernel,
        "batches": len(untraced),
        "wall": batch_at_reference([item_times[i] for i in untraced],
                                   [kernels[i] for i in untraced]),
        "raw_wall": statistics.median(sum(item_times[i]) for i in untraced),
        "kernel_s": statistics.median(k for i in untraced for k in kernels[i]),
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:5],
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        traced_walls = {i: walls[i] for i in traced}
        mid = median_batch(traced_walls)
        first = tr.counters[traced[0]]
        drift = {key for key in wl.invariant for i in traced
                 if tr.counters[i].get(key) != first.get(key)}
        out.update({
            "traced_wall": batch_at_reference([item_times[i] for i in traced],
                                              [kernels[i] for i in traced]),
            "median_traced_wall": traced_walls[mid],
            "busy": batch_busy(tr.spans, mid),
            "counters": dict(first),
            "counter_drift": sorted(drift),
        })
        tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return out


def selfcheck(args, workdir: Path) -> dict:
    """Same seed: identical inputs and counters.  Other seed: the invariant
    counters unchanged.  One traced batch per workload and seed."""
    from tracing import Tracer
    from workloads import WORKLOADS

    problems: list[str] = []
    for name, make in WORKLOADS.items():
        runs = []
        for seed in (args.seed, args.seed, args.seed + 1):
            wl = make()
            wl.setup(seed, workdir)
            inputs = [wl.batch(0), wl.batch(1)]
            tr = Tracer()
            _wall, _times, n_failed, msgs, _kernel = run_batch(wl, tr, 0, True)
            problems += [f"{name} seed {seed}: {m}" for m in msgs]
            runs.append((inputs, dict(tr.counters[0]), wl.invariant))
            print(f"# self-check {name} seed {seed}: {len(inputs[0])} items, "
                  f"{n_failed} failed", flush=True)
        (in_a, count_a, invariant), (in_b, count_b, _), (in_c, count_c, _) = runs
        if in_a != in_b:
            problems.append(f"{name}: same seed gave different inputs")
        if in_a == in_c:
            problems.append(f"{name}: another seed gave the same inputs")
        if count_a != count_b:
            problems.append(f"{name}: same seed gave different exact counters")
        for key in invariant:
            if count_a.get(key) != count_c.get(key):
                problems.append(f"{name}: {key} changed with the seed "
                                f"({count_a.get(key)} vs {count_c.get(key)})")
    return {"ok": not problems, "problems": problems}


def baseline() -> dict:
    """North-star rows of ROADMAP.md that take under ~10 s, median of 3."""
    from adinkra_spectra.adinkra import build_quotient, count_well_dashed_exact
    from adinkra_spectra.codes import BinaryCode
    from adinkra_spectra.hyperbolic import length_spectrum, triangle_generators
    from adinkra_spectra.transfer import (
        build_transfer_matrix,
        extend_to_coset,
        fredholm_det,
        gauss_branch_system,
    )

    cube10 = build_quotient(10, BinaryCode.trivial(10))
    gauss20, gauss40 = gauss_branch_system(20), gauss_branch_system(40)
    op1280 = build_transfer_matrix(gauss40, 2.0, 32)
    op2560 = extend_to_coset(gauss20, {b.label: tuple((a + i) % 4 for a in range(4))
                                       for i, b in enumerate(gauss20.branches)}, 2.0, 32)
    group = triangle_generators(5, 5, 2)
    rows = [
        ("count_well_dashed_exact, 10-cube", 4.8, lambda: count_well_dashed_exact(cube10)),
        ("fredholm_det, 1280^2 Gauss 40x32", 1.8, lambda: fredholm_det(op1280)),
        ("fredholm_det, 2560^2 degree-4 coset", 5.5, lambda: fredholm_det(op2560)),
        ("length_spectrum(5,5,2), l_max 4", 0.45, lambda: length_spectrum(group, 4.0)),
        ("length_spectrum(5,5,2), l_max 5", 2.2, lambda: length_spectrum(group, 5.0)),
    ]
    table = []
    for label, roadmap_s, fn in rows:
        times = []
        for _ in range(BASELINE_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        table.append({"row": label, "roadmap_s": roadmap_s,
                      "median_s": statistics.median(times), "runs_s": times})
    return {"rows": table}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=["setup", "run", "selfcheck", "baseline"],
                        required=True)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    _check_library()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.phase == "selfcheck":
            out = selfcheck(args, workdir)
        elif args.phase == "baseline":
            out = baseline()
        else:
            from workloads import WORKLOADS

            out = measure(args, WORKLOADS[args.workload](), workdir)
    out["env"] = environment()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
