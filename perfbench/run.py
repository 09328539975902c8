"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload recover-fine --seed 1 --seconds 20 --trace 0

``--workload`` is one of recover-fine, recover-coarse, lifetime,
plan-sweep, or ``all`` (each workload in its own process, so each gets
its own peak memory).  A run repeats iterations with seeds derived from
``--seed`` until ``--seconds`` have passed, checks every output, and
prints a report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` a fixed number of iterations, set by
``--seconds``, runs with tracing off and then again with the layer
tracer on, and the metrics are the per-layer ones.  Every run also
appends a fuller record (fingerprint, failure reasons, workload metrics)
to ``--out`` (default ``perfbench/results/runs.jsonl``) for
``perfbench/compare.py``.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def derive_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _tree_sha(base: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(base.rglob(pattern)):
        if "__pycache__" in path.parts or "tests" in path.relative_to(base).parts:
            continue
        h.update(str(path.relative_to(base)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def fingerprint(args, input_sha: str) -> dict:
    from repro.ec import backend

    return {
        "commit": _git_commit(),
        "source_sha": _tree_sha(SRC, "*.py"),
        "bench_sha": _tree_sha(HERE, "*.py"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "ec_backend": type(backend.get_backend()).__name__,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "input_sha": input_sha,
    }


def measure(workload, seed: int, seconds: float, smoke: bool, kernel, *, count=None,
            tracer=None, min_iterations: int = 3):
    """Iterations until ``seconds`` passed (at least ``min_iterations``),
    or exactly ``count`` of them; ``kernel`` is timed between them."""
    iterations = []
    t0 = perf_counter()
    before = kernel.seconds()
    while True:
        if count is not None:
            if len(iterations) >= count:
                break
        elif len(iterations) >= min_iterations and perf_counter() - t0 >= seconds:
            break
        it = workload.iteration(derive_seed(seed, len(iterations)), smoke=smoke, tracer=tracer)
        # the simulated clusters are full of reference cycles; free each
        # one before the next is built, outside the timed phases
        gc.collect()
        after = kernel.seconds()
        it.kernel_s = (before, after)
        before = after
        iterations.append(it)
    return iterations


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    import metrics as M
    from hostspeed import ReferenceKernel
    from layers import LayerTracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    kernel = ReferenceKernel()
    if args.trace:
        # one discarded iteration first, so that lazy set-up in the
        # program is not charged to the untraced pass only
        wl.iteration(derive_seed(args.seed, 0), smoke=args.smoke)
        gc.collect()
        # a fixed count for a given --seconds, so that the per-layer
        # counts of a seed repeat exactly from run to run
        count = 1 if args.smoke else max(3, int(args.seconds / wl.traced_pair_s))
        iterations = measure(wl, args.seed, args.seconds, args.smoke, kernel, count=count)
    else:
        iterations = measure(wl, args.seed, args.seconds, args.smoke, kernel,
                             min_iterations=1 if args.smoke else 3)
    rss = _peak_rss_mib()
    errors = [e for it in iterations for e in it.errors]
    if wl.name == "lifetime":
        errors += wl.reproduction_errors()
    e2e = M.end_to_end(iterations, rss)
    det = M.detail(wl.name, iterations)
    units = {m.name: m.unit for m in (*M.END_TO_END, *M.DETAIL, *M.PER_LAYER)}

    layers = None
    if args.trace:
        tracer = LayerTracer()
        with tracer:
            traced = measure(wl, args.seed, args.seconds, args.smoke, kernel,
                             count=len(iterations), tracer=tracer)
            # the passes ran minutes apart on a host whose speed drifts:
            # take each untraced wall at the host speed of its traced twin
            untraced_wall = sum(
                (sum(a.setup_s) + a.run_s) * statistics.fmean(b.kernel_s)
                / statistics.fmean(a.kernel_s)
                for a, b in zip(iterations, traced)
            )
            traced_wall = sum(sum(it.setup_s) + it.run_s for it in traced)
            layers = M.per_layer(tracer, traced, traced_wall, untraced_wall)
        for plain, t in zip(iterations, traced):
            if plain.sim != t.sim:
                errors.append(f"seed {plain.seed}: traced run changed simulated results")
        errors += [e for it in traced for e in it.errors]

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    failures = Counter()
    for it in iterations:
        failures.update(it.failures)
    input_sha = hashlib.sha256(
        "".join(it.input_sha for it in iterations).encode()
    ).hexdigest()[:16]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(args, input_sha),
        "correct": not errors,
        "errors": errors[:20],
        "attempted": attempted,
        "failed": failed,
        "failures": dict(failures.most_common()),
        "iterations": len(iterations),
        # per-iteration host timings, unscaled, for auditing the scaling
        "samples": [
            {"setup_s": it.setup_s, "run_s": it.run_s, "work": it.work, "kernel_s": it.kernel_s}
            for it in iterations
        ],
        "metrics": e2e,
        "detail": det,
        "layers": layers,
    }
    if args.out != "-":
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")

    print(f"# {wl.name}: {len(iterations)} iterations, seed {args.seed}, {wl.why}")
    for name, value in {**e2e, **det}.items():
        print(f"{wl.name:15s} {name:22s} {_fmt(value):>12s} {units[name]}")
    print(f"{wl.name:15s} {'attempted':22s} {attempted:>12d}")
    print(f"{wl.name:15s} {'failed':22s} {failed:>12d}")
    for reason, n in failures.most_common():
        print(f"{wl.name:15s}   failure x{n}: {reason}")
    if layers is not None:
        wall = layers["tracing.wall_s"]
        for name, value in layers.items():
            share = f"{value / wall:7.1%}" if name.endswith("self_s") and wall else ""
            print(f"{wl.name:15s} {name:44s} {_fmt(value):>12s} {units[name]:6s} {share}")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)

    shown = layers if layers is not None else e2e
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined table."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="recover-fine, recover-coarse, lifetime, plan-sweep or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one iteration (for the benchmark's own tests)")
    parser.add_argument("--out", default=str(HERE / "results" / "runs.jsonl"),
                        help="JSONL file the full record is appended to ('-' for none)")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
