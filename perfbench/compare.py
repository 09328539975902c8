"""Compare two sets of benchmark results, metric by metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE NEW [--workload NAME] [--trace 0|1]

``BASE`` and ``NEW`` are JSONL files (or directories of them) of the
records ``perfbench/run.py`` appends.  Runs pair up by (workload, seed).
For every (metric, workload) the tool prints each side's median and
quartiles, the pairs ``NEW`` won and lost, and a verdict:

* ``better`` — ``NEW`` won at least nine tenths of at least ten pairs
  (ties count for neither) and the medians differ by more than the
  distance between ``BASE``'s quartiles;
* ``worse`` — ``NEW``'s median is worse than ``BASE``'s by more than the
  metric's bound from ``BENCHMARK.json`` (metrics without a bound: the
  mirror image of ``better``);
* ``unresolved`` — neither, and either side's quartile spread is wider
  than the bound (or the metric has no bound), unless every ``NEW`` run
  reads better than every ``BASE`` run;
* ``unchanged`` — otherwise, or when every pair is equal.

The tool refuses to compare runs whose fingerprints differ in anything
but the program under test (commit and source hash), or whose paired
runs were fed different inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import DETAIL, END_TO_END, PER_LAYER, quartiles  # noqa: E402

#: Fingerprint fields that may differ between the two sides.
PROGRAM_FIELDS = frozenset({"commit", "source_sha", "input_sha"})
#: Fingerprint fields that identify one run rather than the setting.
RUN_FIELDS = frozenset({"seed", "workload", "trace"})


def load(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    if not records:
        raise SystemExit(f"compare: no records in {path}")
    return records


def setting(record: dict) -> dict:
    fp = record["fingerprint"]
    return {k: v for k, v in fp.items() if k not in PROGRAM_FIELDS | RUN_FIELDS}


def check_comparable(base: list[dict], new: list[dict]) -> None:
    """Raise SystemExit when the two sets were not measured alike."""
    reference = setting(base[0])
    for r in base + new:
        if setting(r) != reference:
            diff = {
                k: (reference.get(k), v)
                for k, v in setting(r).items()
                if reference.get(k) != v
            }
            raise SystemExit(f"compare: refusing, fingerprints differ: {diff}")
    inputs = {(r["workload"], r["seed"]): r["fingerprint"]["input_sha"] for r in base}
    for r in new:
        key = (r["workload"], r["seed"])
        if key in inputs and inputs[key] != r["fingerprint"]["input_sha"]:
            raise SystemExit(f"compare: refusing, inputs differ for {key}")


def verdict(base, new, pairs, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    q1b, mb, q3b = quartiles(base)
    q1n, mn, q3n = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    gain = sign * (mn - mb)
    enough = len(pairs) >= 10
    if pairs and wins == losses == 0:
        return "unchanged"
    if enough and wins >= 0.9 * len(pairs) and gain > q3b - q1b:
        return "better"
    if bound is None:
        if enough and losses >= 0.9 * len(pairs) and -gain > q3b - q1b:
            return "worse"
        return "unresolved"
    if -gain > bound * abs(mb):
        return "worse"
    spread = max(
        (q3b - q1b) / abs(mb) if mb else float("inf"),
        (q3n - q1n) / abs(mn) if mn else float("inf"),
    )
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def bounds_from(benchmark: Path) -> dict[str, float]:
    if not benchmark.is_file():
        return {}
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def compare(base: list[dict], new: list[dict], *, trace: int, workload=None) -> list[dict]:
    bounds = bounds_from(HERE.parent / "BENCHMARK.json")
    catalogue = {}
    for m in (*DETAIL, *END_TO_END) if not trace else PER_LAYER:
        catalogue[m.name] = m
    sections = ("layers",) if trace else ("metrics", "detail")
    rows = []
    workloads = sorted({r["workload"] for r in base + new})
    for wl in workloads:
        if workload and wl != workload:
            continue
        b_runs = {r["seed"]: r for r in base if r["workload"] == wl and r["trace"] == trace}
        n_runs = {r["seed"]: r for r in new if r["workload"] == wl and r["trace"] == trace}
        if not b_runs or not n_runs:
            continue
        names = []
        for section in sections:
            for r in list(b_runs.values())[:1]:
                names += [n for n in (r.get(section) or {}) if n not in names]
        for name in names:
            metric = catalogue.get(name)
            if metric is None:
                continue

            def values(runs):
                return {
                    s: next(r[sec][name] for sec in sections if name in (r.get(sec) or {}))
                    for s, r in runs.items()
                }

            bv, nv = values(b_runs), values(n_runs)
            pairs = [(bv[s], nv[s]) for s in sorted(bv.keys() & nv.keys())]
            bound = bounds.get(name) if not trace else None
            sign = 1.0 if metric.better == "higher" else -1.0
            rows.append({
                "workload": wl,
                "metric": name,
                "unit": metric.unit,
                "base": quartiles(bv.values()),
                "new": quartiles(nv.values()),
                "won": sum(1 for b, n in pairs if sign * (n - b) > 0),
                "lost": sum(1 for b, n in pairs if sign * (n - b) < 0),
                "pairs": len(pairs),
                "bound": bound,
                "verdict": verdict(list(bv.values()), list(nv.values()), pairs,
                                   metric.better, bound),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    check_comparable(base, new)
    rows = compare(base, new, trace=args.trace, workload=args.workload)

    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':15s} {'metric':22s} {'base median [q1, q3]':>40s} "
          f"{'new median [q1, q3]':>40s} {'won/lost/n':>10s} {'bound':>6s}  verdict")
    for r in rows:
        bound = "" if r["bound"] is None else f"{r['bound']:.2f}"
        print(f"{r['workload']:15s} {r['metric']:22s} {cell(r['base']):>40s} "
              f"{cell(r['new']):>40s} {r['won']:>4d}/{r['lost']}/{r['pairs']:<3d} "
              f"{bound:>6s}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
