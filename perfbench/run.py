"""perfbench: end-to-end and per-layer benchmark of the GeoBlocks store.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cells_l17 --seed 7 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the traced per-layer run instead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".bench_build" / "perfbench"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7, help="seeds the rides only")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hood-seed", type=int, default=11, help="neighborhood polygons")
    ap.add_argument("--skew-seed", type=int, default=13, help="skew-set draw")
    return ap.parse_args(argv)


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _mem_total():
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def context_lines(harness, cfg, workload, trace):
    def ver(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    passes = (
        f"whole passes for >= {cfg.seconds:g} s and >= {harness.WORKLOADS[workload]} passes"
        if not trace
        else f"whole passes for >= {cfg.seconds / 4:g} s and >= 1 pass, untraced then traced"
    )
    return [
        f"# perfbench workload={workload} trace={trace}",
        f"# nproc={os.cpu_count()} MemTotal={_mem_total()}",
        f"# python={platform.python_version()} numpy={ver('numpy')} pandas={ver('pandas')} "
        f"pyspark={ver('pyspark')}",
        f"# sf={cfg.sf} level={cfg.level} threshold={cfg.threshold} rides_seed={cfg.seed} "
        f"hood_seed={cfg.hood_seed} skew_seed={cfg.skew_seed}",
        f"# git_commit={_git_commit()}",
        f"# builds_per_setup={cfg.builds} passes_per_run={passes}",
    ]


def result_json(metrics, attempted, failed):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
        }
    )


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: {src / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # noqa: E402  (needs src on sys.path)

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {harness.WORKLOADS}", file=sys.stderr)
        return 2

    cfg = harness.Config(
        cache_dir=CACHE_DIR,
        seed=args.seed,
        hood_seed=args.hood_seed,
        skew_seed=args.skew_seed,
        seconds=args.seconds,
    )
    for line in context_lines(harness, cfg, args.workload, args.trace):
        print(line, flush=True)
    inputs = harness.make_inputs(cfg)
    if args.trace:
        import layers  # noqa: E402

        metrics, attempted, failed, tracer, (plain, traced) = layers.traced_run(
            args.workload, inputs, cfg, ROOT
        )
        trace_path = CACHE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"# spans={len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        runs = (("untraced", plain), ("traced", traced))
    else:
        metrics, passes, attempted, failed = harness.end_to_end(args.workload, inputs, cfg)
        runs = (("measured", passes.times),)
    for label, times in runs:
        print(
            f"# {label} passes={len(times)} sequence_length={times.shape[1]} "
            f"slowest/fastest pass={harness.pass_spread(times):.3f} (display only)"
        )
    for m in metrics:
        print(f"{m.name} = {m.value!r} {m.unit} (n={m.samples}; {m.basis})")
    print(f"# attempted={attempted} failed={failed}")
    print(result_json(metrics, attempted, failed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
