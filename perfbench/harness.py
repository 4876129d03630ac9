"""Inputs, store builds, workloads and best-of-passes timing for perfbench.

Everything here calls the program's public functions from outside; no
module under ``src/`` is changed to be measured. Input generation (rides,
polygons, coverings, reference answers) is never timed.
"""
import hashlib
import math
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.baselines.binary_search import BinarySearchEngine
from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.core.raw import extract_and_reorganize
from repro.exact import exact_mask, relative_count_error
from repro.s2lite.covering import exterior_covering
from repro.synth_data import nyc_taxi_pandas
from repro.workloads import DEFAULT_AGGS, VALUE_COLS, neighborhoods, skewed_workload

# Workload -> minimum passes per run. A polygons_l17 pass takes ~15 s,
# so its run needs more passes than --seconds alone would give it for
# every query's best to land in a fast phase of the shared host.
WORKLOADS = {"polygons_l17": 4, "cells_l17": 2, "percell_l17": 2}

SKEW_FRAC = 0.1
SKEW_REPS = 4  # the paper's Fig. 1/9 protocol: base set once, skew set x4
COUNT_KEY = ("passenger_count", "count")
# Sums are combined in a different order by every engine (raw tuples,
# header sums, cached sums), so they may differ in the last bits.
SUM_RTOL = 1e-9


@dataclass(frozen=True)
class Config:
    """One run's fixed parameters. The polygon seeds define which queries
    run, so they belong to the workload definition, not to ``seed``."""

    cache_dir: Path
    seed: int = 7
    hood_seed: int = 11
    skew_seed: int = 13
    sf: float = 0.1
    level: int = 17
    threshold: float = 0.05
    builds: int = 4
    seconds: float = 10.0


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int
    basis: str  # how the value was taken, e.g. "per-query best of 12 passes"


@dataclass
class Inputs:
    taxi: object  # pandas DataFrame of rides
    hoods: list  # neighborhood polygons
    coverings: list  # exterior covering (list of cell ids) per neighborhood
    skew: list  # neighborhood index of each skew-set polygon
    combined: list  # neighborhood index per position of the combined sequence
    refs: list  # BinarySearchEngine answer per neighborhood
    exact: list  # point-in-polygon count per neighborhood

    def check(self, h, ans) -> bool:
        return answer_ok(ans, self.refs[h], self.exact[h])


def answer_ok(ans, ref, exact_count) -> bool:
    """Counts and min/max must equal the reference, sums match within
    ``SUM_RTOL``, and the exterior COUNT may not undercount the polygon."""
    if ans is None or ans.keys() != ref.keys():
        return False
    for key, want in ref.items():
        got = ans[key]
        if key[1] == "sum":
            if not math.isclose(got, want, rel_tol=SUM_RTOL):
                return False
        elif got != want:
            return False
    return ans[COUNT_KEY] >= exact_count


def load_coverings(hoods, cfg):
    """Exterior coverings of ``hoods``, cached in ``cfg.cache_dir``.

    They depend only on the polygon seed, the level and the covering
    code, yet cost ~15 s per process; the cache key hashes all three so
    a change to ``s2lite`` or the polygon generator recomputes them.
    """
    import repro.s2lite
    import repro.workloads

    h = hashlib.sha256(f"{cfg.level}/{cfg.hood_seed}/{len(hoods)}".encode())
    for f in sorted(Path(repro.s2lite.__file__).parent.glob("*.py")):
        h.update(f.read_bytes())
    h.update(Path(repro.workloads.__file__).read_bytes())
    path = Path(cfg.cache_dir) / f"coverings-{h.hexdigest()[:16]}.npz"
    if path.exists():
        with np.load(path) as z:
            return [z[f"c{i}"].tolist() for i in range(len(hoods))]
    covs = [exterior_covering(p, cfg.level) for p in hoods]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.stem + f".{os.getpid()}.tmp.npz")
    np.savez(tmp, **{f"c{i}": np.asarray(c, dtype=np.int64) for i, c in enumerate(covs)})
    os.replace(tmp, path)
    return covs


def make_inputs(cfg) -> Inputs:
    taxi = nyc_taxi_pandas(sf=cfg.sf, seed=cfg.seed)
    hoods = neighborhoods(seed=cfg.hood_seed)
    pos = {id(p): i for i, p in enumerate(hoods)}
    skew = [pos[id(p)] for p in skewed_workload(hoods, frac=SKEW_FRAC, seed=cfg.skew_seed)]
    coverings = load_coverings(hoods, cfg)
    engine = BinarySearchEngine(extract_and_reorganize(taxi, VALUE_COLS), cfg.level)
    return Inputs(
        taxi=taxi,
        hoods=hoods,
        coverings=coverings,
        skew=skew,
        combined=list(range(len(hoods))) + skew * SKEW_REPS,
        refs=[engine.query_cells(c, DEFAULT_AGGS) for c in coverings],
        exact=exact_counts(taxi, hoods),
    )


def exact_counts(taxi, hoods):
    """Point-in-polygon count per polygon; rides outside a polygon's
    bounding box cannot be inside it, so only the box is tested."""
    pts = taxi[["dropoff_lon", "dropoff_lat"]]
    lon, lat = pts["dropoff_lon"].to_numpy(), pts["dropoff_lat"].to_numpy()
    out = []
    for p in hoods:
        b = p.bbox
        box = (lon >= b.lon_lo) & (lon <= b.lon_hi) & (lat >= b.lat_lo) & (lat <= b.lat_hi)
        out.append(int(exact_mask(pts[box], p).sum()))
    return out


# ---------------------------------------------------------------------------
# store set-up
# ---------------------------------------------------------------------------

class NullTracer:
    """Stands in for :class:`layers.Tracer` when a run is not traced."""

    def span(self, name):
        return nullcontext()


@dataclass
class Store:
    v1: GeoBlock
    v2: AdaptiveGeoBlock
    raw_bytes: int


def build_store(taxi, inputs, cfg, tracer) -> Store:
    """One full build: extract -> headers -> V2 -> training on the
    combined sequence -> AggregateTrie."""
    with tracer.span("core.raw.extract_and_reorganize"):
        raw = extract_and_reorganize(taxi, VALUE_COLS)
    with tracer.span("core.geoblock.build_from_raw"):
        v1 = GeoBlock.build_from_raw(raw, cfg.level)
    with tracer.span("core.geoblock.from_block"):
        v2 = AdaptiveGeoBlock.from_block(v1)
    with tracer.span("core.geoblock.train"):
        for h in inputs.combined:
            v2.query_cells(inputs.coverings[h], DEFAULT_AGGS)
    with tracer.span("core.agg_trie.build_aggregate_trie"):
        v2.build_aggregate_trie(cfg.threshold)
    return Store(v1=v1, v2=v2, raw_bytes=raw.size_bytes())


def _signature(store):
    b, trie = store.v1, store.v2.agg_trie
    return (b.keys, b.counts, b.offsets, trie.sorted_ids)


class CpuRotation:
    """Moves this process round its allowed CPUs, one second on each.

    Slow phases of a shared host hit one vCPU at a time, for seconds to
    minutes. A process left alone stays on its vCPU, so a whole run can
    sit in one slow phase. Moving between passes or builds lets a
    best-of figure see every CPU. Moving after every pass instead costs
    a cold cache on each move: 10-20% of ``cells_l17``'s passes.
    """

    SLICE_S = 1.0

    def __init__(self):
        self._cpus = sorted(os.sched_getaffinity(0))
        self._next = 0
        self._since = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self._cpus)

    def tick(self):
        """Call between passes or builds: moves on once the slice is up."""
        now = time.perf_counter()
        if self._since is None or now - self._since >= self.SLICE_S:
            os.sched_setaffinity(0, {self._cpus[self._next % len(self._cpus)]})
            self._next += 1
            self._since = now


def setup(inputs, cfg, tracer=NullTracer()):
    """``cfg.builds`` identical builds, each from a fresh copy of the
    rides. Returns the last store, the build times and the number of
    builds whose keys, counts, offsets or cached cells differ from the
    first build's."""
    times, first, failed, store = [], None, 0, None
    with CpuRotation() as cpus:
        for _ in range(cfg.builds):
            cpus.tick()
            rides = inputs.taxi.copy()
            store = None  # free the previous build before the next one
            with tracer.span("setup"):
                t0 = time.perf_counter()
                store = build_store(rides, inputs, cfg, tracer)
                times.append(time.perf_counter() - t0)
            del rides
            sig = _signature(store)
            if first is None:
                first = sig
            elif not all(np.array_equal(a, b) for a, b in zip(sig, first)):
                failed += 1
    return store, times, failed


# ---------------------------------------------------------------------------
# workloads and timing
# ---------------------------------------------------------------------------

def workload_ops(name, store, inputs):
    """The workload's fixed sequence as ``(neighborhood, call)`` pairs."""
    v2 = store.v2
    if name == "polygons_l17":
        return [(h, partial(v2.query_select, p, DEFAULT_AGGS)) for h, p in enumerate(inputs.hoods)]
    batch = name == "cells_l17"
    return [
        (h, partial(v2.query_cells, inputs.coverings[h], DEFAULT_AGGS, batch=batch))
        for h in inputs.combined
    ]


@dataclass
class Passes:
    times: np.ndarray  # seconds, shape (passes, len(sequence))
    attempted: int
    failed: int
    first: list  # answers of the first pass


def run_passes(ops, check, seconds, min_passes) -> Passes:
    """Replay ``ops`` in whole passes, moving round the CPUs, until
    ``seconds`` have elapsed and at least ``min_passes`` passes ran.
    Each call is timed alone; ``check(h, answer)`` runs outside the
    timed interval (``None`` skips checking, for calls that return
    nothing)."""
    rows, first, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    with CpuRotation() as cpus:
        while len(rows) < min_passes or time.perf_counter() - start < seconds:
            cpus.tick()
            row = []
            for h, call in ops:
                t0 = time.perf_counter()
                ans = call()
                row.append(time.perf_counter() - t0)
                if check is not None:
                    attempted += 1
                    failed += not check(h, ans)
                if not rows:
                    first.append(ans)
            rows.append(row)
    return Passes(np.array(rows), attempted, failed, first)


def best_of_passes(times) -> np.ndarray:
    """Per-query fastest time across passes: a slow phase of the host
    only ever adds time, so the minimum is the statistic it cannot
    inflate."""
    return np.asarray(times).min(axis=0)


def pass_spread(times) -> float:
    """Slowest / fastest whole-pass time; for display only."""
    totals = np.asarray(times).sum(axis=1)
    return float(totals.max() / totals.min())


def latency_metrics(times):
    best = best_of_passes(times)
    n, p = len(best), len(times)
    basis = f"per-query best of {p} passes"
    return [
        Metric("select_p50_ms", float(np.percentile(best, 50)) * 1e3, "ms", n, basis),
        Metric("select_p90_ms", float(np.percentile(best, 90)) * 1e3, "ms", n, basis),
        Metric("select_qps", n / float(best.sum()), "1/s", n, basis),
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name, inputs, cfg):
    """Untraced run: set-up, then the workload's passes. Returns the
    metrics, ops attempted and ops failed."""
    store, build_times, bad_builds = setup(inputs, cfg)
    ops = workload_ops(name, store, inputs)
    passes = run_passes(ops, inputs.check, cfg.seconds, WORKLOADS[name])
    n_hoods = len(inputs.hoods)
    # The first len(hoods) positions of every sequence are the base set.
    errs = [
        relative_count_error(ans[COUNT_KEY], inputs.exact[h])
        for (h, _), ans in zip(ops[:n_hoods], passes.first[:n_hoods])
    ]
    b = len(build_times)
    metrics = [
        Metric("setup_s", min(build_times), "s", b, f"best of {b} builds"),
        *latency_metrics(passes.times),
        Metric("count_rel_error", float(np.mean(errs)), "ratio", n_hoods, "mean over neighborhoods"),
        Metric(
            "bytes_per_input_byte", store.v2.size_bytes() / store.raw_bytes, "ratio", 1, "served build"
        ),
        Metric("peak_rss_mb", peak_rss_mb(), "MB", 1, "process peak at end of run"),
    ]
    return metrics, passes, passes.attempted + b, passes.failed + bad_builds
