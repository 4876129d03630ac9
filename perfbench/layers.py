"""The traced run: spans around calls into each layer, per-layer metrics.

Spans are recorded from the benchmark's own code, around the program's
public functions; nothing inside ``src/`` is instrumented. The traced
run is separate from the measured runs, and no end-to-end metric is
taken from it.
"""
import json
import os
import subprocess
import tempfile
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

import repro.core.geoblock as geoblock_mod
from repro.core.stats_trie import StatsTrie
from repro.s2lite.cell import point_keys_from_latlon
from repro.workloads import DEFAULT_AGGS, VALUE_COLS

from harness import (
    Metric,
    answer_ok,
    best_of_passes,
    latency_metrics,
    run_passes,
    setup,
    workload_ops,
)

SWEEP_PASSES = 3  # passes of each standalone layer call
SPARK_POLYGONS = 40  # first 40 neighborhoods: the Manhattan fine grid


class Tracer:
    """In-memory spans: ``[name, parent, op, start_ns, end_ns]``.

    A span opened with no enclosing span starts a new op, whose id is
    its own index; nested spans inherit the op id.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        sid = len(self.spans)
        op = self.spans[parent][2] if parent is not None else sid
        rec = [name, parent, op, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            rec[4] = time.perf_counter_ns()
            self._open.pop()

    def durations_ms(self, name):
        return [(s[4] - s[3]) / 1e6 for s in self.spans if s[0] == name]

    def self_ns(self):
        """Span duration minus the time its child spans cover."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[4] - s[3]
        return own

    def dump(self, path):
        keys = ("name", "parent", "op", "start_ns", "end_ns")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


@contextmanager
def traced_covering(tracer):
    """Wrap the covering function GeoBlock.cover calls, so that every
    covering inside a timed op shows up as a span under it."""
    orig = geoblock_mod.exterior_covering

    def cover(*args, **kwargs):
        with tracer.span("s2lite.covering"):
            return orig(*args, **kwargs)

    geoblock_mod.exterior_covering = cover
    try:
        yield
    finally:
        geoblock_mod.exterior_covering = orig


def traced_ops(name, store, inputs, tracer):
    """The workload's ops with a span per op and per layer call. On
    ``polygons_l17`` this is ``cover`` then ``query_cells``, exactly what
    ``query_select`` does."""
    v2 = store.v2

    def polygon_op(poly):
        with tracer.span(name):
            cells = v2.cover(poly)
            with tracer.span("core.geoblock.query_cells"):
                return v2.query_cells(cells, DEFAULT_AGGS)

    def cells_op(cells, batch):
        with tracer.span(name):
            with tracer.span("core.geoblock.query_cells"):
                return v2.query_cells(cells, DEFAULT_AGGS, batch=batch)

    if name == "polygons_l17":
        return [(h, partial(polygon_op, p)) for h, p in enumerate(inputs.hoods)]
    batch = name == "cells_l17"
    return [(h, partial(cells_op, inputs.coverings[h], batch)) for h in inputs.combined]


def _p50(times, scale):
    return float(np.percentile(best_of_passes(times), 50)) * scale


def layer_sweep(store, inputs, tracer):
    """Standalone calls of the layers that sit inside V2 ``query_cells``
    (V1 combine, StatsTrie recording, per-cell V2 by stream), on the
    combined sequence's coverings. Returns metrics, attempted, failed."""
    v1, v2, seq = store.v1, store.v2, inputs.combined
    covs = [inputs.coverings[h] for h in seq]
    metrics, attempted, failed = [], 0, 0
    basis = f"per-query best of {SWEEP_PASSES} passes"

    def sweep(label, ops, check):
        nonlocal attempted, failed
        with tracer.span(label):
            p = run_passes(ops, check, 0.0, SWEEP_PASSES)
        attempted += p.attempted
        failed += p.failed
        return p.times

    for batch, label in ((True, "v1_batch"), (False, "v1_percell")):
        ops = [(h, partial(v1.query_cells, c, DEFAULT_AGGS, batch=batch)) for h, c in zip(seq, covs)]
        t = sweep(f"core.geoblock.{label}", ops, inputs.check)
        metrics.append(Metric(f"{label}.p50_us", _p50(t, 1e6), "us", len(seq), basis))

    scanned = []
    for c in covs:
        c = np.asarray(c, dtype=np.int64)
        lsb = c & -c
        i0 = v1.keys.searchsorted(c - lsb + 1, side="left")
        i1 = v1.keys.searchsorted(c + lsb - 1, side="right")
        scanned.append(int((i1 - i0).sum()))
    metrics.append(
        Metric("headers_scanned.per_query", float(np.mean(scanned)), "count", len(seq), "V1, mean over sequence")
    )

    scratch = StatsTrie(v1.key_min, v1.key_max)
    ops = [(h, partial(scratch.record_many, c)) for h, c in zip(seq, covs)]
    t = sweep("core.stats_trie.record_many", ops, None)
    metrics.append(Metric("record_many.p50_us", _p50(t, 1e6), "us", len(seq), basis))

    ops = [(h, partial(v2.query_cells, c, DEFAULT_AGGS, batch=False)) for h, c in zip(seq, covs)]
    t = sweep("core.geoblock.v2_percell", ops, inputs.check)
    n_base = len(inputs.hoods)
    metrics += [
        Metric("percell.base_p50_ms", _p50(t[:, :n_base], 1e3), "ms", n_base, basis),
        Metric("percell.skew_p50_ms", _p50(t[:, n_base:], 1e3), "ms", len(seq) - n_base, basis),
    ]

    lats = inputs.taxi["dropoff_lat"].to_numpy()
    lons = inputs.taxi["dropoff_lon"].to_numpy()
    with tracer.span("s2lite.cell.point_keys_from_latlon"):
        p = run_passes([(None, partial(point_keys_from_latlon, lats, lons))], None, 0.0, SWEEP_PASSES)
    metrics.append(
        Metric("point_keys.ms", float(p.times.min()) * 1e3, "ms", len(lats), f"best of {SWEEP_PASSES} calls")
    )

    sorted_ids = v2.agg_trie.sorted_ids
    for stream, hoods in (("base", range(n_base)), ("skew", inputs.skew)):
        cells = np.concatenate([np.asarray(inputs.coverings[h], dtype=np.int64) for h in hoods])
        metrics.append(
            Metric(f"trie.hit_ratio_{stream}", float(np.isin(cells, sorted_ids).mean()), "ratio", len(cells),
                   "covering cells cached in the trie")
        )
    return metrics, attempted, failed


def _spark_session(cache_dir, root):
    """Local Spark with quiet logs, no UI, and every scratch file inside
    the checkout. Workers import ``repro`` from the checkout's ``src``."""
    from pyspark.sql import SparkSession

    tmp = (Path(cache_dir) / "spark-tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    src = str(Path(root) / "src")
    os.environ.update(
        PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ),
        TMPDIR=str(tmp),
        SPARK_LOCAL_DIRS=str(tmp),
        # Every JVM Spark starts, the launcher included: no /tmp/hsperfdata.
        JAVA_TOOL_OPTIONS=f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}",
    )
    cores = min(2, os.cpu_count() or 1)
    spark = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark):
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def spark_stage(store, inputs, cfg, tracer, root):
    """The Spark build (key UDF, header groupBy, collect) and the Spark
    header query, once each. Returns metrics, attempted, failed."""
    from repro.core.build import build_headers_spark, geoblock_from_spark, with_spatial_key
    from repro.core.spark_query import agg_aliases, query_headers_spark, ranges_for_polygons

    metrics, attempted, failed = [], 0, 0
    spark = _spark_session(cfg.cache_dir, root)
    try:
        df = spark.createDataFrame(inputs.taxi)

        def timed(name, fn):
            with tracer.span(name):
                t0 = time.perf_counter()
                out = fn()
                metrics.append(Metric(name, time.perf_counter() - t0, "s", 1, "one run"))
            return out

        keyed = with_spatial_key(df).cache()
        timed("spark.key_udf_s", keyed.count)
        headers = build_headers_spark(keyed, cfg.level, VALUE_COLS).cache()
        n_rows = timed("spark.build_headers_s", headers.count)
        metrics.append(Metric("spark.header_rows", float(n_rows), "count", 1, "header relation rows"))
        blk = timed("spark.geoblock_from_spark_s", partial(geoblock_from_spark, keyed, cfg.level, VALUE_COLS))
        attempted += 1
        failed += not all(
            np.array_equal(getattr(blk, a), getattr(store.v1, a)) for a in ("keys", "counts", "offsets")
        )

        polys = inputs.hoods[:SPARK_POLYGONS]
        ranges = ranges_for_polygons(spark, polys, cfg.level).cache()
        metrics.append(Metric("spark.range_rows", float(ranges.count()), "count", 1, f"{len(polys)} polygons"))
        rows = timed("spark.query_headers_s", query_headers_spark(headers, ranges, DEFAULT_AGGS).collect)
        names = agg_aliases(DEFAULT_AGGS)
        got = {r["qid"]: r for r in rows}
        for qid in range(len(polys)):
            attempted += 1
            r = got.get(qid)
            ans = None if r is None else {
                k: (float(r[n]) if k[1] != "count" else int(r[n])) for k, n in zip(DEFAULT_AGGS, names)
            }
            failed += not answer_ok(ans, inputs.refs[qid], inputs.exact[qid])
        for d in (ranges, headers, keyed):
            d.unpersist()
    finally:
        _stop_spark(spark)
    return metrics, attempted, failed


def _ops_named(tracer, name, first):
    return {i for i in range(first, len(tracer.spans)) if tracer.spans[i][0] == name}


def traced_run(name, inputs, cfg, root):
    """Set-up and the workload with spans, the standalone layer sweep and
    the Spark stage. Returns metrics, attempted, failed, the tracer and
    the workload's pass times (untraced, traced)."""
    tracer = Tracer()
    store, build_times, failed = setup(inputs, cfg, tracer)
    attempted = len(build_times)
    metrics = []
    b = len(build_times)
    for span, metric in (
        ("core.raw.extract_and_reorganize", "extract.ms"),
        ("core.geoblock.build_from_raw", "build_from_raw.ms"),
        ("core.agg_trie.build_aggregate_trie", "build_aggregate_trie.ms"),
    ):
        metrics.append(Metric(metric, min(tracer.durations_ms(span)), "ms", b, f"best of {b} builds"))
    v2, trie = store.v2, store.v2.agg_trie
    metrics += [
        Metric("headers.n", float(store.v1.n_cells), "count", 1, "served build"),
        Metric("stats.cells_tracked", float(len(v2.stats.hits)), "count", 1, "after training"),
        Metric("trie.cached_cells", float(len(trie)), "count", 1, "served build"),
        Metric("trie.bytes", float(trie.size_bytes()), "bytes", 1, "served build"),
        Metric("trie.budget_bytes", float(trie.budget_bytes), "bytes", 1, "served build"),
    ]

    # A quarter of --seconds untraced, a quarter traced (their ratio is the
    # tracing cost), leaving room for the sweep and Spark in the run limit.
    phase_s = cfg.seconds / 4
    plain = run_passes(workload_ops(name, store, inputs), inputs.check, phase_s, 1)
    with traced_covering(tracer):
        first = len(tracer.spans)
        traced = run_passes(traced_ops(name, store, inputs, tracer), inputs.check, phase_s, 1)
        op_ids = _ops_named(tracer, name, first)
        in_ops = sum(1 for s in tracer.spans[first:] if s[0] == "s2lite.covering" and s[2] in op_ids)
        # The polygon path (cover, then query_cells, as query_select does)
        # is traced on every workload; on polygons_l17 it is the workload.
        poly_ids = op_ids
        if name != "polygons_l17":
            first = len(tracer.spans)
            p = run_passes(traced_ops("polygons_l17", store, inputs, tracer), inputs.check, 0.0, 1)
            attempted += p.attempted
            failed += p.failed
            poly_ids = _ops_named(tracer, "polygons_l17", first)
    attempted += plain.attempted + traced.attempted
    failed += plain.failed + traced.failed

    own = tracer.self_ns()
    cover = [i for i, s in enumerate(tracer.spans) if s[0] == "s2lite.covering" and s[2] in poly_ids]
    op_ns = sum(tracer.spans[i][4] - tracer.spans[i][3] for i in poly_ids)
    cover_ms = [(tracer.spans[i][4] - tracer.spans[i][3]) / 1e6 for i in cover]
    metrics += [
        Metric("covering.p50_ms", float(np.percentile(cover_ms, 50)), "ms", len(cover_ms),
               "covering spans of polygon ops"),
        Metric("covering.share", sum(own[i] for i in cover) / op_ns, "ratio", len(poly_ids),
               "covering self time / polygon op time"),
        Metric("covering.calls_per_op", in_ops / len(op_ids), "count", len(op_ids),
               f"covering calls inside timed {name} ops"),
        Metric(
            "covering.cells_per_polygon",
            float(np.mean([len(c) for c in inputs.coverings])),
            "count",
            len(inputs.coverings),
            "mean over neighborhoods",
        ),
    ]
    ratio = latency_metrics(traced.times)[0].value / latency_metrics(plain.times)[0].value
    metrics.append(
        Metric("trace.overhead", ratio, "ratio", traced.times.shape[1],
               f"traced/untraced select_p50_ms, {len(traced.times)}/{len(plain.times)} passes")
    )

    m, a, f = layer_sweep(store, inputs, tracer)
    metrics += m
    attempted += a
    failed += f
    m, a, f = spark_stage(store, inputs, cfg, tracer, root)
    metrics += m
    attempted += a
    failed += f
    return metrics, attempted, failed, tracer, (plain.times, traced.times)
