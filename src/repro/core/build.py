"""Distributed GeoBlock construction as a Spark DataFrame pipeline.

The paper builds headers in a single pass over sorted columnar data; the
distributed-dataflow equivalent is a ``groupBy`` over the spatial grid
cell at the block level. Key materialization (lat/lon -> Hilbert point
key) runs as a vectorized pandas UDF; the cell id at any level is then a
pure Catalyst bitwise expression on the key (`(skey & -lsb) | lsb`, the
same lsb arithmetic the paper uses), so re-leveling a block never
re-reads lat/lon. CellBlock offsets — positions of each cell's first
tuple in the key-sorted raw data — come from a running sum window over
the sorted headers.

``geoblock_from_spark`` collects the (small) header relation into the
driver-side :class:`~repro.core.geoblock.GeoBlock` layout used by the
query benchmarks; the header DataFrame itself feeds the distributed
query path in :mod:`repro.core.spark_query`.
"""
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.types import LongType

from repro.core.geoblock import AdaptiveGeoBlock, GeoBlock
from repro.s2lite.cell import LAT_BOUNDS, LON_BOUNDS, MAX_LEVEL, point_keys_from_latlon

__all__ = [
    "with_spatial_key",
    "cell_expr",
    "build_headers_spark",
    "geoblock_from_spark",
]


def with_spatial_key(
    df: DataFrame,
    *,
    lat_col: str = "dropoff_lat",
    lon_col: str = "dropoff_lon",
    key_col: str = "skey",
) -> DataFrame:
    """Materialize the level-30 spatial point key as a column (the paper
    materializes the S2 key "to speed up repeated benchmarking runs").

    Rows outside ``LAT_BOUNDS`` x ``LON_BOUNDS`` are filtered out first,
    as :func:`~repro.core.raw.extract_and_reorganize` drops them. Spark
    orders NaN above every number and a comparison with null is null, so
    NaN and null rows fail the range test too."""

    @F.pandas_udf(LongType())
    def _key(lat: pd.Series, lon: pd.Series) -> pd.Series:
        return pd.Series(point_keys_from_latlon(lat.to_numpy(), lon.to_numpy()))

    lat, lon = F.col(lat_col), F.col(lon_col)
    return df.where(lat.between(*LAT_BOUNDS) & lon.between(*LON_BOUNDS)).withColumn(
        key_col, _key(lat, lon)
    )


def cell_expr(key_col: str, level: int):
    """Catalyst expression: cell id at ``level`` containing a point key."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} out of range")
    lsb = 1 << (2 * (MAX_LEVEL - level))
    return F.col(key_col).bitwiseAND(F.lit(-lsb)).bitwiseOR(F.lit(lsb))


def build_headers_spark(
    df: DataFrame, level: int, value_cols, *, key_col: str = "skey"
) -> DataFrame:
    """CellBlock-header relation: one row per non-empty grid cell.

    Schema: ``cell``, ``cnt``, ``offset``, and ``{col}__min/max/sum`` per
    value column, ordered by ``cell`` (empty cells are absent, as in the
    paper: "grid cells covering no tuples are omitted").

    The offset window runs un-partitioned over the header relation; that
    relation is small by construction (<= one row per occupied grid
    cell), which is the entire point of pre-aggregation, so the
    single-partition window is not a scalability concern.
    """
    aggs = [F.count(F.lit(1)).alias("cnt")]
    for c in value_cols:
        aggs += [
            F.min(c).alias(f"{c}__min"),
            F.max(c).alias(f"{c}__max"),
            F.sum(c).alias(f"{c}__sum"),
        ]
    hdr = df.groupBy(cell_expr(key_col, level).alias("cell")).agg(*aggs)
    w = Window.orderBy("cell").rowsBetween(Window.unboundedPreceding, -1)
    return (
        hdr.withColumn("offset", F.coalesce(F.sum("cnt").over(w), F.lit(0)))
        .orderBy("cell")
    )


def geoblock_from_spark(
    df: DataFrame,
    level: int,
    value_cols,
    *,
    key_col: str = "skey",
    adaptive: bool = False,
) -> GeoBlock:
    """Collect the header relation into the driver-side GeoBlock layout."""
    hdr = build_headers_spark(df, level, value_cols, key_col=key_col).toPandas()
    krange = df.agg(
        F.min(key_col).alias("kmin"), F.max(key_col).alias("kmax")
    ).first()
    aggs = {
        c: {
            "min": hdr[f"{c}__min"].to_numpy(dtype="float64"),
            "max": hdr[f"{c}__max"].to_numpy(dtype="float64"),
            "sum": hdr[f"{c}__sum"].to_numpy(dtype="float64"),
        }
        for c in value_cols
    }
    cls = AdaptiveGeoBlock if adaptive else GeoBlock
    return cls(
        level=level,
        keys=hdr["cell"].to_numpy(dtype="int64"),
        offsets=hdr["offset"].to_numpy(dtype="int64"),
        counts=hdr["cnt"].to_numpy(dtype="int64"),
        aggs=aggs,
        value_cols=list(value_cols),
        key_min=int(krange["kmin"]),
        key_max=int(krange["kmax"]),
    )
