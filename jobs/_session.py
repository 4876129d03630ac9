"""Shared spark-submit session builder for the job entrypoints.

Jobs are runnable both under ``spark-submit jobs/<name>.py`` and as
plain ``python jobs/<name>.py`` (the driver-side experiments ignore the
session entirely; only the distributed jobs actually use it).
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def get_spark(app_name: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    # Jobs print result tables; keep Spark's warnings out of them.
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def bench_sf() -> float:
    return float(os.environ.get("REPRO_SF", "0.1"))
