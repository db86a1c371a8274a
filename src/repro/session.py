"""The one SparkSession configuration shared by the tests and the jobs."""
from __future__ import annotations

from pyspark.sql import SparkSession


def spark_session(app: str) -> SparkSession:
    """Get or create the local SparkSession.

    Master and driver memory are read at JVM launch, from
    ``PYSPARK_SUBMIT_ARGS`` or spark-submit. The configs set here are
    honoured after launch: 64 shuffle partitions, Arrow transfers, and no
    broadcast joins, so the joins exercise the shuffle path at this
    repository's small scales; a query that wants a broadcast join sets
    the threshold back itself.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
