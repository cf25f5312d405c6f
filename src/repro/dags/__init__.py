"""Task-graph generators: random DAGGEN-style DAGs, tiled linear algebra,
hand-built toys, and the paper's benchmark datasets.

numpy is an *optional* dependency of the library: the random generators
and the dataset builders import it on their first draw (via
:func:`repro._util.require_numpy`), so the package imports without it."""

from .daggen import assign_uniform_weights, daggen, daggen_layers, random_dag
from .datasets import (
    cholesky_set,
    huge_rand_set,
    large_rand_set,
    lu_set,
    small_rand_set,
    tiny_rand_set,
)
from .linalg import (
    DEFAULT_GPU_SPEEDUP,
    KERNEL_TIMES_MS,
    TILE_COMM_MS,
    TILE_SIZE,
    cholesky_dag,
    cholesky_task_counts,
    lu_dag,
    lu_task_counts,
)
from .toy import chain, dex, diamond, fork_join, random_weights_graph

__all__ = [
    "daggen",
    "daggen_layers",
    "assign_uniform_weights",
    "random_dag",
    "small_rand_set",
    "tiny_rand_set",
    "large_rand_set",
    "huge_rand_set",
    "lu_set",
    "cholesky_set",
    "lu_dag",
    "lu_task_counts",
    "cholesky_dag",
    "cholesky_task_counts",
    "KERNEL_TIMES_MS",
    "DEFAULT_GPU_SPEEDUP",
    "TILE_COMM_MS",
    "TILE_SIZE",
    "dex",
    "chain",
    "diamond",
    "fork_join",
    "random_weights_graph",
]
