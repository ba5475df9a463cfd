"""Per-layer numbers of the traced run.

Layer times are span self times, summed per span name and divided by
the number of traced operations.  GFLOP/s use the program's own
operation counts (``repro.models.flops``) and bytes are the operands'
compulsory traffic (read once, written once); both are *computed*, not
hardware counters.  Each layer is also timed against a LAPACK routine
doing the same work on the same input, reported as a ``*.vs_lapack``
ratio (program time over LAPACK time; 0 where the layer did not run).
"""

from __future__ import annotations

import time

import numpy as np
from repro.models import flops as F
from scipy.linalg import blas, lapack

#: Span name -> per-layer metric it feeds (seconds per operation).
SPAN_METRIC = {
    "band_reduction": "core.band_reduction.self_s",
    "bulge_chasing": "core.bulge_chasing.self_s",
    "apply_q1": "core.apply_q1.self_s",
    "apply_sbr_q": "core.apply_sbr_q.self_s",
    "dc_leaf": "eig.dc.leaf_s",
    "dc_secular": "eig.dc.secular_s",
    "dc_deflate": "eig.dc.deflate_s",
    "dc_gemm": "eig.dc.gemm_s",
    "plan_evd": "plan.plan_evd_s",
    "verify_evd": "resilience.verify_s",
    "refine_evd": "precision.refine_s",
}

#: Every per-layer metric the traced run prints, with its unit.
METRICS = {
    "core.band_reduction.self_s": "s",
    "core.band_reduction.gflops": "GFLOP/s",
    "core.bulge_chasing.self_s": "s",
    "core.bulge_chasing.gflops": "GFLOP/s",
    "core.syr2k.gflops": "GFLOP/s",
    "core.syr2k.vs_lapack": "ratio",
    "core.tridiagonalize.vs_lapack": "ratio",
    "core.apply_q1.self_s": "s",
    "core.apply_q1.gflops": "GFLOP/s",
    "core.apply_sbr_q.self_s": "s",
    "core.apply_sbr_q.gflops": "GFLOP/s",
    "core.back_transform.vs_lapack": "ratio",
    "eig.dc.leaf_s": "s",
    "eig.dc.secular_s": "s",
    "eig.dc.deflate_s": "s",
    "eig.dc.gemm_s": "s",
    "eig.dc.deflation_fraction": "ratio",
    "eig.dc.vs_lapack": "ratio",
    "eigh.vs_lapack": "ratio",
    "plan.plan_evd_s": "s",
    "serve.queue_wait_s_p50": "s",
    "serve.queue_wait_s_p95": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.batch_size_mean": "count",
    "resilience.verify_s": "s",
    "resilience.escalations_per_op": "ratio",
    "resilience.first_try_ok_ratio": "ratio",
    "resilience.fallback_exhausted": "count",
    "precision.refine_s": "s",
    "precision.refine_iterations_mean": "count",
    "precision.escalations": "count",
    "backend.workspace_bytes": "B",
    "trace.overhead_s": "s",
    "trace.top_level_coverage": "ratio",
}


def stage_cost(name: str, n: int, b: int, k: int, vectors: bool) -> tuple[float, float]:
    """Computed ``(flops, bytes)`` of one pipeline stage at ``(n, b, k)``;
    ``(0, 0)`` for spans without a model."""
    w = 8.0  # float64
    if name == "band_reduction":
        return F.dbbr_flops(n, b, k), w * 2 * n * n
    if name == "bulge_chasing":
        # band in and out, plus the ~n^2/(2b) length-b reflectors out
        return F.bulge_chasing_flops(n, b), w * (2 * n * (b + 1) + n * n / 2)
    if name == "apply_q1":
        return F.bc_back_transform_flops(n, b, n), w * (2 * n * n + n * n / 2)
    if name == "apply_sbr_q":
        return F.sbr_back_transform_flops(n, n), w * 3 * n * n
    if name == "tridiag_solver":
        return F.stedc_flops(n, vectors), w * (n * n if vectors else 2 * n)
    if name == "syr2k":
        return F.syr2k_flops(n, k), w * (2 * n * n + 2 * n * k)
    return 0.0, 0.0


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def lapack_pipeline(A: np.ndarray, d, e, vectors: bool) -> dict[str, float]:
    """LAPACK seconds for the pipeline's layers on the same input:
    ``dsytrd`` (tridiagonalization), ``dstevd`` on the program's own
    tridiagonal (the D&C solve) and, with vectors, ``dormqr`` applying
    the ``dsytrd`` reflectors to an ``n x n`` matrix (``dormtr``'s work,
    which SciPy does not expose)."""
    out = {}
    t0 = time.perf_counter()
    c, _, _, tau, info = lapack.dsytrd(A, lower=1)
    out["tridiagonalize"] = time.perf_counter() - t0
    if info != 0:
        raise RuntimeError(f"dsytrd info={info}")
    out["dc"] = _timed(lapack.dstevd, d, e, compute_v=int(vectors))
    if vectors:
        n = A.shape[0]
        X = np.eye(n)
        lwork = int(lapack.dormqr("L", "N", c[1:, : n - 1], tau, X[1:], -1)[1][0])
        out["back_transform"] = _timed(
            lapack.dormqr, "L", "N", c[1:, : n - 1], tau, X[1:], lwork, overwrite_c=1
        )
    return out


def syr2k_pair(C: np.ndarray, Y: np.ndarray, Z: np.ndarray, reps: int = 3) -> tuple[float, float]:
    """Median seconds of the program's square-block ``syr2k`` and of BLAS
    ``dsyr2k`` for one ``C - Y Z^T - Z Y^T`` update."""
    from repro.core import syr2k_square_blocked

    ours = [_timed(syr2k_square_blocked, C.copy(), Y, Z, alpha=-1.0) for _ in range(reps)]
    ref = [_timed(blas.dsyr2k, -1.0, Y, Z, beta=1.0, c=C, lower=1) for _ in range(reps)]
    return float(np.median(ours)), float(np.median(ref))


def blas_info() -> dict:
    """The BLAS NumPy and SciPy linked, and the thread pin in force."""
    import os

    import scipy

    from env import BLAS_THREAD_VARS

    info: dict = {"threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}
    for lib in (np, scipy):
        try:
            cfg = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # no dict-mode show_config
            continue
        info[lib.__name__] = {
            key: cfg.get(key) for key in ("name", "version", "openblas configuration")
        }
    return info
