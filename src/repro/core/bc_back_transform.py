"""Diamond-blocked bulge-chasing back transformation.

Section 6.2/8: applying the bulge-chasing reflectors to the eigenvector
matrix ("the back transformation in BC") dominates the eigenvector path
(61% of the proposed EVD) and is left as future work.  Reflector by
reflector it is ``~n^2/(2b)`` rank-1 updates of length ``b``, each
touching every column — pure BLAS2.

This module blocks it the way PLASMA/MAGMA block two-stage reflectors.
Reflector ``H(i, t)`` (sweep ``i``, chase step ``t``) acts on rows
``[i + 1 + t b, i + 1 + t b + b)``, so the reflectors of ``g``
consecutive sweeps ``I = {i0, ..., i0 + g - 1}`` at the same step ``t``
are shifted copies of one window, one row apart.  Their product

    B(I, t) = H(i0, t) H(i0 + 1, t) ... H(i0 + g - 1, t) = I - Y T Y^T

is one compact-WY block: ``Y`` is ``(b + g - 1) x g`` and diamond
shaped (column ``j`` holds the reflector of sweep ``i0 + j`` at rows
``j .. j + b - 1``), ``T`` is upper triangular.  Then

    Q1 = prod_{I ascending} prod_{t descending} B(I, t).

This order is exact for every ``g`` and every chase schedule, capped
``max_sweeps`` included.  Two facts carry it:

* one sweep's reflectors act on disjoint row windows (step ``t + 1``
  starts ``b`` rows after step ``t``), so they commute;
* where reflectors of two sweeps ``i < j`` overlap, sweep ``i``'s comes
  first in every valid chase (the chase of sweep ``j`` trails sweep
  ``i``).

Moving ``H(j, s)`` in front of ``H(i, t)`` with ``i < j`` and ``s > t``
is the only reordering the block product makes, and those two windows
are disjoint: ``j + 1 + s b >= i + 2 + (t + 1) b``.

:func:`diamond_blocks` builds all blocks at once from the stacked
reflector arrays (the compact-WY recurrence of LAPACK ``dlarft`` runs
batched over the blocks, and a missing or ``tau = 0`` reflector leaves
its column of ``T`` zero).  :meth:`DiamondBlocks.apply` then costs two
small GEMMs per block.  :func:`blocked_bc_back_time` prices the scheme
at device scale for the future-work benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..gpusim.device import DeviceSpec

__all__ = [
    "GROUP",
    "DiamondBlocks",
    "diamond_blocks",
    "blocked_bc_back_time",
]

#: Sweeps per diamond block, chosen by measurement: build plus apply to
#: an n x n matrix at the planner's bandwidth (single-threaded OpenBLAS,
#: Xeon) took 179/141/192/195 ms for g = 8/12/16/24 at n=1024, b=32, and
#: g = 12 was also fastest at n = 128..512 (within 5%).  Narrower blocks
#: mean more Python-level GEMM calls; wider ones carry more zeros.
GROUP = 12


@dataclass
class DiamondBlocks:
    """``Q1`` as compact-WY blocks in product order (leftmost first).

    Block ``k`` is ``I - W[k] Y[k]^T`` (``W = Y T``) on global rows
    ``[offsets[k], offsets[k] + rows[k])``; rows of ``Y``/``W`` past
    ``rows[k]`` fall outside the matrix and are zero.
    """

    offsets: np.ndarray  # (nb,) int64
    rows: np.ndarray  # (nb,) int64, clipped to n
    W: np.ndarray  # (nb, b + g - 1, g)
    Y: np.ndarray  # (nb, b + g - 1, g)

    @property
    def size(self) -> int:
        return self.offsets.size

    @property
    def width(self) -> int:
        return self.Y.shape[2]

    def apply(self, X: np.ndarray, transpose: bool = False) -> None:
        """In place ``X <- Q1 X`` (blocks in reverse order) or
        ``X <- Q1^T X`` (forward order, ``B^T = I - Y W^T``)."""
        # Work on row-major data: a block's row slab is then contiguous
        # (on a column-major X the same loop runs ~12x slower).
        Xc = np.ascontiguousarray(X)
        order = range(self.size) if transpose else range(self.size - 1, -1, -1)
        offsets, rows = self.offsets.tolist(), self.rows.tolist()
        for k in order:
            lo, r = offsets[k], rows[k]
            sub = Xc[lo : lo + r]
            W, Y = self.W[k, :r], self.Y[k, :r]
            if transpose:
                sub -= Y @ (W.T @ sub)
            else:
                sub -= W @ (Y.T @ sub)
        if Xc is not X:
            X[...] = Xc


def diamond_blocks(
    sweeps: np.ndarray,
    steps: np.ndarray,
    offsets: np.ndarray,
    V: np.ndarray,
    tau: np.ndarray,
    n: int,
    group: int = GROUP,
) -> DiamondBlocks:
    """Group stacked reflectors into the diamond blocks ``B(I, t)``.

    Row ``s`` of the inputs is ``H = I - tau[s] V[s] V[s]^T`` of sweep
    ``sweeps[s]``, step ``steps[s]``, on global rows ``[offsets[s],
    offsets[s] + V.shape[1])``; rows past ``n`` must hold zeros.  The
    row order of the inputs is irrelevant.
    """
    if group < 1:
        raise ValueError("group must be >= 1")
    K, L = V.shape
    m = L + group - 1
    if K == 0:
        none = np.zeros(0, dtype=np.int64)
        empty = np.zeros((0, m, group), dtype=V.dtype)
        return DiamondBlocks(none, none, empty, empty)
    col = sweeps % group
    # Block key in product order: sweep group ascending, step descending.
    nsteps = int(steps.max()) + 1
    key = (sweeps // group) * nsteps + (nsteps - 1 - steps)
    keys, blk = np.unique(key, return_inverse=True)
    nb = keys.size
    Y = np.zeros((nb, m, group), dtype=V.dtype)
    Y[blk[:, None], col[:, None] + np.arange(L), col[:, None]] = V
    T = np.zeros((nb, group, group), dtype=V.dtype)
    T[blk, col, col] = tau
    # Forward compact-WY recurrence (dlarft), batched over the blocks:
    # T[:c, c] = -tau_c T[:c, :c] Y[:, :c]^T y_c.
    G = np.matmul(Y.transpose(0, 2, 1), Y)
    for c in range(1, group):
        t_c = np.matmul(T[:, :c, :c], G[:, :c, c, None])[..., 0]
        T[:, :c, c] = -T[:, c, c, None] * t_c
    lo = np.empty(nb, dtype=np.int64)
    lo[blk] = offsets - col
    return DiamondBlocks(
        offsets=lo, rows=np.minimum(m, n - lo), W=np.matmul(Y, T), Y=Y
    )


def blocked_bc_back_time(
    device: DeviceSpec,
    n: int,
    b: int,
    group: int = GROUP,
    ncols: int | None = None,
) -> float:
    """Device-scale cost of the diamond-blocked BC back transformation.

    ``~n^2 / (2 b g)`` blocks of ``(b + g - 1)`` rows and width ``g``:
    the apply is two width-``g`` GEMMs per block (``2 n^2 ncols`` useful
    flops, inflated by the diamond's zero triangles to ``(b + g - 1) / b``
    of that), rated by the sustained-GEMM curve instead of the rank-1
    rate; building ``W = Y T`` adds ``~4 (b + g - 1) g^2`` per block.
    """
    from ..gpusim.roofline import sustained_gemm_tflops

    m_cols = ncols if ncols is not None else n
    rows = b + group - 1
    nblocks = float(n) ** 2 / (2.0 * b * group)
    apply = 4.0 * rows * group * m_cols * nblocks
    build = 4.0 * rows * group * group * nblocks
    rate = sustained_gemm_tflops(device, rows, m_cols, group) * 1e12
    build_rate = sustained_gemm_tflops(device, rows, group, group) * 1e12
    return apply / rate + build / max(build_rate, 1.0)
