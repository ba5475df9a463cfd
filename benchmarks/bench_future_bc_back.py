"""Future work (Section 8) — blocked bulge-chasing back transformation.

The paper leaves the BC back transformation (61% of the eigenvector path)
as future work.  This repo ships the diamond-blocked fix on the default
path: the reflectors of ``g`` consecutive sweeps at one chase step form
one compact-WY block of ``(b + g - 1)`` rows and width ``g``, applied as
two small GEMMs (``repro.core.bc_back_transform``).

``[simulated]`` — device-scale cost vs group width, and the resulting
end-to-end EVD.  Width-``g`` GEMMs sit far below the device's inner-
dimension saturation, so the model keeps the paper's ``k = b`` device
scheme ahead; merging diamonds to width ``k`` is what would close it.
``[measured]`` — the shipped ``apply_q1`` against the reflector-by-
reflector product: exactness and laptop wall time.
"""

from __future__ import annotations

import numpy as np

from repro.band.ops import random_symmetric_band
from repro.bench.reporting import banner
from repro.core.bc_back_transform import GROUP, blocked_bc_back_time
from repro.core.bulge_chasing import bulge_chase
from repro.gpusim import H100
from repro.models.baselines import bc_back_transform_time
from repro.models.proposed import proposed_evd_times

N, B = 49152, 32
GROUPS = [8, 16, 32, 64, 128, 256]


def apply_reflector_by_reflector(bc, X: np.ndarray) -> None:
    """``X <- Q1 X`` one rank-1 update per logged reflector (reverse
    commit order) — the unblocked scheme the paper measures."""
    for r in sorted(bc.reflectors, key=lambda r: r.seq, reverse=True):
        sub = X[r.offset : r.offset + r.v.size]
        sub -= np.outer(r.tau * r.v, r.v @ sub)


def test_future_blocked_bcback_simulated(benchmark, report):
    scalar = bc_back_transform_time(H100, N, B)
    rows = benchmark(
        lambda: [(g, blocked_bc_back_time(H100, N, B, g)) for g in GROUPS]
    )
    report(banner("Future work: diamond-blocked BC back transformation (H100)",
                  "simulated"))
    report(f"  paper's scheme (k = b device GEMMs): {scalar:7.1f} s")
    for g, t in rows:
        mark = "  <- beats the paper's scheme" if t < scalar else ""
        report(f"  diamond width {g:4d}: {t:7.1f} s{mark}")
    best_g, best = min(rows, key=lambda r: r[1])
    evd_today = proposed_evd_times(H100, N, True)
    with_best = evd_today.total - evd_today.stages["bc_back"] + best
    report(f"  proposed EVD (vectors) today: {evd_today.total:6.1f} s "
           f"(bc_back {evd_today.fraction('bc_back'):.0%})")
    report(f"  with diamond width {best_g}:      {with_best:6.1f} s "
           f"({evd_today.total / with_best:.2f}x end-to-end)")
    # Shape: cost falls with width until the diamond's zero triangles
    # dominate, and width-g GEMMs never reach the k = b device rate.
    assert GROUPS[0] < best_g < GROUPS[-1]
    assert best > scalar


def test_future_blocked_bcback_measured(benchmark, report):
    """Real numerics: the shipped ``apply_q1`` (block build included)
    matches the reflector-by-reflector product."""
    n, b = 200, 4
    A = random_symmetric_band(n, b, np.random.default_rng(60))
    bc = bulge_chase(A, b)
    X = np.eye(n)

    def run():
        Y = X.copy()
        bc.apply_q1(Y)
        return Y

    Y_blocked = benchmark(run)
    Y_scalar = X.copy()
    apply_reflector_by_reflector(bc, Y_scalar)
    err = np.max(np.abs(Y_blocked - Y_scalar))
    report(banner("Future work (measured): diamond-blocked vs scalar Q1",
                  "measured"))
    report(f"  n={n}, b={b}, g={GROUP}, reflectors={len(bc.reflectors)}, "
           f"blocks={bc.q1_blocks().size}")
    report(f"  max deviation blocked vs scalar: {err:.2e}")
    assert err < 1e-12


def test_future_scalar_bcback_measured(benchmark):
    """Reflector-by-reflector reference for the pytest-benchmark
    comparison."""
    n, b = 200, 4
    A = random_symmetric_band(n, b, np.random.default_rng(60))
    bc = bulge_chase(A, b)
    X = np.eye(n)

    def run():
        Y = X.copy()
        apply_reflector_by_reflector(bc, Y)
        return Y

    benchmark(run)
