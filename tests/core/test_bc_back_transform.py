"""Tests for the diamond-blocked BC back transformation.

Every application is checked against an oracle built here from the
reflector log alone: ``Q1 = H_1 H_2 ... H_K`` in commit (``seq``)
order, one dense reflector at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.band.ops import random_symmetric_band
from repro.core.bc_back_transform import (
    GROUP,
    blocked_bc_back_time,
    diamond_blocks,
)
from repro.core.bc_pipeline import bulge_chase_pipelined
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.core.bulge_chasing import bulge_chase
from repro.gpusim import H100
from repro.models.baselines import bc_back_transform_time


def dense_q1(bc) -> np.ndarray:
    """``Q1`` as the seq-ordered product of the logged reflectors."""
    Q = np.eye(bc.n)
    for r in sorted(bc.reflectors, key=lambda r: r.seq):
        v = r.v.astype(np.float64)
        cols = Q[:, r.offset : r.offset + v.size]
        cols -= np.outer(cols @ v, r.tau * v)
    return Q


def blocks_of(bc, group: int):
    return diamond_blocks(*bc.stacked_reflectors(), n=bc.n, group=group)


def assert_matches_oracle(bc, X, atol=1e-12):
    Q = dense_q1(bc)
    Y = X.copy()
    bc.apply_q1(Y)
    assert np.allclose(Y, Q @ X, atol=atol)
    Y = X.copy()
    bc.apply_q1_transpose(Y)
    assert np.allclose(Y, Q.T @ X, atol=atol)


@pytest.fixture
def chase(rng):
    n, b = 36, 4
    A = random_symmetric_band(n, b, rng)
    return n, b, bulge_chase(A, b)


class TestBlocking:
    @pytest.mark.parametrize("group", [1, 2, 4, 8, 64])
    def test_matches_scalar_application(self, chase, rng, group):
        n, _, bc = chase
        X = rng.standard_normal((n, 6))
        Y = X.copy()
        blocks_of(bc, group).apply(Y)
        assert np.allclose(Y, dense_q1(bc) @ X, atol=1e-12)

    def test_transpose_matches(self, chase, rng):
        n, _, bc = chase
        X = rng.standard_normal((n, 3))
        Y = X.copy()
        blocks_of(bc, 4).apply(Y, transpose=True)
        assert np.allclose(Y, dense_q1(bc).T @ X, atol=1e-12)

    def test_blocked_q_is_orthogonal(self, chase):
        n, _, bc = chase
        Q = np.eye(n)
        blocks_of(bc, 8).apply(Q)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) < 1e-11

    def test_group_one_is_one_block_per_reflector(self, chase):
        _, _, bc = chase
        blocks = blocks_of(bc, 1)
        assert blocks.size == len(bc.reflectors)
        assert blocks.width == 1

    def test_groups_cross_sweeps_not_steps(self, chase):
        # A group wider than the sweep count puts every sweep in one
        # diamond per chase step.
        _, _, bc = chase
        blocks = blocks_of(bc, 1000)
        assert blocks.size == 1 + max(r.step for r in bc.reflectors)

    def test_block_row_spans_are_contiguous_windows(self, chase):
        n, b, bc = chase
        g = 4
        blocks = blocks_of(bc, g)
        assert blocks.Y.shape[1:] == (b + g - 1, g)
        assert (blocks.rows <= b + g - 1).all()
        assert (blocks.offsets + blocks.rows <= n).all()
        # Diamond shape: column j lives on rows j .. j + b - 1.
        i = np.arange(b + g - 1)[:, None]
        j = np.arange(g)[None, :]
        outside = (i < j) | (i >= j + b)
        assert not blocks.Y[:, outside].any()

    def test_invalid_group(self, chase):
        _, _, bc = chase
        with pytest.raises(ValueError):
            blocks_of(bc, 0)

    def test_empty_reflector_log(self, rng):
        A = random_symmetric_band(10, 1, rng)
        bc = bulge_chase(A, 1)
        assert blocks_of(bc, 4).size == 0
        X = rng.standard_normal((10, 2))
        Y = X.copy()
        bc.apply_q1(Y)
        assert np.array_equal(X, Y)

    def test_pipelined_log_groups_and_stays_exact(self, rng):
        """The pipelined chase records reflectors in interleaved order;
        the blocks only read sweep and step, so they compress the log
        just as well and stay exact."""
        n, b = 48, 4
        A = random_symmetric_band(n, b, rng)
        bc, _ = bulge_chase_pipelined(A, b)
        assert blocks_of(bc, 16).size < len(bc.reflectors) / 3
        assert_matches_oracle(bc, rng.standard_normal((n, 4)))


GRID = [
    (n, b, cap)
    for n in (3, 4, 5, 17, 33, 64, 200)
    for b in (2, 3, 4, 8, 16)
    if b < n
    for cap in (None, 2, 3)
]


class TestOracleGrid:
    @pytest.mark.parametrize("n,b,max_sweeps", GRID)
    def test_wavefront_q1_matches_oracle(self, n, b, max_sweeps):
        rng = np.random.default_rng(1000 * n + 10 * b + (max_sweeps or 0))
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A, b, max_sweeps=max_sweeps)
        assert_matches_oracle(wf, rng.standard_normal((n, 5)))
        Q = np.eye(n)
        wf.apply_q1(Q)
        eps = np.finfo(np.float64).eps
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= 100 * n * eps

    @pytest.mark.parametrize("n,b", [(17, 3), (64, 8), (200, 16)])
    def test_scalar_log_q1_matches_oracle(self, n, b):
        rng = np.random.default_rng(n + b)
        bc = bulge_chase(random_symmetric_band(n, b, rng), b)
        assert_matches_oracle(bc, rng.standard_normal((n, 5)))

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_group_wider_than_band(self, rng, b):
        n = 40
        wf, _ = bulge_chase_wavefront(random_symmetric_band(n, b, rng), b)
        for g in (GROUP, 2 * b + 1, n):
            assert g > b
            X = rng.standard_normal((n, 3))
            Y = X.copy()
            blocks_of(wf, g).apply(Y)
            assert np.allclose(Y, dense_q1(wf) @ X, atol=1e-12)


class TestZeroTau:
    def test_already_tridiagonal_input(self, rng):
        # Chased at b = 3, a tridiagonal matrix has nothing to
        # annihilate: every reflector has tau = 0 and Q1 = I.
        n = 20
        wf, _ = bulge_chase_wavefront(random_symmetric_band(n, 1, rng), 3)
        assert wf.num_reflectors > 0
        assert all(r.tau == 0.0 for r in wf.reflectors)
        X = rng.standard_normal((n, 3))
        assert_matches_oracle(wf, X)
        Y = X.copy()
        wf.apply_q1(Y)
        assert np.array_equal(X, Y)

    def test_zero_band_column(self, rng):
        # Column 0 has nothing below the subdiagonal, so sweep 0 chases
        # nothing (tau = 0) while the later sweeps do real work.
        n, b = 30, 4
        A = random_symmetric_band(n, b, rng)
        A[2:, 0] = A[0, 2:] = 0.0
        wf, _ = bulge_chase_wavefront(A, b)
        taus = [r.tau for r in wf.reflectors]
        assert 0.0 in taus and any(taus)
        assert_matches_oracle(wf, rng.standard_normal((n, 4)))


class TestMixedPrecision:
    def test_fp32_reflectors_stay_fp32(self, rng):
        n = 80
        g = rng.standard_normal((n, n))
        res = repro.eigh((g + g.T) / 2, precision="mixed", bandwidth=4, second_block=8)
        bc = res.tridiag.bc_result
        blocks = bc.q1_blocks()
        assert blocks.Y.dtype == blocks.W.dtype == np.float32
        X = np.eye(n, dtype=np.float32)
        bc.apply_q1(X)
        assert X.dtype == np.float32
        assert np.allclose(X, dense_q1(bc), atol=1e-5)


class TestLaziness:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count diamond-block builds made by the bulge-chasing results."""
        import repro.core.bulge_chasing as bc_mod

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return diamond_blocks(*args, **kwargs)

        monkeypatch.setattr(bc_mod, "diamond_blocks", counting)
        return calls

    def test_values_only_paths_build_no_blocks(self, sym64, builds):
        repro.tridiagonalize(sym64)
        repro.execute_plan(sym64, repro.plan_evd(64, compute_vectors=False))
        assert builds == []

    def test_vectors_build_blocks_once_per_solve(self, sym64, builds):
        repro.execute_plan(sym64, repro.plan_evd(64))
        assert builds == [1]


class TestCostModel:
    def test_blocking_beats_rank1_past_breakeven(self):
        # At device scale the diamonds pay once their GEMM width leaves
        # the rank-1 regime: ~13x over one-reflector blocks at g = b.
        n, b = 49152, 32
        rank1 = blocked_bc_back_time(H100, n, b, 1)
        assert blocked_bc_back_time(H100, n, b, 8) < rank1 / 2
        assert blocked_bc_back_time(H100, n, b, 32) < rank1 / 10

    def test_monotone_improvement_with_group(self):
        # Wider blocks improve the GEMM rate up to g = b; past that the
        # diamond's zero triangles ((b + g - 1) / b of the useful flops)
        # cost more than the width saves.
        n, b = 49152, 32
        times = [blocked_bc_back_time(H100, n, b, g) for g in (4, 8, 16, 32)]
        assert times == sorted(times, reverse=True)
        assert blocked_bc_back_time(H100, n, b, 4 * b) > times[-1]

    def test_shipped_width_trails_device_baseline(self):
        # The shipped g is tuned for a CPU; width-g GEMMs sit far below
        # the device's k-saturation, so the model keeps the paper's
        # k = b device scheme ahead (merging diamonds to width k is
        # what would close the gap).
        n, b = 49152, 32
        assert blocked_bc_back_time(H100, n, b) > bc_back_transform_time(H100, n, b)
