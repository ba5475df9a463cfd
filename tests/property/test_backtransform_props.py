"""Hypothesis property tests for the back transformations."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.band.ops import random_symmetric_band
from repro.core.back_transform import q_from_blocks
from repro.core.bc_back_transform import diamond_blocks
from repro.core.bulge_chasing import bulge_chase
from repro.core.dbbr import dbbr


def _sym(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


@st.composite
def reduction_case(draw):
    n = draw(st.integers(min_value=8, max_value=40))
    b = draw(st.integers(min_value=1, max_value=min(6, n - 2)))
    groups = draw(st.integers(min_value=1, max_value=4))
    gw = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, b, b * groups, gw, seed


@settings(max_examples=30, deadline=None)
@given(reduction_case())
def test_all_sbr_back_methods_agree(case):
    """blocked == recursive == incremental for every reduction and every
    group width."""
    n, b, k, gw, seed = case
    res = dbbr(_sym(n, seed), b, k)
    q_blocked = q_from_blocks(res.blocks, n, method="blocked")
    q_rec = q_from_blocks(res.blocks, n, method="recursive")
    assert np.allclose(q_blocked, q_rec, atol=1e-10)
    from repro.core.back_transform import apply_sbr_q

    q_inc = np.eye(n)
    apply_sbr_q(res.blocks, q_inc, method="incremental", group_width=gw)
    assert np.allclose(q_blocked, q_inc, atol=1e-10)


@st.composite
def bc_case(draw):
    n = draw(st.integers(min_value=6, max_value=36))
    b = draw(st.integers(min_value=2, max_value=min(6, n - 1)))
    group = draw(st.integers(min_value=1, max_value=32))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, b, group, seed


@settings(max_examples=30, deadline=None)
@given(bc_case())
def test_blocked_bc_back_exact_for_any_group(case):
    """The diamond blocks reproduce ``Q1`` for every group width: equal
    to the seq-ordered product of the logged reflectors."""
    n, b, group, seed = case
    A = random_symmetric_band(n, b, np.random.default_rng(seed))
    bc = bulge_chase(A, b)
    blocks = diamond_blocks(*bc.stacked_reflectors(), n=n, group=group)
    Q = np.eye(n)
    for r in bc.reflectors:
        cols = Q[:, r.offset : r.offset + r.v.size]
        cols -= np.outer(cols @ r.v, r.tau * r.v)
    X = np.random.default_rng(seed + 1).standard_normal((n, 3))
    Y = X.copy()
    blocks.apply(Y)
    assert np.allclose(Y, Q @ X, atol=1e-10)
    # Round trip through the transpose.
    blocks.apply(Y, transpose=True)
    assert np.allclose(Y, X, atol=1e-10)
