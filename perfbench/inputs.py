"""Seeded input streams for every workload.

The benchmark owns its generators so that a change to the program can
never change what it is measured on.  Every matrix is a pure function
of ``(seed, workload stream, index)``; stream index 0 is reserved for
the warm-up solve, so the warm-up never shares a matrix with the
measured operations.
"""

from __future__ import annotations

import hashlib

import numpy as np

KINDS = ("goe", "clustered", "graded")

#: Stream ids keep the workloads' random streams disjoint.
STREAM = {"large_vectors": 1, "large_values": 2, "serve_small": 3, "scale_sweep": 4}

LARGE_N = 1024
SERVE_NS = (32, 64, 128)
SERVE_REPEAT_EVERY = 4
#: One block of originals: 20% n=32, 40% n=64, 40% n=128, kinds evenly.
SERVE_BLOCK = tuple(
    (n, KINDS[i % len(KINDS)])
    for n, count in ((32, 6), (64, 12), (128, 12))
    for i in range(count)
)
SWEEP_N = 192
SWEEP_EXPONENTS = (-300, -150, 0, 150, 300)
SWEEP_PRECISIONS = ("fp64", "mixed")

#: How many leading inputs of a stream the fingerprint digest covers, so
#: two runs that issued a different number of operations still compare.
DIGEST_PREFIX = 4


#: Sub-streams of a workload's stream.
MATRIX, REPEAT, BLOCK, SYR2K = 0, 1, 2, 3


def _rng(seed: int, workload: str, index: int, sub: int = MATRIX) -> np.random.Generator:
    return np.random.default_rng([seed, STREAM[workload], sub, index])


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _with_spectrum(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    q = _haar(lam.size, rng)
    A = (q * lam) @ q.T
    return (A + A.T) / 2.0


def make_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A symmetric ``n x n`` matrix of unit scale.

    ``goe``: Gaussian orthogonal ensemble.  ``clustered``: four tight
    eigenvalue clusters (spread 1e-10), the deflation-heavy case for
    divide and conquer.  ``graded``: eigenvalue magnitudes spread
    geometrically over twelve decades with random signs.
    """
    if kind == "goe":
        g = rng.standard_normal((n, n))
        return (g + g.T) / 2.0
    if kind == "clustered":
        centres = np.sort(rng.uniform(-1.0, 1.0, 4))
        lam = np.concatenate(
            [c + 1e-10 * rng.standard_normal(n // 4 + 1) for c in centres]
        )[:n]
        return _with_spectrum(np.sort(lam), rng)
    if kind == "graded":
        lam = rng.choice([-1.0, 1.0], n) * np.geomspace(1e-12, 1.0, n)
        return _with_spectrum(lam, rng)
    raise ValueError(f"unknown matrix kind {kind!r}")


def large_matrix(seed: int, workload: str, index: int) -> np.ndarray:
    """GOE input ``index`` of a large workload (index 0 = warm-up)."""
    return make_matrix("goe", LARGE_N, _rng(seed, workload, index))


def serve_request(seed: int, k: int) -> tuple[int, bool]:
    """Request ``k`` (1-based) of the serve stream: the number of the
    original request whose matrix it carries, and whether it repeats one.

    Every ``SERVE_REPEAT_EVERY``-th request repeats the matrix of a
    uniformly chosen earlier original exactly; the others are originals,
    numbered 1, 2, ... in order.
    """
    originals = k - k // SERVE_REPEAT_EVERY
    if k % SERVE_REPEAT_EVERY:
        return originals, False
    return int(_rng(seed, "serve_small", k, REPEAT).integers(1, originals + 1)), True


def serve_matrix(seed: int, original: int) -> np.ndarray:
    """The matrix of original request ``original`` (0 = warm-up).

    Originals come in shuffled blocks with fixed shares of each ``n`` and
    kind (``SERVE_BLOCK``), so every run sees the same mix however many
    requests it issues.  The shares put the median latency inside the
    n=64 band rather than on the edge between two bands, where a small
    change of mix would move it.
    """
    block, pos = divmod(max(original - 1, 0), len(SERVE_BLOCK))
    order = _rng(seed, "serve_small", block, BLOCK).permutation(len(SERVE_BLOCK))
    n, kind = SERVE_BLOCK[order[pos]]
    return make_matrix(kind, n, _rng(seed, "serve_small", original))


def sweep_grid(seed: int, sweep: int) -> list[tuple[str, int, str, np.ndarray]]:
    """Pass ``sweep`` (0-based) of the scale sweep: every kind x |A|
    exponent x precision, in a fixed order, as ``(kind, exponent,
    precision, A)``.  Each pass draws fresh matrices: whether an input
    near the ends of the range fails depends on the draw, so more passes
    estimate the failure share more closely."""
    cells = [
        (kind, exponent, precision)
        for kind in KINDS
        for exponent in SWEEP_EXPONENTS
        for precision in SWEEP_PRECISIONS
    ]
    grid = []
    for i, (kind, exponent, precision) in enumerate(cells):
        rng = _rng(seed, "scale_sweep", sweep * len(cells) + i + 1)
        grid.append((kind, exponent, precision, make_matrix(kind, SWEEP_N, rng) * 10.0**exponent))
    return grid


def sweep_warmup(seed: int) -> np.ndarray:
    return make_matrix("goe", SWEEP_N, _rng(seed, "scale_sweep", 0))


def syr2k_operands(seed: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(C, Y, Z)`` for one trailing update ``C - Y Z^T - Z Y^T`` at
    DBBR's ``(n, k)``: symmetric ``C``, ``n x k`` panels."""
    rng = _rng(seed, "large_vectors", 0, SYR2K)
    C = rng.standard_normal((n, n))
    return C + C.T, rng.standard_normal((n, k)), rng.standard_normal((n, k))


def digest(fingerprints: list[str]) -> str:
    """One short hash over an ordered list of matrix fingerprints."""
    h = hashlib.blake2b(digest_size=8)
    for fp in fingerprints:
        h.update(fp.encode())
    return h.hexdigest()
