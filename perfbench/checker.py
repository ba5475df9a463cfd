"""The benchmark's own output checker.

It does not call the program's ``verify_evd``: that check forms
``A V`` before scaling and overflows to NaN at ``|A| ~ 1e300``, so it
cannot judge the inputs the scale sweep exists for.  Here the input is
scaled by an exact power of two to unit max-norm first, and eigenvalues,
residual and orthogonality are all measured on the scaled problem.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

#: Tolerance factor on ``n * eps``: a backward-stable fp64 answer sits
#: orders of magnitude inside it, an fp32-quality one (1e-7) outside.
TOL_FACTOR = 1000.0


def check_evd(A: np.ndarray, eigenvalues, eigenvectors=None) -> str | None:
    """``None`` when ``(eigenvalues, eigenvectors)`` is an eigendecomposition
    of symmetric ``A`` to fp64 accuracy, else the reason it is not."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.shape != (n,):
        return f"expected {n} eigenvalues, got shape {lam.shape}"
    if not np.all(np.isfinite(lam)):
        return "non-finite eigenvalues"
    amax = float(np.max(np.abs(A)))
    if amax == 0.0:
        return None if not np.any(lam) else "nonzero eigenvalues of zero matrix"
    # Exact power-of-two scaling: the scaled problem has the same
    # eigenvectors and exactly scaled eigenvalues.
    shift = -math.frexp(amax)[1]
    As = np.ldexp(A, shift)
    lam_s = np.ldexp(np.sort(lam), shift)
    ref = np.linalg.eigvalsh(As)
    norm = max(float(np.max(np.abs(ref))), 1e-300)
    tol = TOL_FACTOR * n * _EPS
    err = float(np.max(np.abs(lam_s - ref))) / norm
    if not err <= tol:
        return f"eigenvalue error {err:.3g} > {tol:.3g}"
    if eigenvectors is None:
        return None
    V = np.asarray(eigenvectors, dtype=np.float64)
    if V.shape != (n, n):
        return f"expected {n}x{n} eigenvectors, got shape {V.shape}"
    if not np.all(np.isfinite(V)):
        return "non-finite eigenvectors"
    order = np.argsort(lam, kind="stable")
    V = V[:, order]
    residual = float(np.max(np.linalg.norm(As @ V - V * lam_s, axis=0))) / norm
    if not residual <= tol:
        return f"residual {residual:.3g} > {tol:.3g}"
    orth = float(np.max(np.abs(V.T @ V - np.eye(n))))
    if not orth <= tol:
        return f"orthogonality loss {orth:.3g} > {tol:.3g}"
    return None
