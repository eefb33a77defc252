"""Algorithm-based fault tolerance (ABFT) for matrix kernels.

Huang & Abraham's classic scheme: augment a matrix with checksum rows/
columns; linear operations preserve the checksum relation, so verifying
it after the computation detects any corruption of the operands or the
result -- at O(n) extra arithmetic instead of full duplication.  For
the paper's context: ABFT is exactly the kind of *selective, cheap* SDC
detector that matters when undervolting multiplies the SDC FIT by 16x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class AbftReport:
    """Outcome of one checksum-verified operation.

    Attributes
    ----------
    result:
        The computed (unaugmented) result.
    detected:
        Whether the checksum relation was violated.
    max_discrepancy:
        Largest absolute checksum violation observed.
    tolerance:
        Threshold used (absolute, scaled by the operand magnitudes).
    """

    result: np.ndarray
    detected: bool
    max_discrepancy: float
    tolerance: float


def checksum_augment(matrix: np.ndarray) -> np.ndarray:
    """Append a column-checksum row: A' = [A ; 1^T A]."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise AnalysisError("checksum augmentation needs a 2-D matrix")
    return np.vstack([matrix, matrix.sum(axis=0)])


def _tolerance(scale: float, n: int, rtol: float) -> float:
    return rtol * max(scale, 1.0) * n


def _verdict(discrepancy: float, extended: np.ndarray, tolerance: float) -> bool:
    """Checksum verdict, treating non-finite arithmetic as detected.

    A corrupted exponent can drive the product to inf/NaN; NaN compares
    False against any threshold, so an explicit finiteness check is
    required or precisely the worst corruptions would pass silently.
    """
    if not np.all(np.isfinite(extended)):
        return True
    return discrepancy > tolerance


def abft_matvec(
    matrix: np.ndarray, vector: np.ndarray, rtol: float = 1e-9
) -> AbftReport:
    """Checksum-verified matrix-vector product.

    Computes y = A x alongside the checksum row c = (1^T A) x and
    verifies sum(y) == c.  Any single corrupted element of A, x, or y
    breaks the relation (barring exact cancellation).
    """
    matrix = np.asarray(matrix, dtype=float)
    vector = np.asarray(vector, dtype=float)
    if matrix.ndim != 2 or vector.ndim != 1:
        raise AnalysisError("need a 2-D matrix and a 1-D vector")
    if matrix.shape[1] != vector.shape[0]:
        raise AnalysisError("shape mismatch")
    augmented = checksum_augment(matrix)
    with np.errstate(all="ignore"):
        extended = augmented @ vector
    result, checksum = extended[:-1], extended[-1]
    discrepancy = abs(float(result.sum() - checksum))
    scale = float(np.abs(extended).max()) if extended.size else 0.0
    tolerance = _tolerance(scale, matrix.shape[1], rtol)
    return AbftReport(
        result=result,
        detected=_verdict(discrepancy, extended, tolerance),
        max_discrepancy=discrepancy,
        tolerance=tolerance,
    )


def abft_matvec_encoded(
    augmented: np.ndarray, vector: np.ndarray, rtol: float = 1e-9
) -> AbftReport:
    """Checksum-verified product over a *pre-encoded* matrix.

    This is the deployment shape of ABFT: the checksum row is computed
    once at setup (fault-free), and every later corruption of the
    stored matrix, the vector, or the product violates the relation.
    ``abft_matvec`` encodes and computes in one step, which only guards
    the computation itself; this variant also guards the data at rest.
    """
    augmented = np.asarray(augmented, dtype=float)
    vector = np.asarray(vector, dtype=float)
    if augmented.ndim != 2 or augmented.shape[0] < 2:
        raise AnalysisError("need an encoded matrix with a checksum row")
    if augmented.shape[1] != vector.shape[0]:
        raise AnalysisError("shape mismatch")
    with np.errstate(all="ignore"):
        extended = augmented @ vector
    result, checksum = extended[:-1], extended[-1]
    discrepancy = abs(float(result.sum() - checksum))
    scale = float(np.abs(extended).max()) if extended.size else 0.0
    tolerance = _tolerance(scale, augmented.shape[1], rtol)
    return AbftReport(
        result=result,
        detected=_verdict(discrepancy, extended, tolerance),
        max_discrepancy=discrepancy,
        tolerance=tolerance,
    )


def overhead_fraction(n: int) -> float:
    """Arithmetic overhead of ABFT matmul for n x n operands.

    One extra row and column over n: ~(2n+1)/n^2 extra multiply-adds --
    vanishing for the matrix sizes HPC kernels use, which is ABFT's
    whole argument against duplication's 100 %.
    """
    if n <= 0:
        raise AnalysisError("matrix order must be positive")
    return (2.0 * n + 1.0) / (n * n)
