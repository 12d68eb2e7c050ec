"""Independent certification of claimed spectra.

Nothing here re-derives a spectrum: the adjacency matrix is rebuilt
directly from the group's integer multiplication kernel and the color
function, and every claimed eigenpair is checked by residual, the claimed
basis by its Gram matrix, and the eigenvalue multiset by trace identities.
No general eigensolver is involved, so a certified result never relies on
the code paths that produced it.

The checks are dense GEMMs over blocks of stacked eigenvectors.  Beyond
the n x n adjacency, the claimed vectors and one stacked copy of them,
certification holds one block at a time: ``_BLOCK_BYTES`` of vectors (or
of Gram rows) plus about twice that in GEMM output and residual
temporaries, whatever n and the number of lines.  While it computes
residuals against a real adjacency (every indicator color gives one) it
also holds one float64 copy of the adjacency's real part, so each
residual block is a real GEMM at half the flops of the complex one.  The
Gram matrix is Hermitian, so only its upper triangle is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectra
from .cayley import AdjacencyMatrix, ColorFunction
from .errors import DimensionMismatch
from .groups import FiniteGroup
from .irreps import IrrepSet, _character_sum
from .spectra import RECONSTRUCTION_CAPACITY, Spectrum, chain_groups

# bytes of stacked complex vectors (or Gram rows) one certification block holds
_BLOCK_BYTES = 1 << 23


@dataclass
class VerificationReport:
    """Deviations of one certification run; ``passed`` applies tolerances.

    Component tolerances: residuals against ``tolerance * max(1, |A|_inf)``,
    Gram deviation against ``tolerance``, trace identities against
    ``tolerance * n``.  Components left as None (not requested) are skipped;
    a NaN deviation fails.
    """

    n: int
    tolerance: float
    scale: float
    max_residual: Optional[float] = None
    per_line_residuals: Optional[tuple] = None
    gram_deviation: Optional[float] = None
    vector_count: Optional[int] = None
    complete: Optional[bool] = None
    trace_deviation: Optional[float] = None
    trace_sq_deviation: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.max_residual is not None:
            if not self.max_residual <= self.tolerance * self.scale:
                return False
        if self.gram_deviation is not None:
            if not self.gram_deviation <= self.tolerance:
                return False
        if self.complete is not None and not self.complete:
            return False
        for dev in (self.trace_deviation, self.trace_sq_deviation):
            if dev is not None and not dev <= self.tolerance * self.n:
                return False
        return True


def _as_matrix(adjacency) -> np.ndarray:
    if isinstance(adjacency, AdjacencyMatrix):
        return adjacency.matrix
    return np.asarray(adjacency, dtype=complex)


def _block_columns(n: int) -> int:
    """Complex length-n vectors that fit one certification block."""
    return max(1, _BLOCK_BYTES // (16 * max(1, n)))


def _gram_rows(count: int) -> int:
    """Gram rows per block: about count/8, at least 128, within the budget.

    Each row block also multiplies its diagonal block whole, so fewer,
    taller blocks waste more of the lower triangle; 128 rows keep each
    GEMM large enough to run at full speed.
    """
    return min(_block_columns(count), max(128, -(-count // 8)))


def verify_eigenpairs(adjacency, spectrum: Spectrum,
                      tol: float = 1e-9) -> VerificationReport:
    """Residual-check every claimed eigenpair against the adjacency.

    Consecutive lines' vectors are stacked into column blocks of bounded
    size (a line may straddle two blocks); each block is one GEMM
    ``A @ B - B * lam``, and per-line maxima come from its column maxima.
    When the imaginary part of A is identically zero (a NaN or inf there
    counts as nonzero), the GEMM runs on a float64 copy of its real part.
    """
    matrix = _as_matrix(adjacency)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionMismatch(f"adjacency must be square, got {matrix.shape}")
    if spectrum.n != n:
        raise DimensionMismatch(
            f"spectrum claims n={spectrum.n}, adjacency has n={n}"
        )
    width = _block_columns(n)
    row_sums = np.empty(n)
    real = True
    for lo in range(0, n, width):
        row_block = matrix[lo:lo + width]
        row_sums[lo:lo + width] = np.sum(np.abs(row_block), axis=1)
        real = real and not row_block.imag.any()
    scale = max(1.0, float(np.max(row_sums, initial=0.0)))
    for line in spectrum.lines:
        if line.eigenvectors is None:
            raise ValueError(
                f"line ({line.u}, {line.v}) carries no eigenvectors to certify"
            )
        vectors = line.eigenvectors
        if vectors.shape[1] != n:
            raise DimensionMismatch(
                f"line ({line.u}, {line.v}) vectors have length "
                f"{vectors.shape[1]}, expected {n}"
            )
    if real:
        matrix = np.ascontiguousarray(matrix.real)
    lines = spectrum.lines
    counts = [len(line.eigenvectors) for line in lines]
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    total = int(offsets[-1])
    column_eigenvalues = np.repeat(
        np.array([line.eigenvalue for line in lines], dtype=complex), counts
    )
    column_max = np.zeros(total)
    for lo in range(0, total, width):
        hi = min(lo + width, total)
        first = int(np.searchsorted(offsets, lo, side="right")) - 1
        last = int(np.searchsorted(offsets, hi))
        rows = [
            lines[k].eigenvectors[max(lo - offsets[k], 0):hi - offsets[k]]
            for k in range(first, last)
        ]
        column_max[lo:hi] = _residual_block(matrix, rows, column_eigenvalues[lo:hi])
    residuals = np.zeros(len(lines))
    nonempty = np.array(counts) > 0
    if nonempty.any():
        residuals[nonempty] = np.maximum.reduceat(column_max, offsets[:-1][nonempty])
    per_line = tuple(float(r) for r in residuals)
    return VerificationReport(
        n=n,
        tolerance=tol,
        scale=scale,
        max_residual=float(np.max(residuals, initial=0.0)),
        per_line_residuals=per_line,
    )


def _residual_block(matrix, rows, eigenvalues) -> np.ndarray:
    """Max-abs residual of each stacked vector: one GEMM for the block.

    ``matrix`` is complex, or float64 for a real adjacency: then the
    vectors' real and imaginary parts, interleaved in the C-contiguous
    block, go through one real GEMM whose output reads back as complex.
    """
    vectors = np.empty((matrix.shape[0], sum(len(r) for r in rows)), dtype=complex)
    column = 0
    for r in rows:
        vectors[:, column:column + len(r)] = r.T
        column += len(r)
    if matrix.dtype == np.float64:
        residual = (matrix @ vectors.view(np.float64)).view(complex)
    else:
        residual = matrix @ vectors
    # the block is not needed unscaled again: scaling it in place saves
    # one block-sized temporary
    vectors *= eigenvalues
    residual -= vectors
    return np.abs(residual).max(axis=0)


class BasisCheck(tuple):
    """``(gram_deviation, complete)``, plus the number of vectors checked."""

    def __new__(cls, gram_deviation: float, complete: bool, vector_count: int):
        check = super().__new__(cls, (gram_deviation, complete))
        check.vector_count = vector_count
        return check


def verify_basis(spectrum: Spectrum, tol: float = 1e-9) -> BasisCheck:
    """Gram deviation of the stacked eigenvectors and the completeness flag.

    Returns ``(gram_deviation, complete)`` where completeness means the
    claimed multiplicities sum to n and one vector backs each of them; the
    result's ``vector_count`` is the number of stacked vectors.  The Gram
    matrix is Hermitian, so only its upper triangle is formed: each row
    block from its diagonal block rightwards, never the whole matrix.
    """
    stacked = spectrum.eigenvector_matrix().T
    count = stacked.shape[0]
    gram_deviation = 0.0
    step = _gram_rows(count)
    # every row block is written into one buffer, and its magnitudes into
    # another, so the blocks' shrinking widths allocate nothing new
    buffer = np.empty((min(step, count), count), dtype=complex)
    magnitudes = np.empty(buffer.shape)
    for lo in range(0, count, step):
        gram = buffer[:min(step, count - lo), :count - lo]
        np.matmul(stacked[lo:lo + step].conj(), stacked[lo:].T, out=gram)
        diagonal = np.arange(gram.shape[0])
        gram[diagonal, diagonal] -= 1
        block = np.abs(gram, out=magnitudes[:gram.shape[0], :gram.shape[1]])
        gram_deviation = float(np.maximum(gram_deviation, np.max(block, initial=0.0)))
    complete = (
        count == spectrum.n
        and spectrum.total_multiplicity == spectrum.n
        and all(len(line.eigenvectors) == line.multiplicity for line in spectrum.lines)
    )
    return BasisCheck(gram_deviation, complete, count)


def trace_identities(adjacency, color: ColorFunction) -> tuple:
    """Deviations |tr A - n alpha(e)| and |tr A^2 - n sum_g alpha(g) alpha(g^{-1})|."""
    matrix = _as_matrix(adjacency)
    n = matrix.shape[0]
    group = color.group
    if group.order != n:
        raise DimensionMismatch(
            f"color lives on a group of order {group.order}, adjacency has n={n}"
        )
    expected_trace = n * color(group.identity)
    trace_dev = abs(complex(np.trace(matrix)) - expected_trace)
    pair_sum = _character_sum(color.vector, color.vector[group.inv_idx])
    trace_sq = complex(np.einsum("ij,ji->", matrix, matrix))
    trace_sq_dev = abs(trace_sq - n * pair_sum)
    return float(trace_dev), float(trace_sq_dev)


def certify(adjacency, spectrum: Spectrum, color: ColorFunction,
            tol: float = 1e-9) -> VerificationReport:
    """Full certification: residuals, basis, completeness, trace identities."""
    report = verify_eigenpairs(adjacency, spectrum, tol=tol)
    basis = verify_basis(spectrum, tol=tol)
    trace_dev, trace_sq_dev = trace_identities(adjacency, color)
    report.gram_deviation, report.complete = basis
    report.vector_count = basis.vector_count
    report.trace_deviation = trace_dev
    report.trace_sq_deviation = trace_sq_dev
    return report


def compare_spectra(first: Spectrum, second: Spectrum,
                    tol: float = 1e-9) -> tuple:
    """Compare eigenvalue multisets; returns (equal, witness_pair_or_None).

    Values are grouped by chaining pairs closer than ``tol``, then each
    group must contribute equally often to both sides.  Pairing sorted
    positions instead would misalign values that differ only by rounding
    noise in one coordinate, e.g. a conjugate pair with dusty real parts.
    """
    left = list(first.eigenvalues_expanded())
    right = list(second.eigenvalues_expanded())
    if len(left) != len(right):
        raise DimensionMismatch(
            f"multisets have sizes {len(left)} and {len(right)}"
        )
    values = [complex(v) for v in left + right]
    order = lambda z: (z.real, z.imag)
    surplus, deficit = [], []
    for indices in chain_groups(values, tol):
        balance = sum(1 if idx < len(left) else -1 for idx in indices)
        if balance:
            # a group stands for its (Re, Im)-smallest member, whatever the
            # order of the lines
            side = surplus if balance > 0 else deficit
            side.append(min((values[i] for i in indices), key=order))
    if not surplus:
        return True, None
    return False, (min(surplus, key=order), min(deficit, key=order))


def regular_rep_matrix(group: FiniteGroup, g) -> np.ndarray:
    """Permutation matrix of left translation by g: M[a, b] = [g g_b = g_a]."""
    n = group.order
    columns = np.arange(n, dtype=np.int64)
    out = np.zeros((n, n), dtype=complex)
    out[group.mul_idx(group.index(g), columns), columns] = 1.0
    out.flags.writeable = False
    return out


def verify_block_reconstruction(group: FiniteGroup, color: ColorFunction,
                                irrep_set: IrrepSet,
                                capacity: int = RECONSTRUCTION_CAPACITY) -> float:
    """Max deviation between the regular-representation adjacency and its
    coefficient-basis reconstruction.

    The left side is the transpose of sum_g alpha(g) * M(g) over left
    translation matrices, whose (i, j) entry is alpha(g_j g_i^{-1}): the
    adjacency from ``adjacency_matrix``.  The right side conjugates the
    per-irrep blocks diag(I_{d_k} (x) block_k^T) back through the
    coefficient basis; both come from ``block_diagonalize``, here with
    ``capacity`` as its order limit.
    """
    return spectra._block_diagonalize(
        group, color, irrep_set, capacity).reconstruction_deviation
