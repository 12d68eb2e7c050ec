"""Independent certification of claimed spectra.

Nothing here re-derives a spectrum: the adjacency is rebuilt directly
from the group's integer multiplication kernel and the color function
(on a split extension, as its beta table), and every claimed eigenpair is
checked by residual, the claimed basis by its Gram matrix, and the
eigenvalue multiset by trace identities.  No general eigensolver is
involved, so a certified result never relies on the code paths that
produced it.

The claimed vectors are read through ``Spectrum.vector_rows``: the
normal route claims them as one array (``Spectrum.vectors``), the split
route, run by the metacyclic one, as Kronecker factors (``Spectrum.factors``).

One rule covers a factored claim, at every n.  When ``_checked_factors``
accepts the spectrum's Kronecker factors and their K rows pass the
Fourier rule below, the Gram deviation comes from the two factor Grams,
and if the adjacency carries a beta table of the factors' (l, m), the
residuals and the traces come from that table: the structured path.  An
adjacency from ``adjacency_matrix`` on a split extension carries its
table, built from ``mul_idx`` and ``inv_idx`` alone
(``cayley.beta_blocks``), and its n x n matrix is never formed.  The
scale is the grid's row-sum norm, and ``certify`` reads the trace
identities off the table.

Both factored checks read the claim once, as a ``_Claim`` that
``certify`` hands to both: it splits each K row's DFT ``F_v =
fft(K[v])`` into its top entry ``D_v``, at ``p_v``, and a remainder
``E_v``.  The split route, and so the metacyclic one, claims the
characters of K = C_m times sqrt(1/m), whose DFT has one nonzero, so
``E_v`` is rounding.  The Fourier rule holds when every ``p_v`` is
distinct and every remainder term is at or below the rounding floor
``max(sqrt(n), 4) eps`` times the check's scale.  Then each residual is
reported as an upper bound read off the table at ``p_v``, O(n*l) work
after the FFTs, and G_K comes from ``|D|`` and ``|E|`` without a GEMM.
This holds O(n*m) beyond the adjacency: the factors, the beta table,
and per chunk of K rows at most ``groups._BLOCK_BYTES`` in each of a
few temporaries.  Nothing here assumes the vectors are eigenvectors or
the rows characters, and no irrep is touched.  A check whose K rows
fail the rule is made densely, as below, within the byte budget; over
it, ``CapacityExceeded`` names the part of the rule that failed.

Every other input takes the dense path for the residuals and traces,
whatever its entries: a dense matrix (an edge list read back, a raw
array, ``AdjacencyMatrix(matrix=...)``, a kind that is not a split
extension), factors of another (l, m), that ``_checked_factors``
rejects or whose K rows fail the rule, or explicit vectors; its results
agree to rounding.  It first checks the n x n arrays it would allocate
against ``groups.DENSE_BYTE_BUDGET`` (``dense_certify_bytes``, plus in
``certify`` the factor rows the basis check will stack beside a formed
matrix, as the claim's Gram result says), and forms the matrix of an
adjacency that carries its beta table.  Beyond the n x n
adjacency and the claimed vectors, it holds one block at a time:
``groups._BLOCK_BYTES`` of vectors (or of Gram rows) plus about twice
that in GEMM output and residual temporaries, whatever n and the number
of lines.  While it computes residuals against a real adjacency (every
indicator color gives one) it also holds one float64 copy of the
adjacency's real part, so each residual block is a real GEMM at half the
flops of the complex one.  The trace identities come from the matrix.
On either path the color must live on a group of order n, and on the
group itself when the adjacency carries that group's beta table.

Without accepted factors that pass the rule, the Gram deviation comes
from the upper triangle of the claimed vectors' Hermitian Gram matrix;
factors are first stacked into their rows, within the byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import groups, spectra
from .cayley import AdjacencyMatrix, ColorFunction, _check_color_group
from .errors import DimensionMismatch
from .groups import FiniteGroup, check_dense_bytes
from .irreps import IrrepSet, _character_sums
from .spectra import KroneckerFactors, Spectrum, _clusters


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
    structured: bool = False

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


def _square_matrix(adjacency) -> np.ndarray:
    """The dense matrix of ``adjacency``; DimensionMismatch unless it is square."""
    if isinstance(adjacency, AdjacencyMatrix):
        matrix = adjacency.matrix
    else:
        matrix = np.asarray(adjacency, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatch(f"adjacency must be square, got {matrix.shape}")
    return matrix


def _adjacency_n(adjacency) -> int:
    """The order of ``adjacency``, read from a carried table or from the
    shape of its array, without forming or copying a matrix;
    DimensionMismatch unless that shape is square."""
    if isinstance(adjacency, AdjacencyMatrix):
        shape = (adjacency.n,) * 2 if adjacency.blocks is not None else adjacency.matrix.shape
    else:
        shape = np.shape(adjacency)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"adjacency must be square, got {shape}")
    return int(shape[0])


def _block_columns(n: int) -> int:
    """Complex length-n vectors that fit one certification block."""
    return max(1, groups._BLOCK_BYTES // (16 * max(1, n)))


def _gram_rows(count: int) -> int:
    """Gram rows per block: about count/8, at least 128, within the budget.

    Each row block also multiplies its diagonal block whole, so fewer,
    taller blocks waste more of the lower triangle; 128 rows keep each
    GEMM large enough to run at full speed.
    """
    return min(_block_columns(count), max(128, -(-count // 8)))


def _checked_factors(spectrum: Spectrum) -> Optional[KroneckerFactors]:
    """The spectrum's Kronecker factors, when certification may use them.

    That needs factor rows of lengths l and m (l*m = n), pairs that cover
    the grid of l H rows by m K rows once each, and multiplicities that
    claim all n vectors.  Otherwise None.
    """
    factors, n = spectrum.factors, spectrum.n
    if factors is None:
        return None
    h_rows, k_rows, pairs = factors.h_rows, factors.k_rows, factors.pairs
    l, m = len(h_rows), len(k_rows)
    if (l * m != n or h_rows.shape != (l, l) or k_rows.shape != (m, m)
            or pairs.shape != (n, 2) or pairs.dtype.kind not in "iu"
            or h_rows.dtype != complex or k_rows.dtype != complex):
        return None
    if spectrum.total_multiplicity < n or pairs.min(initial=0) < 0 or not (pairs < (l, m)).all():
        return None
    if not np.array_equal(np.sort(pairs[:, 0] * m + pairs[:, 1]), np.arange(n)):
        return None
    return factors


def _grid_scale(beta: np.ndarray) -> float:
    """``max(1, |A|_inf)`` of the circulant grid of ``beta``, with the bits
    of the dense path's row sums.

    Each row of block row i holds the magnitudes ``|beta_ij(c)|`` over j
    and c.  When they are integers with sums below 2**53 (every 0/1
    color), every order of summation is exact, so each block row's sum is
    taken over the table.  Otherwise the rows are laid out as in the
    matrix, a block of rows at a time, and summed as the dense path sums
    them.
    """
    l, m = beta.shape[1], beta.shape[2]
    magnitudes = np.abs(beta)
    sums = magnitudes.sum(axis=(1, 2))
    if np.array_equal(magnitudes, np.floor(magnitudes)) and sums.max(initial=0.0) < 2.0 ** 53:
        return max(1.0, float(sums.max(initial=0.0)))
    doubled = np.concatenate((magnitudes, magnitudes), axis=-1)
    # windows[i, j, s] = doubled[i, j, s:s + m]
    windows = np.lib.stride_tricks.sliding_window_view(doubled, m, axis=-1)
    step = max(1, groups._BLOCK_BYTES // (8 * l * m))
    largest = 0.0
    for i in range(l):
        for a0 in range(0, m, step):
            a1 = min(m, a0 + step)
            # rows i*m + a for a0 <= a < a1, as the matrix holds them
            rows = windows[i, :, m - a0:m - a1:-1].transpose(1, 0, 2).reshape(a1 - a0, l * m)
            largest = float(np.max(np.sum(rows, axis=1), initial=largest))
    return max(1.0, largest)


def dense_certify_bytes(n: int, carried: bool) -> int:
    """Bytes of the n x n arrays the dense path allocates: the matrix of
    an adjacency that carries its beta table, and a float64 copy of its
    real part."""
    return (8 + 16 * carried) * n * n


def verify_eigenpairs(adjacency, spectrum: Spectrum, tol: float = 1e-9, *,
                      _claim: Optional[_Claim] = None) -> VerificationReport:
    """Residual-check every claimed eigenpair against the adjacency.

    The structured path (see the module docstring) runs when the
    adjacency carries a beta table of the (l, m) that ``_checked_factors``
    accepts and the K rows pass the Fourier rule: the residuals come from
    the table (``_structured_residuals``) and the scale from its
    magnitudes (``_grid_scale``).  Every other input
    takes the dense path: consecutive lines' vectors are stacked into
    column blocks of bounded size (a line may straddle two blocks); each
    block is one GEMM ``A @ B - B * lam``, and per-line maxima come from
    its column maxima.  When the imaginary part of A is identically zero
    (a NaN or inf there counts as nonzero), the GEMM runs on a float64 copy
    of its real part.  The dense path first checks its n x n arrays
    against the byte budget; the message names the failed part of the
    Fourier rule when that sent it there.  Given ``certify``'s claim, it
    also counts the factor rows ``verify_basis`` will stack while a matrix
    formed from a carried table stays cached.
    """
    # an adjacency from ``adjacency_matrix`` on a split extension carries
    # its beta table, built from ``mul_idx``/``inv_idx``
    blocks = adjacency.blocks if isinstance(adjacency, AdjacencyMatrix) else None
    beta = None if blocks is None else blocks.beta_values
    if beta is None:
        matrix = _square_matrix(adjacency)
        n = len(matrix)
    else:
        n = adjacency.n
    if spectrum.n != n:
        raise DimensionMismatch(
            f"spectrum claims n={spectrum.n}, adjacency has n={n}"
        )
    if not spectrum.claims_vectors:
        raise ValueError("the spectrum claims no eigenvectors to certify")
    factored = spectrum.factors
    shape = (np.shape(spectrum.vectors)[1:] if factored is None
             else (factored.h_rows.shape[-1] * factored.k_rows.shape[-1],))
    if shape != (n,):
        raise DimensionMismatch(f"claimed vectors have row shape {shape}, expected {(n,)}")
    offsets = spectrum._vector_offsets()
    counts = np.diff(offsets)
    column_eigenvalues = np.repeat(spectrum.eigenvalues, counts)
    claim = _Claim(spectrum) if _claim is None else _claim
    factors = claim.factors
    column_max = failed = None
    if (factors is not None and beta is not None
            and beta.shape == (len(factors.h_rows),) * 2 + (len(factors.k_rows),)):
        scale = _grid_scale(beta)
        column_max, failed = _structured_residuals(
            beta, factors, claim.rows, column_eigenvalues, scale)
    structured = column_max is not None
    if not structured:
        stacked = (_claim is not None and beta is not None and spectrum.factors is not None
                   and claim.gram[0] is None) * 16 * spectrum.vector_count() * n
        check_dense_bytes(dense_certify_bytes(n, beta is not None) + stacked,
                          _dense_what(f"dense certification of order {n}", failed))
        if beta is not None:
            matrix = adjacency.matrix
        scale, column_max = _dense_residuals(matrix, spectrum, column_eigenvalues)
    residuals = np.zeros(len(counts))
    nonempty = counts > 0
    if nonempty.any():
        residuals[nonempty] = np.maximum.reduceat(column_max, offsets[:-1][nonempty])
    return VerificationReport(
        n=n,
        tolerance=tol,
        scale=scale,
        max_residual=float(np.max(residuals, initial=0.0)),
        per_line_residuals=tuple(residuals.tolist()),
        structured=structured,
    )


def _dense_residuals(matrix: np.ndarray, spectrum: Spectrum,
                     eigenvalues: np.ndarray) -> tuple:
    """``(scale, column_max)`` from the dense matrix: its row-sum norm and
    each claimed vector's max-abs residual, a GEMM per column block."""
    n = matrix.shape[0]
    width = _block_columns(n)
    row_sums = np.empty(n)
    real = True
    for lo in range(0, n, width):
        row_block = matrix[lo:lo + width]
        row_sums[lo:lo + width] = np.sum(np.abs(row_block), axis=1)
        real = real and not row_block.imag.any()
    scale = max(1.0, float(np.max(row_sums, initial=0.0)))
    if real:
        matrix = np.ascontiguousarray(matrix.real)
    total = len(eigenvalues)
    column_max = np.zeros(total)
    for lo in range(0, total, width):
        hi = min(lo + width, total)
        column_max[lo:hi] = _residual_block(
            matrix, spectrum.vector_rows(lo, hi), eigenvalues[lo:hi])
    return scale, column_max


def _structured_residuals(beta: np.ndarray, factors: KroneckerFactors, rows: _FourierRows,
                          eigenvalues: np.ndarray, scale: float) -> tuple:
    """``(column_max, None)``: the max-abs residual of each vector
    ``kron(H[u], K[v])``, bounded from the beta table; or ``(None, failed)``
    when the claim fails the Fourier rule, with ``failed`` naming the part
    that failed.

    Block row i of ``A v`` is ``sum_j H[u, j] C_ij K[v]``, and ``C_ij x`` is
    the circular correlation ``sum_c beta_ij(c) x[a + c]``, whose DFT is
    ``fft(x) * m * ifft(beta_ij)``.  With ``contracted[i, u] = sum_j H[u, j]
    m ifft(beta_ij)``, block i of the residual is ``ifft(g F_v)``, where
    ``g = contracted[i, u] - eigenvalue * H[u, i]`` and ``F_v = fft(K[v])``.

    Split ``F_v`` into its top entry ``D_v``, at position ``p_v``, and a
    remainder ``E_v`` (``rows``, from ``_fourier_split``).  Then each
    vector's max-abs residual is at most the largest over i of
    ``|g[p_v]| |D_v| / m + (max |contracted[i, u]| + |eigenvalue| |H[u, i]|)
    |E_v|_2 / sqrt(m)``, whatever the rows hold (``_fourier_bounds``), and
    that bound is reported, at O(n*l) cost after the FFTs.  The rule asks
    every top position to be distinct and every remainder term to be at or
    below the rounding floor ``_rounding_floor(n) scale``; the bound then exceeds
    the residual by at most twice that.  A non-finite term fails the rule.
    """
    h_rows, pairs = factors.h_rows, factors.pairs
    l, m = len(h_rows), len(factors.k_rows)
    if not _distinct(rows.tops):
        return None, _SHARED_TOP
    # the eigenvalue claimed for the vector of each pair
    grid_eigenvalues = np.empty((l, m), dtype=complex)
    grid_eigenvalues[pairs[:, 0], pairs[:, 1]] = eigenvalues
    # contracted[i, u] = sum_j H[u, j] * m * ifft(beta_ij)
    contracted = np.matmul(h_rows, m * np.fft.ifft(beta, axis=-1))
    bound, remainder = _fourier_bounds(contracted, h_rows, grid_eigenvalues, rows)
    failed = _above_floor("a remainder term", np.max(remainder),
                          _rounding_floor(l * m) * scale)
    if failed:
        return None, failed
    return bound[pairs[:, 0], pairs[:, 1]], None


_SHARED_TOP = "two K rows share a top position"


def _above_floor(term: str, largest: float, floor: float) -> Optional[str]:
    """None when ``largest`` is at or below the rounding floor; otherwise
    that part of the Fourier rule, failed (NaN fails it too)."""
    if largest <= floor:
        return None
    return f"{term} of {largest:.3g} is not at or below the rounding floor {floor:.3g}"


def _dense_what(what: str, failed: Optional[str]) -> str:
    """``what`` for ``check_dense_bytes``, naming the failed Fourier rule."""
    return what if failed is None else f"{what}, where the claim fails the Fourier rule ({failed}),"


def _rounding_floor(n: int) -> float:
    """``max(sqrt(n), 4) eps``: what rounding leaves in a unit-scale check of
    order n.  At least four ulps: the characters of C_3 leave up to 2.6."""
    return float(max(np.sqrt(n), 4.0) * np.finfo(float).eps)


class _FourierRows(NamedTuple):
    """Each K row's DFT ``F_v``, split as ``D_v e_{p_v} + E_v``."""

    tops: np.ndarray        # p_v
    peaks: np.ndarray       # D_v
    rest_norms: np.ndarray  # |E_v|_2
    rest_max: float         # max |E_v| over every row and entry


def _fourier_split(k_rows: np.ndarray) -> _FourierRows:
    """``fft(k_rows)`` split into top entries and remainders, a chunk of
    rows at a time.  The top is the ``argmax`` of the magnitudes, which
    picks a NaN first, so a non-finite row keeps a NaN in its split."""
    m = len(k_rows)
    tops = np.empty(m, dtype=np.intp)
    peaks = np.empty(m, dtype=complex)
    rest_norms = np.empty(m)
    rest_max = 0.0
    step = max(1, groups._BLOCK_BYTES // (16 * m))
    for lo in range(0, m, step):
        transform = np.fft.fft(k_rows[lo:lo + step], axis=-1)
        sizes = np.abs(transform)
        top = np.argmax(sizes, axis=1)
        chunk = np.arange(len(top))
        tops[lo:lo + step] = top
        peaks[lo:lo + step] = transform[chunk, top]
        sizes[chunk, top] = 0.0
        rest_norms[lo:lo + step] = np.sqrt(np.einsum("vc,vc->v", sizes, sizes))
        rest_max = float(np.max(sizes, initial=rest_max))
    return _FourierRows(tops, peaks, rest_norms, rest_max)


def _distinct(tops: np.ndarray) -> bool:
    # bincount, not np.unique: the first np.unique call in a process maps
    # about 0.6 MB more of numpy's code
    return np.bincount(tops).max() <= 1


def _fourier_bounds(contracted: np.ndarray, h_rows: np.ndarray,
                    grid_eigenvalues: np.ndarray, rows: _FourierRows) -> tuple:
    """``(bound, remainder)``, each (l, m): for the vector of each pair
    (u, v), the Fourier bound on its max-abs residual and the largest
    remainder term in it (see ``_structured_residuals``).  Each temporary
    of a chunk of K rows holds at most ``_BLOCK_BYTES``."""
    l, m = grid_eigenvalues.shape
    # h_cols[i, u] = H[u, i]; reach[i, u] = max |contracted[i, u]|
    h_cols = h_rows.T[:, :, None]
    reach = np.abs(contracted).max(axis=-1)[:, :, None]
    peak_sizes = np.abs(rows.peaks) / m
    rest_sizes = rows.rest_norms / np.sqrt(m)
    bound = np.empty((l, m))
    remainder = np.empty((l, m))
    step = max(1, groups._BLOCK_BYTES // (16 * l * l))
    for lo in range(0, m, step):
        eigenvalues = grid_eigenvalues[:, lo:lo + step]
        # exact[i, u, v] = |g[p_v]| |D_v| / m
        exact = np.abs(contracted[:, :, rows.tops[lo:lo + step]] - eigenvalues * h_cols)
        exact *= peak_sizes[lo:lo + step]
        rest = (reach + np.abs(eigenvalues) * np.abs(h_cols)) * rest_sizes[lo:lo + step]
        remainder[:, lo:lo + step] = rest.max(axis=0)
        rest += exact
        bound[:, lo:lo + step] = rest.max(axis=0)
    return bound, remainder


def _residual_block(matrix, rows, eigenvalues) -> np.ndarray:
    """Max-abs residual of each vector in ``rows``: one GEMM for the block.

    ``matrix`` is complex, or float64 for a real adjacency: then the
    vectors' real and imaginary parts, interleaved in the C-contiguous
    block, go through one real GEMM whose output reads back as complex.
    """
    vectors = np.empty((matrix.shape[0], len(rows)), dtype=complex)
    vectors[...] = rows.T
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
    """``(gram_deviation, complete)``, plus the number of vectors checked and
    whether the Gram came from the Kronecker factors."""

    def __new__(cls, gram_deviation: float, complete: bool, vector_count: int,
                structured: bool = False):
        check = super().__new__(cls, (gram_deviation, complete))
        check.vector_count = vector_count
        check.structured = structured
        return check


def verify_basis(spectrum: Spectrum, *, _claim: Optional[_Claim] = None) -> BasisCheck:
    """Gram deviation of the claimed eigenvectors and the completeness flag.

    Returns ``(gram_deviation, complete)`` where completeness means the
    spectrum claims n vectors and its multiplicities sum to n; the
    result's ``vector_count`` is the number of claimed vectors.  When
    ``_checked_factors`` accepts the spectrum, the Gram matrix is
    ``G_H (x) G_K`` up to the order of the pairs, and its deviation comes
    from G_H and G_K in closed form.  G_K is read off the K rows' Fourier
    split (``_fourier_split``, ``_fourier_gram``): its diagonal exactly, and
    off it the bound ``(2 max|D| max|E| + max |E|_2^2) / m``, an upper
    bound whenever the top positions are distinct.  That runs when they
    are and the bound is at or below the rounding floor ``_rounding_floor(n)``.

    Otherwise the Gram matrix, Hermitian, has only its upper triangle
    formed: each row block from its diagonal block rightwards, never the
    whole matrix.  Factors are first stacked into their rows, within the
    byte budget; the message names the failed part of the Fourier rule
    when that sent them there.
    """
    count, n = spectrum.vector_count(), spectrum.n
    claim = _Claim(spectrum) if _claim is None else _claim
    gram_deviation, failed = claim.gram
    structured = gram_deviation is not None
    if not structured:
        if spectrum.factors is not None:
            check_dense_bytes(16 * count * n, _dense_what(
                f"stacking {count} claimed vectors of order {n}", failed))
        gram_deviation = _upper_gram_deviation(spectrum.vector_rows(0, count))
    complete = count == n == spectrum.total_multiplicity
    return BasisCheck(gram_deviation, complete, count, structured)


class _Claim:
    """A spectrum's claim as one certification call reads it: the factors
    ``_checked_factors`` accepts, their K rows' ``_fourier_split`` and, on
    first read, the factor-Gram result.  ``certify`` hands one claim to
    both of its checks; a claim lives for one call."""

    def __init__(self, spectrum: Spectrum):
        self.n, self.factors = spectrum.n, _checked_factors(spectrum)
        self.rows = None if self.factors is None else _fourier_split(self.factors.k_rows)

    @cached_property
    def gram(self) -> tuple:
        """``(gram_deviation, None)`` from the accepted factors when their
        K rows pass the Fourier rule; ``(None, failed)``, naming the failed
        part, when they do not; ``(None, None)`` without accepted factors."""
        if self.factors is None:
            return None, None
        if not _distinct(self.rows.tops):
            return None, _SHARED_TOP
        gram_deviation, off_k = _fourier_gram(self.factors.h_rows, self.rows)
        failed = _above_floor("the off-diagonal K Gram bound", off_k, _rounding_floor(self.n))
        return (None if failed else gram_deviation), failed


def _upper_gram_deviation(stacked: np.ndarray) -> float:
    """max |G - I| over the upper triangle of the Gram of ``stacked``'s
    rows, a row block at a time."""
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
    return gram_deviation


def _fourier_gram(h_rows: np.ndarray, rows: _FourierRows) -> tuple:
    """``(deviation, off_k)``: the factor-Gram deviation with G_K read off
    the Fourier split of the K rows, and the bound on |G_K| off its
    diagonal that went into it.

    By Parseval ``G_K[a, b] = <F_a, F_b> / m``.  Its diagonal is exact,
    ``(|D_a|^2 + |E_a|_2^2) / m``.  When the top positions are distinct,
    ``|G_K[a, b]| <= off_k = (2 max|D| max|E| + max |E|_2^2) / m`` off the
    diagonal.  With ``G = conj(R) R^T`` for the H rows R, the vectors'
    Gram entry for the pairs (u, v) and (u', v') is ``G_H[u, u'] *
    G_K[v, v']``, and entries with u' < u are conjugates of entries kept.
    Off the diagonal an entry's size is a product of sizes, so the
    deviation is the largest of three terms: max |G_H| over u' > u times
    max |G_K|; max |G_H[u, u]| times max |G_K| off its diagonal; and
    max |G_H[u, u] G_K[v, v] - 1|.  No product block is formed.
    """
    m = len(rows.tops)
    peak_sizes = np.abs(rows.peaks)
    off_k = (2 * np.max(peak_sizes) * rows.rest_max + np.max(rows.rest_norms) ** 2) / m
    diagonal_k = (peak_sizes ** 2 + rows.rest_norms ** 2) / m
    gram_h = h_rows.conj() @ h_rows.T
    diagonal_h = np.diagonal(gram_h)
    return float(np.max([
        np.triu(np.abs(gram_h), 1).max() * np.maximum(diagonal_k.max(), off_k),
        np.abs(diagonal_h).max() * off_k,
        np.abs(diagonal_h[:, None] * diagonal_k - 1).max(),
    ])), float(off_k)


def trace_identities(adjacency, color: ColorFunction) -> tuple:
    """Deviations |tr A - n alpha(e)| and |tr A^2 - n sum_g alpha(g) alpha(g^{-1})|."""
    matrix = _square_matrix(adjacency)
    _check_color(adjacency, color, len(matrix))
    return _trace_deviations(complex(np.trace(matrix)),
                             complex(np.einsum("ij,ji->", matrix, matrix)), color)


def _check_color(adjacency, color: ColorFunction, n: int) -> None:
    """DimensionMismatch unless the color's group has order n; InvalidAction
    unless it is the group of a beta table the adjacency carries."""
    if color.group.order != n:
        raise DimensionMismatch(
            f"color lives on a group of order {color.group.order}, adjacency has n={n}"
        )
    if isinstance(adjacency, AdjacencyMatrix) and adjacency.blocks is not None:
        _check_color_group(adjacency.blocks.group, color)


def _trace_deviations(trace: complex, trace_sq: complex, color: ColorFunction) -> tuple:
    group = color.group
    n = group.order
    pair_sum = _character_sums(color.vector, 1, lambda lo, hi, nz:
                               color.vector[group.inv_idx[nz]][np.newaxis]).item()
    return (float(abs(trace - n * color(group.identity))),
            float(abs(trace_sq - n * pair_sum)))


def _beta_traces(beta: np.ndarray) -> tuple:
    """tr A and tr A^2 of the circulant grid of ``beta``.

    ``tr A = m sum_i beta_ii(0)`` and
    ``tr A^2 = m sum_ij sum_c beta_ij(c) beta_ji(-c)``.
    """
    m = beta.shape[-1]
    # negated[j, i, c] = beta_ji(-c)
    negated = np.roll(beta[:, :, ::-1], 1, axis=-1).transpose(1, 0, 2)
    return (complex(m * np.trace(beta[:, :, 0])),
            complex(m * np.einsum("ijc,ijc->", beta, negated)))


def certify(adjacency, spectrum: Spectrum, color: ColorFunction,
            tol: float = 1e-9) -> VerificationReport:
    """Full certification: residuals, basis, completeness, trace identities.

    The color is checked against the adjacency's shape first, before any
    dense work.  When the residuals ran on the structured path, the trace
    identities come from the beta table the adjacency carries; otherwise
    from ``trace_identities`` on its matrix.  The residual and basis checks
    read one ``_Claim``, and a dense check budgets a formed matrix with
    the factor rows stacked beside it.
    """
    _check_color(adjacency, color, _adjacency_n(adjacency))
    claim = _Claim(spectrum)
    report = verify_eigenpairs(adjacency, spectrum, tol=tol, _claim=claim)
    basis = verify_basis(spectrum, _claim=claim)
    if report.structured:
        trace_dev, trace_sq_dev = _trace_deviations(
            *_beta_traces(adjacency.blocks.beta_values), color)
    else:
        trace_dev, trace_sq_dev = trace_identities(adjacency, color)
    report.gram_deviation, report.complete = basis
    report.vector_count = basis.vector_count
    report.trace_deviation = trace_dev
    report.trace_sq_deviation = trace_sq_dev
    return report


def compare_spectra(first: Spectrum, second: Spectrum,
                    tol: float = 1e-9) -> tuple:
    """Compare eigenvalue multisets; returns (equal, witness_pair_or_None).

    Values are grouped by chaining pairs within ``tol``, then each group
    must contribute equally often to both sides: each line's eigenvalue
    is clustered once, weighted by its multiplicity on the first side and
    by minus it on the second, and a line of multiplicity <= 0 takes no
    part.  The witness is the smallest representative, in value order, of
    a group with a surplus on the first side and of one with a deficit.
    Pairing sorted positions instead would misalign values that differ
    only by rounding noise in one coordinate, e.g. a conjugate pair with
    dusty real parts.
    """
    kept = first.multiplicities > 0, second.multiplicities > 0
    left, right = first.multiplicities[kept[0]], second.multiplicities[kept[1]]
    if left.sum() != right.sum():
        raise DimensionMismatch(f"multisets have sizes {left.sum()} and {right.sum()}")
    values, balances = _clusters(
        np.concatenate((first.eigenvalues[kept[0]], second.eigenvalues[kept[1]])),
        np.concatenate((left, -right)), tol)
    surplus = [value for value, balance in zip(values, balances) if balance > 0]
    deficit = [value for value, balance in zip(values, balances) if balance < 0]
    if not surplus:
        return True, None
    return False, (surplus[0], deficit[0])


def verify_block_reconstruction(group: FiniteGroup, color: ColorFunction,
                                irrep_set: IrrepSet) -> float:
    """Max deviation between the regular-representation adjacency and its
    coefficient-basis reconstruction.

    The left side is the transpose of sum_g alpha(g) * M(g) over left
    translation matrices, whose (i, j) entry is alpha(g_j g_i^{-1}): the
    adjacency from ``adjacency_matrix``.  The right side conjugates the
    per-irrep blocks diag(I_{d_k} (x) block_k^T) back through the
    coefficient basis; both come from ``block_diagonalize``, which raises
    CapacityExceeded above ``spectra.RECONSTRUCTION_CAPACITY``.
    """
    return spectra.block_diagonalize(group, color, irrep_set).reconstruction_deviation
