"""Exemplar-based clustering by damped message passing on a dense similarity matrix.

Every point starts as a candidate exemplar. Points exchange two kinds of
messages: the responsibility r(i, k), sent from point i to candidate k,
accumulates evidence for how well-suited k is to serve as i's exemplar
given the competing candidates; the availability a(i, k), sent from k back
to i, accumulates evidence from the support k receives from other points.
A point k is elected exemplar once a(k, k) + r(k, k) turns positive, and
iteration stops when those decisions stay constant for a configured number
of sweeps.

Similarities are negative squared Euclidean distances between planar
coordinates, so the maximum similarity is 0 (identical points). S is a
plain n x n float64 array, and every function here takes it as one. The
exemplar preference is the diagonal of S and is recorded nowhere else: a
NaN there means no preference is set yet. Larger (closer to zero)
preference values make points more eager to become exemplars and produce
more, smaller clusters. Preferences are set from a quantile of the
off-diagonal similarities. A run needs at least two points.

One kernel does the message passing in place: it holds S, R and A, a
column-support vector and one scratch block of rows, and sweeps the rows
block by block, so an iteration allocates no n x n temporary. A run mutates
only its own state and, while a jittered loop runs, its S, so concurrent
runs on separate matrices need no coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geo import planar_to_array

# Scratch budget per row block: the message-passing kernel's block holds as
# many rows as fit in this many bytes of float64 (at least one), and the
# distance construction's (rows, n, 2) differences fit in the same budget.
# Each kernel pass touches four blocks of this size (scratch and the rows of
# S, R and A), so 512 KiB keeps a pass within a 2 MiB per-core L2.
_SCRATCH_BYTES = 2**19
# Length-n float vectors a run holds next to its matrices (column support,
# decision criterion, decision flags), with room to spare, and a fixed
# allowance for interpreter and allocator overhead. Measured on Linux with
# glibc: at most 250 KiB above the matrices and scratch for n up to 4000,
# with or without jitter, which the vectors' 8 * n floats already cover.
_RUN_VECTORS = 8
_RUN_OVERHEAD_BYTES = 2**19


@dataclass(frozen=True)
class ApcConfig:
    """Knobs for a clustering run.

    q is the preference quantile in [0, 1]: q=0 uses the minimum
    off-diagonal similarity (few, large clusters), q=1 the maximum (many,
    small clusters). Damping blends each new message with the previous one
    to prevent oscillation. jitter_scale optionally adds seeded noise to
    the off-diagonal similarities to break exact degeneracies; it defaults
    to 0, and all tie-breaking is deterministic by lowest index.
    """

    q: float = 0.5
    damping: float = 0.9
    max_iterations: int = 1000
    convergence_window: int = 100
    jitter_scale: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise InputError(f"q must be in [0, 1], got {self.q}")
        if not 0.5 <= self.damping < 1.0:
            raise InputError(f"damping must be in [0.5, 1), got {self.damping}")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be positive")
        if self.convergence_window < 1:
            raise InputError("convergence_window must be positive")
        if self.convergence_window >= self.max_iterations:
            raise InputError("convergence_window must be smaller than max_iterations")
        if not 0 <= self.jitter_scale < math.inf:
            raise InputError(f"jitter_scale must be non-negative and finite, got {self.jitter_scale}")
        if self.rng_seed < 0:
            raise InputError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class ClusterResult:
    """Exemplar indices and per-point assignments with convergence metadata."""

    exemplars: list[int]
    assignment: np.ndarray
    converged: bool
    iterations_run: int
    net_similarity: float


def build_similarity(points) -> np.ndarray:
    """Build the n x n array s(i, k) = -||x_i - x_k||^2 from planar metric coordinates.

    s[i, k] is the similarity of point i to candidate exemplar k. The
    diagonal is the preference: it is left NaN until apply_preference /
    set_preference fills it. At least two points are required, and no
    squared distance between them may overflow float64. Coordinates must
    already be projected to meters; differences are computed explicitly
    (blocked over rows) so identical points yield an exact similarity of 0.
    """
    xy = planar_to_array(points)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise InputError(f"expected planar (n, 2) coordinates, got shape {xy.shape}")
    n = xy.shape[0]
    if n < 2:
        raise InputError(f"at least two points are required, got {n}")
    bad = ~np.isfinite(xy).all(axis=1)
    if bad.any():
        raise InputError(f"non-finite coordinate at index {int(np.flatnonzero(bad)[0])}")

    s = np.empty((n, n), dtype=np.float64)
    _fill_similarity(xy, s, np.nan)
    # Finite coordinates can still overflow when squared; nanmin skips the NaN diagonal.
    if np.nanmin(s) == -np.inf:
        raise InputError("squared distances between points overflow float64")
    return s


def _fill_similarity(xy: np.ndarray, s: np.ndarray, diagonal) -> None:
    """Write -||x_i - x_k||^2 into s off the diagonal, and diagonal on it."""
    block = max(1, _SCRATCH_BYTES // (16 * len(xy)))
    for start in range(0, len(xy), block):
        diff = xy[start : start + block, None, :] - xy[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=s[start : start + block])
    np.negative(s, out=s)
    np.fill_diagonal(s, diagonal)


def off_diagonal(s: np.ndarray) -> np.ndarray:
    """All entries s(i, k) with i != k, as a new flat array in row-major order."""
    n = s.shape[0]
    # Dropping s[0, 0] leaves each diagonal entry at the end of a row of n + 1.
    return s.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].flatten()


def preferences(s: np.ndarray) -> np.ndarray:
    """The diagonal of S, as a read-only view; raises if a NaN there shows no preference is set."""
    p = s.diagonal()
    if np.isnan(p).any():
        raise ValueError("preference has not been applied")
    return p


def apply_preference(s: np.ndarray, q: float) -> np.ndarray:
    """Set every diagonal entry to the q-quantile of the off-diagonal similarities.

    Uses linear interpolation, so q=0 gives the minimum and q=1 the
    maximum. Only the off-diagonal is read, so a second call just sets the
    diagonal again. Modifies s in place and returns it.
    """
    if not 0.0 <= q <= 1.0:
        raise InputError(f"q must be in [0, 1], got {q}")
    p = float(np.quantile(off_diagonal(s), q, overwrite_input=True))
    np.fill_diagonal(s, p)
    return s


def set_preference(s: np.ndarray, preference) -> np.ndarray:
    """Set the diagonal to an explicit preference (scalar or per-point vector).

    Escape hatch for calibrated runs that bypass the quantile mapping,
    e.g. a preference strictly above the maximum off-diagonal similarity
    to force every point into its own cluster. In place, returns s.
    """
    p = np.asarray(preference, dtype=np.float64)
    if not np.isfinite(p).all():
        raise InputError("preference must be finite")
    np.fill_diagonal(s, p)
    return s


def _block_rows(n: int) -> int:
    """Rows per block of the message-passing kernel for an n-point run."""
    return max(1, _SCRATCH_BYTES // (8 * n))


def message_workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's buffers besides S, R and A: the column-support vector and a (block + 1) x n scratch."""
    return np.zeros(n), np.empty((_block_rows(n) + 1, n))


def estimate_apc_memory_gb(n: int) -> float:
    """Peak resident estimate for one run, in GB: the message-passing kernel's buffers at 64-bit.

    Those are S, R and A (jitter is added to S in place), the (block + 1) x n
    scratch and a few length-n vectors, plus a fixed allowance for
    interpreter and allocator overhead. Every other stage holds less: the
    preference quantile holds S and one copy of its off-diagonal.
    """
    floats = 3 * n * n + (_block_rows(n) + 1) * n + _RUN_VECTORS * n
    return (8.0 * floats + _RUN_OVERHEAD_BYTES) / 1e9


def update_responsibilities(
    s: np.ndarray, r: np.ndarray, a: np.ndarray, damping: float, support: np.ndarray, tmp: np.ndarray
) -> None:
    """One responsibility sweep: r(i, k) = s(i, k) - max_{k' != k} {a(i, k') + s(i, k')}.

    The stored value is the damped blend damping * r_old + (1 - damping) * r_raw.
    Rows are updated in place, one block of tmp.shape[0] - 1 rows at a time.
    tmp is the scratch message_workspace returns: it must be C-contiguous,
    since entries of a block are written through its flat view.

    The sweep also leaves in support the column sums of max{0, r(i, k)} with
    r(k, k) kept as is on the diagonal, which update_availabilities needs.
    Row 0 of tmp carries the running sum into each block's reduction, so the
    sum adds rows in the same order, and to the same bits, as one reduction
    over the whole matrix.
    """
    n = s.shape[0]
    block = tmp.shape[0] - 1
    # Offset of each block row in the block's flat view; a row's argmax plus
    # its offset indexes that entry of the flattened block.
    steps = np.arange(block) * n
    support.fill(0.0)
    for start in range(0, n, block):
        stop = min(start + block, n)
        s_blk = s[start:stop]
        r_blk = r[start:stop]
        raw = tmp[1 : stop - start + 1]
        # A view of tmp; the block's diagonal entries are flat[start :: n + 1].
        flat = raw.reshape(-1)
        np.add(a[start:stop], s_blk, out=raw)
        top = raw.argmax(axis=1)
        top += steps[: stop - start]
        first = flat[top]
        flat[top] = -np.inf
        second = raw.max(axis=1)
        np.subtract(s_blk, first[:, None], out=raw)
        flat[top] = s_blk.reshape(-1)[top] - second
        r_blk *= damping
        raw *= 1.0 - damping
        r_blk += raw
        np.maximum(r_blk, 0.0, out=raw)
        flat[start :: n + 1] = r_blk.reshape(-1)[start :: n + 1]
        tmp[0] = support
        np.add.reduce(tmp[: stop - start + 1], axis=0, out=support)


def update_availabilities(
    r: np.ndarray, a: np.ndarray, damping: float, support: np.ndarray, tmp: np.ndarray
) -> None:
    """One availability sweep, from the column support left by update_responsibilities.

    Off-diagonal: a(i, k) = min{0, r(k, k) + sum over i' not in {i, k} of
    max{0, r(i', k)}}, so availabilities never exceed zero. Diagonal:
    a(k, k) = sum over i' != k of max{0, r(i', k)}, a sum of non-negative
    support terms. Both are support[k] minus row i's own term, in two passes
    per block: min{support[k] - r(i, k), min{support[k], 0}} off the
    diagonal, which equals min{0, support[k] - max{0, r(i, k)}}, then
    support[k] - r(k, k) on it. min{support, 0} is computed once per sweep
    into the last row of tmp, which no block uses. Damped blend as in
    update_responsibilities, in place, one row block at a time.
    """
    n = r.shape[0]
    block = tmp.shape[0] - 1
    capped = tmp[block]
    np.minimum(support, 0.0, out=capped)
    for start in range(0, n, block):
        stop = min(start + block, n)
        r_blk = r[start:stop]
        a_blk = a[start:stop]
        raw = tmp[: stop - start]
        np.subtract(support, r_blk, out=raw)
        np.minimum(raw, capped, out=raw)
        raw.reshape(-1)[start :: n + 1] = support[start:stop] - r_blk.reshape(-1)[start :: n + 1]
        a_blk *= damping
        raw *= 1.0 - damping
        a_blk += raw


def decide_exemplars(s: np.ndarray, criterion: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract exemplar indices and per-point assignments from the decision criterion.

    criterion[k] is a(k, k) + r(k, k), and point k is an exemplar when it is
    positive. If no point qualifies, the single best-scoring point is used
    as a fallback so a result always exists. Points are first partitioned
    by similarity to the chosen exemplars; then one refinement pass replaces
    each cluster's exemplar with the member of greatest summed similarity to
    the cluster and re-partitions. Ties break toward the lowest index, and
    exemplars are always assigned to themselves.
    """
    exemplars = np.flatnonzero(criterion > 0)
    if exemplars.size == 0:
        exemplars = np.array([int(np.argmax(criterion))], dtype=np.intp)
    labels = np.argmax(s[:, exemplars], axis=1)
    labels[exemplars] = np.arange(exemplars.size)
    for k in range(exemplars.size):
        members = np.flatnonzero(labels == k)
        within = s[np.ix_(members, members)].sum(axis=0)
        exemplars[k] = members[int(np.argmax(within))]
    exemplars.sort()
    assignment = exemplars[np.argmax(s[:, exemplars], axis=1)]
    assignment[exemplars] = exemplars
    return exemplars, assignment


def net_similarity(s: np.ndarray, exemplars: np.ndarray, assignment: np.ndarray) -> float:
    """Sum of s(i, assignment(i)) over non-exemplars plus the preference of each exemplar.

    This is the objective the message passing approximately maximizes.
    """
    is_exemplar = np.zeros(s.shape[0], dtype=bool)
    is_exemplar[exemplars] = True
    others = np.flatnonzero(~is_exemplar)
    value = float(s[others, assignment[others]].sum())
    value += float(preferences(s)[exemplars].sum())
    return value


def run_apc_on_matrix(s: np.ndarray, config: ApcConfig, xy: np.ndarray | None = None) -> ClusterResult:
    """Iterate message passing on a prepared similarity matrix until the exemplar decisions stabilize.

    Stops once the decision vector (which points satisfy a(k, k) + r(k, k) > 0)
    is unchanged for config.convergence_window consecutive iterations, or at
    config.max_iterations; the converged flag records which condition fired.
    When jitter is enabled, seeded noise is added off the diagonal of s in
    place, so a jittered run needs xy, the (n, 2) array s was built from;
    after the loop, even one that raises, s is rebuilt from xy and its
    diagonal put back, so exemplar refinement, net similarity and the caller
    see the clean matrix, bit for bit, in the same array.
    """
    diagonal = preferences(s).copy()
    if config.jitter_scale == 0:
        criterion, converged, iterations = _pass_messages(s, config)
    elif not isinstance(xy, np.ndarray) or xy.shape != (len(s), 2):
        raise ValueError("jitter needs the points S was built from; pass them as xy")
    else:
        _jitter(s, config.jitter_scale, config.rng_seed)
        try:
            criterion, converged, iterations = _pass_messages(s, config)
        finally:
            _fill_similarity(xy, s, diagonal)
    exemplars, assignment = decide_exemplars(s, criterion)
    return ClusterResult(
        exemplars=[int(e) for e in exemplars],
        assignment=assignment.astype(np.int64),
        converged=converged,
        iterations_run=iterations,
        net_similarity=net_similarity(s, exemplars, assignment),
    )


def _pass_messages(s: np.ndarray, config: ApcConfig) -> tuple[np.ndarray, bool, int]:
    """The iteration loop: returns a(k, k) + r(k, k), whether it converged, and the iteration count.

    The kernel reads s as given (jitter, if any, is already in it) and holds
    R and A, the column support and one scratch block besides; all are
    released on return, before S is rebuilt and exemplar refinement runs.
    """
    n = s.shape[0]
    support, tmp = message_workspace(n)
    r = np.zeros((n, n))
    a = np.zeros((n, n))
    previous = None
    stable = 0
    converged = False
    for iteration in range(1, config.max_iterations + 1):
        update_responsibilities(s, r, a, config.damping, support, tmp)
        update_availabilities(r, a, config.damping, support, tmp)
        decisions = (a.diagonal() + r.diagonal()) > 0
        if previous is not None and np.array_equal(decisions, previous):
            stable += 1
        else:
            stable = 0
        previous = decisions
        # The all-negative warm-up plateau is not a fixed point: under heavy
        # damping no diagonal crosses zero for many early iterations.
        if stable >= config.convergence_window and decisions.any():
            converged = True
            break
    return a.diagonal() + r.diagonal(), converged, iteration


def _jitter(s: np.ndarray, scale: float, seed: int) -> None:
    """Add seeded normal noise to s in place, zero on the diagonal; the caller rebuilds s after use.

    The noise is drawn one row block at a time, in row order, from one
    Generator: value for value the stream of a single n x n
    ``normal(0, scale)`` draw, which computes 0 + scale * z. The added zero
    turns a -0.0 diagonal into +0.0.
    """
    n = s.shape[0]
    rng = np.random.default_rng(seed)
    block = _block_rows(n)
    buf = np.empty((block, n))
    for start in range(0, n, block):
        noise = rng.standard_normal(out=buf[: n - start])
        noise *= scale
        noise += 0.0
        np.fill_diagonal(noise[:, start:], 0.0)
        s[start : start + block] += noise


def run_apc(points, config: ApcConfig) -> ClusterResult:
    """Cluster planar points end to end: similarities, quantile preference, message passing.

    Deterministic given the point order, the config, and its seed.
    """
    xy = planar_to_array(points)
    s = apply_preference(build_similarity(xy), config.q)
    return run_apc_on_matrix(s, config, xy)
