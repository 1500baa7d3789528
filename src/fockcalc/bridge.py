"""Pathwise Rademacher realization of the noise, used as an exact oracle.

The coefficient calculus never touches sample paths; this module rebuilds
everything pathwise for the fair-coin sign noise and compares.  With horizon
N the exhaustive space enumerates all 2**N sign paths with equal weight, so
expectations, conditional expectations and the classical predictable
representation become exact finite averages: every identity the coefficient
side claims can be measured here with no Monte Carlo error.

Path encoding: a space holds its paths only as int64 codes, bit k set iff
the sign at coordinate k is +1, and every path weighs 1/num_paths.  The
exhaustive space lists the codes 0..2**N-1 in ascending order, so a path's
index is its code; a sampled space packs its seeded sign draws into codes.
A term's sign product on a path is then -1 exactly when the term's mask and
the path's down-coordinates share an odd number of bits, so ``evaluate``
reads every term from one popcount parity.  Terms are added in ascending
mask order, and every reduction over paths runs in a fixed order, so results
are bit-stable for a given functional and space.

Conditioning on coordinates 0..k is a halving tree (``_halving_sums``): the
two halves of a row of path values are added, from the top coordinate down
to coordinate k + 1, and the sums divided once by a power of two.  Values
that repeat along a coordinate above k thus add as 2a there, exactly, and
average bit for bit as one copy, and the tree that ends at level k passes
through every level above it.  Overall means and second moments are
``_path_means``: ``np.sum`` over the paths, divided by their count.  Where
finite values sum past the double range, both sum them times 2**-e instead,
2**e above the count, and scale back.  Where the squares of finite values
leave the range, a second moment is taken of the values over 2**e, e their
binary order, and scaled back in factors that stay in range, so it is inf
only where it overflows itself.  A sweep gap that is not finite raises.

From 2**10 paths per functional on (``_TABLE_PATHS``), the realization
kernel reads the first t terms, t at most log2 of the path count, from a
prefix table: the 2**t sums that their sign choices give.  A path's sign
pattern (bit j: the j-th term's parity) is linear over GF(2) in its bits, so
it is read from a table indexed by the bits the t terms span; that span must
be at most 16 bits and the table at most twice the path count, or every term
takes its own pass.  The sums are built by the per-term additions, in their
order, so each path reads its partial sum bit for bit, and the later terms
are added as before.

The bridge sweep realizes each operator output only on the paths its value
depends on, bit for bit the values it takes on all of them: with horizon N,
phi on all 2**N paths, each site-k gradient (which holds no term at k) on
the 2**(N-1) paths with bit k clear, each level-k conditioning (which holds
only coordinates 0..k) on the first 2**(k+1) paths, and the mean part on
one.  A level-k conditioning that holds exactly phi's terms, as it always
does at k = N-1, is not realized again: its values are phi's on those
paths.  An output that meets the coordinates its reduced set fixes, as only
a faulty operator's can, is realized on every path.

The sweep's means come from the same trees.  The Clark–Ocone rebuild's
predictable part, the gradient's mean given coordinates before k, is taken
on the half set: the gradient repeats along coordinate k, so this is its
tree on every path.  The level-k group means of phi all come from one tree
of phi's values per block, built down to the lowest site swept; its sums are
those of each level's own tree.

The sweep takes a corpus in blocks of functionals that share one space,
``max(1, 2**13 >> N)`` at a time, and realizes each path set at most once
per block, one row per functional.  Every row is bit for bit what the functional gives
alone: it adds its own terms in ascending mask order, padded with exact zeros
up to the block's widest member (a block is ordered by falling term count, so
few are needed), and every mean, group mean, maximum and second moment is
reduced per row.  If one member's output meets the fixed coordinates, the
whole block is realized on every path; a correct member repeats its values
there, so its gaps do not change.

A sweep returns one table (``_sweep``, and ``_swept`` for a whole corpus):
a dict of arrays with one row per functional, in corpus order.

- ``mean``, shape (B,): the mean part's gap;
- ``gradient`` and ``conditioning``, shape (B, len(sites)): per swept site
  k, the site-k gradient's and the level-k conditioning's gap;
- ``second_moment``, shape (B,): the pathwise mean of |phi|**2;
- ``clark_ocone``, shape (B,), present only when every site is swept, in
  ascending order: the Clark–Ocone rebuild's residual.

``check_intertwining`` reads one row of the first three,
``classical_clark_ocone_check`` one of ``clark_ocone``, and the bridge suite
and ``fockcalc bridge --k`` the worst of each column over their corpus.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    HorizonTooLargeError,
    NonFiniteResultError,
    RequiresExhaustiveError,
    SupportExceedsHorizonError,
)
from .functional import FockFunctional, norm_p
from .operators import annihilate, cond_expect, expect

#: Exhaustive enumeration cap: 2**20 paths is the desk-scale ceiling, which
#: also caps the path count of a sampled space.
MAX_EXHAUSTIVE_HORIZON = 20

#: Path codes are int64 with the sign bit unused, so a path holds 63 signs.
MAX_CODED_HORIZON = 63

#: Largest horizon of the sweeps over every subset or site, which run N times
#: over all 2**N paths: the orthonormality butterfly and the bridge sweep
#: (``classical_clark_ocone_check``), and so of ``SuiteConfig.horizon``.
MAX_ORTHONORMALITY_HORIZON = 16

#: Paths the bridge sweep realizes a block of functionals on at once: the
#: block size is this over 2**horizon, and at least one.
_BLOCK_PATHS = 1 << 13

#: Paths per row from which ``_realize`` reads its first terms from a table
#: of partial sums; below it, the table costs more than the passes it saves.
_TABLE_PATHS = 1 << 10


@dataclass(frozen=True, eq=False)
class PathSpace:
    """A finite family of equally weighted sign paths over ``horizon`` coordinates.

    ``codes`` holds one int64 bit-code per path (bit k set iff the sign at k
    is +1); each path weighs 1/num_paths.  Exhaustive spaces carry all
    2**horizon paths; sampled spaces are reproducible from (paths, seed).
    """

    horizon: int
    mode: str
    codes: np.ndarray
    seed: Optional[int] = None

    @property
    def num_paths(self) -> int:
        return self.codes.shape[0]


@dataclass(frozen=True, eq=False)
class PathObservable:
    """One complex value per path of the generating space."""

    values: np.ndarray
    space: PathSpace


def build_space(
    N: int,
    mode: str = "exhaustive",
    M: Optional[int] = None,
    seed: Optional[int] = None,
) -> PathSpace:
    """Build the path space for horizon ``N``.

    Exhaustive mode enumerates all 2**N paths (N <= 20) in ascending binary
    order.  Sampled mode draws M <= 2**20 paths (N <= 63, the width of a path
    code) from a seeded PCG64 stream; the codes are a pure function of
    (N, M, seed).
    """
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")
    if mode == "exhaustive":
        if N > MAX_EXHAUSTIVE_HORIZON:
            raise HorizonTooLargeError(
                f"exhaustive horizon {N} exceeds cap {MAX_EXHAUSTIVE_HORIZON}"
            )
        return PathSpace(horizon=N, mode="exhaustive", codes=np.arange(1 << N, dtype=np.int64))
    if mode == "sampled":
        if M is None or M < 1:
            raise ValueError("sampled mode needs a positive path count M")
        if M > 1 << MAX_EXHAUSTIVE_HORIZON:
            raise CapExceededError(
                f"sampled path count {M} exceeds cap {1 << MAX_EXHAUSTIVE_HORIZON}"
            )
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        if N > MAX_CODED_HORIZON:
            raise HorizonTooLargeError(
                f"sampled horizon {N} exceeds the path-code width {MAX_CODED_HORIZON}"
            )
        # Draw bit k of every path as column k of one int8 block (1 means +1),
        # so the paths stay the ones this seed has always produced.
        rng = np.random.Generator(np.random.PCG64(seed))
        up = rng.integers(0, 2, size=(M, N), dtype=np.int8)
        codes = np.zeros(M, dtype=np.int64)
        for k in range(N):
            codes |= up[:, k].astype(np.int64) << k
        return PathSpace(horizon=N, mode="sampled", codes=codes, seed=seed)
    raise ValueError(f"unknown mode {mode!r}")


def _realize(block: Sequence[FockFunctional], down: np.ndarray) -> np.ndarray:
    """Each functional's values on the paths whose down-coordinates are ``down``.

    ``down`` may have any shape; row b of the result, of shape
    ``(len(block), *down.shape)``, holds ``block[b]``'s values.  A term's sign
    product is -1 on the paths where its mask meets an odd number of
    down-coordinates, so each row adds +coef or -coef per term, in ascending
    mask order.  The j-th pass covers the rows up to the last one that has a
    j-th term; a row among them with fewer terms adds an exact zero, which
    leaves its values as they were (a sum begun at +0 never reaches -0).

    From ``_TABLE_PATHS`` (2**10) paths per row on, the first t passes (t
    the widest row's term count, at most log2 of the paths per row) are read
    instead from ``_prefix_sums``: per row, a prefix table of the 2**t
    partial sums, indexed by each path's sign pattern.  The table is built
    by the passes' own additions in their order, so each row stays bit for
    bit what the passes give; they go on from term t.  Below the threshold,
    or where ``_prefix_sums`` declines, t is 0.
    """
    rows = [sorted(phi._terms.items()) for phi in block]
    widest = max(map(len, rows), default=0)
    t = min(widest, down.size.bit_length() - 1) if down.size >= _TABLE_PATHS else 0
    values = _prefix_sums(rows, t, down) if t else None
    if values is None:
        t, values = 0, np.zeros((len(block), *down.shape), dtype=np.complex128)
    # Row i's j-th term picks entry 2i (+coef) or 2i + 1 (-coef) of a
    # flattened (rows, 2) table.
    row_base = np.arange(0, 2 * len(block), 2).reshape((-1,) + (1,) * down.ndim)
    for j in range(t, widest):
        held = max(b for b, terms in enumerate(rows) if len(terms) > j) + 1
        terms = [row[j] if len(row) > j else (0, 0j) for row in rows[:held]]
        if held == 1:
            # One row needs no row offset and adds on its own row view, which
            # keeps a block of one at the speed of the one-functional loop.
            mask, coef = terms[0]
            first = values[0]
            first += np.array([coef, -coef]).take(np.bitwise_count(down & mask) & 1)
        else:
            masks, coefs = zip(*terms)
            odd = np.bitwise_count(down & np.array(masks).reshape(row_base[:held].shape)) & 1
            head = values[:held]
            head += np.array([(c, -c) for c in coefs]).reshape(-1).take(odd | row_base[:held])
    return values


def _prefix_sums(rows: list, t: int, down: np.ndarray) -> Optional[np.ndarray]:
    """The first ``t`` passes of ``_realize``, read from one table per row.

    Entry p of row b's table is the sum, begun at +0 and in term order, of
    the row's first t terms with the j-th negated where bit j of p is set (a
    row with fewer terms pads with 0j, as a pass does).  The table doubles
    per term: the upper half is the lower one plus -coef, then the lower
    half adds +coef.  These are a pass's own additions in its order, so
    every entry is that sign pattern's partial sum bit for bit.

    Bit j of a path's sign pattern is the parity of ``down & mask_j``, which
    is linear over GF(2) in the path's bits.  So one table, doubled per bit
    up to the highest the t masks hold (their span), holds for every value
    of those bits the XOR of the term sets of its set bits, and a path reads
    its pattern there.  That table has 2**span entries per row whatever the
    path count, so this returns None where the span passes 16 bits or the
    table twice the paths (an exhaustive gradient's half set spans all its
    bits), and where a sum is not finite, so that an overflow is reported
    as it always was; the passes then add every term.
    """
    leading = [row[:t] + [(0, 0j)] * (t - len(row)) for row in rows]
    masks = np.array([[m for m, _ in row] for row in leading], dtype=np.int64)
    width = int(masks.max()).bit_length()
    if width > 16 or 1 << width > 2 * down.size:
        return None
    plus = np.array([[c for _, c in row] for row in leading], dtype=np.complex128).T[:, :, None]
    minus = -plus
    sums = np.zeros((len(rows), 1 << t), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(t):
            h = 1 << j
            np.add(sums[:, :h], minus[j], out=sums[:, h : 2 * h])
            np.add(sums[:, :h], plus[j], out=sums[:, :h])
    if not np.isfinite(sums).all():
        return None
    # Bit j of terms_at[i, b] is set iff row b's j-th term holds coordinate i.
    terms_at = (((masks >> np.arange(width)[:, None, None]) & 1) << np.arange(t)).sum(-1)
    sets = np.zeros((len(rows), 1 << width), dtype=np.int64)
    for i in range(width):
        h = 1 << i
        np.bitwise_xor(sets[:, :h], terms_at[i, :, None], out=sets[:, h : 2 * h])
    pattern = _take_rows(sets, down & (sets.shape[1] - 1), down.shape)
    return _take_rows(sums, pattern, down.shape)


def _take_rows(table: np.ndarray, index: np.ndarray, shape: tuple) -> np.ndarray:
    # Row b of ``table`` read at ``index``, or at ``index[b]`` where it has a
    # row axis: an array of shape (rows, *shape).  One row needs no offsets,
    # which spares a block of one a pass over its paths.
    if table.shape[0] == 1:
        return table[0].take(index).reshape(1, *shape)
    offsets = np.arange(0, table.size, table.shape[1]).reshape((-1,) + (1,) * len(shape))
    return table.reshape(-1).take(index + offsets)


def _require_fits(phi: FockFunctional, space: PathSpace) -> None:
    if phi.support_max >= space.horizon:
        raise SupportExceedsHorizonError(
            f"support reaches index {phi.support_max}, horizon is {space.horizon}"
        )


def evaluate(phi: FockFunctional, space: PathSpace) -> PathObservable:
    """Realize the functional pathwise: sum of coef * product of member signs.

    Requires every support index to lie inside the horizon.  Finite
    coefficients can still sum past the double range on a path: that raises
    NonFiniteResultError naming the first such path, so every mean, estimate
    and export of the observable reads finite values.
    """
    _require_fits(phi, space)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _realize((phi,), ~space.codes)[0]
    finite = np.isfinite(values)
    if not finite.all():
        index = int(np.argmin(finite))
        raise NonFiniteResultError(f"the realized value at path index {index} is not a finite number")
    return PathObservable(values=values, space=space)


def path_expectation(obs: PathObservable) -> complex:
    """Mean over the equally weighted paths; exact on exhaustive spaces.

    The mean is the path sum divided by the path count (``_path_means``),
    so the division is exact where 1/M is not representable, and a mean of
    finite values is finite.
    """
    return complex(_path_means(obs.values))


def _path_means(values: np.ndarray) -> np.ndarray:
    # Each row's (last axis) sum over its paths divided by their count,
    # rescued as the module docstring states.
    count = values.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(values, axis=-1)
    if np.isfinite(total).all() or not np.isfinite(values).all():
        return total / count
    e = count.bit_length()
    return np.sum(values * 2.0**-e, axis=-1) / count * 2.0**e


def _require_exhaustive(space: PathSpace) -> None:
    if space.mode != "exhaustive":
        raise RequiresExhaustiveError("pathwise conditioning needs the exhaustive space")


def path_cond_expect(obs: PathObservable, k: int) -> PathObservable:
    """Average over the paths sharing coordinates 0..k (exhaustive only).

    k = -1 returns the constant mean observable; k beyond the horizon
    conditions on everything and returns the values unchanged.  The averages
    are ``_group_means``'s halving-tree means, so a mean of finite values is
    finite, and values repeated along a coordinate above k average as one
    copy, bit for bit.
    """
    space = obs.space
    _require_exhaustive(space)
    if k < -1:
        raise ValueError(f"conditioning level must be >= -1, got {k}")
    if k >= space.horizon - 1:
        return PathObservable(values=obs.values.copy(), space=space)
    means = _group_means(obs.values, k)
    return PathObservable(values=np.tile(means, space.num_paths // means.shape[0]), space=space)


def _halving_sums(values: np.ndarray, k: int) -> tuple[list[np.ndarray], float]:
    """The halving tree of each row (last axis) of ``values`` to level ``k``, and its scale.

    Entry j sums each row over its top j coordinates, of the values over the
    scale; the last entry has 2**(k+1) columns.  The scale is 1.0 unless that
    entry holds a sum of finite values past the range (a sum that is not
    finite leaves every sum built from it so), and then 2**e above its count.
    """
    sums = [values]
    with np.errstate(over="ignore", invalid="ignore"):
        while sums[-1].shape[-1] > 1 << (k + 1):
            top = sums[-1]
            half = top.shape[-1] // 2
            sums.append(top[..., :half] + top[..., half:])
    if np.isfinite(sums[-1]).all() or not np.isfinite(values).all():
        return sums, 1.0
    # A group adds fewer than 2**e values over 2**e, so no scaled sum overflows.
    scale = 2.0 ** (values.shape[-1] >> (k + 1)).bit_length()
    return _halving_sums(values / scale, k)[0], scale


def _tree_means(sums: list[np.ndarray], scale: float, j: int) -> np.ndarray:
    # Entry j's group means: its sums over the paths each adds, scaled back.
    return sums[j] / (sums[0].shape[-1] // sums[j].shape[-1] / scale)


def _group_means(values: np.ndarray, k: int) -> np.ndarray:
    """Mean over the paths sharing coordinates 0..k: entry j for the pattern j.

    Each row (last axis) of ``values`` lists the paths of an exhaustive space,
    or of one with coordinates fixed, in code order, so coordinates 0..k are
    its low 2**(k+1) columns.  The mean adds the two halves of the row from
    the top coordinate down to coordinate k + 1 (``_halving_sums``), then
    divides once by the power of two summed.  A coordinate whose two halves
    are equal adds as 2a, exactly, so rows repeated along any coordinate
    above k give the means of one copy, bit for bit.  k = -1 gives each row's
    one overall mean.  A mean of finite values is finite.
    """
    return _tree_means(*_halving_sums(values, k), -1)


def check_orthonormality(N: int) -> float:
    """Max deviation of pathwise basis products from exact orthonormality.

    Sweeps every pair of subsets of {0..N-1}.  Since the product of two basis
    realizations is the realization of the symmetric difference, it suffices
    to transform the path weights once (a signed Hadamard butterfly) and read
    off the mean of every product realization in one pass.
    """
    if N < 1:
        raise ValueError(f"horizon must be >= 1, got {N}")
    if N > MAX_ORTHONORMALITY_HORIZON:
        raise HorizonTooLargeError(
            f"all-pairs sweep at horizon {N} exceeds cap {MAX_ORTHONORMALITY_HORIZON}"
        )
    # means[mask] = weighted path mean of the product of the mask's signs,
    # starting from the uniform weight of every path.
    means = np.full(1 << N, 2.0 ** (-N))
    for bit in range(N):
        h = 1 << bit
        view = means.reshape(-1, 2, h)
        low, high = view[:, 0, :].copy(), view[:, 1, :].copy()
        view[:, 0, :] = low + high
        view[:, 1, :] = high - low
    return float(max(abs(means[0] - 1.0), np.max(np.abs(means[1:]))))


@np.errstate(over="ignore", invalid="ignore")
def _sweep(
    block: Sequence[FockFunctional], space: PathSpace, sites: Sequence[int]
) -> dict[str, np.ndarray]:
    """Realize a block of functionals, then their site-k gradients and conditionings.

    Returns the block's table: one row per member, in block order, of

    - ``mean``, shape (B,): the mean part's gap to the pathwise mean;
    - ``gradient``, shape (B, len(sites)): per site, the gradient's gap to
      the sign-flip finite difference;
    - ``conditioning``, shape (B, len(sites)): per site, the level-k
      conditioning's gap to the pathwise group means;
    - ``second_moment``, shape (B,): the pathwise mean of |phi|**2;
    - ``clark_ocone``, shape (B,), only where ``sites`` (distinct
      coordinates) is every coordinate in ascending order: the residual of
      the pathwise Clark–Ocone rebuild.

    Each path set is realized at most once per block, on the reduced sets
    the module docstring lists, and every gap is reduced per row.  Callers
    check that ``space`` is exhaustive.  Raises NonFiniteResultError where a
    gap is not finite.
    """
    for phi in block:
        _require_fits(phi, space)
    # Ordered by falling term count, the block's operator outputs need few
    # padding zeros in ``_realize``; the results go back to block order.
    order = sorted(range(len(block)), key=lambda b: -len(block[b]._terms))
    block = [block[b] for b in order]
    down = ~space.codes
    values = _realize(block, down)
    means = _path_means(values)[:, None]

    def realize(outputs: list[FockFunctional], reduced: np.ndarray, fixed: int, full: np.ndarray):
        # ``reduced`` holds every pattern of the coordinates outside the mask
        # ``fixed`` and one of those inside it, so an output whose terms avoid
        # ``fixed`` takes there, bit for bit, every value it takes at all.  If
        # one output meets it (a faulty operator), the block is realized on
        # ``full``, where the others repeat their values.
        for psi in outputs:
            _require_fits(psi, space)
        meets = any(m & fixed for psi in outputs for m in psi._terms)
        return _realize(outputs, full if meets else reduced)

    def row_max(gaps: np.ndarray) -> np.ndarray:
        return gaps.max(axis=tuple(range(1, gaps.ndim)))

    rebuilt = means if list(sites) == list(range(space.horizon)) else None
    # The mean part is the level -1 conditioning: one path fixes every coordinate.
    mean_part = realize([expect(phi) for phi in block], down[:1], -1, down)
    gap_mean = row_max(np.abs(mean_part - means))
    # Level k's group means are the halving tree's sums over the top N-1-k
    # coordinates, divided once: one tree serves every level, and its means
    # are ``_group_means``'s own.
    tree = _halving_sums(values, min(sites))
    gradient_gaps, cond_gaps = [], []
    for k in sites:
        # Path m sits at [high, bit k of m, low] in these views; bit k clear is -1.
        down_pairs = down.reshape(-1, 2, 1 << k)
        half = np.ascontiguousarray(down_pairs[:, :1, :])
        gradient = realize([annihilate(phi, k) for phi in block], half, 1 << k, down_pairs)
        pairs = values.reshape(len(block), *down_pairs.shape)
        if rebuilt is not None:
            # Add the k-th sign times the predictable part, the gradient's
            # mean given coordinates before k.  The gradient repeats along
            # coordinate k, so its group means on the half set are those on
            # every path, bit for bit.  After sites 0..k the rebuild depends
            # only on coordinates 0..k, so it lives on their 2**(k+1)
            # patterns in code order: the k-th sign is -1 in the lower half.
            # Every path takes the same additions, in site order, that it
            # takes on all 2**N paths.
            predictable = _group_means(gradient.reshape(len(block), -1), k - 1)
            rebuilt = np.concatenate((rebuilt - predictable, rebuilt + predictable), axis=1)
        # Value with coordinate k forced to +1 minus forced to -1, halved.
        finite_difference = 0.5 * (pairs[:, :, 1:, :] - pairs[:, :, :1, :])
        gradient_gaps.append(row_max(np.abs(finite_difference - gradient)))
        conditionings = [cond_expect(phi, k) for phi in block]
        if all(psi._terms == phi._terms for psi, phi in zip(conditionings, block)):
            # Each conditioning is its functional, whose values on the first
            # 2**(k+1) paths are already realized.
            cond_functional = values[:, None, : 1 << (k + 1)]
        else:
            down_low = down.reshape(-1, 1 << (k + 1))
            cond_functional = realize(conditionings, down_low[:1], -1 << (k + 1), down_low)
        group_means = _tree_means(*tree, space.horizon - 1 - k)
        cond_gaps.append(row_max(np.abs(cond_functional - group_means[:, None, :])))
    table = {
        "mean": gap_mean,
        "gradient": np.stack(gradient_gaps, axis=1),
        "conditioning": np.stack(cond_gaps, axis=1),
    }
    if rebuilt is not None:
        table["clark_ocone"] = row_max(np.abs(values - rebuilt))
    if not all(np.isfinite(gaps).all() for gaps in table.values()):
        raise NonFiniteResultError("a pathwise gap is not finite: the path values overflow a double")
    table["second_moment"] = _second_moments(values)
    back = np.argsort(order)
    return {name: column[back] for name, column in table.items()}


def _second_moments(values: np.ndarray) -> np.ndarray:
    # The ``_path_means`` of each row's |values|**2, rescued as the module
    # docstring states; only ``_plancherel_gap`` reads it, and raises on inf.
    rows = values.reshape(-1, values.shape[-1])
    with np.errstate(over="ignore"):
        moments = _path_means(np.abs(rows) ** 2)
        for b in np.flatnonzero(~np.isfinite(moments)):
            up, down = _binary_order(rows[b])
            moments[b] = _path_means(np.abs(rows[b] / up / down) ** 2) * up * up * down * down
    return moments.reshape(values.shape[:-1])


def _binary_order(values: np.ndarray) -> tuple[float, float]:
    # 2**(e//2) and 2**(e - e//2), e the binary order of the largest part of
    # ``values``: over both, every part lies below 1, and exactly so.
    _, e = math.frexp(float(max(np.max(np.abs(values.real)), np.max(np.abs(values.imag)))))
    return math.ldexp(1.0, e // 2), math.ldexp(1.0, e - e // 2)


def _plancherel_gap(second_moment: float, norm: float) -> float:
    try:
        gap = abs(second_moment - norm ** 2)
    except OverflowError:
        gap = math.inf
    if not math.isfinite(gap):
        raise NonFiniteResultError("the second moment or the squared norm overflows a double")
    return gap


def _swept(
    corpus: Sequence[FockFunctional], space: PathSpace, sites: Sequence[int]
) -> dict[str, np.ndarray]:
    """``_sweep``'s table of every functional of ``corpus``, in corpus order.

    The corpus is swept in blocks of ``max(1, _BLOCK_PATHS >> horizon)``
    functionals, so the arrays of one block hold about ``_BLOCK_PATHS``
    paths up to horizon 13 and one functional's 2**horizon beyond; the
    blocks' tables are concatenated row by row.  ``space`` must be
    exhaustive and every site inside its horizon.
    """
    _require_exhaustive(space)
    for k in sites:
        if not 0 <= k < space.horizon:
            raise ValueError(f"site {k} outside horizon {space.horizon}")
    step = max(1, _BLOCK_PATHS >> space.horizon)
    tables = [_sweep(corpus[b : b + step], space, sites) for b in range(0, len(corpus), step)]
    return {name: np.concatenate([table[name] for table in tables]) for name in tables[0]}


def classical_clark_ocone_check(phi: FockFunctional, space: PathSpace) -> float:
    """Pathwise residual of the classical predictable representation.

    Rebuilds the functional as its mean plus, per coordinate k, the k-th sign
    times the conditional mean (given coordinates before k) of the site-k
    annihilation — all realized pathwise on the exhaustive ``space``.
    Returns the max path deviation from the direct realization.
    """
    if space.horizon > MAX_ORTHONORMALITY_HORIZON and space.mode == "exhaustive":
        raise HorizonTooLargeError(
            f"horizon {space.horizon} exceeds cap {MAX_ORTHONORMALITY_HORIZON}")
    return float(_swept((phi,), space, range(space.horizon))["clark_ocone"][0])


def check_intertwining(
    phi: FockFunctional, k: int, space: PathSpace
) -> tuple[float, float, float]:
    """Crosswise gaps between coefficient operators and their path actions.

    Returns max-over-path gaps on the exhaustive ``space`` for (a) site-k
    annihilation versus the sign-flip finite difference (value at coordinate
    k forced to +1 minus forced to -1, halved), (b) the mean part versus the
    pathwise mean, and (c) level-k conditioning versus pathwise conditioning.
    """
    table = _swept((phi,), space, (k,))
    return tuple(float(table[name].flat[0]) for name in ("gradient", "mean", "conditioning"))


def plancherel_check(phi: FockFunctional, space: PathSpace) -> float:
    """Gap between the pathwise second moment and the squared level-0 norm.

    Raises NonFiniteResultError where either overflows a double.
    """
    return _plancherel_gap(float(_second_moments(evaluate(phi, space).values)), norm_p(phi, 0.0))


def mc_estimate(obs: PathObservable) -> tuple[complex, float]:
    """Sample mean and standard error of a realized functional.

    Accumulation runs in path-index order, so results are reproducible from
    the space alone.  The standard error treats complex deviations by
    modulus; it is 0 for a single path or a constant functional.
    """
    values = obs.values
    mean = path_expectation(obs)
    m = obs.space.num_paths
    if m < 2:
        return mean, 0.0
    # Deviations are taken of the values over ``_binary_order``'s two
    # factors, so no square leaves the double range.
    up, down = _binary_order(values)
    spread = float(np.sum(np.abs(values / up / down - mean / up / down) ** 2))
    return mean, float(np.sqrt(spread / (m * (m - 1)))) * up * down


def write_observable_csv(obs: PathObservable, path: str) -> None:
    """Export as rows of ``path_index, re, im``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["path_index", "re", "im"])
        for i, v in enumerate(obs.values):
            writer.writerow([i, repr(float(v.real)), repr(float(v.imag))])
