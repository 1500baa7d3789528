"""``bridge._realize`` against its per-term body.

From ``_TABLE_PATHS`` paths per row on, the kernel reads its first terms
from a table of partial sums indexed by each path's sign pattern, where
those terms span few enough bits.  The body that adds every term in a pass
of its own is kept here as the reference: on every path set that
``evaluate`` and the bridge sweep realize, each row must be its bytes
exactly, the positions that leave the double range included.
"""

import random

import numpy as np
import pytest

from fockcalc import ZERO, build_space
from fockcalc.bridge import _TABLE_PATHS, _prefix_sums, _realize
from fockcalc.functional import FockFunctional


def _reference_realize(block, down):
    rows = [sorted(phi._terms.items()) for phi in block]
    values = np.zeros((len(block), *down.shape), dtype=np.complex128)
    row_base = np.arange(0, 2 * len(block), 2).reshape((-1,) + (1,) * down.ndim)
    for j in range(max(map(len, rows), default=0)):
        held = max(b for b, terms in enumerate(rows) if len(terms) > j) + 1
        terms = [row[j] if len(row) > j else (0, 0j) for row in rows[:held]]
        if held == 1:
            mask, coef = terms[0]
            first = values[0]
            first += np.array([coef, -coef]).take(np.bitwise_count(down & mask) & 1)
        else:
            masks, coefs = zip(*terms)
            odd = np.bitwise_count(down & np.array(masks).reshape(row_base[:held].shape)) & 1
            head = values[:held]
            head += np.array([(c, -c) for c in coefs]).reshape(-1).take(odd | row_base[:held])
    return values


def _functional(seed, sites, terms, scales=(1.0,)):
    # ``terms`` distinct masks below 2**sites; each coefficient is a uniform
    # complex draw times one of ``scales``.
    rng = random.Random(seed)
    masks = set()
    while len(masks) < min(terms, 1 << sites):
        masks.add(rng.getrandbits(sites))
    return FockFunctional._of_masks(
        {
            m: rng.choice(scales) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for m in sorted(masks)
        }
    )


def _block(size, sites, seed, scales=(1.0,)):
    # A 64-term functional; in larger blocks a constant ahead of it, so the
    # passes pad a narrow row, and behind it ZERO among unequal widths.
    wide = _functional(seed, sites, 64, scales)
    if size == 1:
        return [wide]
    widths = [3, 17, 1, 40, 8, 64, 2, 25, 5]
    others = [
        ZERO if i % 7 == 3 else _functional(seed + i + 1, sites, widths[i % 9], scales)
        for i in range(size - 2)
    ]
    return [FockFunctional._of_masks({0: 0.5 - 2j}), wide, *others]


def _assert_same(block, down):
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _realize(block, down), _reference_realize(block, down)
    assert got.shape == want.shape == (len(block), *down.shape)
    assert got.tobytes() == want.tobytes()


def _swept_sets(horizon):
    # Every path set the bridge sweep realizes on at this horizon: all
    # paths, per site k the half with bit k clear and the first 2**(k+1)
    # paths, and one path.
    down = ~build_space(horizon).codes
    yield down
    yield down[:1]
    for k in range(horizon):
        yield np.ascontiguousarray(down.reshape(-1, 2, 1 << k)[:, :1, :])
        yield down.reshape(-1, 1 << (k + 1))[:1]


@pytest.mark.parametrize("horizon", range(1, 17))
def test_exhaustive_sets_match_the_passes(horizon):
    size = min(32, max(1, (1 << 13) >> horizon))
    block = _block(size, horizon, seed=horizon)
    for down in _swept_sets(horizon):
        _assert_same(block, down)


@pytest.mark.parametrize("size", [1, 2, 32])
def test_mixed_blocks_match_the_passes(size):
    block = _block(size, 12, seed=size)
    for down in _swept_sets(12):
        _assert_same(block, down)


@pytest.mark.parametrize("horizon", [20, 40, 63])
@pytest.mark.parametrize("paths", [1024, 4096])
def test_sampled_spaces_match_the_passes(horizon, paths):
    # Terms on the first 11 sites are read from the table; terms reaching
    # the horizon span too many bits for it and take their passes.
    down = ~build_space(horizon, "sampled", M=paths, seed=horizon).codes
    for sites in (11, horizon):
        for size in (1, 3):
            _assert_same(_block(size, sites, seed=paths + size), down)


def test_the_table_is_built_only_where_it_is_small():
    # The sign-set table has 2**span entries per row whatever the paths, so
    # it is declined past 16 bits of span or twice the path count.
    def tabled(sites, paths):
        rows = [[(m, 1 + 0j) for m in range(1, 10)] + [(1 << (sites - 1), 1 + 0j)]]
        down = ~build_space(20, "sampled", M=paths, seed=sites).codes
        return _prefix_sums(rows, 10, down) is not None

    assert tabled(11, 1024) and tabled(16, 1 << 15)
    assert not tabled(12, 1024) and not tabled(17, 1 << 17)


@pytest.mark.parametrize("horizon", [10, 14])
def test_overflowing_paths_match_the_passes(horizon):
    # Coefficients of +-1e300 and +-1e308: on some paths the first terms
    # already leave the double range, on others only the later ones do.  The
    # last row alone keeps its first 16 terms, which cover the table, in
    # range.  (Finite terms give no NaN: a part past the range stays infinite.)
    scales = (1e300, -1e300, 1e308, -1e308, 1.0)
    block = _block(4, horizon, seed=7, scales=scales)
    late = sorted(_functional(8, horizon, 64, scales)._terms.items())
    block.append(FockFunctional._of_masks({m: c * 1e-300 for m, c in late[:16]} | dict(late[16:])))
    down = ~build_space(horizon).codes
    for rows in (block, block[-1:]):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_realize(rows, down)
        assert np.isinf(want).any()
        for down_set in _swept_sets(horizon):
            _assert_same(rows, down_set)


def test_overflow_is_reported_as_the_passes_report_it():
    # Masks 1, 2, 4 and 7: no path has the sign pattern (+, +, +, -), whose
    # partial sum 2e308 is the only one past the double range.  Unread, it
    # raises nothing; a sum a path does reach still raises.
    down = ~build_space(10).codes
    assert down.size >= _TABLE_PATHS
    unread = FockFunctional._of_masks({1: 0.5e308, 2: 0.5e308, 4: 0.5e308, 7: -0.5e308})
    with np.errstate(all="raise"):
        assert _realize([unread], down).tobytes() == _reference_realize([unread], down).tobytes()
    read = FockFunctional._of_masks({1: 1e308, 2: 1e308})
    for kernel in (_realize, _reference_realize):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            kernel([read], down)
