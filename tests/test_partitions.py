import numpy as np
import pytest

from ordercalc.functions import LatticeFunction
from ordercalc.integrate import darboux_sums
from ordercalc.lattice import Element, OrderInterval, totord
from ordercalc.partitions import (
    Partition,
    TaggedPartition,
    common_refinement,
    grid_points,
    refines,
    tag,
    uniform,
    uniform_grid,
)


def E(*coords):
    return Element(coords)


def interval(lo, hi):
    return OrderInterval(Element(lo), Element(hi))


UNIT2 = interval((0, 0), (1, 1))


def random_partition(rng, iv, max_interior=4) -> Partition:
    n = int(rng.integers(0, max_interior + 1))
    pts = [iv.sample(rng) for _ in range(n)]
    chain = totord([iv.lo, iv.hi, *pts])
    return Partition(tuple(chain), iv)


def test_uniform_examples():
    p = uniform(UNIT2, 2)
    assert p.points == (E(0, 0), E(0.5, 0.5), E(1, 1))
    p1 = uniform(UNIT2, 1)
    assert p1.points == (UNIT2.lo, UNIT2.hi)
    p4 = uniform(interval((0, 0), (2, 4)), 4)
    steps = [b - a for a, b in zip(p4.points, p4.points[1:])]
    assert all(s == E(0.5, 1.0) for s in steps)
    with pytest.raises(ValueError):
        uniform(UNIT2, 0)


def test_uniform_grid_rows_and_stretches_equal_the_whole_grid():
    # n * ((hi - lo) / n) + lo falls short of hi here; the last point is hi.
    lo, hi, n = -2.9835689989791114, 1.8951213247291925, 20
    whole = uniform_grid(lo, hi, n)
    assert whole[0] == lo and whole[-1] == hi
    rows = uniform_grid(np.array([lo, 0.0]), np.array([hi, 1.0]), n)
    assert rows.shape == (2, n + 1)
    assert rows[0].tobytes() == whole.tobytes()
    assert rows[1].tobytes() == uniform_grid(0.0, 1.0, n).tobytes()


def _clipping_every_point(ks, lo, hi, step, first, last):
    xs = np.minimum(ks * step + lo, hi)
    if first:
        xs[..., :1] = lo
    if last:
        xs[..., -1:] = hi
    return xs


def test_grid_points_equal_a_clip_of_every_point():
    # Rows whose penultimate point rounds up to hi (a step far below the
    # spacing of the floats near 1e16), a row whose width overflows (its
    # inner points are inf until clipped), rows of zero width and ordinary
    # ones; whole rows, chunks that start or end inside a row, and chunks
    # of two and three points at a row's end.
    lo = np.array([1e16, 1e16, -1e308, -1.0, 0.1, 3.0, -2.5e-300])[:, None]
    hi = np.array([1e16 + 64.0, 1e16 + 4.0, 1e308, 1.0, 0.7, 3.0, 7e-301])[:, None]
    n = 2**20
    ks = np.arange(n + 1, dtype=np.float64)
    assert ks[-2] * (64.0 / n) + 1e16 == 1e16 + 64.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf steps, and 0 * inf at a first point, which is lo
        step = (hi - lo) / n
        for c0, c1 in [(0, n), (0, 2**15), (n - 2**15, n), (2**15, 2**16), (n - 1, n), (n - 2, n), (n - 3, n - 1), (0, 1)]:
            chunk = ks[c0 : c1 + 1]
            first, last = c0 == 0, c1 == n
            want = _clipping_every_point(chunk, lo, hi, step, first, last)
            assert grid_points(chunk, lo, hi, step, first, last).tobytes() == want.tobytes(), (c0, c1)
            out = np.add(chunk, 0.0, out=np.empty_like(want))  # indices offset in place, as levels form them
            assert grid_points(out, lo, hi, step, first, last, out).tobytes() == want.tobytes(), (c0, c1)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((E(0, 0), E(1, 1)), interval((0, 0), (2, 2)))  # wrong hi
    with pytest.raises(ValueError):
        Partition((E(0, 0), E(1, 0), E(0.5, 1)), UNIT2)  # not a chain
    # repeats are allowed
    Partition((E(0, 0), E(0, 0), E(1, 1)), UNIT2)


def test_refines_examples():
    p2, p4 = uniform(UNIT2, 2), uniform(UNIT2, 4)
    assert refines(p2, p4)  # subset implies refinement
    assert not refines(p4, p2)
    # the incomparable staircase pair refines their total orderisation
    p = Partition((E(0, 0), E(1, 0), E(1, 1)), UNIT2)
    q = Partition((E(0, 0), E(0, 1), E(1, 1)), UNIT2)
    both = common_refinement(p, q)
    assert refines(p, both) and refines(q, both)
    with pytest.raises(ValueError):
        refines(p2, uniform(interval((0, 0), (2, 2)), 2))


def test_common_refinement_of_staircases_is_trivial_chain():
    p = Partition((E(0, 0), E(1, 0), E(1, 1)), UNIT2)
    q = Partition((E(0, 0), E(0, 1), E(1, 1)), UNIT2)
    both = common_refinement(p, q)
    assert both.dedup().points == (E(0, 0), E(1, 1))


def test_common_refinement_self_and_uniform_merge():
    p = uniform(UNIT2, 2)
    assert common_refinement(p, p).dedup().points == p.points
    merged = common_refinement(uniform(UNIT2, 2), uniform(UNIT2, 3))
    per_atom = set(merged.matrix()[:, 0].tolist())
    assert per_atom == {0.0, 1 / 3, 0.5, 2 / 3, 1.0}


def test_tag_rules():
    p = uniform(UNIT2, 2)
    mid = tag(p, "midpoint")
    assert mid.tags == (E(0.25, 0.25), E(0.75, 0.75))
    left = tag(p, "left")
    assert left.tags == p.points[:-1]
    right = tag(p, "right")
    assert right.tags == p.points[1:]
    r1 = tag(p, "random", seed=7)
    r2 = tag(p, "random", seed=7)
    assert r1.tags == r2.tags
    assert r1.tags != tag(p, "random", seed=8).tags
    with pytest.raises(ValueError):
        tag(p, "center")


def test_tagged_partition_validation():
    p = uniform(UNIT2, 2)
    with pytest.raises(ValueError):
        TaggedPartition(p, (E(0.25, 0.25),))
    with pytest.raises(ValueError):
        TaggedPartition(p, (E(0.9, 0.9), E(0.75, 0.75)))


def test_refines_is_a_preorder():
    rng = np.random.default_rng(31337)
    for _ in range(60):
        iv = UNIT2
        p = random_partition(rng, iv)
        q = random_partition(rng, iv)
        r = random_partition(rng, iv)
        assert refines(p, p)  # reflexive
        pq = common_refinement(p, q)
        pqr = common_refinement(pq, r)
        # transitivity along a refinement chain
        assert refines(p, pq) and refines(pq, pqr) and refines(p, pqr)


def test_common_refinement_is_upper_bound_on_random_pairs():
    rng = np.random.default_rng(2718)
    for _ in range(200):
        iv = interval((0, 0, 0), tuple(rng.uniform(0.5, 2.0, 3)))
        p = random_partition(rng, iv)
        q = random_partition(rng, iv)
        both = common_refinement(p, q)
        assert refines(p, both) and refines(q, both)


def test_duplicate_collapse_preserves_darboux_sums():
    rng = np.random.default_rng(11)
    f = LatticeFunction.coordinatewise(["t^2", "t"], dim=2)
    for _ in range(40):
        p = random_partition(rng, UNIT2)
        doubled = Partition(
            tuple(x for pt in p.points for x in (pt, pt)), UNIT2
        )
        sums_full = darboux_sums(f, doubled)
        sums_collapsed = darboux_sums(f, doubled.dedup())
        assert sums_full.lower == sums_collapsed.lower
        assert sums_full.upper == sums_collapsed.upper
