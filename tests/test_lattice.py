import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordercalc.lattice import (
    Band,
    BandDecomposition,
    DimensionMismatchError,
    Element,
    OrderInterval,
    band_eq,
    band_leq,
    band_lt,
    totally_ordered_decomposition,
    totord,
    totord_by_lattice_polynomial,
    trichotomy,
)


def E(*coords):
    return Element(coords)


elements = st.integers(1, 5).flatmap(
    lambda d: st.lists(
        st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=32),
        min_size=d,
        max_size=d,
    )
).map(Element)


def pair_same_dim(draw_dim=st.integers(1, 5)):
    return draw_dim.flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(-50, 50, allow_nan=False, width=32), min_size=d, max_size=d),
            st.lists(st.floats(-50, 50, allow_nan=False, width=32), min_size=d, max_size=d),
        )
    ).map(lambda xy: (Element(xy[0]), Element(xy[1])))


# -- Element basics ----------------------------------------------------------

def test_lattice_op_examples():
    assert E(1, 0).sup(E(0, 1)) == E(1, 1)
    assert E(2, 3) * E(4, 5) == E(8, 15)
    assert abs(E(-1, 2)) == E(1, 2)
    assert E(1, 2) + E(3, 4) == E(4, 6)
    assert E(1, 2) - E(3, 4) == E(-2, -2)
    assert 2.0 * E(1, 2) == E(2, 4)
    assert E(1, 0).inf(E(0, 1)) == E(0, 0)


def test_elements_equal_up_to_a_zeros_sign_hash_alike():
    a, b = Element([0.0, 1.0]), Element([-0.0, 1.0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_leq_and_strictly_below_examples():
    assert E(0, 0).leq(E(1, 1))
    assert not E(0, 0).strictly_below(E(1, 0))
    assert E(0, 0).strictly_below(E(1, 1))


def test_element_validation():
    with pytest.raises(ValueError):
        Element([])
    with pytest.raises(ValueError):
        Element([1.0, float("nan")])
    with pytest.raises(ValueError):
        Element([float("inf")])
    with pytest.raises(DimensionMismatchError):
        E(1, 2) + E(1, 2, 3)


def test_element_immutable_and_json():
    x = E(1, 2)
    with pytest.raises(ValueError):
        x.data[0] = 5.0
    assert x.to_json() == [1.0, 2.0]
    assert Element.from_json(json.loads(json.dumps(x.to_json()))) == x


def test_unit_element():
    assert Element.ones(3) * E(4, 5, 6) == E(4, 5, 6)


# -- Bands -------------------------------------------------------------------

def test_project_examples():
    assert Band({1}, 2).project(E(3, 4)) == E(0, 4)
    assert Band.full(2).project(E(3, 4)) == E(3, 4)
    assert Band.empty(2).project(E(3, 4)) == E(0, 0)


def test_band_validation_and_json():
    with pytest.raises(ValueError):
        Band({5}, 2)
    band = Band({2, 0}, 3)
    assert band.to_json() == [0, 2]
    assert Band.from_json([0, 2], 3) == band
    assert band.complement() == Band({1}, 3)


@settings(max_examples=100, deadline=None)
@given(pair_same_dim())
def test_projection_identities(xy):
    x, _ = xy
    rng = np.random.default_rng(x.dim)
    band = Band(np.flatnonzero(rng.integers(0, 2, x.dim)), x.dim)
    proj = band.project(x)
    assert band.project(proj) == proj  # idempotent
    assert proj + band.complement().project(x) == x
    y = xy[1]
    assert band.project(x + y) == band.project(x) + band.project(y)  # linear


def test_band_comparison_examples():
    assert band_lt(E(1, 0), E(0, 1)) == Band({1}, 2)
    assert band_eq(E(1, 2), E(1, 3)) == Band({0}, 2)
    x = E(3, -1, 2)
    assert band_lt(x, x) == Band.empty(3)
    assert band_leq(E(0, 5), E(1, 2)) == Band({0}, 2)


def test_band_eq_tolerance_opt_in():
    x, y = E(1.0, 2.0), E(1.0 + 1e-12, 3.0)
    assert band_eq(x, y) == Band.empty(2)
    assert band_eq(x, y, tol=1e-9) == Band({0}, 2)
    with pytest.raises(ValueError):
        band_eq(x, y, tol=-1.0)


def test_trichotomy_examples():
    parts = trichotomy(E(1, 0), E(0, 1)).parts
    assert parts[0] == Band({1}, 2)
    assert parts[1] == Band({0}, 2)
    assert parts[2] == Band.empty(2)
    x = E(2, 2)
    parts = trichotomy(x, x).parts
    assert parts[2] == Band.full(2)
    parts = trichotomy(E(0, 0, 5), E(1, 0, 2)).parts
    assert parts[0] == Band({0}, 3)
    assert parts[1] == Band({2}, 3)
    assert parts[2] == Band({1}, 3)


@settings(max_examples=150, deadline=None)
@given(pair_same_dim())
def test_trichotomy_partitions_atoms(xy):
    x, y = xy
    decomposition = trichotomy(x, y)
    seen = set()
    for band in decomposition.parts:
        assert not (seen & band.atoms)
        seen |= band.atoms
    assert seen == set(range(x.dim))


@settings(max_examples=150, deadline=None)
@given(pair_same_dim())
def test_strict_band_complements_weak(xy):
    x, y = xy
    lt = band_lt(x, y)
    geq = band_leq(y, x)
    assert lt.atoms & geq.atoms == set()
    assert lt.atoms | geq.atoms == set(range(x.dim))


def test_band_decomposition_validation():
    with pytest.raises(ValueError):
        BandDecomposition((Band({0}, 2), Band({0, 1}, 2)))
    with pytest.raises(ValueError):
        BandDecomposition((Band({0}, 2),))


# -- Order intervals ---------------------------------------------------------

def test_order_interval():
    interval = OrderInterval(E(0, 0), E(1, 2))
    assert interval.contains(E(0.5, 1.0))
    assert not interval.contains(E(2, 0))
    assert interval.width() == E(1, 2)
    with pytest.raises(ValueError):
        OrderInterval(E(1, 0), E(0, 1))


# -- Total orderisation ------------------------------------------------------

def test_totord_examples():
    chain = totord([E(0, 0), E(1, 0), E(0, 1), E(1, 1)])
    assert chain == [E(0, 0), E(0, 0), E(1, 1), E(1, 1)]
    assert totord([E(1, 2), E(3, 4)]) == [E(1, 2), E(3, 4)]
    assert totord([E(7, 7)]) == [E(7, 7)]


def test_totord_dual_construction_agreement():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        size = int(rng.integers(1, 9))
        elems = [Element(rng.integers(-5, 6, dim).astype(float)) for _ in range(size)]
        fast = totord(elems)
        poly = totord_by_lattice_polynomial(elems)
        assert fast == poly


def test_totord_chain_and_multiset_preservation():
    rng = np.random.default_rng(77)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        size = int(rng.integers(1, 8))
        elems = [Element(rng.normal(size=dim)) for _ in range(size)]
        chain = totord(elems)
        for a, b in zip(chain, chain[1:]):
            assert a.leq(b)
        orig = np.stack([e.data for e in elems])
        new = np.stack([e.data for e in chain])
        assert np.array_equal(np.sort(orig, axis=0), np.sort(new, axis=0))
        assert totord(chain) == chain  # idempotent on chains


def test_totord_rejects_bad_input():
    with pytest.raises(ValueError):
        totord([])
    with pytest.raises(DimensionMismatchError):
        totord([E(1, 2), E(1, 2, 3)])


# -- Totally ordered decomposition -------------------------------------------

def _is_totally_ordered_on(elems, atoms):
    idx = sorted(atoms)
    for a in elems:
        for b in elems:
            pa, pb = a.data[idx], b.data[idx]
            if not (np.all(pa <= pb) or np.all(pb <= pa)):
                return False
    return True


def test_decomposition_examples():
    parts = totally_ordered_decomposition([E(1, 0), E(0, 1)]).parts
    assert {band.atoms for band in parts} == {frozenset({0}), frozenset({1})}
    parts = totally_ordered_decomposition([E(1, 1), E(2, 2)]).parts
    assert [band.atoms for band in parts] == [frozenset({0, 1})]
    parts = totally_ordered_decomposition([E(0, 0), E(1, 0), E(0, 1)]).parts
    assert {band.atoms for band in parts} == {frozenset({0}), frozenset({1})}


def test_decomposition_projects_to_chains():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        size = int(rng.integers(1, 7))
        elems = [Element(rng.integers(-3, 4, dim).astype(float)) for _ in range(size)]
        decomposition = totally_ordered_decomposition(elems)
        seen = set()
        for band in decomposition.parts:
            assert _is_totally_ordered_on(elems, band.atoms)
            seen |= band.atoms
        assert seen == set(range(dim))


def test_decomposition_matches_totord_per_part():
    # The chain and the input project to the same set on every part.
    rng = np.random.default_rng(99)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        size = int(rng.integers(1, 7))
        elems = [Element(rng.integers(-3, 4, dim).astype(float)) for _ in range(size)]
        chain = totord(elems)
        for band in totally_ordered_decomposition(elems).parts:
            original = {band.project(e) for e in elems}
            ordered = {band.project(c) for c in chain}
            assert original == ordered
