"""Tests for the hierarchical RNG derivation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import SeedSequenceTree, derive_rng, spawn_rngs


class TestSeedSequenceTree:
    def test_same_path_same_stream(self):
        tree = SeedSequenceTree(42)
        a = tree.rng("node", 3).random(8)
        b = tree.rng("node", 3).random(8)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        tree = SeedSequenceTree(42)
        a = tree.rng("node", 3).random(8)
        b = tree.rng("node", 4).random(8)
        assert not np.array_equal(a, b)

    def test_different_master_seeds_differ(self):
        a = SeedSequenceTree(1).rng("x").random(8)
        b = SeedSequenceTree(2).rng("x").random(8)
        assert not np.array_equal(a, b)

    def test_string_and_int_components_are_distinct(self):
        tree = SeedSequenceTree(7)
        # The int 1 and the string "1" must not collide.
        a = tree.rng(1).random(8)
        b = tree.rng("1").random(8)
        assert not np.array_equal(a, b)

    def test_path_order_matters(self):
        tree = SeedSequenceTree(7)
        a = tree.rng("a", "b").random(8)
        b = tree.rng("b", "a").random(8)
        assert not np.array_equal(a, b)

    def test_bool_component_distinct_from_int(self):
        tree = SeedSequenceTree(7)
        a = tree.rng(True).random(4)
        b = tree.rng(1).random(4)
        assert not np.array_equal(a, b)

    def test_rejects_bad_component_type(self):
        tree = SeedSequenceTree(7)
        with pytest.raises(TypeError):
            tree.rng(3.14)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError):
            SeedSequenceTree(-1)

    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            SeedSequenceTree("42")  # type: ignore[arg-type]

    def test_master_seed_property(self):
        assert SeedSequenceTree(99).master_seed == 99

    def test_numpy_integer_seed_accepted(self):
        tree = SeedSequenceTree(np.int64(5))
        assert tree.master_seed == 5

    def test_subtree_differs_from_root_paths(self):
        tree = SeedSequenceTree(11)
        sub = tree.subtree("rep", 3)
        a = sub.rng("node", 0).random(8)
        b = tree.rng("node", 0).random(8)
        assert not np.array_equal(a, b)

    def test_subtree_is_deterministic(self):
        a = SeedSequenceTree(11).subtree("rep", 3).rng("x").random(8)
        b = SeedSequenceTree(11).subtree("rep", 3).rng("x").random(8)
        assert np.array_equal(a, b)

    def test_distinct_subtrees_differ(self):
        tree = SeedSequenceTree(11)
        a = tree.subtree("rep", 0).rng("x").random(8)
        b = tree.subtree("rep", 1).rng("x").random(8)
        assert not np.array_equal(a, b)


class TestHelpers:
    def test_derive_rng_matches_tree(self):
        a = derive_rng(5, "p", 2).random(4)
        b = SeedSequenceTree(5).rng("p", 2).random(4)
        assert np.array_equal(a, b)

    def test_spawn_rngs_count_and_independence(self):
        rngs = spawn_rngs(5, 4, "nodes")
        assert len(rngs) == 4
        draws = [g.random(4) for g in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_spawn_rngs_matches_tree(self):
        rngs = spawn_rngs(5, 3, "nodes", 2)
        tree = SeedSequenceTree(5)
        for i, gen in enumerate(rngs):
            assert gen.bit_generator.state == tree.rng("nodes", 2, i).bit_generator.state

    def test_spawn_rngs_zero(self):
        assert spawn_rngs(5, 0) == []

    def test_spawn_rngs_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(5, -1)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    path=st.lists(
        st.one_of(st.integers(min_value=0, max_value=10**6), st.text(max_size=12)),
        max_size=4,
    ),
)
def test_property_same_path_reproducible(seed, path):
    """Any (seed, path) pair always yields the identical stream."""
    a = SeedSequenceTree(seed).rng(*path).integers(0, 2**31, size=4)
    b = SeedSequenceTree(seed).rng(*path).integers(0, 2**31, size=4)
    assert np.array_equal(a, b)


@given(seed=st.integers(min_value=0, max_value=2**32))
def test_property_sibling_streams_differ(seed):
    """Adjacent integer paths practically never collide."""
    tree = SeedSequenceTree(seed)
    a = tree.rng("n", 0).integers(0, 2**31, size=8)
    b = tree.rng("n", 1).integers(0, 2**31, size=8)
    assert not np.array_equal(a, b)


#: Master seeds at the word boundaries of numpy's entropy coercion; the
#: last has five 32-bit words, more than the four-word pool.
BOUNDARY_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 2**96 + 12345)

_component = st.one_of(
    st.integers(min_value=0, max_value=2**40), st.text(max_size=6)
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from(BOUNDARY_SEEDS),
    extra_ids=st.lists(st.integers(min_value=0, max_value=2**40), max_size=5),
    prefix=st.lists(_component, max_size=2),
    suffix=st.lists(_component, max_size=2),
)
def test_property_batched_derivation_matches_rng(seed, extra_ids, prefix, suffix):
    """``tree.rngs`` is ``[tree.rng(*prefix, i, *suffix) for i in ids]``."""
    tree = SeedSequenceTree(seed)
    ids = [0, 2**30, *extra_ids]
    gens = tree.rngs(tuple(prefix), ids, tuple(suffix))
    assert len(gens) == len(ids)
    for gen, i in zip(gens, ids):
        expected = tree.rng(*prefix, i, *suffix)
        assert gen.bit_generator.state == expected.bit_generator.state


def test_batched_derivation_of_no_ids():
    assert SeedSequenceTree(3).rngs(("node",), [], ("pso",)) == []
