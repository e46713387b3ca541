"""The batched swarm initializer against the per-swarm ``uniform`` draws.

:func:`~repro.pso.swarm.initial_swarm_states` fills each stream's
``(2, k, d)`` block once and scales the whole batch; these tests pin it
bit-for-bit to the draws it replaces — ``Function.sample_uniform`` for
positions, then ``Generator.uniform(-vmax, vmax)`` for velocities —
including where each stream stands afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.functions.base import available_functions, get_function
from repro.functions.subdomain import SubdomainFunction
from repro.pso.swarm import initial_swarm_state, initial_swarm_states
from repro.utils.config import PSOConfig

VMAX_FRACTIONS = (None, 0.5)


def per_swarm_draws(function, config, rng):
    """Positions and velocities drawn the per-swarm way."""
    positions = function.sample_uniform(rng, config.particles)
    vmax = (config.vmax_fraction or 1.0) * function.domain_width
    velocities = rng.uniform(-vmax, vmax, size=(config.particles, function.dimension))
    return positions, velocities


def assert_matches_per_swarm(functions, groups, config, seeds):
    """The batch equals per-swarm draws on identically seeded streams."""
    batch_rngs = [np.random.default_rng(s) for s in seeds]
    soa = initial_swarm_states(functions, config, batch_rngs, groups)
    for i, seed in enumerate(seeds):
        function = functions[0 if groups is None else groups[i]]
        rng = np.random.default_rng(seed)
        positions, velocities = per_swarm_draws(function, config, rng)
        assert np.array_equal(soa.positions[i], positions)
        assert np.array_equal(soa.velocities[i], velocities)
        assert np.array_equal(soa.pbest_positions[i], positions)
        assert np.array_equal(soa.best_positions[i], positions[0])
        # Same stream position afterwards, so every later draw matches.
        assert batch_rngs[i].bit_generator.state == rng.bit_generator.state
    assert np.all(np.isinf(soa.pbest_values)) and np.all(np.isinf(soa.best_values))
    assert not soa.evaluations.any() and not soa.cursors.any()


@pytest.mark.parametrize("fraction", VMAX_FRACTIONS)
@pytest.mark.parametrize("name", available_functions())
def test_homogeneous_batch_matches_per_swarm_draws(name, fraction):
    config = PSOConfig(particles=5, vmax_fraction=fraction)
    assert_matches_per_swarm([get_function(name)], None, config, range(7))


@pytest.mark.parametrize("fraction", VMAX_FRACTIONS)
def test_mixed_per_node_bounds_match_per_swarm_draws(fraction):
    functions = [
        get_function(name)
        for name in available_functions()
        if get_function(name).dimension == 10
    ]
    sphere = get_function("sphere")
    functions.append(  # a per-coordinate box, not a cube
        SubdomainFunction(sphere, np.linspace(-100, 0, 10), np.linspace(1, 100, 10))
    )
    groups = np.random.default_rng(0).integers(0, len(functions), size=40)
    config = PSOConfig(particles=4, vmax_fraction=fraction)
    assert_matches_per_swarm(functions, groups, config, range(100, 140))


@pytest.mark.parametrize("fraction", VMAX_FRACTIONS)
def test_single_swarm_case_matches_per_swarm_draws(fraction):
    function = get_function("zakharov")
    config = PSOConfig(particles=6, vmax_fraction=fraction)
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    state = initial_swarm_state(function, config, rng)
    positions, velocities = per_swarm_draws(function, config, twin)
    assert np.array_equal(state.positions, positions)
    assert np.array_equal(state.velocities, velocities)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert state.best_value == np.inf and state.evaluations == 0
