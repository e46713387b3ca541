"""The particle swarm optimizer (paper Sec. 2 / Sec. 3.3.2).

Update equations (original 1995 formulation, as restated by the
paper)::

    v_i = w·v_i + c1·U(0,1)·(p_i − x_i) + c2·U(0,1)·(g − x_i)
    x_i = x_i + v_i

with ``c1 = c2 = 2``, inertia ``w = 1`` and per-dimension velocity
clamping.  ``U(0,1)`` draws a fresh uniform *per particle per
dimension* (the common interpretation of the paper's ``rand()``).

Two stepping granularities:

* **Per-particle** (:meth:`Swarm.step_particle`): move, then evaluate,
  one particle — exactly one function evaluation.  Best-knowledge
  updates take effect immediately (asynchronous PSO).  The distributed
  coordination service requires this granularity because gossip fires
  every ``r`` local evaluations, with ``r`` possibly < swarm size.
* **Per-cycle** (:meth:`Swarm.step_cycle`): the classical synchronous
  sweep of the paper's pseudo-code — evaluate all particles, update
  all bests, then move everyone using the common ``g``.  Used by the
  centralized baseline and the lbest variants.

For a swarm embedded in the distributed framework, the swarm optimum
``g`` is the *node's* swarm optimum ``g_p`` and may be improved from
outside via :meth:`Swarm.inject_best` when the coordination service
receives a better remote optimum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.functions.base import Function
from repro.pso.state import SwarmState, SwarmStateSoA
from repro.pso.velocity import resolve_vmax
from repro.utils.config import PSOConfig

__all__ = ["Swarm", "initial_swarm_state", "initial_swarm_states"]


def initial_swarm_states(
    functions: Sequence[Function],
    config: PSOConfig,
    rngs: Sequence[np.random.Generator],
    groups: np.ndarray | None = None,
) -> SwarmStateSoA:
    """Initial states of ``len(rngs)`` swarms, each from its own stream.

    Swarm ``i`` draws from ``rngs[i]`` in the box of
    ``functions[groups[i]]`` (``functions[0]`` when ``groups`` is
    None): positions uniform in the domain, velocities uniform in
    ``±vmax`` with ``vmax = (vmax_fraction or 1) × width``, pbests unset.

    Initial particles are *not* evaluated here — evaluation costs
    budget, so it happens on the first step.  ``pbest_values`` start at
    +inf and each swarm optimum is +inf with a placeholder position;
    both resolve on the first evaluations.

    This is the **only** initializer: the reference :class:`Swarm`
    (through :func:`initial_swarm_state`, the one-swarm case) and the
    batched network engine (:mod:`repro.core.fastpath`) both build
    node state here.  Each stream makes one ``random`` fill of its
    swarm's ``(2, k, d)`` block — the same doubles, in the same order,
    that ``Function.sample_uniform`` followed by ``Generator.uniform``
    draw — and the scaling ``low + (high − low)·u`` is ``uniform``'s
    own arithmetic, applied to the whole batch at once.  States and
    post-init stream positions are therefore bit-identical to the
    per-swarm draws, which is what makes the engines same-seed
    comparable.
    """
    n, k = len(rngs), config.particles
    d = functions[0].dimension
    draws = np.empty((n, 2, k, d))
    for rng, block in zip(rngs, draws):
        rng.random(out=block)
    lower = np.stack([f.lower for f in functions])
    upper = np.stack([f.upper for f in functions])
    vmax = (config.vmax_fraction or 1.0) * np.stack(
        [f.domain_width for f in functions]
    )
    if groups is None:
        lower, upper, vmax = lower[0], upper[0], vmax[0]
    else:
        lower, upper, vmax = (a[groups][:, None, :] for a in (lower, upper, vmax))
    positions = lower + (upper - lower) * draws[:, 0]
    velocities = -vmax + (vmax - (-vmax)) * draws[:, 1]
    return SwarmStateSoA(
        positions=positions,
        velocities=velocities,
        pbest_positions=positions.copy(),
        pbest_values=np.full((n, k), np.inf),
        best_positions=positions[:, 0].copy(),
        best_values=np.full(n, np.inf),
        evaluations=np.zeros(n, dtype=np.int64),
        cursors=np.zeros(n, dtype=np.int64),
    )


def initial_swarm_state(
    function: Function, config: PSOConfig, rng: np.random.Generator
) -> SwarmState:
    """One swarm's initial state: :func:`initial_swarm_states` with n = 1."""
    return initial_swarm_states([function], config, [rng]).node_state(0)


class Swarm:
    """A particle swarm bound to one objective function.

    Parameters
    ----------
    function:
        Objective to minimize.  If evaluation counting/budgeting is
        needed, pass a :class:`~repro.functions.CountingFunction`.
    config:
        PSO parameters (swarm size, learning factors, clamping).
    rng:
        The swarm's private random stream (initialization and all
        stochastic update factors).
    """

    def __init__(self, function: Function, config: PSOConfig, rng: np.random.Generator):
        self.function = function
        self.config = config
        self.rng = rng
        # The clamp bound (None when unclamped) is resolved once and
        # shared by both stepping granularities; a reusable (1, d)
        # buffer keeps single-particle evaluations allocation-free.
        self._vmax = resolve_vmax(function, config.vmax_fraction)
        self._eval_buf = np.empty((1, function.dimension))
        self.state = self._initialize()

    # -- construction -----------------------------------------------------------

    def _initialize(self) -> SwarmState:
        """Build the initial state; see :func:`initial_swarm_state`."""
        return initial_swarm_state(self.function, self.config, self.rng)

    # -- best-knowledge management -------------------------------------------------

    @property
    def best_value(self) -> float:
        """Current swarm optimum value ``f(g_p)``."""
        return self.state.best_value

    @property
    def best_position(self) -> np.ndarray:
        """Current swarm optimum position ``g_p`` (a copy)."""
        return self.state.best_position.copy()

    def inject_best(self, position: np.ndarray, value: float) -> bool:
        """Offer a remote optimum; adopt it if strictly better.

        This is the receiving half of the anti-entropy exchange
        (Sec. 3.3.3): ``if f(g_p) < f(g_q) then g_q ← g_p``.  The
        remote point is adopted **without re-evaluation** — the value
        travels with the position — and it does not alter any
        particle's pbest: it only redirects the social attractor.

        Returns ``True`` if the swarm optimum improved.
        """
        value = float(value)
        if value < self.state.best_value:
            pos = np.asarray(position, dtype=float)
            if pos.shape != (self.function.dimension,):
                raise ValueError(
                    f"injected optimum has shape {pos.shape}, "
                    f"expected ({self.function.dimension},)"
                )
            self.state.best_position = pos.copy()
            self.state.best_value = value
            return True
        return False

    def refresh_stale_bests(self) -> int:
        """Re-evaluate remembered bests under the (possibly shifted) objective.

        After a landscape shift the stored pbest/swarm-optimum *values*
        measure a landscape that no longer exists.  Positions are kept;
        values are re-measured, and the swarm optimum re-folds against
        the refreshed pbests (one may now beat a stale injected
        optimum).  Never-evaluated particles (pbest = inf) stay invalid
        so first-visit stepping semantics hold.  The re-evaluations are
        **not** counted in ``state.evaluations`` — they are maintenance,
        not optimization budget.  Returns how many were performed.
        """
        st = self.state
        finite = np.isfinite(st.pbest_values)
        count = int(finite.sum())
        if count:
            st.pbest_values[finite] = self.function.batch(
                st.pbest_positions[finite]
            )
        if np.isfinite(st.best_value):
            st.best_value = float(
                self.function.batch(st.best_position[None, :])[0]
            )
            count += 1
            best_i = int(np.argmin(st.pbest_values))
            if st.pbest_values[best_i] < st.best_value:
                st.best_value = float(st.pbest_values[best_i])
                st.best_position = st.pbest_positions[best_i].copy()
        return count

    def _record_evaluation(self, index: int, value: float) -> None:
        """Fold one evaluation result into pbest/swarm-optimum."""
        st = self.state
        if value < st.pbest_values[index]:
            st.pbest_values[index] = value
            st.pbest_positions[index] = st.positions[index]
        if value < st.best_value:
            st.best_value = float(value)
            st.best_position = st.positions[index].copy()

    # -- stepping ----------------------------------------------------------------

    def step_particle(self) -> float:
        """Advance the round-robin cursor's particle by one evaluation.

        Order per particle: evaluate current position (first visit) or
        move-then-evaluate.  Concretely each call performs exactly one
        function evaluation:

        * the particle's first-ever visit evaluates its initial random
          position (establishing its pbest),
        * subsequent visits apply the velocity/position update first.

        Returns the objective value just computed.
        """
        st = self.state
        i = st.cursor
        if np.isfinite(st.pbest_values[i]):
            self._move_one(i)
        buf = self._eval_buf
        buf[0] = st.positions[i]
        value = float(self.function.batch(buf)[0])
        st.evaluations += 1
        self._record_evaluation(i, value)
        st.cursor = (i + 1) % st.size
        return value

    def step_evaluations(self, count: int) -> int:
        """Run up to ``count`` single-particle steps; returns steps done.

        Stops early (returning fewer) only if the wrapped function
        exposes an evaluation budget (a ``remaining`` attribute, as
        :class:`~repro.functions.counting.CountingFunction` does) that
        has run out; the caller handles the shortfall.  The check runs
        *before* each step, so a budget trip never leaves a particle
        moved-but-unevaluated.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        fn = self.function
        budgeted = getattr(fn, "remaining", None) is not None
        for done in range(count):
            if budgeted and fn.remaining < 1:
                return done
            self.step_particle()
        return count

    def _move_one(self, i: int) -> None:
        cfg = self.config
        st = self.state
        d = st.dimension
        r1 = self.rng.random(d)
        r2 = self.rng.random(d)
        pos = st.positions[i]
        v = (
            cfg.inertia * st.velocities[i]
            + cfg.c1 * r1 * (st.pbest_positions[i] - pos)
            + cfg.c2 * r2 * (st.best_position - pos)
        )
        vmax = self._vmax
        if vmax is not None:
            np.clip(v, -vmax, vmax, out=v)
        st.velocities[i] = v
        pos += v
        if cfg.clamp_positions:
            np.clip(pos, self.function.lower, self.function.upper, out=pos)

    def step_cycle(self) -> int:
        """One classical synchronous iteration over all particles.

        Matches the paper's pseudo-code: evaluate every particle,
        update pbests, recompute ``g``, then update every velocity and
        position with the *same* ``g``.  Performs ``k`` function
        evaluations; returns that count.

        The first call evaluates initial positions without moving
        (establishing pbests), as in the pseudo-code's implicit
        initialization.
        """
        st = self.state
        cfg = self.config
        k, d = st.size, st.dimension

        first_visit = ~np.isfinite(st.pbest_values)
        if not np.all(first_visit):
            # Move everyone (vectorized) before evaluating.
            r1 = self.rng.random((k, d))
            r2 = self.rng.random((k, d))
            st.velocities = (
                cfg.inertia * st.velocities
                + cfg.c1 * r1 * (st.pbest_positions - st.positions)
                + cfg.c2 * r2 * (st.best_position[None, :] - st.positions)
            )
            if self._vmax is not None:
                np.clip(st.velocities, -self._vmax, self._vmax, out=st.velocities)
            st.positions = st.positions + st.velocities
            if cfg.clamp_positions:
                np.clip(
                    st.positions,
                    self.function.lower,
                    self.function.upper,
                    out=st.positions,
                )

        values = self.function.batch(st.positions)
        st.evaluations += k
        improved = values < st.pbest_values
        st.pbest_values = np.where(improved, values, st.pbest_values)
        st.pbest_positions = np.where(improved[:, None], st.positions, st.pbest_positions)
        best_i = int(np.argmin(st.pbest_values))
        if st.pbest_values[best_i] < st.best_value:
            st.best_value = float(st.pbest_values[best_i])
            st.best_position = st.pbest_positions[best_i].copy()
        return k

    def run(self, evaluations: int, synchronous: bool = False) -> float:
        """Spend an evaluation budget; returns the final best value.

        Parameters
        ----------
        evaluations:
            Number of function evaluations to perform.  In synchronous
            mode the count is rounded *down* to whole cycles of ``k``.
        synchronous:
            Use :meth:`step_cycle` instead of per-particle stepping.
        """
        if evaluations < 0:
            raise ValueError("evaluations must be non-negative")
        if synchronous:
            for _ in range(evaluations // self.state.size):
                self.step_cycle()
        else:
            self.step_evaluations(evaluations)
        return self.state.best_value
