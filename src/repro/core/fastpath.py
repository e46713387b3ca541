"""Vectorized network-level fast path: all swarms in one SoA kernel.

The reference engine (:class:`~repro.simulator.engine.CycleDrivenEngine`
driving per-node protocol objects) advances the system one node at a
time, so a cycle over ``n`` nodes costs ``O(n)`` Python/numpy call
round-trips regardless of how little arithmetic each node does.  At the
paper's scales (exp2 sweeps up to ``n = 2^16``) that interpreter
overhead — not the arithmetic — dominates the wall clock.

:class:`FastEngine` replaces the per-node object graph with
structure-of-arrays state (:class:`~repro.pso.state.SwarmStateSoA`):
positions/velocities/pbests of shape ``(n, k, d)`` and per-node swarm
optima of shape ``(n, d)`` / ``(n,)``.  One engine cycle is then a
handful of whole-network array operations:

1. **churn** — binomial crash thinning and Poisson joins, drawing from
   the same ``("churn")`` seed-tree stream with the same call sequence
   as :class:`~repro.simulator.churn.ChurnProcess`.  Node ids map to
   array *slots* through an indirection table: joins reuse crashed
   nodes' slots (their evaluation counts are retired into an
   accumulator first) and otherwise extend the SoA arrays with
   geometric capacity doubling — amortized O(k·d) per join instead of
   the former per-join O(n·k·d) concatenation;
2. **topology** — the scenario's overlay advanced by its array-backed
   :class:`~repro.topology.provider.ViewProvider` (vectorized NEWSCAST
   view exchanges, CYCLON shuffles, or static neighborhoods — see
   :mod:`repro.topology.array_views`);
3. **optimization** — one fused velocity/position/clamp update over all
   ``n·k`` particles, one batched objective evaluation over the
   ``(n·k, d)`` reshape, and vectorized pbest/swarm-optimum folds
   (``np.where`` / row ``argmin`` reductions);
4. **coordination** — an array-level anti-entropy exchange: each node's
   partner drawn *from its own overlay view* via the provider,
   scatter-min adoption of the better optimum, with message, loss and
   adoption tallies tracked in the returned
   :class:`~repro.core.metrics.MessageTally` (adoption counts use
   phased semantics — at most one adoption per receiver per cycle,
   where the reference's sequential delivery can count several — so
   compare them within an engine, not across).

Equivalence contract (pinned by ``tests/core/test_fastpath.py`` and
``tests/topology/test_provider_equivalence.py``)
----------------------------------------------------------------

*Bit-identical*: per-node swarm dynamics.  Node state is initialized by
the one initializer, :func:`~repro.pso.swarm.initial_swarm_states`
(whose one-swarm case, :func:`~repro.pso.swarm.initial_swarm_state`,
builds the reference :class:`~repro.pso.swarm.Swarm` and churn
joiners), from the same per-node stream ``("node", nid, "pso")`` —
derived for all initial nodes at once by
:meth:`~repro.utils.rng.SeedSequenceTree.rngs`, bit-identical to
``tree.rng("node", nid, "pso")`` — and whenever a node's
per-cycle allowance is a whole synchronous sweep (``r = k``, the
paper's default timing) the batched update consumes that stream exactly
like :meth:`~repro.pso.swarm.Swarm.step_cycle` and produces the same
floating-point trajectory.  Consequently a whole run is same-seed
**trajectory-identical** to the reference engine at ``r = k`` whenever
gossip exchanges cannot reorder information flow mid-cycle: ``n = 1``
under the default NEWSCAST setup, and any ``n`` with gossip disabled
(reference: a peerless topology; fast: ``gossip=False``).  Topology
providers draw from their own ``("topology", ...)`` streams, so the
overlay choice never perturbs node trajectories.

*Statistically equivalent*: everything else.  Overlay dynamics apply a
cycle's exchanges against consistent cycle-start snapshots instead of
the reference's shuffled in-cycle interleaving, and per-particle
(``r ≠ k``) stepping is applied in phased chunks rather than the
asynchronous move-one-evaluate-one loop.  Overlay structure (degree
distributions, clustering, connectivity) and final-quality
distributions match the reference engine's (see the equivalence
tests); individual trajectories do not.

Two RNG regimes drive the per-particle draws (``rng_mode``):

* ``"strict"`` (default) — each node consumes its private
  ``("node", nid, "pso")`` stream exactly like the reference solver:
  the regime under which the bit-identity contract above holds.
* ``"batched"`` — the whole network's ``(n, 2, k, d)`` uniform block
  is filled by one generator call per chunk, seed-branched as
  ``("fastpath", "draws", cycle, chunk)`` and indexed by node id, so
  each node's draws still depend only on ``(seed, repetition, cycle,
  chunk, node id)`` — reproducible run-to-run and unperturbed by
  which *other* nodes are alive — but are no longer the reference
  engine's bit stream.  Statistically equivalent, measurably faster
  (the per-node draw loop was ~40% of the strict cycle; see
  ``benchmarks/BENCH_3.json``).

What the fast path intentionally does **not** simulate: message loss /
latency transports and arbitrary topology factory callables — use the
reference engine when those mechanisms are the object of study.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import KernelBackend, Workspace, get_backend
from repro.core.kernels.numpy_backend import scatter_min_fold
from repro.core.metrics import (
    DynamicsObserver,
    DynamicsTracker,
    GlobalQualityObserver,
    MessageTally,
)
from repro.core.runner import RunResult
from repro.functions.base import Function, get_function
from repro.functions.problem import DynamicsSpec, EvalContext, build_problem
# ``stack_states`` is not called here, but stays importable from this
# module: perfbench's traced pass times construction through these names.
from repro.pso.state import SwarmStateSoA, stack_states  # noqa: F401
from repro.pso.swarm import initial_swarm_state, initial_swarm_states
from repro.pso.velocity import resolve_vmax
from repro.simulator.adversary import Adversary, AdversarySpec
from repro.simulator.observers import StopCondition
from repro.topology.provider import ViewProvider, make_array_provider
from repro.utils.config import ExperimentConfig
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import SeedSequenceTree

__all__ = ["FastEngine", "run_single_fast", "RNG_MODES", "scatter_min_fold"]

#: Supported per-particle draw regimes (see module docstring).
RNG_MODES = ("strict", "batched")

#: Batched draws are generated in fixed node-id blocks of this size,
#: each from its own seed branch — per-node-id stable, and O(live)
#: work under churn regardless of how many ids have ever existed.
_DRAW_BLOCK_BITS = 8
_DRAW_BLOCK = 1 << _DRAW_BLOCK_BITS


def _grow_1d(arr: np.ndarray, size: int, fill) -> np.ndarray:
    """Return ``arr`` with room for ``size`` entries (geometric growth)."""
    if arr.shape[0] >= size:
        return arr
    grown = np.full(max(size, 2 * arr.shape[0]), fill, dtype=arr.dtype)
    grown[: arr.shape[0]] = arr
    return grown


class FastEngine:
    """Batched cycle-driven engine over structure-of-arrays swarm state.

    Duck-type compatible with the observer/stop API of
    :class:`~repro.simulator.engine.EngineBase` (``cycle``, ``stop()``,
    ``stopped``, ``stop_reason``, ``observers``), so measurement hooks
    like :class:`~repro.core.metrics.GlobalQualityObserver` and
    :class:`~repro.simulator.observers.StopCondition` run unchanged on
    either engine.

    Parameters
    ----------
    config:
        The experiment point (same object the reference runner takes).
    repetition:
        Seed-tree branch ``("rep", repetition)``, as in
        :func:`~repro.core.runner.run_single`.
    gossip:
        Run the topology and anti-entropy coordination phases.
        ``False`` isolates the nodes — the configuration under which
        fast and reference engines are same-seed trajectory-identical
        for any ``n``.
    objective_map:
        Optional heterogeneous network: ``{node_id: function_name}``
        covering every initial node (all functions must share one
        dimensionality; joiners reuse ``node_id % initial_size``'s
        objective).  Nodes are grouped by function and each chunk
        issues **one batched objective evaluation per group**.
        Velocity/position bounds become per-node rows when the
        groups' domains differ.
    topology:
        Name of an array-backed overlay (``"newscast"`` — the paper's
        protocol and the default — ``"cyclon"``, ``"ring"``,
        ``"kregular"``, ``"star"``, or ``"oracle"`` for the idealized
        uniform sampler), or a ready
        :class:`~repro.topology.provider.ViewProvider` instance.
    rng_mode:
        ``"strict"`` or ``"batched"`` per-particle draws (see module
        docstring).
    kernel_backend:
        Name of a registered kernel backend (``"numpy"`` — the default
        and the pinned oracle — or ``"numba"``), or a ready
        :class:`~repro.core.kernels.KernelBackend` instance.  All hot
        kernels (fused update, batched eval, gossip reduction,
        NEWSCAST merge) dispatch through it; backends whose runtime
        dependency is missing fall back to NumPy with a one-time
        warning.  Results are bit-identical across backends (the
        kernel contract; see :mod:`repro.core.kernels`).
    node_ids:
        Global node ids this engine owns (default: the whole network,
        ``0..config.nodes-1``).  The sharding seam: per-node RNG
        streams, batched draw-block keys and the budget formula all
        use the global ids, so a shard engine over a contiguous id
        block evolves its nodes on exactly the streams the
        whole-network engine would (see :mod:`repro.sharding`).
        Subset engines must be churn-free and homogeneous, and take a
        ready ``ViewProvider`` (or run ``gossip=False``).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        repetition: int = 0,
        gossip: bool = True,
        objective_map=None,
        topology: str | ViewProvider = "newscast",
        rng_mode: str = "strict",
        kernel_backend: str | KernelBackend = "numpy",
        node_ids: np.ndarray | None = None,
        dynamics: DynamicsSpec | None = None,
        adversary: AdversarySpec | None = None,
    ):
        self.config = config
        self.gossip = gossip
        if rng_mode not in RNG_MODES:
            raise ConfigurationError(
                f"rng_mode must be one of {RNG_MODES}, got {rng_mode!r}"
            )
        self.rng_mode = rng_mode
        self.backend = get_backend(kernel_backend)
        self.workspace = Workspace()
        tree = SeedSequenceTree(config.seed).subtree("rep", repetition)
        self._tree = tree
        self._init_objectives(config, objective_map)

        # Time-aware objective: a Problem wrapping self.function.  For
        # static scenarios the wrapper is inert and the evaluation hot
        # path passes ctx=None through the kernels — same operations,
        # same bit stream as before the Problem layer existed.
        if dynamics is not None and dynamics.enabled and objective_map is not None:
            raise ConfigurationError(
                "dynamics requires a homogeneous network (no objective_map)"
            )
        self._problem = build_problem(self.function, dynamics, tree)
        self._dynamic = self._problem.is_dynamic
        self._problems = [self._problem]
        self._epoch = 0
        self.reevaluations = 0

        if adversary is not None and adversary.enabled:
            if objective_map is not None:
                raise ConfigurationError(
                    "adversary requires a homogeneous network (no objective_map)"
                )
            self._adversary: Adversary | None = Adversary(
                adversary, config.nodes, tree.rng("adversary")
            )
        else:
            self._adversary = None

        # ``node_ids`` is the sharding seam: an engine may own any
        # subset of a larger overlay's id space.  Per-node streams and
        # draw-block keys are derived from the *global* ids, so a
        # shard's nodes evolve on exactly the streams the whole-network
        # engine would give them.  Defaults to 0..config.nodes-1 (the
        # whole network, the ordinary case).
        if node_ids is None:
            node_ids = np.arange(config.nodes, dtype=np.int64)
            self._default_ids = True
        else:
            node_ids = np.asarray(node_ids, dtype=np.int64)
            self._default_ids = False
            if config.churn.enabled:
                raise ConfigurationError(
                    "churn needs the full id space (joins allocate new "
                    "ids); engines over an id subset must run churn-free"
                )
            if objective_map is not None:
                raise ConfigurationError(
                    "objective_map covers ids 0..n-1 and cannot drive an "
                    "engine over an id subset"
                )
            if self._dynamic or self._adversary is not None:
                raise ConfigurationError(
                    "dynamics/adversary scenarios are not shardable: epoch "
                    "refresh and Byzantine membership span the whole overlay"
                )
        n = node_ids.shape[0]
        id_span = int(node_ids.max(initial=-1)) + 1
        # Every node's private ("node", nid, "pso") stream, derived in
        # one batch, and the whole initial SoA state in one fill per
        # stream.  ``_fills`` keeps each slot's bound ``Generator.random``
        # for the strict draw loop (kept in step with slots by _join).
        rngs = tree.rngs(("node",), node_ids.tolist(), ("pso",))
        self.soa: SwarmStateSoA = initial_swarm_states(
            self._functions, config.pso, rngs, self._node_group
        )
        self._fills = [rng.random for rng in rngs]

        # Liveness mirror of Network: a swap-remove live list keeps
        # churn victim selection order-compatible with the reference.
        # ``_live`` holds node *ids*; the indirection tables map ids to
        # SoA slots (identical until churn reuses a crashed slot).
        self._live: list[int] = [int(nid) for nid in node_ids]
        self._live_pos: dict[int, int] = {
            int(nid): i for i, nid in enumerate(node_ids)
        }
        self._initial_size = n
        self._next_id = id_span
        self._slot_of_id = np.full(id_span, -1, dtype=np.int64)
        self._slot_of_id[node_ids] = np.arange(n, dtype=np.int64)
        self._id_of_slot = node_ids.copy()
        self._alive = np.zeros(id_span, dtype=bool)
        self._alive[node_ids] = True
        self._free_slots: list[int] = []
        self._retired_evaluations = 0
        self._churn_rng = tree.rng("churn") if config.churn.enabled else None
        self._gossip_rng = tree.rng("fastpath", "gossip")

        if callable(topology) and not isinstance(topology, ViewProvider):
            raise ConfigurationError(
                "the fast engine takes a named topology or ViewProvider, "
                "not a factory callable (use the reference engine)"
            )
        if isinstance(topology, ViewProvider):
            self.provider: ViewProvider = topology
            self.provider.ensure_capacity(self._next_id)
        else:
            if not self._default_ids:
                raise ConfigurationError(
                    "named topologies bootstrap the whole id space; an "
                    "engine over an id subset takes a ready ViewProvider "
                    "(the sharding layer owns the overlay)"
                )
            self.provider = make_array_provider(topology, config, tree)
        # Providers that implement the kernel seam route their merge
        # and gather hot paths through the engine's backend/workspace.
        self.provider.attach_kernels(self.backend, self.workspace)

        self.budget = config.evaluations_per_node
        self.cycle: int = 0
        self.now: float = 0.0
        self.observers: list = []
        self._stopped = False
        self._stop_reason: str | None = None

        # Communication tallies (mirroring CoordinationProtocol's).
        self.messages_sent = 0
        self.adoptions = 0
        self.transport_to_dead = 0
        self.crashes = 0
        self.joins = 0
        self._draws: np.ndarray | None = None
        self._draw_rows: list[np.ndarray] | None = None

    # -- objectives (homogeneous or grouped heterogeneous) -----------------------

    def _init_objectives(self, config: ExperimentConfig, objective_map) -> None:
        if objective_map is None:
            self.function: Function = get_function(config.function)
            self._functions: list[Function] = [self.function]
            self._node_group: list[int] | None = None
            self._group_of_id: list[int] | None = None
            self._vmax = resolve_vmax(self.function, config.pso.vmax_fraction)
            self._group_vmax = None
            self._group_lower = self._group_upper = None
            return
        names: list[str] = []
        index: dict[str, int] = {}
        groups: list[int] = []
        for nid in range(config.nodes):
            try:
                name = str(objective_map[nid])
            except KeyError:
                raise ConfigurationError(
                    f"objective_map must cover every node; missing id {nid}"
                ) from None
            if name not in index:
                index[name] = len(names)
                names.append(name)
            groups.append(index[name])
        self._functions = [get_function(name) for name in names]
        dims = {f.dimension for f in self._functions}
        if len(dims) != 1:
            raise ConfigurationError(
                f"objective_map functions must share one dimension, got {sorted(dims)}"
            )
        self.function = self._functions[groups[0]]
        # Per-slot (ndarray: indexed in the hot kernels) and per-id
        # group assignment — identical until churn recycles slots.
        self._node_group = np.asarray(groups, dtype=np.int64)
        self._group_of_id = list(groups)
        # Bounds become per-group rows: groups may have different boxes.
        self._vmax = None
        vmaxes = [resolve_vmax(f, config.pso.vmax_fraction) for f in self._functions]
        self._group_vmax = None if vmaxes[0] is None else np.stack(vmaxes)
        self._group_lower = np.stack([f.lower for f in self._functions])
        self._group_upper = np.stack([f.upper for f in self._functions])

    def _function_of(self, nid: int) -> Function:
        if self._group_of_id is None:
            return self.function
        return self._functions[self._group_of_id[nid]]

    def quality_of(self, value: float) -> float:
        """Solution quality of ``value`` across the network's objectives."""
        if self._node_group is None:
            return self.function.quality(value)
        fstar = min(f.optimum_value for f in self._functions)
        return max(0.0, float(value) - fstar)

    def _batch_eval(
        self, live: np.ndarray, pos: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Evaluate ``(nl, width, d)`` positions: one batch per function group.

        Static scenarios dispatch with ``ctx=None`` — the pinned
        bit-identical path.  Dynamic scenarios hand the kernels the
        Problem plus the engine's virtual clock.
        """
        if not self._dynamic:
            return self.backend.batch_eval(
                self._functions, self._node_group, live, pos, out=out
            )
        return self.backend.batch_eval(
            self._problems, self._node_group, live, pos, out=out,
            ctx=EvalContext(time=self.now, cycle=self.cycle),
        )

    def _draw_buffer(self, shape: tuple[int, ...]) -> np.ndarray:
        """Reusable uniform-draw buffer (steady state: one shape per run)."""
        if self._draws is None or self._draws.shape != shape:
            # Zero-filled, not empty: rows of non-moving nodes feed the
            # fused update before being masked out, and must stay finite.
            self._draws = np.zeros(shape)
            # The strict regime fills per-node rows: cache their views.
            self._draw_rows = list(self._draws) if self.rng_mode == "strict" else None
        return self._draws

    # -- EngineBase-compatible control surface ---------------------------------------

    def stop(self, reason: str = "requested") -> None:
        """Request termination; honored at the next safe point."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stopped(self) -> bool:
        """Whether a stop has been requested."""
        return self._stopped

    @property
    def stop_reason(self) -> str | None:
        """Why the simulation stopped, if it did."""
        return self._stop_reason

    def add_observer(self, observer) -> None:
        """Append an observer (runs after already-registered ones)."""
        self.observers.append(observer)

    # -- liveness -----------------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Number of currently live nodes."""
        return len(self._live)

    def live_ids(self) -> np.ndarray:
        """Live node ids as an index array (live-list order)."""
        return np.asarray(self._live, dtype=np.int64)

    def live_slots(self) -> np.ndarray:
        """SoA slots of the live nodes (live-list order).

        Equal to :meth:`live_ids` until churn recycles a crashed
        node's slot for a joiner.
        """
        return self._slot_of_id[self.live_ids()]

    def is_alive(self, node_id: int) -> bool:
        """Liveness check by node id."""
        return 0 <= node_id < self._next_id and bool(self._alive[node_id])

    def crash_node(self, node_id: int) -> None:
        """Externally crash a live node (fault-injection hook)."""
        if not self.is_alive(node_id):
            raise ConfigurationError(f"node {node_id} is not alive")
        self._crash(node_id)
        self.crashes += 1

    def _crash(self, nid: int) -> None:
        pos = self._live_pos.pop(nid)
        last = self._live[-1]
        self._live[pos] = last
        self._live.pop()
        if last != nid:
            self._live_pos[last] = pos
        self._alive[nid] = False
        self._free_slots.append(int(self._slot_of_id[nid]))
        self._slot_of_id[nid] = -1
        self.provider.on_crash(nid)

    def _join(self) -> int:
        nid = self._next_id
        self._next_id += 1
        rng = self._tree.rng("node", nid, "pso")
        group = None
        if self._group_of_id is not None:
            group = self._group_of_id[nid % self._initial_size]
            self._group_of_id.append(group)
        state = initial_swarm_state(self._function_of(nid), self.config.pso, rng)

        if self._free_slots:
            slot = self._free_slots.pop()
            self._retired_evaluations += int(self.soa.evaluations[slot])
            self.soa.replace_slot(slot, state)
            self._fills[slot] = rng.random
            self._id_of_slot[slot] = nid
        else:
            slot = self.soa.append_state(state)
            self._fills.append(rng.random)
            self._id_of_slot = _grow_1d(self._id_of_slot, slot + 1, -1)
            self._id_of_slot[slot] = nid
        if self._node_group is not None:
            self._node_group = _grow_1d(self._node_group, slot + 1, 0)
            self._node_group[slot] = group

        self._slot_of_id = _grow_1d(self._slot_of_id, nid + 1, -1)
        self._slot_of_id[nid] = slot
        self._alive = _grow_1d(self._alive, nid + 1, False)
        self._alive[nid] = True
        self._live_pos[nid] = len(self._live)
        self._live.append(nid)
        self.provider.ensure_capacity(self._next_id)
        self.provider.on_join(nid, self.live_ids(), float(self.now))
        return nid

    # -- oracle metrics (GlobalQualityObserver hooks) -----------------------------------

    def global_best(self) -> float:
        """Best objective value known by any live node (inf if none yet)."""
        if not self._live:
            return float("inf")
        vals = self.soa.best_values[self.live_slots()]
        finite = vals[np.isfinite(vals)]
        return float(finite.min()) if finite.size else float("inf")

    def total_evaluations(self) -> int:
        """Function evaluations summed over all nodes (incl. crashed)."""
        return int(self.soa.evaluations.sum()) + self._retired_evaluations

    def budgets_exhausted(self) -> bool:
        """Whether every live node has spent its local budget."""
        if self.budget is None:
            return False
        if not self._live:
            return True
        live = self.live_slots()
        return bool(np.all(self.soa.evaluations[live] >= self.budget))

    def node_best_spread(self) -> float:
        """Max − min of live nodes' best values (consensus distance)."""
        if not self._live:
            return float("inf")
        vals = self.soa.best_values[self.live_slots()]
        finite = vals[np.isfinite(vals)]
        if finite.size == 0:
            return float("inf")
        return float(finite.max() - finite.min())

    def message_tally(self) -> MessageTally:
        """Communication tally in the reference engine's schema.

        ``newscast_exchanges`` counts the overlay provider's view
        exchanges/shuffles (0 for static and oracle overlays).
        Message counts follow the reference protocol's send rules —
        including sends to dead peers, which also land in
        ``transport_to_dead``; adoption counts use the phased
        semantics described in :meth:`_gossip_phase` and run slightly
        below the reference's sequential counting.
        """
        return MessageTally(
            newscast_exchanges=int(getattr(self.provider, "exchanges", 0)),
            coordination_messages=self.messages_sent,
            coordination_adoptions=self.adoptions,
            transport_sent=self.messages_sent,
            transport_to_dead=self.transport_to_dead,
        )

    # -- time-aware landscape (epoch sync + stale-best refresh) -------------------

    def _sync_epoch(self) -> None:
        """Advance the landscape epoch; refresh stale bests on a change."""
        epoch = self._problem.epoch_at(self.now)
        if epoch != self._epoch:
            self._epoch = epoch
            self.refresh_stale_bests()

    def refresh_stale_bests(self) -> int:
        """Re-evaluate every live node's bests under the current landscape.

        On a shift event the remembered pbest/incumbent *values* are
        measurements of a landscape that no longer exists; positions
        are kept, values are re-evaluated, and node incumbents re-fold
        against the refreshed pbests (a pbest may now beat a stale
        injected optimum).  Never-evaluated particles (pbest = inf)
        stay invalid so first-visit move semantics hold.  Returns the
        number of re-evaluations (tracked in ``reevaluations``, never
        charged to the optimization budget).
        """
        rows = self.live_slots()
        if rows.size == 0:
            return 0
        soa = self.soa
        ctx = EvalContext(time=self.now, cycle=self.cycle)
        nl, k, d = rows.size, soa.k, soa.d
        pb = soa.pbest_positions[rows].reshape(-1, d)
        pbv = self._problem.batch_at(pb, ctx).reshape(nl, k)
        finite = np.isfinite(soa.pbest_values[rows])
        soa.pbest_values[rows] = np.where(finite, pbv, np.inf)
        count = int(finite.sum())
        bv = self._problem.batch_at(soa.best_positions[rows], ctx)
        bfin = np.isfinite(soa.best_values[rows])
        new_best = np.where(bfin, bv, np.inf)
        count += int(bfin.sum())
        # Re-fold: under the new landscape a pbest may beat the incumbent.
        refreshed = soa.pbest_values[rows]
        arg = np.argmin(refreshed, axis=1)
        idx = np.arange(nl)
        cand = refreshed[idx, arg]
        better = cand < new_best
        new_best = np.where(better, cand, new_best)
        soa.best_values[rows] = new_best
        if np.any(better):
            win = np.nonzero(better)[0]
            soa.best_positions[rows[win]] = soa.pbest_positions[
                rows[win], arg[win]
            ]
        self.reevaluations += count
        return count

    def _verify_values(self, positions: np.ndarray) -> np.ndarray:
        """Oracle re-evaluation of claimed positions (plausibility filter)."""
        return self._problem.batch_at(
            positions, EvalContext(time=self.now, cycle=self.cycle)
        )

    def current_true_error(self) -> float:
        """True error of the best *position* any live node believes in.

        Re-evaluates incumbents under the landscape as of now — immune
        to both stale values (dynamics) and fabricated values
        (Byzantine false bests), which is what the dynamic/robustness
        metrics measure.
        """
        rows = self.live_slots()
        if rows.size == 0:
            return float("inf")
        vals = self.soa.best_values[rows]
        mask = np.isfinite(vals)
        if not mask.any():
            return float("inf")
        verified = self._verify_values(self.soa.best_positions[rows[mask]])
        return max(0.0, float(verified.min()) - self._problem.optimum_value)

    # -- cycle phases ------------------------------------------------------------

    def _churn_phase(self) -> None:
        """Crash/join process, draw-for-draw like ChurnProcess.step."""
        cfg = self.config.churn
        rng = self._churn_rng
        if cfg.crash_rate > 0:
            live = list(self._live)
            headroom = max(0, len(live) - cfg.min_population)
            if headroom > 0:
                n_crash = int(rng.binomial(len(live), cfg.crash_rate))
                n_crash = min(n_crash, headroom)
                if n_crash > 0:
                    victims = rng.choice(len(live), size=n_crash, replace=False)
                    for idx in victims:
                        self._crash(live[int(idx)])
                        self.crashes += 1
        if cfg.join_rate > 0:
            lam = cfg.join_rate * self._initial_size
            n_join = int(rng.poisson(lam))
            for _ in range(n_join):
                self._join()
                self.joins += 1

    def _pso_phase(self, live: np.ndarray) -> None:
        """Spend every live node's per-cycle evaluation allowance.

        ``live`` holds SoA slots.  The allowance ``min(r, remaining
        budget)`` is consumed in chunks that visit each particle at
        most once, so each chunk is one fused move + one batched
        evaluation + one fold.  At ``r = k`` (cursors at 0) a cycle is
        exactly one chunk and the per-node arithmetic/stream
        consumption matches :meth:`~repro.pso.swarm.Swarm.step_cycle`
        bit-for-bit under strict RNG.
        """
        soa = self.soa
        k = soa.k
        r = self.config.gossip_cycle
        if self.budget is None:
            allowance = np.full(live.shape[0], r, dtype=np.int64)
        else:
            allowance = np.minimum(r, self.budget - soa.evaluations[live])
            np.maximum(allowance, 0, out=allowance)
        done = np.zeros_like(allowance)
        chunk = 0
        while True:
            remaining = allowance - done
            width = int(min(k, remaining.max(initial=0)))
            if width <= 0:
                break
            self._chunk_step(live, remaining, width, chunk)
            done += np.minimum(remaining, width)
            chunk += 1

    def _chunk_draws(
        self, live: np.ndarray, moving_nodes: np.ndarray, width: int, chunk: int
    ) -> np.ndarray:
        """The chunk's ``(nl, 2, width, d)`` uniform block (both regimes)."""
        nl, d = live.shape[0], self.soa.d
        if self.rng_mode == "strict":
            draws = self._draw_buffer((nl, 2, width, d))
            rows, fills = self._draw_rows, self._fills
            for j, slot in zip(moving_nodes.tolist(), live[moving_nodes].tolist()):
                fills[slot](out=rows[j])
            return draws
        # Batched: seed-branched fills keyed by node-id *block*, so a
        # node's draws depend only on (seed, cycle, chunk, node id) —
        # never on which other nodes are alive — while the work stays
        # proportional to the blocks the live population touches
        # (churn retires old id blocks; a long heavy-churn run does
        # not drag an ever-growing dead-id range through the
        # generator).  SFC64 fills roughly twice as fast as PCG64 and
        # this stream owes bit-compatibility to nothing.
        out = self._draw_buffer((nl, 2, width, d))

        def block_rows(block: int) -> np.ndarray:
            rng = np.random.Generator(
                np.random.SFC64(
                    self._tree.seed_sequence(
                        "fastpath", "draws", self.cycle, chunk, block
                    )
                )
            )
            return rng.random((_DRAW_BLOCK, 2, width, d))

        if self.crashes == 0 and self._default_ids:
            # No churn holes: live row i is node id i — fill by
            # contiguous block slices.
            for block in range((nl + _DRAW_BLOCK - 1) >> _DRAW_BLOCK_BITS):
                lo = block << _DRAW_BLOCK_BITS
                hi = min(nl, lo + _DRAW_BLOCK)
                out[lo:hi] = block_rows(block)[: hi - lo]
            return out
        ids = self._id_of_slot[live]
        for block in np.unique(ids >> _DRAW_BLOCK_BITS):
            sel = (ids >> _DRAW_BLOCK_BITS) == block
            out[sel] = block_rows(int(block))[ids[sel] & (_DRAW_BLOCK - 1)]
        return out

    def _chunk_step(
        self, live: np.ndarray, remaining: np.ndarray, width: int, chunk: int = 0
    ) -> None:
        """Advance up to ``width`` round-robin particles on every live node."""
        soa = self.soa
        cfg = self.config.pso
        k, d = soa.k, soa.d
        nl = live.shape[0]
        cursors = soa.cursors[live]

        # Whole-population synchronous sweep: no gather/scatter needed.
        full_sweep = (
            width == k
            and nl == soa.n
            and bool(np.all(cursors == 0))
            and bool(np.all(live == np.arange(soa.n)))
        )
        if full_sweep:
            sub_pos = soa.positions
            sub_vel = soa.velocities
            sub_pb = soa.pbest_positions
            sub_pbv = soa.pbest_values
        else:
            rows = live[:, None]
            cols = (cursors[:, None] + np.arange(width)[None, :]) % k
            sub_pos = soa.positions[rows, cols]
            sub_vel = soa.velocities[rows, cols]
            sub_pb = soa.pbest_positions[rows, cols]
            sub_pbv = soa.pbest_values[rows, cols]

        all_in = bool(remaining.size) and bool(remaining.min() >= width)
        participating = (
            None if all_in else np.arange(width)[None, :] < remaining[:, None]
        )
        finite = np.isfinite(sub_pbv)
        if all_in and finite.all():
            move = None  # steady state: every particle moves
            moving_nodes = np.arange(nl)
        else:
            move = finite if all_in else (participating & finite)
            moving_nodes = np.nonzero(move.any(axis=1))[0]

        # Workspace buffers carry the steady-state full-sweep chunk:
        # every large intermediate lands in a preallocated arena and
        # the particle arrays double-buffer with the SoA state, so a
        # settled cycle performs no new large-array allocations
        # (pinned by tests/core/test_fastpath_alloc.py).
        ws = self.workspace if full_sweep and moving_nodes.size else None
        backend = self.backend

        if moving_nodes.size:
            # Per-node draws in the same (r1 block, r2 block) order as
            # Swarm.step_cycle; see _chunk_draws for the two regimes.
            draws = self._chunk_draws(live, moving_nodes, width, chunk)
            r1 = draws[:, 0]
            r2 = draws[:, 1]
            gbest = (
                soa.best_positions if full_sweep else soa.best_positions[live]
            )[:, None, :]
            if self._vmax is not None:
                vmax = self._vmax
            elif self._group_vmax is not None:
                vmax = self._group_vmax[self._node_group[live]][:, None, :]
            else:
                vmax = None
            lower = upper = None
            if cfg.clamp_positions:
                if self._node_group is None:
                    lower, upper = self.function.lower, self.function.upper
                else:
                    groups = self._node_group[live]
                    lower = self._group_lower[groups][:, None, :]
                    upper = self._group_upper[groups][:, None, :]
            out_vel = out_pos = None
            if ws is not None:
                out_vel = ws.take("sweep_vel", (nl, width, d))
                out_pos = ws.take("sweep_pos", (nl, width, d))
            vel, new_pos = backend.fused_pso_update(
                sub_pos, sub_vel, sub_pb, gbest, r1, r2,
                cfg.inertia, cfg.c1, cfg.c2,
                vmax=vmax, lower=lower, upper=upper,
                out_vel=out_vel, out_pos=out_pos, ws=ws,
            )
            if move is not None:
                mask3 = move[:, :, None]
                vel = np.where(mask3, vel, sub_vel)
                new_pos = np.where(mask3, new_pos, sub_pos)
        else:
            vel = sub_vel
            new_pos = sub_pos

        values = self._batch_eval(
            live, new_pos,
            out=None if ws is None else ws.take("sweep_val", (nl, width)),
        )

        out_pbv = out_pb = None
        if ws is not None:
            out_pbv = ws.take("sweep_pbv", (nl, width))
            out_pb = ws.take("sweep_pb", (nl, width, d))
        new_pbv, new_pb = backend.pbest_fold(
            values, sub_pbv, sub_pb, new_pos, participating,
            out_pbv=out_pbv, out_pb=out_pb, ws=ws,
        )

        if full_sweep:
            if ws is not None:
                # Double-buffer handoff: the SoA adopts the freshly
                # written buffers and the displaced backing arrays
                # become next cycle's workspace scratch.
                old = soa.exchange_arrays(new_pos, vel, new_pb, new_pbv)
                if old is not None:
                    ws.replace("sweep_pos", old[0])
                    ws.replace("sweep_vel", old[1])
                    ws.replace("sweep_pb", old[2])
                    ws.replace("sweep_pbv", old[3])
            else:
                # Zero-copy handoff; these arrays are not touched again.
                soa.adopt_arrays(new_pos, vel, new_pb, new_pbv)
        else:
            soa.positions[rows, cols] = new_pos
            soa.velocities[rows, cols] = vel
            soa.pbest_positions[rows, cols] = new_pb
            soa.pbest_values[rows, cols] = new_pbv
        if participating is None:
            soa.evaluations[live] += width
        else:
            soa.evaluations[live] += participating.sum(axis=1)
        soa.cursors[live] = (cursors + np.minimum(remaining, width)) % k

        # Swarm-optimum fold: first-index argmin over the chunk, adopt
        # iff strictly better — step_cycle's exact rule.
        best_j = np.argmin(new_pbv, axis=1)
        idx = np.arange(nl)
        cand_val = new_pbv[idx, best_j]
        better = cand_val < soa.best_values[live]
        if np.any(better):
            winners = live[better]
            soa.best_values[winners] = cand_val[better]
            soa.best_positions[winners] = new_pb[idx[better], best_j[better]]

    def _gossip_phase(self, live_ids: np.ndarray, live: np.ndarray) -> None:
        """One anti-entropy exchange per live node, array-level.

        Every node draws one partner from its overlay view (via the
        topology provider) and the configured mode's exchange is
        applied against consistent cycle-start snapshots: incoming
        offers fold by scatter-min (best offer per receiver wins;
        adopted iff strictly better), then push-pull / pull replies
        fold back onto the initiators.  Messages to dead contacts are
        sent and lost, exactly like the reference engine's transport
        (counted in both ``transport_sent`` and ``transport_to_dead``).
        Message counts follow the reference protocol's send rules;
        adoptions are counted per applied fold, so a receiver drawing
        several better offers in one cycle counts one adoption where
        the reference's sequential delivery may count each.
        """
        nl = live.shape[0]
        if nl < 2:
            return
        soa = self.soa
        ws = self.workspace
        mode = self.config.coordination.mode

        peers = self.provider.gossip_targets(live_ids, self._gossip_rng)
        known = peers >= 0
        if not np.any(known):
            return
        peers_safe = np.maximum(peers, 0)
        peer_alive = known & self._alive[peers_safe]
        # Peer position in the live list (only meaningful where alive).
        pos_of = ws.take("gp_pos_of", (self._next_id,), np.int64)
        pos_of[:] = 0
        pos_of[live_ids] = np.arange(nl)
        peer_pos = pos_of[peers_safe]

        # Cycle-start snapshots, in workspace buffers (np.take with an
        # out= target gathers without a temporary).
        val = ws.take("gp_val", (nl,))
        np.take(soa.best_values, live, axis=0, out=val, mode="clip")
        posm = ws.take("gp_posm", (nl, soa.d))
        np.take(soa.best_positions, live, axis=0, out=posm, mode="clip")
        has = np.isfinite(val)
        new_val = ws.take("gp_new_val", (nl,))
        np.copyto(new_val, val)
        new_pos = ws.take("gp_new_pos", (nl, soa.d))
        np.copyto(new_pos, posm)

        # Hostile seam: with no adversary the outgoing offers alias the
        # honest snapshots (no copies, no new operations — the static
        # path stays bit-identical).  With one, Byzantine rows are
        # transformed and ``offer_ok`` masks who offers at all.
        adv = self._adversary
        if adv is None:
            send_val, send_pos = val, posm
            offer_ok = has
            sendable = None
        else:
            send_val, send_pos, sendable = adv.tamper(
                live_ids, val, posm, self.function.lower, self.function.upper
            )
            offer_ok = np.isfinite(send_val) & sendable

        if mode in ("push", "push-pull"):
            attempted = offer_ok & known
            self.messages_sent += int(attempted.sum())
            lost = attempted & ~peer_alive
            self.transport_to_dead += int(lost.sum())
            senders = np.nonzero(attempted & peer_alive)[0]
            fold_val = send_val
            if adv is not None and adv.spec.defense and senders.size:
                # Plausibility filter: receivers fold on re-evaluated
                # values, so fabricated claims die on arrival.
                fold_val = send_val.copy()
                verified = self._verify_values(send_pos[senders])
                adv.screen_batch(send_val[senders], verified)
                fold_val[senders] = verified
            self.adoptions += self.backend.scatter_min_fold(
                senders, peer_pos, fold_val, send_pos, val, new_val, new_pos
            )
            if mode == "push-pull":
                # Receiver at least as good -> it replies; initiator
                # adopts iff the reply strictly improves on it.
                delivered = attempted & peer_alive
                if adv is None:
                    replied = (
                        delivered & has[peer_pos] & (val >= val[peer_pos])
                    )
                    self.messages_sent += int(replied.sum())
                    back = replied & (val[peer_pos] < new_val)
                    if np.any(back):
                        new_val[back] = val[peer_pos[back]]
                        new_pos[back] = posm[peer_pos[back]]
                        self.adoptions += int(back.sum())
                else:
                    replied = (
                        delivered
                        & offer_ok[peer_pos]
                        & (fold_val >= val[peer_pos])
                    )
                    self.messages_sent += int(replied.sum())
                    self._fold_replies(
                        adv, replied, peer_pos, send_val, send_pos,
                        new_val, new_pos,
                    )
        else:  # pull: blind requests, reply iff the peer knows anything
            if adv is None:
                self.messages_sent += int(known.sum())
                lost = known & ~peer_alive
                self.transport_to_dead += int(lost.sum())
                replied = peer_alive & has[peer_pos]
                self.messages_sent += int(replied.sum())
                back = replied & (val[peer_pos] < new_val)
                if np.any(back):
                    new_val[back] = val[peer_pos[back]]
                    new_pos[back] = posm[peer_pos[back]]
                    self.adoptions += int(back.sum())
            else:
                requests = known & sendable  # "drop" nodes ask nothing
                self.messages_sent += int(requests.sum())
                lost = requests & ~peer_alive
                self.transport_to_dead += int(lost.sum())
                replied = requests & peer_alive & offer_ok[peer_pos]
                self.messages_sent += int(replied.sum())
                self._fold_replies(
                    adv, replied, peer_pos, send_val, send_pos,
                    new_val, new_pos,
                )

        soa.best_values[live] = new_val
        soa.best_positions[live] = new_pos

    def _fold_replies(
        self, adv, replied, peer_pos, send_val, send_pos, new_val, new_pos
    ) -> None:
        """Adversary-aware reply fold (push-pull / pull back legs).

        Replying peers send their (possibly tampered) offer; with the
        defense on, initiators fold on re-evaluated values instead of
        the claims.
        """
        rows = np.nonzero(replied)[0]
        if rows.size == 0:
            return
        r_val = send_val[peer_pos[rows]].copy()
        r_pos = send_pos[peer_pos[rows]]
        if adv.spec.defense:
            verified = self._verify_values(r_pos)
            adv.screen_batch(r_val, verified)
            r_val = verified
        better = r_val < new_val[rows]
        if np.any(better):
            win = rows[better]
            new_val[win] = r_val[better]
            new_pos[win] = r_pos[better]
            self.adoptions += int(better.sum())

    # -- driving -----------------------------------------------------------------

    def run_one_cycle(self) -> bool:
        """Run one cycle; returns False if aborted before completion."""
        if self._dynamic:
            self._sync_epoch()
        if self.config.churn.enabled:
            self._churn_phase()
        live_ids = self.live_ids()
        if live_ids.size:
            live = self._slot_of_id[live_ids]
            if self.gossip:
                # Topology service first, like the reference stack.
                self.provider.begin_cycle(live_ids, self._alive, float(self.now))
            self._pso_phase(live)
            if self.gossip:
                self._gossip_phase(live_ids, live)
        if self._stopped:
            return False
        self.cycle += 1
        self.now = float(self.cycle)
        for obs in self.observers:
            obs.observe(self)
            if self._stopped:
                break
        return True

    def run(self, cycles: int) -> int:
        """Execute up to ``cycles`` cycles; returns cycles completed."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        executed = 0
        for _ in range(cycles):
            if self._stopped:
                break
            if not self._live:
                self.stop("population extinct")
                break
            if self.run_one_cycle():
                executed += 1
        return executed


def run_single_fast(
    config: ExperimentConfig,
    repetition: int = 0,
    record_history: bool = False,
    gossip: bool = True,
    objective_map=None,
    extra_observers=(),
    max_cycles: int | None = None,
    topology: str | ViewProvider = "newscast",
    rng_mode: str = "strict",
    kernel_backend: str | KernelBackend = "numpy",
    dynamics: DynamicsSpec | None = None,
    adversary: AdversarySpec | None = None,
) -> RunResult:
    """Fast-path counterpart of the reference single-repetition runner.

    Same contract and :class:`~repro.core.runner.RunResult` schema; see
    the module docstring for the equivalence guarantees.  Reached via
    ``Scenario(engine="fast")`` through the session facade in normal
    use; ``objective_map`` routes heterogeneous networks through
    grouped batch evaluation, ``topology`` selects the array-backed
    overlay, ``rng_mode`` the draw regime, and ``kernel_backend`` the
    kernel implementation the hot paths dispatch through (see
    :class:`FastEngine`; every backend returns bit-identical results).
    """
    if config.evaluations_per_node < 1:
        raise ConfigurationError(
            f"budget e={config.total_evaluations} gives node budget "
            f"{config.evaluations_per_node} < 1 for n={config.nodes}"
        )
    engine = FastEngine(
        config,
        repetition=repetition,
        gossip=gossip,
        objective_map=objective_map,
        topology=topology,
        rng_mode=rng_mode,
        kernel_backend=kernel_backend,
        dynamics=dynamics,
        adversary=adversary,
    )
    quality_obs = GlobalQualityObserver(
        threshold=config.quality_threshold, record_history=record_history
    )
    budget_stop = StopCondition(
        lambda eng: eng.budgets_exhausted(), reason="budget"
    )
    dyn_tracker = None
    observers = []
    if engine._problem.is_dynamic:
        # Ordered first: the observer loop breaks on stop, and the last
        # cycle's sample must land even when the budget trips.
        dyn_tracker = DynamicsTracker()
        observers.append(DynamicsObserver(engine._problem, dyn_tracker))
    observers += [quality_obs, budget_stop, *extra_observers]
    engine.observers = observers

    if max_cycles is None:
        # Same safety cap as the reference runner.
        from repro.core.runner import default_max_cycles

        max_cycles = default_max_cycles(config)
    engine.run(max_cycles)

    stop_reason = engine.stop_reason or "cycle cap"
    best = quality_obs.best_value
    quality = engine.quality_of(best)

    threshold_local = None
    if quality_obs.threshold_cycle is not None:
        threshold_local = quality_obs.threshold_cycle * config.gossip_cycle

    dynamics_dict = None
    if dyn_tracker is not None:
        dynamics_dict = dyn_tracker.metrics(
            final_error=engine.current_true_error()
        )
        dynamics_dict["reevaluations"] = int(engine.reevaluations)
    adversary_dict = None
    if engine._adversary is not None:
        adversary_dict = engine._adversary.tally_dict()
        adversary_dict["final_true_error"] = engine.current_true_error()

    return RunResult(
        best_value=best,
        quality=quality,
        total_evaluations=engine.total_evaluations(),
        cycles=engine.cycle,
        stop_reason=stop_reason,
        threshold_local_time=threshold_local,
        threshold_total_evaluations=quality_obs.threshold_evaluations,
        messages=engine.message_tally(),
        node_best_spread=engine.node_best_spread(),
        history=list(quality_obs.history),
        crashes=engine.crashes,
        joins=engine.joins,
        dynamics=dynamics_dict,
        adversary=adversary_dict,
    )
