"""Deterministic hierarchical random-number streams.

Reproducibility contract
------------------------

Every experiment in this library consumes exactly **one** integer
master seed.  All randomness — particle initialization, NEWSCAST peer
selection, gossip partner choice, churn arrival times, per-repetition
variation — is drawn from streams *derived* from that seed through a
:class:`SeedSequenceTree`.

Derivation is keyed by **path**, not by call order:

>>> tree = SeedSequenceTree(42)
>>> rng_a = tree.rng("rep", 0, "node", 17, "pso")
>>> rng_b = tree.rng("rep", 0, "node", 17, "gossip")

``rng_a`` and ``rng_b`` are statistically independent, and asking for
the same path twice returns an identically-seeded (fresh) generator.
This means two simulations that touch nodes in different orders (e.g.
because a shuffled iteration differs) still give each node the *same*
private stream, which is what makes churn and topology ablations
comparable run-to-run.

Implementation notes
--------------------

NumPy's :class:`numpy.random.SeedSequence` already implements robust
entropy splitting (``spawn_key``); we layer a stable string/int → key
mapping on top so paths are self-describing.  Hash truncation uses
BLAKE2b which is deterministic across platforms and Python versions
(unlike built-in ``hash``).  :meth:`SeedSequenceTree.rngs` derives many
sibling streams at once with numpy's SeedSequence arithmetic run
column-wise; it is pinned bit-identical to :meth:`SeedSequenceTree.rng`.
"""

from __future__ import annotations

import hashlib
from operator import index
from typing import Iterable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["SeedSequenceTree", "derive_rng", "spawn_rngs"]

#: Number of 32-bit words taken from the path digest when deriving keys.
_KEY_WORDS = 4


def _encode_part(item: int | str) -> bytes:
    """Canonical serialization of one path component."""
    if isinstance(item, bool):  # bool is an int subclass; be explicit
        return b"b:%d" % item
    if isinstance(item, (int, np.integer)):
        return b"i:%d" % int(item)
    if isinstance(item, str):
        return b"s:" + item.encode("utf-8")
    raise TypeError(
        f"RNG path components must be int or str, got {type(item).__name__}"
    )


def _encode_path(path: tuple) -> bytes:
    return b"/".join(_encode_part(item) for item in path)


def _path_to_key(path: tuple) -> tuple[int, ...]:
    """Map an arbitrary path of ints/strings to spawn-key integers.

    The mapping must be stable across processes and platforms, so we
    serialize the path canonically and digest it with BLAKE2b.
    """
    raw = hashlib.blake2b(_encode_path(path), digest_size=4 * _KEY_WORDS).digest()
    return tuple(
        int.from_bytes(raw[4 * i : 4 * (i + 1)], "little") for i in range(_KEY_WORDS)
    )


# -- batched derivation --------------------------------------------------------------
#
# ``SeedSequence(entropy=master, spawn_key=key)`` followed by
# ``PCG64(seed_seq)`` is, per numpy's documented algorithm: coerce the
# entropy and spawn key to uint32 words (the run entropy zero-padded to
# the pool size when a spawn key follows), hash-mix them into a 4-word
# pool, then expand the pool into ``generate_state(4, uint64)`` words
# that seed the PCG64.  Every step is uint32 arithmetic that wraps, so
# the whole pipeline runs column-wise over many spawn keys at once.

_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _int_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int (``[0]`` for 0)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


# The two mixing primitives take Python ints or uint32 arrays alike:
# every product is reduced mod 2**32 before it meets an array.


class _HashMix:
    """numpy's ``hashmix`` with its running multiplier."""

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = (self.const * self.mult) & _MASK32
        value = (value * self.const) & _MASK32
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = ((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)
    result &= _MASK32
    return result ^ (result >> _XSHIFT)


def _pcg64_seed_words(master_seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(master_seed, key).generate_state(4, uint64)`` per row.

    ``keys`` is an ``(n, _KEY_WORDS)`` uint32 array of spawn keys; the
    result is ``(n, 4)`` uint64.  The master seed's words are shared by
    every row, so they are mixed once as Python ints; only the key
    words are mixed as uint32 columns.
    """
    run = _int_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = run + list(keys.T)
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    expand = _HashMix(_INIT_B, _MULT_B)
    state = np.stack([expand(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Precomputed ``generate_state(4, uint64)`` words of one stream.

    Seeding a :class:`~numpy.random.PCG64` from these words gives the
    bit generator the state the full :class:`~numpy.random.SeedSequence`
    would; the words are all a PCG64 ever asks its seed sequence for.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("precomputed seed words only seed a PCG64")
        return self.words


class SeedSequenceTree:
    """Derive independent, reproducible RNG streams keyed by path.

    Parameters
    ----------
    master_seed:
        The experiment's single source of entropy.  Any non-negative
        integer.

    Examples
    --------
    >>> tree = SeedSequenceTree(7)
    >>> r1 = tree.rng("node", 3)
    >>> r2 = tree.rng("node", 3)
    >>> float(r1.random()) == float(r2.random())   # same path, same stream
    True
    """

    def __init__(self, master_seed: int):
        if not isinstance(master_seed, (int, np.integer)):
            raise TypeError("master_seed must be an integer")
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self._master_seed = int(master_seed)

    @property
    def master_seed(self) -> int:
        """The master seed this tree was constructed with."""
        return self._master_seed

    def seed_sequence(self, *path: int | str) -> np.random.SeedSequence:
        """Return the :class:`~numpy.random.SeedSequence` for ``path``."""
        key = _path_to_key(tuple(path))
        return np.random.SeedSequence(entropy=self._master_seed, spawn_key=key)

    def rng(self, *path: int | str) -> np.random.Generator:
        """Return a fresh :class:`~numpy.random.Generator` for ``path``.

        Calling twice with the same path returns independent generator
        *objects* positioned at the start of the identical stream.
        """
        return np.random.default_rng(self.seed_sequence(*path))

    def rngs(
        self, prefix: tuple, ids: Iterable[int], suffix: tuple = ()
    ) -> list[np.random.Generator]:
        """``[self.rng(*prefix, i, *suffix) for i in ids]`` in one call.

        Bit-identical to the per-path loop (same ``bit_generator``
        state, hence the same streams), at a fraction of its cost: the
        path bytes around the id are encoded once, and numpy's
        SeedSequence mixing runs vectorized over all ids.  The
        generators' ``bit_generator.seed_seq`` is a holder of the
        precomputed seed words, not a spawnable
        :class:`~numpy.random.SeedSequence`.
        """
        head = _encode_path(tuple(prefix))
        head = head + b"/i:" if head else b"i:"
        tail = _encode_path(tuple(suffix))
        tail = b"/" + tail if tail else b""
        blake2b = hashlib.blake2b
        size = 4 * _KEY_WORDS
        raw = b"".join(
            blake2b(b"%s%d%s" % (head, index(i), tail), digest_size=size).digest()
            for i in ids
        )
        keys = np.frombuffer(raw, dtype="<u4").reshape(-1, _KEY_WORDS)
        words = _pcg64_seed_words(self._master_seed, keys)
        generator, pcg64 = np.random.Generator, np.random.PCG64
        return [generator(pcg64(_SeedWords(row))) for row in words]

    def subtree(self, *path: int | str) -> "SeedSequenceTree":
        """Return a tree rooted at ``path``.

        Useful to hand a component its own namespace without exposing
        the experiment-level paths: streams from
        ``tree.subtree("rep", 3).rng("node", 0)`` differ from
        ``tree.rng("node", 0)``.
        """
        # Fold the path into a new master seed deterministically.
        key = _path_to_key(tuple(path))
        folded = hashlib.blake2b(
            (str(self._master_seed) + ":" + ":".join(map(str, key))).encode(),
            digest_size=8,
        ).digest()
        return SeedSequenceTree(int.from_bytes(folded, "little"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeedSequenceTree(master_seed={self._master_seed})"


def derive_rng(master_seed: int, *path: int | str) -> np.random.Generator:
    """One-shot convenience wrapper around :class:`SeedSequenceTree`.

    >>> derive_rng(1, "a").random() == derive_rng(1, "a").random()
    True
    """
    return SeedSequenceTree(master_seed).rng(*path)


def spawn_rngs(
    master_seed: int, count: int, *prefix: int | str
) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators under a common prefix.

    Equivalent to ``[tree.rng(*prefix, i) for i in range(count)]`` and
    used wherever a vector of per-entity streams is needed (one per
    node, one per repetition, ...).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return SeedSequenceTree(master_seed).rngs(prefix, range(count))
