"""Deterministic parallel Monte Carlo plumbing.

Replicates are split into chunks of a fixed size, ``CHUNK``, and each
chunk draws from its own child stream, ``SeedSequence(entropy=seed,
spawn_key=(*key, chunk))``.  The chunk size never depends on the worker
count, so results are bit-identical for a fixed seed no matter how the
chunks are partitioned across workers.  Workers receive contiguous
blocks and results are concatenated in block order.  (The Hill
experiment, with few and large simulations, keeps one stream per
simulation.)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

# replicates per random stream; fixed so that payloads do not depend on
# --workers, and large enough that stream derivation is negligible
CHUNK = 4096


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the child stream addressed by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def block_ranges(n_items: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) blocks covering range(n_items)."""
    if n_items <= 0:
        return []
    n_blocks = min(n_items, max(1, workers * 4))
    edges = np.linspace(0, n_items, n_blocks + 1, dtype=int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def run_tasks(fn, args_list, workers: int = 1) -> list:
    """Map ``fn`` over argument tuples, preserving order.

    ``fn`` must be a module-level function when workers > 1 (process
    pools pickle it).  With one worker everything runs in-process.
    """
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def _chunk_block(args) -> np.ndarray:
    draw, params, total, seed, key, lo, hi = args
    return np.concatenate([
        draw(child_rng(seed, *key, c), min(CHUNK, total - c * CHUNK), *params)
        for c in range(lo, hi)
    ])


def chunked_draws(draw, params: tuple, total: int, seed: int, key: tuple,
                  workers: int = 1) -> np.ndarray:
    """``total`` replicates, ``draw(rng, k, *params)`` per chunk of k <= CHUNK.

    Chunk c draws from the stream (seed, *key, c); ``draw`` must be a
    module-level function returning k values.
    """
    n_chunks = -(-total // CHUNK)
    args = [(draw, params, total, seed, key, lo, hi)
            for lo, hi in block_ranges(n_chunks, workers)]
    return np.concatenate(run_tasks(_chunk_block, args, workers))
