"""Deterministic parallel Monte Carlo plumbing.

Replicates are split into chunks of a fixed size, ``CHUNK``, and each
chunk is one task that draws from its own child stream,
``SeedSequence(entropy=seed, spawn_key=(*key, chunk))``.  The chunk size
never depends on the worker count, so results are bit-identical for a
fixed seed however the pool batches the tasks; results come back in
task order.  (The Hill experiment, with few and large simulations, has
one task and one stream per simulation.)
"""

from __future__ import annotations

import numpy as np

# replicates per random stream; fixed so that payloads do not depend on
# --workers, and large enough that stream derivation is negligible
CHUNK = 4096


def child_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the child stream addressed by (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def run_tasks(fn, args_list, workers: int = 1) -> list:
    """Map ``fn`` over argument tuples, preserving order.

    ``fn`` must be a module-level function when workers > 1 (process
    pools pickle it).  With one worker everything runs in-process; a pool
    hands each worker about four batches of consecutive tasks.
    """
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    # imported here: the pool machinery (multiprocessing) costs every
    # import of the package about 0.05 s, and most runs start no pool
    from concurrent.futures import ProcessPoolExecutor

    chunksize = -(-len(args_list) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list, chunksize=chunksize))


def _chunk(args) -> np.ndarray:
    draw, params, total, seed, key, c = args
    return draw(child_rng(seed, *key, c), min(CHUNK, total - c * CHUNK), *params)


def chunked_draws(draw, params: tuple, total: int, seed: int, key: tuple,
                  workers: int = 1) -> np.ndarray:
    """``total`` replicates, ``draw(rng, k, *params)`` per chunk of k <= CHUNK.

    Chunk c is one task and draws from the stream (seed, *key, c);
    ``draw`` must be a module-level function returning k values.
    """
    args = [(draw, params, total, seed, key, c) for c in range(-(-total // CHUNK))]
    return np.concatenate(run_tasks(_chunk, args, workers))
