"""Process sharding of independently keyed units.

sharded(compute, units) deals units round-robin to one process per usable
CPU: the caller computes shard 0 and one forked worker each other shard.
Every unit must draw only from its own StreamKeys, so how the units are
dealt changes no output bit, and there is no setting for it. The qsd
estimators shard their node batches, replicates and truncation boxes here.

Workers are forked, not spawned: compute is usually a closure over the
caller's arrays, which the fork inherits and no pickle could carry. The
package starts no threads of its own. multiprocessing is imported only by a
call that shards.
"""
from __future__ import annotations

import os

__all__ = ["sharded"]


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sharded(compute, units: list) -> list:
    """Results of compute over units, one process per usable CPU.

    compute(shard) takes a sublist of units and returns one result per unit
    of it. With n = min(CPUs, len(units)) shards, shard s holds units[s::n]:
    the calling process computes shard 0 and one forked worker each other
    shard, so compute is inherited, not pickled, and only results and errors
    cross each worker's pipe. Returns the results in unit order. A worker's
    exception is raised again here with its type and fields; when several
    shards fail, the caller's own error wins, then the lowest worker's. Every
    worker is joined (killed first on any failure) before this returns or
    raises, so no process outlives a call. Serial with one CPU, one unit, or
    no fork start method.
    """
    n = min(_cpu_count(), len(units))
    if n <= 1:
        return list(compute(units))
    import multiprocessing as mp  # ~0.4 MB, paid only by a run that shards
    if "fork" not in mp.get_all_start_methods():
        return list(compute(units))
    ctx = mp.get_context("fork")
    workers = []
    try:
        for s in range(1, n):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(compute, units[s::n], send))
            proc.start()
            # only the worker may hold the send end, so its death reads as EOF
            send.close()
            workers.append((proc, recv))
        shards = [compute(units[0::n])]
        for s, (proc, recv) in enumerate(workers, 1):
            # read before joining: a large payload blocks its sender until read
            try:
                ok, payload = recv.recv()
            except EOFError:  # the worker died without sending
                ok, payload = False, None
            proc.join()
            if payload is None:
                raise RuntimeError(f"shard worker {s} exited with code {proc.exitcode} "
                                   "before sending its result")
            if not ok:
                raise payload
            shards.append(payload)
    finally:
        for proc, recv in workers:
            if proc.exitcode is None:
                proc.kill()
            proc.join()
            proc.close()
            recv.close()
    out = [None] * len(units)
    for s, results in enumerate(shards):
        out[s::n] = results
    return out


def _worker(compute, shard: list, conn) -> None:
    # an interrupt or exit is not sent: the worker dies and the caller reads EOF
    try:
        msg = (True, list(compute(shard)))
    except Exception as err:
        msg = (False, err)
    try:
        conn.send(msg)
    except Exception as err:  # a result or error that does not pickle
        conn.send((False, RuntimeError(f"shard worker could not send its result: {err!r}")))
    conn.close()
