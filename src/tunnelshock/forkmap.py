"""Forked children for independent work, under one set of rules.

A child runs its work, sends what the work returns down a pipe as raw
float64 bytes and ends in `os._exit`: it never returns into the caller's
stack, runs no exit handler and flushes no inherited stdio buffer.  The
parent reads each pipe to EOF before it reaps the child, so a result larger
than the pipe buffer cannot deadlock, and it reaps every child it forked on
every path.  `spawn` is that child, shared by `fork_map` and evolve's
``fan.csv`` writer; `reap` is the parent's side.
"""

import contextlib
import functools
import os

import numpy as np


def spawn(work):
    """Fork a child that runs work() and sends the float64 array it returns
    (None sends nothing); return (pid, read end of the pipe).  Apart from
    what work writes, the child writes nothing to stdout or stderr; it
    exits with status 1 if work raised, 0 otherwise."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # ends in os._exit: never returns or flushes stdio
        status = 1
        try:
            os.close(r)
            data = work()
            with open(w, "wb") as pipe:
                if data is not None:
                    pipe.write(np.asarray(data, dtype=float).tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def reap(pid, fd):
    """Read a spawned child's pipe to EOF, then reap the child; return the
    whole float64 values it sent as an array, and its exit code."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return (np.frombuffer(data[:len(data) - len(data) % 8]),
            os.waitstatus_to_exitcode(status))


def _run_dealt(fn, items, which):
    """A child's share of fork_map: fn over items[which], each result as
    its length and then its values, up to the first item that raises."""
    parts = []
    for i in which:
        try:
            a = np.asarray(fn(items[i]), dtype=float).ravel()
        except Exception:  # the parent re-runs item i in process
            break
        parts += [[a.size], a]
    return np.concatenate(parts) if parts else None


def _split(data):
    """The results _run_dealt packed, in order; a cut-off last one is
    dropped."""
    out, k = [], 0
    while k < data.size:
        n = int(data[k])
        if k + 1 + n > data.size:
            break
        out.append(data[k + 1:k + 1 + n])
        k += 1 + n
    return out


def fork_map(fn, items, threads, order=None):
    """[fn(item) for item in items], dealt round-robin over up to `threads`
    processes: the parent takes items 0, p, 2p, ... of the p processes, and
    child j takes items j, j + p, ...  A child's result comes back as a 1-d
    float64 array of fn's values; the parent's results are fn's own.

    `order` is the in-process order of the items, by default their index
    order: at one process (or without os.fork) the items run in it, and
    nothing forks.  A failure is the one that order reaches first.  Once
    every child is reaped, each item with no result (it raised in a child,
    or came after one that did) is run in process in that order, so the
    same exception is raised as at one process.
    """
    n = len(items)
    procs = min(threads, n) if hasattr(os, "fork") else 1
    results, failed = {}, {}

    def collect(j, pid, fd):
        data, _ = reap(pid, fd)
        results.update(zip(range(j, n, procs), _split(data)))

    if procs > 1:
        with contextlib.ExitStack() as children:
            for j in range(1, procs):
                pid, fd = spawn(functools.partial(
                    _run_dealt, fn, items, range(j, n, procs)))
                children.callback(collect, j, pid, fd)
            for i in range(0, n, procs):
                try:
                    results[i] = fn(items[i])
                except Exception as ex:
                    failed[i] = ex
                    break
    for i in range(n) if order is None else order:
        if i in failed:
            raise failed[i]
        if i not in results:
            results[i] = fn(items[i])
    return [results[i] for i in range(n)]
