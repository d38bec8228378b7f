"""Forked children for independent work, under one set of rules.

A child runs its work, sends what the work returns down a pipe pickled and
ends in `os._exit`: it never returns into the caller's stack, runs no exit
handler and flushes no inherited stdio buffer.  The parent reads each pipe
to EOF before it reaps the child, so a result larger than the pipe buffer
cannot deadlock, and it reaps every child it forked on every path.  Work
that fails in a child, or whose child dies, is run again in process, so a
failure is raised as at one process.  `spawn` is that child, shared by
`fork_map` and evolve's ``fan.csv`` writer; `reap` is the parent's side.
"""

import contextlib
import functools
import os
import pickle


def spawn(work):
    """Fork a child that runs work() and sends what it returns, pickled;
    return (pid, read end of the pipe).  Apart from what work writes, the
    child writes nothing to stdout or stderr; it exits with status 1 if
    work raised, 0 otherwise."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # ends in os._exit: never returns or flushes stdio
        status = 1
        try:
            os.close(r)
            data = pickle.dumps(work(), pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def reap(pid, fd):
    """Read a spawned child's pipe to EOF, then reap the child; return what
    its work returned (None unless the child exited 0) and its exit code."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return pickle.loads(data) if code == 0 else None, code


def _run_dealt(fn, items, which):
    """A child's share of fork_map: fn over items[which], up to the first
    item that raises."""
    out = []
    for i in which:
        try:
            out.append(fn(items[i]))
        except Exception:  # the parent re-runs item i in process
            break
    return out


def fork_map(fn, items, threads, order=None):
    """[fn(item) for item in items], dealt round-robin over up to `threads`
    processes: the parent takes items 0, p, 2p, ... of the p processes, and
    child j takes items j, j + p, ...  Every result is fn's own, in value
    and type, whichever process computed it.

    `order` is the in-process order of the items, by default their index
    order: at one process (or without os.fork) the items run in it, and
    nothing forks.  A failure is the one that order reaches first.  Once
    every child is reaped, each item with no result (it raised in a child,
    came after one that did, or its child died) is run in process in that
    order, so the same exception is raised as at one process.
    """
    n = len(items)
    procs = min(threads, n) if hasattr(os, "fork") else 1
    results, failed = {}, {}

    def collect(j, pid, fd):
        results.update(zip(range(j, n, procs), reap(pid, fd)[0] or ()))

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
