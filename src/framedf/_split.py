"""A search of framedf.search split into subtrees, searched in DFS order by
the caller and, once the search runs long, by a forked helper, and merged
so that nodes, result and node count are those of one process walking the
tree.

Both solver paths hand split_search the same namespace, _direct_search's
over unknown values and _fc_over_clusters' over cluster rows: n, the
number of variables; feasible, False when the search fails before its
first node; dfs(depth, budget, stop=-1, visit=None), framedf.search's
_backtrack below the placements in force at `depth`; and solution(), one
encoding per unknown of the system, read from the placements in force.
No closure refers to itself, so a search's state is freed once the
namespace is dropped.

The tree is split at depth split_depth(n).  The caller walks the part
above that depth with the search's own dfs, which calls visit() at each
subtree root instead of searching below it, and notes how many nodes the
walk had spent there.  visit() searches the subtree in place with the room
that the limit leaves after the nodes above it, never less than the
one-process run has there.  At the first subtree root reached once the
search has spent FORK_AFTER nodes, visit() forks a helper (none on one
CPU, without fork, or beside other threads): a copy of the caller in the
middle of the same walk.  From then on both walk the whole tree above the
split depth and claim its subtrees on demand.  A counter in a shared
anonymous mmap, made just before the fork, holds the next unclaimed
subtree index; the caller takes the subtree at which it forks.  At each
later root a process reads the counter: when it is at most the root's
index, the process writes index + 1 and searches the subtree, and when it
is larger, the other process has claimed the subtree.  Both processes
reach the roots in the same order, so whichever reads at a root first
finds no larger value and claims it: no subtree is skipped.  A lost race,
both reading before either writes, only has both search the subtree, with
the same (nodes, assignment); it may also leave a smaller value behind,
hence "at most".  For each of its subtrees the helper sends back (index,
(nodes, assignment or None), decides) and, when its walk ends, None.  A
subtree decides when it finds a solution or overruns its room: no later
subtree is needed, so the helper ends its walk there, and the caller walks
on until it reaches the first deciding subtree it knows of.

Results are merged in DFS order, one per index, which reproduces the
one-process run: the subtree reached with `at` nodes spent (the nodes
above it plus those of every earlier subtree) that spends k more nodes
ends the search with a solution at at + k nodes, or with budget_exceeded
at limit + 1 once at + k passes the limit.  The helper is killed and
reaped on every exit; it never returns past split_search, printing any
error and leaving by os._exit.

The helper is a plain os.fork child that talks through a pipe, so that
neither an import of framedf nor a search loads multiprocessing.  This
module is imported by the first search, not by framedf.
"""

from __future__ import annotations

import mmap
import os
import pickle
import select
import signal
import struct
import sys
import threading
import traceback
from types import SimpleNamespace
from typing import Optional

from .search import SolveResult, _Budget

# a fork, exit and wait cost 3-5 ms on a 2-vCPU x86_64 box, the time of
# 200-300 nodes of z7@89 alone
FORK_AFTER = 1_000


def can_fork() -> bool:
    """True where this process has fork and may run on two CPUs or more:
    the gain was measured with one helper beside the caller on two CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) > 1


def split_depth(n: int) -> int:
    """The depth of the subtree roots for n variables: 3 for z7@89's 8
    unknowns (527 subtrees up to its solution, 766 nodes at most), for
    twinPrime3@49's (1,512 subtrees of about 32 nodes) and for z125's 13
    clusters, and 4 for the widened z63 repair's 16 unknowns (368 subtrees,
    3,803 nodes at most).  Each process walks every node above this depth."""
    return min(n, 2 + n // 8)


def send(fd: int, obj) -> None:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(struct.pack("<Q", len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def recv(fd: int):
    """The next object sent down the pipe `fd`; EOFError once its writer
    is gone."""
    def read(size):
        out = b""
        while len(out) < size:
            chunk = os.read(fd, size - len(out))
            if not chunk:
                raise EOFError
            out += chunk
        return out
    return pickle.loads(read(struct.unpack("<Q", read(8))[0]))


COUNTER = struct.Struct("q")   # the next unclaimed subtree: an aligned native int64,
                               # so each read or write moves it whole


def claim(shared: mmap.mmap, i: int) -> bool:
    """True when this process takes subtree i, read from and written to the
    counter at the start of `shared` (see above)."""
    if COUNTER.unpack_from(shared)[0] > i:
        return False
    COUNTER.pack_into(shared, 0, i + 1)
    return True


def subtree(search: SimpleNamespace, depth: int, room: int) -> tuple[int, Optional[list]]:
    """Search below the placements in force, at `depth`, with `room` nodes:
    (nodes spent, the assignment found or None).  More than `room` nodes
    means the search stopped there."""
    budget = _Budget(room)
    found = search.dfs(depth, budget)
    return budget.nodes, search.solution() if found else None


def split_search(search: SimpleNamespace, budget: _Budget) -> SolveResult:
    """Run `search`, either path's namespace, from the node count and limit
    of `budget` as described above, and leave the merged node count in it."""
    depth = split_depth(search.n)
    base, limit = budget.nodes, budget.limit
    above = _Budget(limit - base)          # the nodes the walk spends above depth
    starts: list[int] = []                 # per subtree: above.nodes when it was reached
    results: dict = {}                     # subtree -> (nodes, assignment or None)
    merged = spent = 0                     # subtrees merged and their nodes
    first = float("inf")                   # the first subtree known to decide
    walking, done, res = True, False, None
    forked_at = None                       # the subtree at which the fork was tried
    pid = fd = shared = None               # once forked: the helper's pid (0 in the
                                           # helper), this process's end of the pipe
                                           # and the mmap of the claim counter

    def finish(status, nodes, found=None):
        nonlocal res
        budget.nodes = nodes
        res = SolveResult(status, None if found is None else dict(enumerate(found)), nodes)
        return res

    def merge():
        """The result once the subtrees merged so far decide it, else None."""
        nonlocal merged, spent
        while merged < len(starts):
            at = base + starts[merged] + spent
            if at > limit:
                return finish("budget_exceeded", limit + 1)
            if merged not in results:
                return None
            nodes, found = results.pop(merged)
            if at + nodes > limit:
                return finish("budget_exceeded", limit + 1)
            if found is not None:
                return finish("sat", at + nodes, found)
            spent += nodes
            merged += 1
        if walking:
            return None
        total = base + above.nodes + spent
        return finish("exhausted", total) if total <= limit \
            else finish("budget_exceeded", limit + 1)

    def fork(i):
        """Fork the helper at subtree i, which the caller takes, unless this
        process may not: a lock that another thread holds would stay held
        in the helper."""
        nonlocal pid, fd, shared
        if not can_fork() or threading.active_count() > 1:
            return
        r, w = os.pipe()
        shared = mmap.mmap(-1, COUNTER.size)
        COUNTER.pack_into(shared, 0, i + 1)
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return
        fd = w if pid == 0 else r
        os.close(r if pid == 0 else w)
        if pid == 0:
            signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller ends the helper

    def take(block):
        """Record the results the helper has sent, waiting for one if
        `block`.  They may be of subtrees the caller has not reached yet."""
        nonlocal first, done
        while not done and select.select([fd], [], [], None if block else 0)[0]:
            try:
                msg = recv(fd)
            except (EOFError, OSError):
                raise RuntimeError(f"search helper {pid} exited") from None
            if msg is None:
                done = True
            else:
                i, result, decides = msg
                if i >= merged:            # a subtree both processes searched merges once
                    results[i] = result
                if decides:
                    first = min(first, i)
            block = False
        if block:
            raise RuntimeError(f"search helper {pid} ended its walk with a result unsent")

    def visit():
        """The walk's step at each subtree root: fork the helper once the
        search has run long, and search the subtree here if it is this
        process's (every subtree before the fork, then those it claims);
        True once the walk may stop."""
        nonlocal forked_at, first
        i = len(starts)
        starts.append(above.nodes)
        if forked_at is None and above.nodes + spent >= FORK_AFTER:
            forked_at = i
            fork(i)
        if pid is None or (pid and i == forked_at) or claim(shared, i):
            room = limit - base - starts[i]
            nodes, found = result = subtree(search, depth, room)
            if found is not None or nodes > room:
                first = i
            if pid == 0:
                send(fd, (i, result, first == i))
            else:
                results[i] = result
        if pid:
            take(False)
        return i >= first or merge() is not None

    try:
        if search.feasible:
            search.dfs(0, above, depth, visit)
        if pid == 0:
            send(fd, None)
            os._exit(0)
        walking = False
        while res is None and merge() is None:
            take(True)             # every subtree left to merge is the helper's
        return res
    except BaseException:
        if pid == 0:               # the helper, which never returns into the caller's frames
            traceback.print_exc()
            sys.stderr.flush()
            os._exit(1)
        raise
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        if shared is not None:
            shared.close()
