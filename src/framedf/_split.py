"""The direct search of framedf.search split into subtrees, searched in DFS
order by the caller and, once the search runs long, by a forked helper,
and merged so that nodes, result and node count are those of one process
walking the tree.

The tree is split at depth split_depth(n), each subtree named by the
placements leading to it.  The caller walks the part above that depth with
the search's own dfs, which calls visit() at each subtree root instead of
searching below it, and notes how many nodes the walk had spent there.
visit() searches the subtree in place, or, once the search has spent
FORK_AFTER nodes and forked its helpers (helper_count(): one on two CPUs or
more, none on one CPU, without fork, or beside other threads), adds it to
a task for a helper that has fewer than QUEUED tasks.  A task is
consecutive subtrees of about TASK_NODES nodes in all (at most
TASK_PREFIXES); a helper, on its forked copy of the search state, puts
each prefix in force from the undo tokens of the placements it holds.

Results are merged in DFS order, which reproduces the one-process run: the
subtree reached with `at` nodes spent (the nodes above it plus those of
every earlier subtree) that spends k more nodes ends the search with a
solution at at + k nodes, or with budget_exceeded at limit + 1 once at + k
passes the limit.  Each subtree is searched with the room that the limit
leaves after the nodes above it, never less than the one-process run has
there.  Subtrees after the one that ends the search are abandoned, and the
helpers are killed and reaped on every exit.

Helpers are plain os.fork children that talk through pipes, so that
neither an import of framedf nor a search loads multiprocessing.  This
module is imported by the first direct search, not by framedf.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import threading
from types import SimpleNamespace
from typing import Optional

from .search import SolveResult, _Budget

FORK_AFTER = 20_000
TASK_NODES = 2_000
TASK_PREFIXES = 64
QUEUED = 2


def helper_count() -> int:
    """One helper where this process may run on two CPUs or more, else
    none: the task sizes above were set, and the gain measured, with one
    helper beside the caller on two CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(1, len(affinity(0)) - 1) if affinity else 0


def split_depth(n: int) -> int:
    """The depth of the subtree roots for n unknowns: 3 for z7@89's 8 (527
    subtrees up to its solution, 766 nodes at most) and 4 for the widened
    z63 repair's 16 (368 subtrees, 3,803 nodes at most)."""
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


def goto(search: SimpleNamespace, depth: int, path) -> None:
    """Put in force the placements ((u, v), ...) of a node at `depth`,
    undoing those in force (their tokens in search.trail[:depth]) back to
    the common prefix."""
    trail, assign, keep = search.trail, search.assign, 0
    while keep < depth and (trail[keep][0], assign[trail[keep][0]]) == path[keep]:
        keep += 1
    for k in reversed(range(keep, depth)):
        search.undo(*trail[k])
    for k in range(keep, depth):
        trail[k] = search.place(*path[k])


def subtree(search: SimpleNamespace, depth: int, room: int) -> tuple[int, Optional[list]]:
    """Search below the placements in force, at `depth`, with `room` nodes:
    (nodes spent, the assignment found or None).  More than `room` nodes
    means the search stopped there."""
    budget = _Budget(room)
    found = search.dfs(depth, budget)
    return budget.nodes, list(search.assign) if found else None


def serve(search: SimpleNamespace, depth: int, tasks: int, results: int) -> None:
    """A helper's loop, on the caller's search state as forked: for each
    task, a list of (prefix, room), search the subtrees in order and send
    back (nodes, assignment or None) of each, up to the first that finds a
    solution or overruns its room, the room counting from the task's first
    subtree.  Once a solution is found (it stays in force) every later
    task is answered empty: nothing after it is needed.  Returns when the
    caller is gone."""
    found = None
    try:
        while True:
            task, out, spent = recv(tasks), [], 0
            for path, room in task if found is None else ():
                goto(search, depth, path)
                nodes, found = subtree(search, depth, room - spent)
                out.append((nodes, found))
                if found is not None or nodes > room - spent:
                    break
                spent += nodes
            send(results, out)
    except (EOFError, OSError):
        return


def start_helpers(search: SimpleNamespace, depth: int, helpers: list) -> None:
    """Fork up to helper_count() helpers serving subtrees of `search`,
    appending (pid, task pipe, result pipe) of each to `helpers`.  None
    where fork is missing or where this process runs other threads (a
    lock one of them holds would stay held in a helper), and no more once
    a fork fails."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return
    for _ in range(helper_count()):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, result_r, result_w):
                os.close(fd)
            return
        if pid == 0:                # the helper, which never returns into the caller's frames
            code = 1
            try:
                # the caller's ends, so that its exit reads as EOF here
                for fd in [task_w, result_r] + [fd for _, w, r in helpers for fd in (w, r)]:
                    os.close(fd)
                signal.signal(signal.SIGINT, signal.SIG_IGN)    # the caller ends helpers
                serve(search, depth, task_r, result_w)
                code = 0
            except Exception:
                sys.excepthook(*sys.exc_info())
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        helpers.append((pid, task_w, result_r))


def split_search(search: SimpleNamespace, budget: _Budget) -> SolveResult:
    """Run the direct search `search` (framedf.search._direct_search) from
    the node count and limit of `budget` as described above, and leave the
    merged node count in it."""
    depth = split_depth(search.n)
    base, limit = budget.nodes, budget.limit
    above = _Budget(limit - base)          # the nodes the walk spends above depth
    starts: list[int] = []                 # per subtree: above.nodes when it was reached
    results: dict = {}                     # subtree -> (nodes, assignment or None)
    merged = spent = 0                     # subtrees merged and their nodes
    walking, forked, res = True, False, None
    helpers: list = []                     # (pid, task pipe, result pipe)
    queues: list = []                      # per helper: the subtrees of its tasks
    task, filling, size = [], None, 0      # the task being filled, for helper `filling`

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

    def room(i):
        """The nodes the limit leaves subtree i after the nodes above it."""
        return limit - base - starts[i]

    def record(i, result):
        nonlocal walking
        results[i] = result
        nodes, found = result
        if found is not None or nodes > room(i):
            walking = False        # no subtree after i is needed

    def dispatch():
        nonlocal task, filling
        pid, fd, _ = helpers[filling]
        queues[filling].append([i for i, _ in task])
        try:
            send(fd, [(path, room(i)) for i, path in task])
        except OSError:
            raise RuntimeError(f"search helper {pid} exited") from None
        task, filling = [], None

    def collect(block):
        """Take in the results of each helper's oldest task that is
        answered, waiting for one if `block`."""
        busy = {helpers[h][2]: h for h, q in enumerate(queues) if q}
        if not busy:
            return
        ready, _, _ = select.select(list(busy), [], [], None if block else 0)
        for fd in ready:
            h = busy[fd]
            try:
                out = recv(fd)
            except (EOFError, OSError):
                raise RuntimeError(f"search helper {helpers[h][0]} exited") from None
            for i, result in zip(queues[h].pop(0), out):
                record(i, result)

    def visit():
        """The walk's step at each subtree root: hand the subtree to a
        helper's task or search it here; True once the walk may stop."""
        nonlocal forked, queues, filling, size
        if not forked and above.nodes + spent >= FORK_AFTER:
            forked = True
            start_helpers(search, depth, helpers)
            queues = [[] for _ in helpers]
        i = len(starts)
        starts.append(above.nodes)
        if filling is None:
            hungry = [h for h, q in enumerate(queues) if len(q) < QUEUED]
            if hungry:
                filling = hungry[0]
                size = max(1, min(TASK_PREFIXES, TASK_NODES * (merged + 1) // (spent + 1)))
        if filling is None:
            record(i, subtree(search, depth, room(i)))
        else:
            task.append((i, tuple((t[0], search.assign[t[0]]) for t in search.trail[:depth])))
            if len(task) >= size:
                dispatch()
        collect(False)
        return not walking or merge() is not None

    try:
        if search.feasible:
            search.dfs(0, above, depth, visit)
        if task and walking and res is None:      # the walk ended with a task unsent
            dispatch()
        walking = False
        while res is None and merge() is None:
            collect(True)          # every subtree left to merge is in a helper's task
        return res
    finally:
        for pid, task_w, result_r in helpers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(task_w)
            os.close(result_r)
