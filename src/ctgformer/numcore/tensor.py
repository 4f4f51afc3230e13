"""Dense float64 or float32 tensors plus the tape that makes them
differentiable.

A ``Tensor`` wraps a numpy array: float32 data stays float32 and anything
else becomes float64. No operation promotes float32 to float64, so a
float32 working copy made by ``ops.astype`` keeps the rest of its tape
float32, and ``astype``'s adjoint casts the gradient back to the source's
float64. Operations from :mod:`ctgformer.numcore.ops`
combine tensors; while a ``Graph`` is active (``with Graph() as g:``) every
operation whose inputs require gradients is recorded on the tape, and
``backward`` replays the adjoints in reverse execution order. Outside a graph
the same operations run as plain numpy forward computations, which is the
inference path.

The tape keeps only what the adjoint rules read. A ``Node`` holds no
tensor: it names its inputs and output by ``Tensor.key``, and each rule's
closure captures the arrays (or just the shapes) its adjoint needs. The
graph holds strong references only to its leaves, the tensors it read but
did not produce. So an intermediate the caller drops is freed during the
forward pass unless a rule needs its data, and ``backward`` gives ``grad``
to the leaves only.

A tape belongs to the thread that opened it. ``fork_join`` runs two callables
on two threads (the caller and one worker thread per process); a fork/join
op gives each branch its own sub-``Graph`` and records one ``Node`` that
holds the sub-tapes and whose adjoint walks them on two threads again. A
child made by ``os.fork`` gets a fresh, unstarted worker.

Importing numcore sets glibc's allocator policy once for the process:
blocks under 32 MiB come from the heap, and freed heap memory is never
handed back to the kernel. A training step frees about a hundred
activations of a few MiB each; by default glibc unmaps or trims them after
every backward pass and the next forward pass faults them in again. On
glibc 2.36 an acceptance-config epoch took about 75,000 minor faults that
way and takes at most a few hundred now. Other C libraries are left as
they are.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..errors import GraphError, ShapeError

_local = threading.local()
_keys = itertools.count()   # one counter for every thread: keys stay unique


def _active_graph() -> Optional["Graph"]:
    return getattr(_local, "graph", None)


class Tensor:
    """n-dimensional float64 or float32 array, optionally tracked for
    gradients.

    ``grad`` is populated by a backward pass when the tensor is a leaf of
    its graph, and holds dLoss/dself with the same shape and dtype as
    ``data``. Values are stored row-major (numpy default). ``key`` is unique
    within the process and names the tensor on a tape; unlike ``id()`` it is
    never reused after the tensor dies.
    """

    __slots__ = ("data", "requires_grad", "grad", "key", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.key = next(_keys)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Operator sugar; the heavy lifting lives in ops.py. Imported lazily to
    # avoid a circular import at module load.
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    __rmul__ = __mul__


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Node:
    """One recorded operation: the adjoint rule and the names of its tensors.

    A node holds no tensor. ``inputs`` are the input keys, ``needs_grad``
    their ``requires_grad`` flags at record time; ``key`` names the output,
    and ``shape`` and ``dtype`` are its shape and dtype. ``tapes`` are the
    sub-``Graph``s a fork/join op's branches recorded on (see
    ``ops.parallel_concat``), empty for every other op.
    """

    __slots__ = ("inputs", "needs_grad", "key", "shape", "dtype", "backward_fn", "tapes")

    def __init__(self, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
                 tapes: tuple = ()):
        self.inputs = tuple(t.key for t in inputs)
        self.needs_grad = tuple(t.requires_grad for t in inputs)
        self.key = output.key
        self.shape = output.data.shape
        self.dtype = output.data.dtype
        self.backward_fn = backward_fn
        self.tapes = tapes


class Graph:
    """Tape of executed operations, in execution (hence topological) order.

    One backward pass per forward pass (the module function ``backward``):
    it gives ``grad`` to the leaves only, the tensors the graph read but did
    not produce, and releases each node as the walk passes it. After it the
    graph is consumed, and both recording and a second backward raise
    ``GraphError``. The tape is confined to the thread that opened it.
    ``len`` counts the recorded operations, those on the sub-tapes of
    fork/join nodes included.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._out_keys: set[int] = set()
        self._leaves: dict[int, Tensor] = {}
        self._size = 0
        self._consumed = False
        self._prev = None

    def __enter__(self) -> "Graph":
        self._prev = _active_graph()
        _local.graph = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _local.graph = self._prev
        self._prev = None

    def record(self, node: Node, inputs: Sequence[Tensor]) -> None:
        """Append ``node``, whose inputs are the tensors ``inputs``; keep
        those that require gradients and that no recorded node produced."""
        if self._consumed:
            raise GraphError("graph already consumed by backward; run a new forward pass")
        for t in inputs:
            if t.requires_grad and t.key not in self._out_keys:
                self._leaves.setdefault(t.key, t)
        self._nodes.append(node)
        self._out_keys.add(node.key)
        self._size += 1 + sum(map(len, node.tapes))

    def __len__(self) -> int:
        return self._size

    def produced(self, t: Tensor) -> bool:
        return t.key in self._out_keys

    def leaves(self):
        """The tensors requiring gradients that the recorded operations read
        but did not produce."""
        return self._leaves.values()

    def propagate(self, head: Tensor, adjoint: np.ndarray) -> dict:
        """Walk the tape in reverse, seeding ``head`` with ``adjoint``, and
        return the adjoints that reach its leaves as {key: (leaf, adjoint)}.

        Each node is released as the walk passes it, and the graph is
        consumed.
        """
        if self._consumed:
            raise GraphError("backward already run on this graph; run a new forward pass")
        self._consumed = True
        nodes, leaves = self._nodes, self._leaves
        if head.key not in self._out_keys:
            leaves.setdefault(head.key, head)
        adjoints = {head.key: adjoint}
        for i in range(len(nodes) - 1, -1, -1):
            node = nodes[i]
            nodes[i] = None   # release activations as soon as possible
            out_adj = adjoints.pop(node.key, None)
            if out_adj is None:
                continue
            grads = node.backward_fn(out_adj)
            for key, needs, g in zip(node.inputs, node.needs_grad, grads):
                if g is None or not needs:
                    continue
                prev = adjoints.get(key)
                adjoints[key] = g if prev is None else prev + g
        nodes.clear()
        self._leaves = {}
        self._size = 0
        return {key: (t, adjoints[key]) for key, t in leaves.items() if key in adjoints}


def backward(loss: Tensor, graph: Graph, retain_intermediate_grads: bool = False) -> None:
    """Reverse-mode pass over ``graph`` seeding dLoss/dLoss = 1: add
    dLoss/dleaf to ``grad`` of every leaf (a requires_grad tensor the graph
    read but did not produce, i.e. a parameter) that ``loss`` reaches.

    Produced tensors never get ``grad``; their adjoints are dropped as soon
    as the walk has used them. ``retain_intermediate_grads`` is kept only
    because ``perfbench/workloads.py`` passes ``False``; ``True`` raises
    ``GraphError``. Delete the keyword when perfbench is next revised.
    """
    if retain_intermediate_grads:
        raise GraphError("backward gives grad to leaves only; "
                         "retain_intermediate_grads=True is not supported")
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    for t, adj in graph.propagate(loss, np.ones_like(loss.data)).values():
        t.grad = adj if t.grad is None else t.grad + adj


# ------------------------------------------------------------------ fork/join

def _mark_branch_thread() -> None:
    _local.in_branch = True


def _new_branch_pool() -> None:
    # The one worker thread of the process; the executor starts it on its
    # first ``submit``, so importing numcore starts no thread. A forked child
    # gets a new one: the inherited executor counts a worker thread the child
    # does not have, so a branch submitted to it would never run.
    global _branch_pool
    _branch_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="numcore-branch",
                                      initializer=_mark_branch_thread)


_new_branch_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_branch_pool)


def fork_join(first: Callable[[], Any], second: Callable[[], Any]) -> tuple:
    """Run two zero-argument callables concurrently and return both results.

    ``first`` runs on the calling thread and ``second`` on the module's
    single worker thread. Inside a branch (on the worker, or in ``first``)
    both run inline, in order, so a nested fork cannot wait on itself. When
    a branch raises, the other is still waited for; ``first``'s error wins.
    """
    if getattr(_local, "in_branch", False):
        return first(), second()
    pending = _branch_pool.submit(second)
    _local.in_branch = True
    try:
        r0 = first()
    except BaseException:
        pending.exception()   # wait, so the worker is free for the next call
        raise
    finally:
        _local.in_branch = False
    return r0, pending.result()


# ------------------------------------------------------------------ allocator

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3   # mallopt(3) parameter numbers
_MMAP_THRESHOLD = 32 << 20   # the highest glibc's dynamic threshold reaches on 64-bit


def _keep_freed_memory() -> None:
    """On glibc, serve blocks under 32 MiB from the heap and never trim it,
    so the next training step reuses the pages the last one freed. Setting
    either threshold switches off glibc's dynamic one, and trimming alone
    makes an epoch slower, so the trim threshold is set only when the mmap
    threshold took. Anywhere else, do nothing."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):   # no process symbol table to search
        return
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return
    if libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        libc.mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_memory()
