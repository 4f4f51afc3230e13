"""Dense float64 tensors plus the tape that makes them differentiable.

A ``Tensor`` wraps a numpy array. Operations from :mod:`ctgformer.numcore.ops`
combine tensors; while a ``Graph`` is active (``with Graph() as g:``) every
operation whose inputs require gradients is recorded on the tape, and
``backward`` replays the adjoints in reverse execution order. Outside a graph
the same operations run as plain numpy forward computations, which is the
inference path.

A tape belongs to the thread that opened it. ``fork_join`` runs two callables
on two threads (the caller and one worker thread per process); a fork/join
op gives each branch its own sub-``Graph`` and records one ``BranchNode``
whose adjoint walks the sub-tapes on two threads again.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..errors import GraphError, ShapeError

_local = threading.local()


def _active_graph() -> Optional["Graph"]:
    return getattr(_local, "graph", None)


class Tensor:
    """n-dimensional float64 array, optionally tracked for gradients.

    ``grad`` is populated by a backward pass and holds dLoss/dself with the
    same shape as ``data``. Values are stored row-major (numpy default).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

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

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        from . import ops

        return ops.neg(self)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Node:
    """One recorded operation: inputs, output and the adjoint rule."""

    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]):
        self.inputs = tuple(inputs)
        self.output = output
        self.backward_fn = backward_fn


class BranchNode(Node):
    """The node of a fork/join op (see ``ops.parallel_concat``).

    Each branch recorded its operations on its own sub-``Graph`` (``tapes``)
    ending at its output (``heads``). ``inputs`` are the tensors the
    sub-tapes read but did not produce, and ``backward_fn`` splits the
    output adjoint into one adjoint per branch.
    """

    __slots__ = ("tapes", "heads")

    def __init__(self, inputs, output, backward_fn, tapes, heads):
        super().__init__(inputs, output, backward_fn)
        self.tapes = tuple(tapes)
        self.heads = tuple(heads)

    def adjoints(self, g: np.ndarray, retain: bool) -> tuple:
        """Walk each sub-tape on its own thread, then sum every input's
        adjoints in branch order."""
        walks = [partial(tape.propagate, head, part, retain)
                 for tape, head, part in zip(self.tapes, self.heads, self.backward_fn(g))]
        found = fork_join(*walks)
        grads = []
        for t in self.inputs:
            total = None
            for leaves in found:
                hit = leaves.get(id(t))
                if hit is not None:
                    total = hit[1] if total is None else total + hit[1]
            grads.append(total)
        return tuple(grads)


class Graph:
    """Tape of executed operations, in execution (hence topological) order.

    One backward pass per forward pass: after ``backward`` the graph is
    consumed, and both recording and a second backward raise ``GraphError``.
    The tape is confined to the thread that opened it. ``len`` counts the
    recorded operations, those on the sub-tapes of branch nodes included.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._out_ids: set[int] = set()
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

    def record(self, node: Node) -> None:
        if self._consumed:
            raise GraphError("graph already consumed by backward; run a new forward pass")
        self._nodes.append(node)
        self._out_ids.add(id(node.output))
        self._size += 1
        if isinstance(node, BranchNode):
            self._size += sum(len(tape) for tape in node.tapes)

    def __len__(self) -> int:
        return self._size

    def produced(self, t: Tensor) -> bool:
        return id(t) in self._out_ids

    def reads(self):
        """Every tensor the recorded operations take as input."""
        return (inp for node in self._nodes for inp in node.inputs)

    def propagate(self, head: Tensor, adjoint: np.ndarray,
                  retain_intermediate_grads: bool) -> dict:
        """Walk the tape in reverse, seeding ``head`` with ``adjoint``, and
        return the adjoints that reach its leaves as {id: (leaf, adjoint)}.

        Leaves are the tensors the tape read but did not produce. With
        ``retain_intermediate_grads`` every produced tensor that requires
        gradients gets ``grad``; either way each node is released as the walk
        passes it, and the graph is consumed.
        """
        if self._consumed:
            raise GraphError("backward already run on this graph; run a new forward pass")
        self._consumed = True
        nodes, out_ids = self._nodes, self._out_ids
        adjoints = {id(head): adjoint}
        leaves = {} if id(head) in out_ids else {id(head): head}
        for i in range(len(nodes) - 1, -1, -1):
            node = nodes[i]
            nodes[i] = None   # release activations as soon as possible
            out_adj = adjoints.pop(id(node.output), None)
            if out_adj is None:
                continue
            if retain_intermediate_grads and node.output.requires_grad:
                node.output.grad = (node.output.grad + out_adj
                                    if node.output.grad is not None else out_adj.copy())
            if isinstance(node, BranchNode):
                grads = node.adjoints(out_adj, retain_intermediate_grads)
            else:
                grads = node.backward_fn(out_adj)
            for inp, g in zip(node.inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                prev = adjoints.get(id(inp))
                adjoints[id(inp)] = g if prev is None else prev + g
                if id(inp) not in out_ids:
                    leaves[id(inp)] = inp
        nodes.clear()
        self._size = 0
        return {tid: (t, adjoints[tid]) for tid, t in leaves.items() if tid in adjoints}

    def backward(self, loss: Tensor, retain_intermediate_grads: bool = True) -> None:
        """Populate ``grad`` on requires_grad tensors reachable from loss.

        With ``retain_intermediate_grads`` every such tensor gets its
        gradient; without it only leaves (tensors not produced by this
        graph, i.e. parameters) do, and tape activations are released as the
        walk passes them, which roughly halves peak training memory.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        for t, adj in self.propagate(loss, np.ones_like(loss.data),
                                     retain_intermediate_grads).values():
            t.grad = adj if t.grad is None else t.grad + adj


def backward(loss: Tensor, graph: Graph, retain_intermediate_grads: bool = True) -> None:
    """Reverse-mode pass over ``graph`` seeding dLoss/dLoss = 1."""
    graph.backward(loss, retain_intermediate_grads)


# ------------------------------------------------------------------ fork/join

_worker: Optional[ThreadPoolExecutor] = None
_worker_lock = threading.Lock()


def _mark_branch_thread() -> None:
    _local.in_branch = True


def _branch_worker() -> ThreadPoolExecutor:
    """The one worker thread of the process, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="numcore-branch",
                                         initializer=_mark_branch_thread)
        return _worker


def fork_join(first: Callable[[], Any], second: Callable[[], Any]) -> tuple:
    """Run two zero-argument callables concurrently and return both results.

    ``first`` runs on the calling thread and ``second`` on the module's
    single worker thread. Inside a branch (on the worker, or in ``first``)
    both run inline, in order, so a nested fork cannot wait on itself. When
    a branch raises, the other is still waited for; ``first``'s error wins.
    """
    if getattr(_local, "in_branch", False):
        return first(), second()
    pending = _branch_worker().submit(second)
    _local.in_branch = True
    try:
        r0 = first()
    except BaseException:
        pending.exception()   # wait, so the worker is free for the next call
        raise
    finally:
        _local.in_branch = False
    return r0, pending.result()
