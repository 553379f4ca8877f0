"""Contraction planning and execution for tangle evaluation.

Evaluating a tangle under an n-state vertex model is a tensor-network
contraction: every vertex carries a copy of the rank-4 vertex tensor, every
edge is an index of range n, and the k leg indices stay open.  The planner
chooses a pairwise merge order greedily, minimizing the arity of each
intermediate tensor (ties broken lexicographically by node id), which keeps
chains of vertices at constant peak arity instead of the naive n^|edges|
enumeration.

Axis ids: internal edges get nonnegative integers (their position in the
sorted edge list), the axis feeding leg ``l`` gets id ``-l``.  Edges joining
two legs contribute an identity-matrix node so that the open output axes are
always exactly ``-1..-k``.

A plan is compiled when it is made: besides the merge order it holds, for
each initial node in id order, whether it is an identity matrix, the vertex
tensor, or the vertex tensor with its self-loops traced (an einsum
subscript); for each merge, the nodes' positions in that order and what
``np.tensordot`` would work out on every call (each operand's axis
permutation, free axes around the contracted ones, and the three axis
counts); and the transpose that puts the last node's axes in leg order.
`execute_plan` only replays those transpose/reshape/``np.dot`` steps, which
are ``tensordot``'s own operations in its order, so results are
bit-identical to ``tensordot``'s.  Plans do not depend on the state count
n.  Plans are cached per tangle, least recently used first out, at most
`PLAN_CACHE_BOUND` of them.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diagram import LEG, CacheInfo, Endpoint, Tangle

__all__ = [
    "ContractionStep",
    "ContractionPlan",
    "PLAN_CACHE_BOUND",
    "plan_contraction",
    "plan_cache_info",
    "execute_plan",
]

#: Most plans `plan_contraction` keeps, least recently used first out.
#: `gram_psd` evaluates one basis of isomorphism classes under every model,
#: and a move check plans each diagram before and after a move.  Over the
#: first 2,000 ops of the benchmark's characterize workload (seed 1) the hit
#: rate is 0.08 at a bound of 64, 0.80 at 128, 0.82 at 256 and 0.83 at 1024.
PLAN_CACHE_BOUND = 256


@dataclass(frozen=True, slots=True)
class ContractionStep:
    left: tuple
    right: tuple
    contracted: tuple[int, ...]
    result_arity: int


class _Compiled(NamedTuple):
    """What `execute_plan` replays: see the module docstring."""

    num_vertices: int
    arity: int
    # Per initial node: None for an identity matrix, "" for the vertex
    # tensor, else the einsum subscripts tracing its self-loops.
    init: tuple[str | None, ...]
    # Per merge: (left position, right position, left permutation, right
    # permutation, free left axes, contracted axes, free right axes).
    steps: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...], int, int, int], ...]
    transpose: tuple[int, ...]


@dataclass(frozen=True)
class ContractionPlan:
    """Ordered pairwise merges; every internal edge is contracted exactly once."""

    steps: tuple[ContractionStep, ...]
    traced_at_init: tuple[tuple[tuple, tuple[int, ...]], ...]
    peak_arity: int
    compiled: _Compiled = field(compare=False, repr=False)

    def peak_size(self, n: int) -> int:
        """Largest intermediate tensor entry count at state count ``n``."""
        return n ** self.peak_arity


def _initial_nodes(t: Tangle) -> dict[tuple, list[int]]:
    """Node id -> axis ids (with repeats for self-loops at a vertex).

    Vertex nodes are ("v", index); identity nodes for leg-to-leg edges are
    ("m", edge index).
    """
    axis: dict[Endpoint, int] = {}
    legs: dict[tuple, list[int]] = {}
    for idx, ((va, la), (vb, lb)) in enumerate(sorted(t.edges)):
        # Sorted pairs put a leg end first, so only ``b`` can face a leg.
        if va == LEG and vb == LEG:
            legs[("m", idx)] = [-la, -lb]
        axis[(vb, lb)] = -la if va == LEG else idx
        axis[(va, la)] = idx
    nodes = {("v", v): [axis[(v, s)] for s in range(4)] for v in range(t.num_vertices)}
    nodes.update(legs)
    return nodes


def plan_contraction(t: Tangle) -> ContractionPlan:
    """Greedy pairwise merge plan for evaluating ``t``, from the plan cache
    when an equal tangle was planned recently."""
    return _plan(t)


def plan_cache_info() -> CacheInfo:
    """Hits and misses of `plan_contraction`'s cache since import, its
    current size and its bound."""
    return CacheInfo.of(_plan)


@functools.lru_cache(maxsize=PLAN_CACHE_BOUND)
def _plan(t: Tangle) -> ContractionPlan:
    raw = _initial_nodes(t)
    traced = []
    init = []
    keys = sorted(raw)
    open_ids = []
    axes_of = []  # each node's axis ids in its tensor's axis order
    for key in keys:
        ids = raw[key]
        kept = [i for i in ids if ids.count(i) == 1]
        if key[0] == "m":
            init.append(None)
        elif len(kept) == len(ids):
            init.append("")
        else:
            traced.append((key, tuple(sorted(set(i for i in ids if ids.count(i) == 2)))))
            letters: dict[int, str] = {}
            for i in ids:
                letters.setdefault(i, string.ascii_letters[len(letters)])
            subscript = "".join(letters[i] for i in ids)
            init.append(f"{subscript}->{''.join(letters[i] for i in kept)}")
        open_ids.append(frozenset(kept))
        axes_of.append(kept)
    positions = list(range(len(keys)))  # each node's index in the initial order
    peak = max(map(len, open_ids), default=0)

    steps = []
    compiled_steps = []
    while len(open_ids) > 1:
        # Pairs are visited in id order, so the first pair of least arity
        # is the least (arity, a, b).  A merge keeps the lesser id, so
        # ``keys`` stays sorted.
        best = None
        for i, ids_a in enumerate(open_ids):
            for j in range(i + 1, len(open_ids)):
                arity = len(ids_a ^ open_ids[j])
                if best is None or arity < best[0]:
                    best = (arity, i, j)
        arity, i, j = best
        shared = tuple(sorted(open_ids[i] & open_ids[j]))
        steps.append(ContractionStep(keys[i], keys[j], shared, arity))
        left, right = axes_of[i], axes_of[j]
        free_left = [x for x in left if x not in shared]
        free_right = [x for x in right if x not in shared]
        compiled_steps.append(
            (
                positions[i],
                positions[j],
                tuple(left.index(x) for x in free_left + list(shared)),
                tuple(right.index(x) for x in list(shared) + free_right),
                len(free_left),
                len(shared),
                len(free_right),
            )
        )
        axes_of[i] = free_left + free_right
        open_ids[i] ^= open_ids[j]
        del keys[j], open_ids[j], axes_of[j], positions[j]
        peak = max(peak, arity)

    final = axes_of[0] if axes_of else []
    if sorted(final) != [-l for l in range(t.arity, 0, -1)]:
        raise AssertionError(f"contraction left unexpected open axes {final}")
    transpose = tuple(final.index(-l) for l in range(1, t.arity + 1))
    compiled = _Compiled(t.num_vertices, t.arity, tuple(init), tuple(compiled_steps), transpose)
    return ContractionPlan(tuple(steps), tuple(traced), peak, compiled)


def execute_plan(entries: np.ndarray, n: int, t: Tangle, plan: ContractionPlan) -> np.ndarray:
    """Contract ``t`` with vertex tensor ``entries``; returns the open tensor
    over legs 1..k in label order (a 0-d array for diagrams), without the
    vertexless-loop factor."""
    c = plan.compiled
    if c.num_vertices != t.num_vertices or c.arity != t.arity:
        raise ValueError(
            f"plan for a tangle with {c.num_vertices} vertices and {c.arity} legs"
            f" cannot contract one with {t.num_vertices} vertices and {t.arity} legs"
        )
    arrays = [
        np.eye(n, dtype=complex) if spec is None else (np.einsum(spec, entries) if spec else entries)
        for spec in c.init
    ]
    for a, b, perm_a, perm_b, free_a, shared, free_b in c.steps:
        left = arrays[a].transpose(perm_a).reshape(n**free_a, n**shared)
        right = arrays[b].transpose(perm_b).reshape(n**shared, n**free_b)
        arrays[a] = np.dot(left, right).reshape((n,) * (free_a + free_b))
        arrays[b] = None
    if not arrays:
        return np.array(1.0 + 0j)
    if c.transpose:
        return np.ascontiguousarray(np.transpose(arrays[0], c.transpose))
    return arrays[0]
