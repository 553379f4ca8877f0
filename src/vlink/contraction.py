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
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .diagram import LEG, Endpoint, Tangle

__all__ = ["ContractionStep", "ContractionPlan", "plan_contraction", "execute_plan"]


@dataclass(frozen=True)
class ContractionStep:
    left: tuple
    right: tuple
    contracted: tuple[int, ...]
    result_arity: int


@dataclass(frozen=True)
class ContractionPlan:
    """Ordered pairwise merges; every internal edge is contracted exactly once."""

    steps: tuple[ContractionStep, ...]
    traced_at_init: tuple[tuple[tuple, tuple[int, ...]], ...]
    peak_arity: int

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


def _open_ids(ids: list[int]) -> list[int]:
    return [i for i in ids if ids.count(i) == 1]


def plan_contraction(t: Tangle) -> ContractionPlan:
    """Greedy pairwise merge plan for evaluating ``t``."""
    raw = _initial_nodes(t)
    traced = []
    keys = sorted(raw)
    open_ids = []
    for key in keys:
        ids = raw[key]
        kept = _open_ids(ids)
        if len(kept) != len(ids):
            traced.append((key, tuple(sorted(set(i for i in ids if ids.count(i) == 2)))))
        open_ids.append(frozenset(kept))
    peak = max(map(len, open_ids), default=0)

    steps = []
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
        open_ids[i] ^= open_ids[j]
        del keys[j], open_ids[j]
        peak = max(peak, arity)
    return ContractionPlan(tuple(steps), tuple(traced), peak)


def _trace_node(array: np.ndarray, ids: list[int]) -> tuple[np.ndarray, list[int]]:
    """Contract repeated axis ids within one node (self-loops at a vertex)."""
    if len(set(ids)) == len(ids):
        return array, ids
    letters = {}
    for i in ids:
        if i not in letters:
            letters[i] = string.ascii_letters[len(letters)]
    subscript = "".join(letters[i] for i in ids)
    kept = [i for i in ids if ids.count(i) == 1]
    out = "".join(letters[i] for i in kept)
    return np.einsum(f"{subscript}->{out}", array), kept


def execute_plan(entries: np.ndarray, n: int, t: Tangle, plan: ContractionPlan) -> np.ndarray:
    """Contract ``t`` with vertex tensor ``entries``; returns the open tensor
    over legs 1..k in label order (a 0-d array for diagrams), without the
    vertexless-loop factor."""
    raw = _initial_nodes(t)
    nodes: dict[tuple, tuple[np.ndarray, list[int]]] = {}
    for key, ids in raw.items():
        if key[0] == "v":
            array = entries
        else:
            array = np.eye(n, dtype=complex)
        nodes[key] = _trace_node(array, ids)

    for step in plan.steps:
        arr_a, ids_a = nodes.pop(step.left)
        arr_b, ids_b = nodes.pop(step.right)
        axes_a = [ids_a.index(i) for i in step.contracted]
        axes_b = [ids_b.index(i) for i in step.contracted]
        merged = np.tensordot(arr_a, arr_b, axes=(axes_a, axes_b))
        ids = [i for i in ids_a if i not in step.contracted]
        ids += [i for i in ids_b if i not in step.contracted]
        nodes[min(step.left, step.right)] = (merged, ids)

    if not nodes:
        return np.array(1.0 + 0j)
    ((array, ids),) = nodes.values()
    if sorted(ids) != [-l for l in range(t.arity, 0, -1)]:
        raise AssertionError(f"contraction left unexpected open axes {ids}")
    order = [ids.index(-l) for l in range(1, t.arity + 1)]
    return np.ascontiguousarray(np.transpose(array, order)) if ids else array
