"""Contraction planning and execution for tangle evaluation.

Evaluating a tangle under an n-state vertex model is a tensor-network
contraction: every vertex carries a copy of the rank-4 vertex tensor, every
edge is an index of range n, and the k leg indices stay open.  The planner
chooses a pairwise merge order greedily: each merge takes the pair of nodes
whose merged tensor has the fewest open axes, the least (arity, left,
right) with nodes compared by id.  This keeps chains of vertices at
constant peak arity instead of the naive n^|edges| enumeration.  Pairs
that share no axis count too, so closed components end as arity-0 nodes
and are joined by outer products.

Axis ids: internal edges get nonnegative integers (their position in the
sorted edge list), the axis feeding leg ``l`` gets id ``-l``.  Edges joining
two legs contribute an identity-matrix node so that the open output axes are
always exactly ``-1..-k``; every such node gets a fresh identity, and a
plan without merges returns a copy of its one node.

The planner holds each node's open axes as one integer bit mask (an
internal edge's bit is its axis id, the legs' bits follow), so a pair's
arity is the bit count of the two masks' xor.  Each node keeps its best
partner: the least (arity, id) among the later nodes.  The least of these
rows is the next merge, and a merge recomputes only the rows it can
change.  A greedy plan for a closed diagram of 12-20 vertices takes about
0.17 ms on a 2.1 GHz Xeon, one for a tangle of at most 5 vertices tens of
µs.

How a plan is chosen: `plan_contraction` plans a tangle at a state count
n, the one `model.tangle_tensor` passes.  The greedy plan stands unless its
multiply-adds at n (`ContractionPlan.madds`), summed as it is made, reach
``_SEARCH_MADDS``.  Such a plan is searched: the same greedy selection runs
again over node orders shuffled by a `random.Random` of fixed seed, which
breaks its many arity ties another way.  One pass runs per
``_SEARCH_MADDS`` of the best cost so far, at most ``_SEARCH_PASSES``; a
pass stops once its cost reaches the best so far, and only a strictly
cheaper plan replaces the greedy one.  So planning effort grows with the
execution it can save, and small tangles at small n, as in the move and
characterization checks, keep the greedy plan.  The merge order greedy
picks does not depend on n, and at n=1 every merge costs one multiply-add,
so ``plan_contraction(t, 1)`` is the greedy plan.  On the first 4,000
diagrams of each of the benchmark's eval-large seeds 1-10 (closed, 12-20
vertices, n=3 and 4) the search cuts total multiply-adds to 0.28-0.50 of
greedy's, and the largest intermediate from 16 MiB (256 MiB on seed 6) to
1 MiB.

A plan is compiled when it is made: it holds, for each initial node in id
order, whether it is an identity matrix, the vertex tensor, or the vertex
tensor with its self-loops traced (an einsum subscript); for each merge,
the (kept, merged) node ids, which are positions in that order, and what
``np.tensordot`` would work out on every call (each operand's axis
permutation, free axes around the contracted ones, and the three axis
counts); and the transpose that puts the last node's axes in leg order.
Every merge keeps the lesser node id, so the last node is node 0.
`execute_plan` only replays those transpose/reshape/``np.dot`` steps,
which are ``tensordot``'s own operations in its order, so results are
bit-identical to ``tensordot``'s.  A merge result of at least
``_POOL_MIN`` entries is written by ``np.dot`` into a buffer reused from a
bounded free list, so that it is not mapped and page-faulted afresh on
every call; the buffer goes back to the list once the merge that reads
it has run, and the one under a returned array never does.  Operand
copies are numpy's own, made by reshape where it must copy.  Besides the
compiled replay, a plan keeps only each initial node's axis bit mask and
the sorted-edge index of each leg-to-leg edge: its `ContractionStep` list
(``steps``) and ``peak_arity``, which nothing on the evaluation path
reads, are derived from those and the compiled merges' node ids on first
read, and kept.
A tangle keeps its plans: `plan_contraction` stores the plan made at each
n in the tangle's instance dict, outside its equality, hash and repr.  A
plan so lives exactly as long as its tangle, and nothing bounds or evicts
it.  The tangles that are evaluated again (a Gram basis, a move chain's
current diagram) are the ones their callers hold; an equal tangle built
anew is planned anew, to the same plan.  A diagram also keeps its value
under the last model, beside a weak reference to that model (see
`model.partition_function`); a call served from it looks up no plan and
so counts no hit in `plan_cache_info`.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import string
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diagram import LEG, CacheInfo, Tangle

__all__ = [
    "ContractionStep",
    "ContractionPlan",
    "plan_contraction",
    "plan_cache_info",
    "execute_plan",
]

#: Multiply-adds at n from which a greedy plan is searched for a cheaper
#: one, and the search's pass budget: one pass per that many of the best
#: cost, at most _SEARCH_PASSES.  On the benchmark's 12-20 vertex
#: diagrams a pass takes about 0.14 ms, and executing 2,000,000
#: multiply-adds about 0.86 ms (one BLAS thread, 2.1 GHz Xeon).
_SEARCH_MADDS = 2_000_000
_SEARCH_PASSES = 32
#: Seed of the search's shuffles: fixed, so a tangle gets the same plan in
#: every process.
_SEARCH_SEED = 0

#: Complex entries from which execute_plan writes a merge result into a
#: reused buffer (128 KiB, glibc's default mmap threshold; operand copies
#: are numpy's own), how many free buffers of one size it keeps and how
#: many bytes of them in all.
_POOL_MIN = 1 << 13
_POOL_PER_SIZE = 2
_POOL_BYTES = 32 << 20

#: The dtype execute_plan runs vertex tensors in.
_COMPLEX = np.dtype(complex)


class ContractionStep(NamedTuple):
    """Merge node ``right`` into node ``left`` over the ``contracted`` axes."""

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


@dataclass(frozen=True, eq=False, repr=False)
class ContractionPlan:
    """Ordered pairwise merges; every internal edge is contracted exactly once.

    A plan holds what `execute_plan` replays (``compiled``), whose merge
    steps begin with the (kept, merged) node ids, and what its merges were
    compiled from: each initial node's axis bit mask, and the sorted-edge
    index of each leg-to-leg edge, whose identity nodes take the first ids.
    ``steps`` and ``peak_arity`` are derived from these on first read and
    kept; equality, hash and repr are those of the two.
    """

    compiled: _Compiled
    _masks: tuple[int, ...]
    _leg_edges: tuple[int, ...]

    @functools.cached_property
    def steps(self) -> tuple[ContractionStep, ...]:
        """One `ContractionStep` per merge, in merge order."""
        keys = [("m", idx) for idx in self._leg_edges]
        keys += [("v", v) for v in range(self.compiled.num_vertices)]
        masks = list(self._masks)
        steps = []
        for i, j, *_ in self.compiled.steps:
            shared = masks[i] & masks[j]
            masks[i] ^= masks[j]
            steps.append(ContractionStep(keys[i], keys[j], tuple(_bits(shared)), masks[i].bit_count()))
        return tuple(steps)

    @functools.cached_property
    def peak_arity(self) -> int:
        """The most open axes of any node, initial or merged."""
        arities = [mask.bit_count() for mask in self._masks]
        return max(arities + [step.result_arity for step in self.steps], default=0)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.steps, self.peak_arity) == (other.steps, other.peak_arity)

    def __hash__(self) -> int:
        return hash((self.steps, self.peak_arity))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(steps={self.steps!r}, peak_arity={self.peak_arity!r})"

    def madds(self, n: int) -> int:
        """Multiply-adds of the merges at state count ``n``: the sum over
        merges of n^(axes of the two operands together)."""
        return sum(n ** (fa + k + fb) for _, _, _, _, fa, k, fb in self.compiled.steps)

    def peak_bytes(self, n: int) -> int:
        """Bytes of the largest merge result at state count ``n`` (complex
        entries; 0 without merges)."""
        return 16 * max((n ** (fa + fb) for _, _, _, _, fa, _, fb in self.compiled.steps), default=0)


#: `plan_contraction` calls since import that made a plan (misses) and
#: that found one on the tangle (hits).  They are counted without a
#: lock, so threads planning at once may lose a count.
_hits = _misses = 0


def plan_contraction(t: Tangle, n: int) -> ContractionPlan:
    """Pairwise merge plan for evaluating ``t`` at state count ``n``: the
    greedy plan, searched for a cheaper one when it is costly at ``n`` (see
    the module docstring).  Each plan is made once per tangle and n, and
    kept on the tangle.  An ``n`` that is not an integer of at least 1 is a
    ValueError, checked only when a plan is made, so a hit stays one
    lookup."""
    global _hits, _misses
    try:
        plan = t._plans[n]
    except (AttributeError, KeyError, TypeError):  # not planned at n, or n unhashable
        pass
    else:
        _hits += 1
        return plan
    n = _state_count(n)
    _misses += 1
    nodes = _Nodes.of(t)
    bits = nodes.legs_at + t.arity
    merges, cost = _greedy(nodes.masks, bits, n)
    if cost >= _SEARCH_MADDS:
        found = _search(nodes, bits, n, cost)
        if found is not None:
            merges = found
    plan = _compile(t, nodes, merges)
    try:
        t._plans[n] = plan
    except AttributeError:  # t was never planned
        object.__setattr__(t, "_plans", {n: plan})
    return plan


def _state_count(n: object) -> int:
    """``n`` as an int if it is an integer of at least 1 (numpy integers
    too, through ``operator.index``); else a ValueError naming it."""
    try:
        count = operator.index(n)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"state count n must be an integer >= 1, got {n!r}")
    return count


def plan_cache_info() -> CacheInfo:
    """Hits and misses of `plan_contraction` since import: a miss made the
    tangle's plan at n, a hit found it already made.  Plans are kept on
    their tangles, so size and bound are None.  A `partition_function`
    call served from a diagram's kept value plans nothing and counts
    nothing."""
    return CacheInfo(_hits, _misses, None, None)


def _search(nodes: _Nodes, bits: int, n: int, best: int) -> list[tuple[int, int]] | None:
    """The merges of the cheapest plan at ``n`` that greedy passes over
    shuffled orders of ``nodes`` find, if it costs less than ``best``, the
    greedy plan's multiply-adds."""
    rng = random.Random(_SEARCH_SEED)
    order = list(range(len(nodes.masks)))
    found = None
    tried = 0
    while tried < _SEARCH_PASSES and tried * _SEARCH_MADDS < best:
        tried += 1
        rng.shuffle(order)
        merges, cost = _greedy([nodes.masks[x] for x in order], bits, n, best)
        if merges is not None:
            best, found = cost, _relabel(merges, order)
    return found


class _Nodes(NamedTuple):
    """A tangle's initial nodes in id order: an identity node per leg-to-leg
    edge, then one per vertex.  Axis bits: an internal edge's bit is its
    axis id, leg l's bit is ``legs_at + l - 1``."""

    leg_edges: list[int]  # the sorted-edge index of each leg-to-leg edge
    axes: list[list[int]]  # each node's axis bits in its tensor's axis order
    masks: list[int]  # each node's axis bits as one int
    init: list[str | None]
    legs_at: int

    @classmethod
    def of(cls, t: Tangle) -> _Nodes:
        edges = sorted(t.edges)
        legs_at = len(edges)
        slots = [[0, 0, 0, 0] for _ in range(t.num_vertices)]
        leg_edges: list[int] = []
        axes: list[list[int]] = []
        masks: list[int] = []
        for idx, ((va, la), (vb, lb)) in enumerate(edges):
            # Sorted pairs put a leg end first, so only ``b`` can face a leg.
            if va != LEG:
                slots[va][la] = slots[vb][lb] = idx
            elif vb != LEG:
                slots[vb][lb] = legs_at + la - 1
            else:
                leg_edges.append(idx)
                axes.append([legs_at + la - 1, legs_at + lb - 1])
                masks.append(1 << legs_at + la - 1 | 1 << legs_at + lb - 1)
        init: list[str | None] = [None] * len(leg_edges)
        for ids in slots:
            a, b, c, d = ids
            mask = 1 << a ^ 1 << b ^ 1 << c ^ 1 << d  # a self-loop's two bits cancel
            masks.append(mask)
            if mask.bit_count() == 4:
                axes.append(ids)
                init.append("")
                continue
            spec, kept = _self_loops(tuple(map(ids.index, ids)))
            axes.append([ids[s] for s in kept])
            init.append(spec)
        return cls(leg_edges, axes, masks, init, legs_at)


@functools.cache
def _self_loops(first: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
    """For a vertex whose slot s carries the same axis as slot first[s] (the
    first slot with that axis): the einsum subscripts that trace its
    self-loops and its slots left open.  Nine such patterns exist (one loop
    on 6 slot pairs, or two loops on 3)."""
    letters = {p: string.ascii_letters[rank] for rank, p in enumerate(sorted(set(first)))}
    kept = tuple(s for s in range(4) if first.count(first[s]) == 1)
    subscript = "".join(letters[p] for p in first)
    return f"{subscript}->{''.join(letters[first[s]] for s in kept)}", kept


def _greedy(
    masks: list[int], bits: int, n: int, bound: float = math.inf
) -> tuple[list[tuple[int, int]] | None, int]:
    """The greedy merge order over nodes with axis bit masks ``masks``, in
    id order, of ``bits`` axis bits in all, as (kept id, merged id) pairs,
    and its multiply-adds at n (`ContractionPlan.madds`); or (None, cost)
    once they reach ``bound``."""
    # row[x] encodes x's best partner y, the least (arity, y) over live
    # y > x, as the integer (arity * count + x) * count + y, so the least
    # row is the least (arity, x, y) over all pairs.  No arity exceeds
    # the number of axis bits, so ``no_partner`` exceeds every real row.
    masks = list(masks)
    count = len(masks)
    no_partner = (bits + 1) * count * count
    live = list(range(count))
    row = [no_partner] * count

    def fill_row(x: int, later: list[int]) -> None:
        if later:
            mask = masks[x]
            arities = [(mask ^ masks[y]).bit_count() for y in later]
            best = min(arities)
            row[x] = (best * count + x) * count + later[arities.index(best)]
        else:
            row[x] = no_partner

    for pos, x in enumerate(live):
        fill_row(x, live[pos + 1 :])

    merges = []
    cost = 0
    while len(live) > 1:
        i, j = divmod(min(row) % (count * count), count)
        merges.append((i, j))
        cost += n ** (masks[i] | masks[j]).bit_count()
        if cost >= bound:
            return None, cost
        merged = masks[i] = masks[i] ^ masks[j]
        live.remove(j)
        row[j] = no_partner
        # Merging j into i changes only the pairs that touch i or j: row i,
        # rows before i (which may now prefer i) and rows whose best partner
        # was i or j.  Such a row takes i if i is no worse than its old best:
        # every other partner was no better, and the lesser id wins a tie.
        for pos, x in enumerate(live):
            if x < i:
                with_i = ((masks[x] ^ merged).bit_count() * count + x) * count + i
                if with_i <= row[x]:
                    row[x] = with_i
                elif row[x] % count in (i, j):
                    fill_row(x, live[pos + 1 :])
            elif x == i or (x < j and row[x] % count == j):
                fill_row(x, live[pos + 1 :])
            elif x > j:
                break
    return merges, cost


def _relabel(merges: list[tuple[int, int]], order: list[int]) -> list[tuple[int, int]]:
    """Merges over nodes relabelled so that node p is ``order[p]``, as
    merges over the original ids in which each merged node keeps the lesser
    original id of its two parts."""
    held = list(order)
    out = []
    for p, q in merges:
        a, b = sorted((held[p], held[q]))
        out.append((a, b))
        held[p] = a
    return out


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, least first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _compile(t: Tangle, nodes: _Nodes, merges: list[tuple[int, int]]) -> ContractionPlan:
    """The plan merging ``nodes`` in the order ``merges``, each pair (i, j)
    with i < j merging node j into node i."""
    axes_of = list(nodes.axes)  # a merge replaces its slot's list, never edits it
    masks = list(nodes.masks)
    compiled_steps = []
    for i, j in merges:
        shared = masks[i] & masks[j]
        contracted = _bits(shared)
        left, right = axes_of[i], axes_of[j]
        free_left = [x for x in left if not shared >> x & 1]
        free_right = [x for x in right if not shared >> x & 1]
        compiled_steps.append(
            (
                i,
                j,
                tuple(map(left.index, free_left + contracted)),
                tuple(map(right.index, contracted + free_right)),
                len(free_left),
                len(contracted),
                len(free_right),
            )
        )
        axes_of[i] = free_left + free_right
        masks[i] ^= masks[j]

    final = axes_of[0] if axes_of else []
    legs_at = nodes.legs_at
    if sorted(final) != list(range(legs_at, legs_at + t.arity)):
        ids = [i if i < legs_at else legs_at - 1 - i for i in final]
        raise AssertionError(f"contraction left unexpected open axes {ids}")
    transpose = tuple(final.index(legs_at + l) for l in range(t.arity))
    compiled = _Compiled(t.num_vertices, t.arity, tuple(nodes.init), tuple(compiled_steps), transpose)
    return ContractionPlan(compiled, tuple(nodes.masks), tuple(nodes.leg_edges))


class _Pool:
    """Free complex buffers by entry count: at most ``_POOL_PER_SIZE`` of one
    size and ``_POOL_BYTES`` in all; a full pool drops what it is given.
    Threads that execute plans at once share it under its lock."""

    def __init__(self) -> None:
        self.free: dict[int, list[np.ndarray]] = {}
        self.nbytes = 0
        self.lock = threading.Lock()

    def take(self, size: int) -> np.ndarray:
        with self.lock:
            bufs = self.free.get(size)
            if bufs:
                buf = bufs.pop()
                self.nbytes -= buf.nbytes
                return buf
        return np.empty(size, dtype=complex)

    def give(self, buf: np.ndarray) -> None:
        with self.lock:
            bufs = self.free.setdefault(buf.size, [])
            if len(bufs) < _POOL_PER_SIZE and self.nbytes + buf.nbytes <= _POOL_BYTES:
                bufs.append(buf)
                self.nbytes += buf.nbytes


_POOL = _Pool()


def execute_plan(entries: np.ndarray, n: int, t: Tangle, plan: ContractionPlan) -> np.ndarray:
    """Contract ``t`` with vertex tensor ``entries``, taken as complex;
    returns the open tensor over legs 1..k in label order (a 0-d array for
    diagrams), without the vertexless-loop factor."""
    c = plan.compiled
    if c.num_vertices != t.num_vertices or c.arity != t.arity:
        raise ValueError(
            f"plan for a tangle with {c.num_vertices} vertices and {c.arity} legs"
            f" cannot contract one with {t.num_vertices} vertices and {t.arity} legs"
        )
    if entries.dtype is not _COMPLEX:  # the check is cheaper than np.asarray
        entries = np.asarray(entries, dtype=complex)
    arrays = [
        np.eye(n, dtype=complex) if spec is None else (np.einsum(spec, entries) if spec else entries)
        for spec in c.init
    ]
    # A merge result of at least _POOL_MIN entries is written into a buffer
    # taken from the pool; once the merge that reads it has run, the buffer
    # goes back, except the one under the last node, which may be returned.
    held: dict[int, np.ndarray] = {}  # the pooled buffer under arrays[p]
    for a, b, perm_a, perm_b, free_a, shared, free_b in c.steps:
        rows, inner, cols = n**free_a, n**shared, n**free_b
        left = arrays[a].transpose(perm_a).reshape(rows, inner)
        right = arrays[b].transpose(perm_b).reshape(inner, cols)
        spent = (held.pop(a, None), held.pop(b, None)) if held else ()
        if rows * cols < _POOL_MIN:
            merged = np.dot(left, right)
        else:
            held[a] = _POOL.take(rows * cols)
            merged = np.dot(left, right, out=held[a].reshape(rows, cols))
        for buf in spent:
            if buf is not None:
                _POOL.give(buf)
        arrays[a] = merged.reshape((n,) * (free_a + free_b))
        arrays[b] = None
    if not arrays:
        return np.array(1.0 + 0j)
    if not c.steps:
        # The one node may be the caller's vertex tensor, so return a copy
        # of it.
        return np.array(np.transpose(arrays[0], c.transpose), order="C")
    if c.transpose:
        return np.ascontiguousarray(np.transpose(arrays[0], c.transpose))
    return arrays[0]
