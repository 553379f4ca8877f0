"""Reidemeister moves: algebraic conditions and diagram rewriting.

A vertex model leaves partition functions invariant under the three
Reidemeister moves if three algebraic conditions hold.  The conditions are
sufficient, not necessary: `knot_counting_model()` is invariant (f is
2^knots on every diagram) yet fails the kink condition with residual 4.
With the vertex tensor R viewed as an operator on C^n (x) C^n (rows at index
positions 1,2, columns at 3,4):

  1. kink:          C(R) = I,          C(R)[a,c] = sum_b R[a,b,b,c]
  2. return:        R . D(R) = I(x)I,  D(R)[i,j,k,l] = R[i,l,k,j]
  3. slide:         E12(R) E13(R) E23(R) = E23(R) E13(R) E12(R)

Condition 3 is the Yang-Baxter equation; the E maps embed R into operators
on (C^n)^(x)3 acting on the named pair of factors.  D transposes the matrix
factor living on index positions 2,4 (the under-going strand), which is the
crossing seen from the other side.

Each condition is a move tangle: a two-term combination (local pattern minus
its rewritten form) whose evaluation under R equals the condition residual
entrywise - no leg permutation needed with the conventions above.  Each move
is one row of one table, (name, pattern, replacement), and that row drives
both its condition and every rewrite: `check_algebraic` takes residual k as
the Frobenius norm of the evaluated move tangle k, and :func:`apply_move`
rewrites a diagram by cutting the pattern out and gluing in the
replacement, so invariance under rewriting and vanishing of the evaluated
move tangles are literally the same statement.  Each anchor family has one
placement rule: an R1+ or R2+ anchor names k distinct current edges, and an
R1-, R2- or R3 anchor k distinct vertices and the frame rotation of each, 0
or 2: one slot would flip a crossing, and the rewrite would be no move.  A
`ConditionReport` holds the three residuals and the one bound each is
judged against.
The cut is an unvalidated record that only `glue` reads, so the one tangle
a rewrite builds is its result, validated as every tangle is.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import QuantumTangle, glue, qt_add, qt_scale
from .diagram import (
    LEG,
    Endpoint,
    Tangle,
    _map_edges,
    build_tangle,
    partner_map,
    strand_tangle,
)
from .model import VertexModel, partition_function, qt_evaluate

__all__ = [
    "ConditionReport",
    "check_algebraic",
    "move_tangles",
    "MOVE_KINDS",
    "MoveSite",
    "enumerate_move_sites",
    "apply_move",
    "random_move",
    "find_move_witness",
]


# ---------------------------------------------------------------------------
# Algebraic conditions


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of the three move conditions and the one bound each is
    judged against."""

    residual_r1: float
    residual_r2: float
    residual_r3: float
    bound: float

    @property
    def passed(self) -> bool:
        return all(r <= self.bound for r in (self.residual_r1, self.residual_r2, self.residual_r3))


def check_algebraic(model: VertexModel, tol: float = 1e-10) -> ConditionReport:
    """Residuals of the kink, return and Yang-Baxter conditions: residual k
    is the Frobenius norm of the evaluated move tangle `move_tangles(k)`,
    and the bound of all three is ``tol * (1 + |R|^2)``."""
    r1, r2, r3 = (float(np.linalg.norm(qt_evaluate(model, move_tangles(k)))) for k in _MOVES)
    return ConditionReport(r1, r2, r3, tol * (1.0 + model.norm**2))


# ---------------------------------------------------------------------------
# Move tangles: local pattern minus replacement
#
# Slot layouts (vertex: slots 0..3 clockwise, over-strand at 0,2):
#   kink            v0: (leg1, loop, loop, leg2)
#   crossing pair   v0: (leg1, leg2, a, b)       v1: (a, leg4, leg3, b)
#   braid, left     v0: (leg1, leg2, h, g)  v1: (h, leg3, leg4, i)
#                   v2: (g, i, leg5, leg6)
#   braid, right    v0: (leg2, leg3, b, c)  v1: (leg1, c, d, leg6)
#                   v2: (d, b, leg4, leg5)

MOVE_KINDS = ("R1+", "R1-", "R2+", "R2-", "R3")

# Built once: tangles are immutable, so every rewrite shares them.
_KINK = build_tangle(1, [((LEG, 1), (0, 0)), ((0, 1), (0, 2)), ((0, 3), (LEG, 2))])
_STRAND = strand_tangle()
_CROSSING_PAIR = build_tangle(
    2,
    [
        ((LEG, 1), (0, 0)),
        ((LEG, 2), (0, 1)),
        ((0, 2), (1, 0)),
        ((0, 3), (1, 3)),
        ((1, 1), (LEG, 4)),
        ((1, 2), (LEG, 3)),
    ],
)
_PARALLEL = build_tangle(0, [((LEG, 1), (LEG, 3)), ((LEG, 2), (LEG, 4))])
_BRAID_LEFT = build_tangle(
    3,
    [
        ((LEG, 1), (0, 0)),
        ((LEG, 2), (0, 1)),
        ((0, 2), (1, 0)),
        ((0, 3), (2, 0)),
        ((1, 1), (LEG, 3)),
        ((1, 2), (LEG, 4)),
        ((1, 3), (2, 1)),
        ((2, 2), (LEG, 5)),
        ((2, 3), (LEG, 6)),
    ],
)
_BRAID_RIGHT = build_tangle(
    3,
    [
        ((0, 0), (LEG, 2)),
        ((0, 1), (LEG, 3)),
        ((0, 2), (2, 1)),
        ((0, 3), (1, 1)),
        ((1, 0), (LEG, 1)),
        ((1, 2), (2, 0)),
        ((1, 3), (LEG, 6)),
        ((2, 2), (LEG, 4)),
        ((2, 3), (LEG, 5)),
    ],
)


#: One row per move under its number, (name, pattern, replacement): the
#: conditions and every rewrite read these rows.  R1-, R2- and R3 direction
#: +1 rewrite the pattern into the replacement, R1+, R2+ and R3 direction -1
#: the replacement into the pattern.
_MOVES = {
    1: ("kink", _KINK, _STRAND),
    2: ("crossing pair", _CROSSING_PAIR, _PARALLEL),
    3: ("braid", _BRAID_LEFT, _BRAID_RIGHT),
}
_CLOSED_KINK = glue(*_MOVES[1][1:])  # R1+ glues it in at a vertexless loop

#: Each tangle of a row split once: its internal edges (no leg end), and its
#: edges with a leg end in sorted order, each read as (leg, other end).
_SPLIT = {
    t: (
        [edge for edge in t.edges if edge[0][0] != LEG],
        sorted(edge for edge in t.edges if edge[0][0] == LEG),
    )
    for _, *pair in _MOVES.values()
    for t in pair
}


def move_tangles(kind: int) -> QuantumTangle:
    """The two-term combination whose evaluation is condition ``kind``'s
    residual: pattern minus replacement."""
    if kind not in _MOVES:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind!r}")
    _, pattern, replacement = _MOVES[kind]
    return qt_add(QuantumTangle.of(pattern), qt_scale(-1.0, QuantumTangle.of(replacement)))


# ---------------------------------------------------------------------------
# Sites and rewriting


@dataclass(frozen=True)
class MoveSite:
    """A locus where one Reidemeister rewrite applies.

    Anchors by kind, every edge one of the diagram's, ends in sorted order,
    and every frame rotation 0 or 2:
      R1+   (edge,) or ("loop",)
      R1-   (vertex, rotation)
      R2+   (edge_a, edge_b), ordered and distinct
      R2-   (u, w, ru, rw): vertex pair with frame rotations
      R3    (u, v, w, ru, rv, rw, direction): direction +1 rewrites the left
            braid form into the right one, -1 the reverse
    """

    kind: str
    anchor: tuple


def _vertex_anchors(g: Tangle) -> dict[str, list[tuple]]:
    """Anchors of the R1-, R2- and R3 sites of ``g`` from one pass over its
    vertices that reads only its partner map, each kind in the order of
    `enumerate_move_sites`.  Vertex u is an R1- site at rotation 0 if a
    loop edge joins its slots 1 and 2, else at rotation 2 if one joins
    slots 3 and 0; loops on slots 0,1 or 2,3 are the other chirality and
    are not kink sites."""
    partner = partner_map(g.edges)
    found: dict[str, list[tuple]] = {"R1-": [], "R2-": [], "R3": []}
    for u in range(g.num_vertices):
        if partner[(u, 1)] == (u, 2):
            found["R1-"].append((u, 0))
        elif partner[(u, 3)] == (u, 0):
            found["R1-"].append((u, 2))
        for ru in (0, 2):
            x, sx = partner[(u, (2 + ru) % 4)]
            y, sy = partner[(u, (3 + ru) % 4)]
            if sx % 2 != sy % 2:
                # R2-: w on slot 2+ru with rw = sx, edge u(3+ru)-w(3+rw)
                if x != u and sx % 2 == 0 and (y, sy) == (x, (3 + sx) % 4):
                    found["R2-"].append((u, x, ru, sx))
            elif len({u, x, y}) != 3:
                continue
            elif sx % 2 == 0:
                # R3 +1: v on slot 2+ru, w on slot 3+ru, edge v(3+rv)-w(1+rw)
                if partner[(x, (3 + sx) % 4)] == (y, (1 + sy) % 4):
                    found["R3"].append((u, x, y, ru, sx, sy, +1))
            else:
                # R3 -1: w on slot 2+ru, v on slot 3+ru, edge v(2+rv)-w(rw)
                rw, rv = sx - 1, sy - 1
                if partner[(y, (2 + rv) % 4)] == (x, rw):
                    found["R3"].append((u, y, x, ru, rv, rw, -1))
    # An R3 site's first six entries fix its direction, so tuple order
    # never compares directions.
    found["R2-"].sort()
    found["R3"].sort()
    return found


class _SiteTable:
    """The move sites of one diagram, by kind and index.

    Holds the sorted edges, the R1-, R2- and R3 anchors of one vertex pass,
    and the site count of each kind.  R1+ and R2+ sites are counted, not
    listed: index q of R1+ is the q-th sorted edge (q = E, past the E edges,
    is the loop site), index q of R2+ the q-th ordered pair of distinct
    sorted edges.
    """

    def __init__(self, g: Tangle):
        if g.arity:
            raise ValueError("move sites are enumerated on diagrams (arity 0) only")
        self.edges = sorted(g.edges)
        self.vertex_anchors = _vertex_anchors(g)
        e = len(self.edges)
        self.counts = {"R1+": e + (1 if g.loop_count else 0), "R2+": e * (e - 1)}
        self.counts.update((kind, len(found)) for kind, found in self.vertex_anchors.items())

    def anchor(self, kind: str, q: int) -> tuple:
        """The anchor of site q of ``kind``, 0 <= q < ``counts[kind]``."""
        if kind == "R1+":
            return ("loop",) if q == len(self.edges) else (self.edges[q],)
        if kind == "R2+":
            i, r = divmod(q, len(self.edges) - 1)
            return (self.edges[i], self.edges[r if r < i else r + 1])
        return self.vertex_anchors[kind][q]

    def sites(self, kind: str):
        """Every site of ``kind`` in index order, each built as it is reached."""
        return (MoveSite(kind, self.anchor(kind, q)) for q in range(self.counts[kind]))


def enumerate_move_sites(g: Tangle, kind: str) -> list[MoveSite]:
    """The sites of one move kind, in a fixed deterministic order.

    R1-, R2- and R3 list every site.  R1+ and R2+ list each edge in its
    sorted orientation only, the lesser end taking leg 1 of the
    replacement, so their lists depend on the vertex labelling.

    R1-, R2- and R3 cost O(v): each site is fixed by its first vertex u, the
    frame rotation ru and the partners of slots 2+ru and 3+ru, so one pass
    over u reads those partners and checks the one remaining edge.  R1+ and
    R2+ cost the size of their output (one site per edge, per ordered pair
    of edges).  R2- anchors come out in lexicographic order, R3 anchors in
    order of (u, v, w, ru, rv, rw) with direction +1 first.
    """
    table = _SiteTable(g)
    if kind not in table.counts:
        raise ValueError(f"unknown move kind {kind!r}")
    return list(table.sites(kind))


class _Cut(NamedTuple):
    """A diagram with a move pattern cut out, its legs the cut edge ends:
    a `Tangle`'s four fields, unvalidated.  Only `glue` reads it, and the
    rewrite that `glue` builds from it is validated."""

    num_vertices: int
    arity: int
    edges: Iterable[tuple[Endpoint, Endpoint]]  # sorted pairs, in any order
    loop_count: int


def apply_move(g: Tangle, site: MoveSite) -> Tangle:
    """Rewrite ``g`` at ``site``; raises ValueError on a stale site.

    Kind Rk reads row k of the move table, and each anchor family is
    checked by one rule directly above its tail: an R1+ or R2+ anchor must
    be k distinct current edges, and the row's pattern is glued into those
    edges cut from its replacement; an R1-, R2- or R3 anchor must be k
    distinct vertices and k rotations in {0, 2}, and the pattern is cut out
    at those vertices and the replacement glued in.  R1+ at ``("loop",)``
    glues a closed kink in for a vertexless loop.  The cut is an
    unvalidated record whose legs are the cut edge ends; the rewrite is the
    one tangle built, and it is validated.
    """
    if g.arity:
        raise ValueError("moves apply to diagrams (arity 0) only")
    kind, anchor = site.kind, site.anchor
    if kind == "R1+" and anchor == ("loop",):
        if not g.loop_count:
            raise ValueError("stale move site: diagram has no vertexless loop")
        return glue(_Cut(g.num_vertices, 0, g.edges, g.loop_count - 1), _CLOSED_KINK)
    if kind not in MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    k = int(kind[1])
    name, pattern, replacement = _MOVES[k]

    if kind in ("R1+", "R2+"):
        if len(anchor) != k or len(set(anchor)) != k or not g.edges.issuperset(anchor):
            raise ValueError(f"stale move site: bad {name} anchor {anchor}")
        # The two ends of the i-th cut edge become the two legs of the i-th
        # sorted edge of the vertex-free replacement.
        legs = []
        for (la, lb), (a, b) in zip(_SPLIT[replacement][1], anchor):
            legs += ((la, a), (lb, b))
        edges = g.edges.difference(anchor).union(legs)
        return glue(_Cut(g.num_vertices, len(legs), edges, g.loop_count), pattern)

    # An odd rotation would place the pattern with flipped crossings.
    at, rot = anchor[:k], anchor[k : 2 * k]
    if (
        len(anchor) != 2 * k + (k == 3)
        or len(set(at)) != k
        or not 0 <= min(at) <= max(at) < g.num_vertices
        or not set(rot) <= {0, 2}
    ):
        raise ValueError(f"stale move site: bad {name} anchor {anchor}")
    if k == 3 and anchor[6] not in (+1, -1):
        raise ValueError(f"bad R3 direction {anchor[6]!r}")
    if k == 3 and anchor[6] == -1:
        pattern, replacement = replacement, pattern

    # Pattern vertex p sits at vertex at[p] turned by rot[p]: its endpoint
    # (p, s) is (at[p], (s + rot[p]) % 4), and each placed leg end becomes
    # the pattern's leg.
    internal, legs = _SPLIT[pattern]
    cut = set()
    for (p, s), (q, t) in internal:
        a, b = (at[p], (s + rot[p]) % 4), (at[q], (t + rot[q]) % 4)
        cut.add((a, b) if a < b else (b, a))
    if not cut <= g.edges:
        raise ValueError(f"stale move site: {name} pattern absent")
    ends = {}
    for leg, (p, s) in legs:
        ends[(at[p], (s + rot[p]) % 4)] = leg
    num_vertices, edges = _map_edges(g, ends, at, cut)
    return glue(_Cut(num_vertices, len(ends), edges, g.loop_count), replacement)


def random_move(g: Tangle, rng: np.random.Generator) -> tuple[MoveSite, Tangle]:
    """Apply one uniformly chosen move: first a kind with available sites is
    drawn, then a site of that kind.

    The draw is the one made from the lists of `enumerate_move_sites`, but
    only the drawn site is built, so a draw costs O(E log E) before the
    rewrite.
    """
    table = _SiteTable(g)
    available = [kind for kind in MOVE_KINDS if table.counts[kind]]
    if not available:
        raise ValueError("diagram admits no move sites")
    kind = available[int(rng.integers(len(available)))]
    site = MoveSite(kind, table.anchor(kind, int(rng.integers(table.counts[kind]))))
    return site, apply_move(g, site)


def find_move_witness(
    model: VertexModel, diagrams: list[Tangle]
) -> tuple[Tangle, MoveSite, float] | None:
    """Search for one move application changing the partition function.

    Scans every site of every kind over the given diagrams until the change
    exceeds 1e-6; returns None if the first 2,000 moves, or all of them if
    fewer, preserve f.  Each diagram's vertices are scanned once, and only
    the sites it rewrites are built.  An f before or after a move that is
    not finite (the model's values overflowed) is a ValueError naming the
    diagram's index in ``diagrams``: no change of it can be measured.
    """
    checked = 0
    for index, g in enumerate(diagrams):
        f_before = partition_function(model, g)
        table = _SiteTable(g)
        for kind in MOVE_KINDS:
            for site in table.sites(kind):
                f_after = partition_function(model, apply_move(g, site))
                if not (cmath.isfinite(f_before) and cmath.isfinite(f_after)):
                    raise ValueError(
                        f"diagrams[{index}]: f or its value after a move is not finite"
                        " (the evaluation overflowed)"
                    )
                delta = abs(f_after - f_before)
                if delta > 1e-6:
                    return g, site, delta
                checked += 1
                if checked >= 2000:
                    return None
    return None
