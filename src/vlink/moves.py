"""Reidemeister moves: algebraic conditions and diagram rewriting.

A vertex model leaves partition functions invariant under the three
Reidemeister moves iff three algebraic conditions hold.  With the vertex
tensor R viewed as an operator on C^n (x) C^n (rows at index positions 1,2,
columns at 3,4):

  1. kink:          C(R) = I,          C(R)[a,c] = sum_b R[a,b,b,c]
  2. return:        R . D(R) = I(x)I,  D(R)[i,j,k,l] = R[i,l,k,j]
  3. slide:         E12(R) E13(R) E23(R) = E23(R) E13(R) E12(R)

Condition 3 is the Yang-Baxter equation; the E maps embed R into operators
on (C^n)^(x)3 acting on the named pair of factors.  D transposes the matrix
factor living on index positions 2,4 (the under-going strand), which is the
crossing seen from the other side.

Each condition has a tangle counterpart: a two-term combination (local
pattern minus its rewritten form) whose evaluation under R equals the
condition residual entrywise - no leg permutation needed with the
conventions above.  :func:`apply_move` rewrites a diagram by cutting the
pattern out and gluing in the replacement, so invariance under rewriting and
vanishing of the evaluated move tangles are literally the same statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import QuantumTangle, glue, qt_add, qt_scale
from .diagram import (
    LEG,
    Endpoint,
    Tangle,
    build_tangle,
    partner_map,
    strand_tangle,
)
from .model import VertexModel, partition_function

__all__ = [
    "ConditionReport",
    "check_algebraic",
    "kink_contraction",
    "crossing_transpose",
    "ybe_sides",
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


def kink_contraction(model: VertexModel) -> np.ndarray:
    """C(R)[a,c] = sum_b R[a,b,b,c]; equals I iff kinks are invisible."""
    return np.einsum("abbc->ac", model.entries)


def crossing_transpose(model: VertexModel) -> np.ndarray:
    """D(R): the crossing with the under-strand factor transposed."""
    return model.entries.transpose(0, 3, 2, 1)


def _as_operator(entries: np.ndarray, n: int) -> np.ndarray:
    return entries.reshape(n * n, n * n)


def ybe_sides(model: VertexModel) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the Yang-Baxter equation as n^3 x n^3 matrices."""
    n = model.n
    rop = _as_operator(model.entries, n)
    eye = np.eye(n)
    e12 = np.kron(rop, eye)
    e23 = np.kron(eye, rop)
    e13 = np.einsum("acdf,be->abcdef", model.entries, eye).reshape(n**3, n**3)
    return e12 @ e13 @ e23, e23 @ e13 @ e12


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of the three move conditions at a given tolerance."""

    residual_r1: float
    residual_r2: float
    residual_r3: float
    tol: float
    model_norm: float

    @property
    def scale(self) -> float:
        return self.tol * (1.0 + self.model_norm**2)

    @property
    def pass_r1(self) -> bool:
        return self.residual_r1 <= self.scale

    @property
    def pass_r2(self) -> bool:
        return self.residual_r2 <= self.scale

    @property
    def pass_r3(self) -> bool:
        return self.residual_r3 <= self.scale

    @property
    def passed(self) -> bool:
        return self.pass_r1 and self.pass_r2 and self.pass_r3


def check_algebraic(model: VertexModel, tol: float = 1e-10) -> ConditionReport:
    """Frobenius residuals of the kink, return, and Yang-Baxter conditions."""
    n = model.n
    r1 = float(np.linalg.norm(kink_contraction(model) - np.eye(n)))
    rop = _as_operator(model.entries, n)
    dop = _as_operator(crossing_transpose(model), n)
    r2 = float(np.linalg.norm(rop @ dop - np.eye(n * n)))
    lhs, rhs = ybe_sides(model)
    r3 = float(np.linalg.norm(lhs - rhs))
    return ConditionReport(r1, r2, r3, tol, model.norm)


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


def _kink_tangle() -> Tangle:
    return build_tangle(
        1,
        [((LEG, 1), (0, 0)), ((0, 1), (0, 2)), ((0, 3), (LEG, 2))],
    )


def _crossing_pair_tangle() -> Tangle:
    return build_tangle(
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


def _parallel_tangle() -> Tangle:
    return build_tangle(0, [((LEG, 1), (LEG, 3)), ((LEG, 2), (LEG, 4))])


def _braid_left_tangle() -> Tangle:
    return build_tangle(
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


def _braid_right_tangle() -> Tangle:
    return build_tangle(
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


def move_tangles(kind: int) -> QuantumTangle:
    """The two-term combination whose evaluation is condition ``kind``'s
    residual: pattern minus replacement."""
    if kind == 1:
        pattern, replacement = _kink_tangle(), strand_tangle()
    elif kind == 2:
        pattern, replacement = _crossing_pair_tangle(), _parallel_tangle()
    elif kind == 3:
        pattern, replacement = _braid_left_tangle(), _braid_right_tangle()
    else:
        raise ValueError(f"kind must be 1, 2 or 3, got {kind!r}")
    return qt_add(QuantumTangle.of(pattern), qt_scale(-1.0, QuantumTangle.of(replacement)))


# ---------------------------------------------------------------------------
# Sites and rewriting


@dataclass(frozen=True)
class MoveSite:
    """A locus where one Reidemeister rewrite applies.

    Anchors by kind:
      R1+   ("edge", edge) or ("loop",)
      R1-   (vertex,)
      R2+   (edge_a, edge_b), ordered and distinct
      R2-   (u, w, ru, rw): vertex pair with frame rotations
      R3    (u, v, w, ru, rv, rw, direction): direction +1 rewrites the left
            braid form into the right one, -1 the reverse
    """

    kind: str
    anchor: tuple


def _loop_slots(g: Tangle, v: int) -> int | None:
    """Frame rotation putting a loop edge of v onto slots 1,2; None if no
    R1-compatible loop.  Loops on slots 0,1 or 2,3 are the other chirality
    and are not kink sites."""
    edges = g.edges
    if tuple(sorted(((v, 1), (v, 2)))) in edges:
        return 0
    if tuple(sorted(((v, 0), (v, 3)))) in edges:
        return 2
    return None


def enumerate_move_sites(g: Tangle, kind: str) -> list[MoveSite]:
    """All sites of one move kind, in a fixed deterministic order.

    R1-, R2- and R3 cost O(v): each site is fixed by its first vertex u, the
    frame rotation ru and the partners of slots 2+ru and 3+ru, so one pass
    over u reads those partners and checks the one remaining edge.  R1+ and
    R2+ cost the size of their output (one site per edge, per ordered pair
    of edges).  R2- anchors come out in lexicographic order, R3 anchors in
    order of (u, v, w, ru, rv, rw) with direction +1 first.
    """
    if g.arity:
        raise ValueError("move sites are enumerated on diagrams (arity 0) only")
    sites: list[MoveSite] = []
    if kind == "R1+":
        for e in sorted(g.edges):
            sites.append(MoveSite(kind, ("edge", e)))
        if g.loop_count:
            sites.append(MoveSite(kind, ("loop",)))
    elif kind == "R1-":
        for v in range(g.num_vertices):
            if _loop_slots(g, v) is not None:
                sites.append(MoveSite(kind, (v,)))
    elif kind == "R2+":
        edges = sorted(g.edges)
        for a in edges:
            for b in edges:
                if a != b:
                    sites.append(MoveSite(kind, (a, b)))
    elif kind in ("R2-", "R3"):
        partner = partner_map(g)
        anchors = []
        for u in range(g.num_vertices):
            for ru in (0, 2):
                x, sx = partner[(u, (2 + ru) % 4)]
                y, sy = partner[(u, (3 + ru) % 4)]
                if kind == "R2-":
                    # w on slot 2+ru with rw = sx, edge u(3+ru)-w(3+rw)
                    if x != u and sx % 2 == 0 and (y, sy) == (x, (3 + sx) % 4):
                        anchors.append((u, x, ru, sx))
                elif len({u, x, y}) != 3 or sx % 2 != sy % 2:
                    continue
                elif sx % 2 == 0:
                    # +1: v on slot 2+ru, w on slot 3+ru, edge v(3+rv)-w(1+rw)
                    if partner[(x, (3 + sx) % 4)] == (y, (1 + sy) % 4):
                        anchors.append((u, x, y, ru, sx, sy, +1))
                else:
                    # -1: w on slot 2+ru, v on slot 3+ru, edge v(2+rv)-w(rw)
                    rw, rv = sx - 1, sy - 1
                    if partner[(y, (2 + rv) % 4)] == (x, rw):
                        anchors.append((u, y, x, ru, rv, rw, -1))
        # An R3 site's first six entries fix its direction, so tuple order
        # never compares directions.
        sites = [MoveSite(kind, anchor) for anchor in sorted(anchors)]
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    return sites


def _cut(
    g: Tangle,
    pattern_vertices: set[int],
    boundary: dict[int, Endpoint],
    internal_edges: set[tuple[Endpoint, Endpoint]],
) -> Tangle:
    """Remove pattern vertices, turning the cut edge ends into legs."""
    remap: dict[int, int] = {}
    for v in range(g.num_vertices):
        if v not in pattern_vertices:
            remap[v] = len(remap)
    slot_to_leg = {ep: label for label, ep in boundary.items()}

    def mapped(ep: Endpoint) -> Endpoint:
        if ep in slot_to_leg:
            return (LEG, slot_to_leg[ep])
        if ep[0] in pattern_vertices:
            raise ValueError(f"pattern does not cover endpoint {ep!r}")
        return (remap[ep[0]], ep[1])

    kept = []
    for edge in g.edges:
        if edge in internal_edges:
            continue
        kept.append((mapped(edge[0]), mapped(edge[1])))
    return build_tangle(len(remap), kept, g.loop_count)


def _edge(a: Endpoint, b: Endpoint) -> tuple[Endpoint, Endpoint]:
    return tuple(sorted((a, b)))  # type: ignore[return-value]


def apply_move(g: Tangle, site: MoveSite) -> Tangle:
    """Rewrite ``g`` at ``site``; raises ValueError on a stale site."""
    if g.arity:
        raise ValueError("moves apply to diagrams (arity 0) only")
    kind, anchor = site.kind, site.anchor

    if kind == "R1+":
        if anchor == ("loop",):
            if not g.loop_count:
                raise ValueError("stale move site: diagram has no vertexless loop")
            trimmed = Tangle(g.num_vertices, 0, g.edges, g.loop_count - 1)
            closed_kink = build_tangle(1, [((0, 0), (0, 3)), ((0, 1), (0, 2))])
            return glue(trimmed, closed_kink)
        _, edge = anchor
        if edge not in g.edges:
            raise ValueError(f"stale move site: edge {edge!r} not in diagram")
        p, q = edge
        complement = _cut_edges(g, [(p, 1), (q, 2)], {edge})
        return glue(complement, _kink_tangle())

    if kind == "R1-":
        (v,) = anchor
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"stale move site: no vertex {v}")
        r = _loop_slots(g, v)
        if r is None:
            raise ValueError(f"stale move site: vertex {v} carries no kink loop")
        loop = _edge((v, (1 + r) % 4), (v, (2 + r) % 4))
        boundary = {1: (v, r % 4), 2: (v, (3 + r) % 4)}
        complement = _cut(g, {v}, boundary, {loop})
        return glue(complement, strand_tangle())

    if kind == "R2+":
        ea, eb = anchor
        if ea == eb or ea not in g.edges or eb not in g.edges:
            raise ValueError("stale move site: need two distinct current edges")
        (p1, q1), (p2, q2) = ea, eb
        complement = _cut_edges(g, [(p1, 1), (p2, 2), (q1, 3), (q2, 4)], {ea, eb})
        return glue(complement, _crossing_pair_tangle())

    if kind == "R2-":
        u, w, ru, rw = anchor
        if not (0 <= u < g.num_vertices and 0 <= w < g.num_vertices) or u == w:
            raise ValueError("stale move site: bad vertex pair")
        a = _edge((u, (2 + ru) % 4), (w, rw % 4))
        b = _edge((u, (3 + ru) % 4), (w, (3 + rw) % 4))
        if a not in g.edges or b not in g.edges:
            raise ValueError("stale move site: crossing pair pattern absent")
        boundary = {
            1: (u, ru % 4),
            2: (u, (1 + ru) % 4),
            3: (w, (2 + rw) % 4),
            4: (w, (1 + rw) % 4),
        }
        complement = _cut(g, {u, w}, boundary, {a, b})
        return glue(complement, _parallel_tangle())

    if kind == "R3":
        u, v, w, ru, rv, rw, direction = anchor
        if len({u, v, w}) != 3 or not all(0 <= x < g.num_vertices for x in (u, v, w)):
            raise ValueError("stale move site: bad vertex triple")
        if direction == +1:
            internal = {
                _edge((u, (2 + ru) % 4), (v, rv % 4)),
                _edge((u, (3 + ru) % 4), (w, rw % 4)),
                _edge((v, (3 + rv) % 4), (w, (1 + rw) % 4)),
            }
            boundary = {
                1: (u, ru % 4),
                2: (u, (1 + ru) % 4),
                3: (v, (1 + rv) % 4),
                4: (v, (2 + rv) % 4),
                5: (w, (2 + rw) % 4),
                6: (w, (3 + rw) % 4),
            }
            replacement = _braid_right_tangle()
        elif direction == -1:
            internal = {
                _edge((u, (2 + ru) % 4), (w, (1 + rw) % 4)),
                _edge((u, (3 + ru) % 4), (v, (1 + rv) % 4)),
                _edge((v, (2 + rv) % 4), (w, rw % 4)),
            }
            boundary = {
                1: (v, rv % 4),
                2: (u, ru % 4),
                3: (u, (1 + ru) % 4),
                4: (w, (2 + rw) % 4),
                5: (w, (3 + rw) % 4),
                6: (v, (3 + rv) % 4),
            }
            replacement = _braid_left_tangle()
        else:
            raise ValueError(f"bad R3 direction {direction!r}")
        if not internal <= g.edges:
            raise ValueError("stale move site: braid pattern absent")
        complement = _cut(g, {u, v, w}, boundary, internal)
        return glue(complement, replacement)

    raise ValueError(f"unknown move kind {kind!r}")


def _cut_edges(
    g: Tangle,
    leg_assignment: list[tuple[Endpoint, int]],
    removed: set[tuple[Endpoint, Endpoint]],
) -> Tangle:
    """Remove whole edges, attaching their former endpoints to fresh legs."""
    kept: list[tuple[Endpoint, Endpoint]] = []
    for edge in g.edges:
        if edge not in removed:
            kept.append(edge)
    for ep, label in leg_assignment:
        kept.append(((LEG, label), ep))
    return build_tangle(g.num_vertices, kept, g.loop_count)


def random_move(g: Tangle, rng: np.random.Generator) -> tuple[MoveSite, Tangle]:
    """Apply one uniformly chosen move: first a kind with available sites is
    drawn, then a site of that kind.

    R2+ has one site per ordered pair of distinct edges, so it is counted,
    not listed: only the drawn site is built, the one at the same index of
    ``enumerate_move_sites(g, "R2+")``.
    """
    e = len(g.edges)
    sites = {kind: enumerate_move_sites(g, kind) for kind in MOVE_KINDS if kind != "R2+"}
    counts = {kind: e * (e - 1) if kind == "R2+" else len(sites[kind]) for kind in MOVE_KINDS}
    available = [kind for kind in MOVE_KINDS if counts[kind]]
    if not available:
        raise ValueError("diagram admits no move sites")
    kind = available[int(rng.integers(len(available)))]
    q = int(rng.integers(counts[kind]))
    if kind == "R2+":
        edges = sorted(g.edges)
        i, r = divmod(q, e - 1)
        site = MoveSite(kind, (edges[i], edges[r if r < i else r + 1]))
    else:
        site = sites[kind][q]
    return site, apply_move(g, site)


def find_move_witness(
    model: VertexModel,
    diagrams: list[Tangle],
    threshold: float = 1e-6,
    max_checks: int = 2000,
) -> tuple[Tangle, MoveSite, float] | None:
    """Search for one move application changing the partition function.

    Scans every site of every kind over the given diagrams until the change
    exceeds ``threshold``; returns None if all checked moves preserve f.
    """
    checked = 0
    for g in diagrams:
        f_before = partition_function(model, g)
        for kind in MOVE_KINDS:
            for site in enumerate_move_sites(g, kind):
                delta = abs(partition_function(model, apply_move(g, site)) - f_before)
                if delta > threshold:
                    return g, site, delta
                checked += 1
                if checked >= max_checks:
                    return None
    return None
