"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: partition functions by explicit
enumeration of edge colorings, isomorphism by exhaustive search over vertex
bijections and frame rotations, knot components by depth-first search, move
sites by scanning every vertex pair and triple, the greedy contraction
order by comparing every pair of nodes with freshly sorted ids, and plan
execution over a dict of nodes that looks up every axis by id, model
files read by one Python store per entry, the tangle basis by walking
every perfect matching of the endpoints, leg relabelling and vertex
deletion by a mapping function and `build_tangle`, rewriting by cutting
with `build_tangle` and gluing through a connector graph of every edge, and
the determinant tangle rebuilt on every call, its signs by counting
inversions, and the move-condition residuals by Kronecker and matrix
products of R read as an operator.
None of it imports the contraction planner or the model-file loader.  The
basis walk alone deduplicates by `canonical_key`, which
`brute_isomorphic` checks elsewhere: it judges the generation, not the key.
"""

from __future__ import annotations

import itertools
import json
import string

import numpy as np

from vlink import (
    LEG,
    QuantumTangle,
    Tangle,
    VertexModel,
    build_tangle,
    canonical_key,
    permutation_matching,
    strand_tangle,
    symmetrize,
)
from vlink.algebra import _from_items
from vlink.characterize import ENUMERATION_ENDPOINT_BUDGET
from vlink.diagram import Endpoint


def naive_tangle_tensor(entries: np.ndarray, n: int, t: Tangle) -> np.ndarray:
    """Sum over all edge colorings; returns a tensor over leg labels 1..k.

    For a closed diagram the result is a 0-d array.  Includes the n**loops
    factor.
    """
    edges = sorted(t.edges)
    shape = (n,) * t.arity
    total = np.zeros(shape, dtype=complex)
    for colors in itertools.product(range(n), repeat=len(edges)):
        cmap = {}
        for (a, b), c in zip(edges, colors):
            cmap[a] = c
            cmap[b] = c
        weight = 1.0 + 0.0j
        for v in range(t.num_vertices):
            weight *= entries[
                cmap[(v, 0)], cmap[(v, 1)], cmap[(v, 2)], cmap[(v, 3)]
            ]
        if t.arity:
            idx = tuple(cmap[(LEG, i)] for i in range(1, t.arity + 1))
            total[idx] += weight
        else:
            total += weight
    return total * n**t.loop_count


def brute_isomorphic(t: Tangle, u: Tangle) -> bool:
    """Exhaustive isomorphism test: vertex bijections x rotations by two.

    Legs must match pointwise.  Only usable for small vertex counts.
    """
    if (t.num_vertices, t.arity, t.loop_count) != (
        u.num_vertices,
        u.arity,
        u.loop_count,
    ):
        return False
    nv = t.num_vertices
    for perm in itertools.permutations(range(nv)):
        for rotations in itertools.product((0, 2), repeat=nv):

            def mapped(ep):
                v, s = ep
                if v == LEG:
                    return ep
                return perm[v], (s + rotations[v]) % 4

            image = {
                frozenset((mapped(a), mapped(b))) for a, b in t.edges
            }
            target = {frozenset(e) for e in u.edges}
            if image == target:
                return True
    return False


def dfs_knot_components(t: Tangle) -> int:
    """Count knots by walking edges joined through opposite vertex slots."""
    edges = sorted(t.edges)
    at_slot = {}
    for index, (a, b) in enumerate(edges):
        at_slot[a] = index
        at_slot[b] = index
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(edges))}
    for v in range(t.num_vertices):
        for s in (0, 1):
            e1 = at_slot[(v, s)]
            e2 = at_slot[(v, s + 2)]
            adjacency[e1].add(e2)
            adjacency[e2].add(e1)
    seen = set()
    components = 0
    for start in range(len(edges)):
        if start in seen:
            continue
        components += 1
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node] - seen)
    return components + t.loop_count


def _has_edge(t: Tangle, a, b) -> bool:
    return tuple(sorted((a, b))) in t.edges


def brute_move_sites(g: Tangle, kind: str) -> list[tuple]:
    """R1-, R2- or R3 site anchors by scanning every vertex, vertex pair or
    triple and every frame rotation, in the order the scan meets them.  A
    kink vertex takes rotation 0 if a loop joins its slots 1 and 2, else
    rotation 2 if one joins slots 3 and 0."""
    nv = g.num_vertices
    anchors = []
    if kind == "R1-":
        for v in range(nv):
            if _has_edge(g, (v, 1), (v, 2)):
                anchors.append((v, 0))
            elif _has_edge(g, (v, 3), (v, 0)):
                anchors.append((v, 2))
    elif kind == "R2-":
        for u in range(nv):
            for w in range(nv):
                if u == w:
                    continue
                for ru in (0, 2):
                    for rw in (0, 2):
                        if _has_edge(g, (u, (2 + ru) % 4), (w, rw)) and _has_edge(
                            g, (u, (3 + ru) % 4), (w, (3 + rw) % 4)
                        ):
                            anchors.append((u, w, ru, rw))
    elif kind == "R3":
        for u in range(nv):
            for v in range(nv):
                for w in range(nv):
                    if len({u, v, w}) != 3:
                        continue
                    for ru in (0, 2):
                        for rv in (0, 2):
                            for rw in (0, 2):
                                if (
                                    _has_edge(g, (u, (2 + ru) % 4), (v, rv))
                                    and _has_edge(g, (u, (3 + ru) % 4), (w, rw))
                                    and _has_edge(g, (v, (3 + rv) % 4), (w, (1 + rw) % 4))
                                ):
                                    anchors.append((u, v, w, ru, rv, rw, +1))
                                if (
                                    _has_edge(g, (u, (2 + ru) % 4), (w, (1 + rw) % 4))
                                    and _has_edge(g, (u, (3 + ru) % 4), (v, (1 + rv) % 4))
                                    and _has_edge(g, (v, (2 + rv) % 4), (w, rw))
                                ):
                                    anchors.append((u, v, w, ru, rv, rw, -1))
    else:
        raise ValueError(f"no brute scan for move kind {kind!r}")
    return anchors


def greedy_plan_steps(t: Tangle) -> list[tuple]:
    """Min-arity greedy merge order as (left, right, contracted, arity)
    tuples: every step compares every node pair and keeps the least
    (arity, left, right).

    Node ids and axis ids follow the planner's conventions: ("v", vertex)
    and ("m", edge index) nodes, internal edges numbered by their position
    in the sorted edge list, the axis feeding leg l numbered -l.  Axes that
    a vertex joins to itself are traced before merging.
    """
    axis = {}
    nodes = {}
    for idx, (a, b) in enumerate(sorted(t.edges)):
        if a[0] == LEG and b[0] == LEG:
            nodes[("m", idx)] = [-a[1], -b[1]]
        elif a[0] == LEG:
            axis[b] = -a[1]
        else:
            axis[a] = axis[b] = idx
    for v in range(t.num_vertices):
        nodes[("v", v)] = [axis[(v, s)] for s in range(4)]
    nodes = {key: [i for i in ids if ids.count(i) == 1] for key, ids in nodes.items()}

    steps = []
    while len(nodes) > 1:
        best = None
        for a in sorted(nodes):
            for b in sorted(nodes):
                if b <= a:
                    continue
                shared = set(nodes[a]) & set(nodes[b])
                cand = (len(nodes[a]) + len(nodes[b]) - 2 * len(shared), a, b)
                if best is None or cand < best:
                    best = cand
        arity, a, b = best
        shared = tuple(sorted(set(nodes[a]) & set(nodes[b])))
        steps.append((a, b, shared, arity))
        merged = [i for i in nodes.pop(a) if i not in shared]
        merged += [i for i in nodes.pop(b) if i not in shared]
        nodes[min(a, b)] = merged
    return steps


def _reference_nodes(t: Tangle) -> dict[tuple, list[int]]:
    """Node id -> axis ids (with repeats for self-loops at a vertex).

    Vertex nodes are ("v", index); identity nodes for leg-to-leg edges are
    ("m", edge index).
    """
    axis = {}
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


def reference_execute(entries: np.ndarray, n: int, t: Tangle, plan) -> np.ndarray:
    """Run ``plan``'s merge steps over a dict of nodes keyed by node id,
    finding each contracted axis by its id; returns the open tensor over
    legs 1..k in label order, without the vertexless-loop factor."""
    raw = _reference_nodes(t)
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


def reference_load_model(path: str, project: bool = False) -> VertexModel:
    """Read a model file by one Python store per entry, in file order, so a
    later duplicate overwrites an earlier one; raises ValueError naming the
    first malformed or out-of-range entry."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        n = int(doc["n"])
        items = doc.get("entries", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from exc
    if n < 1:
        raise ValueError(f"{path}: state count n must be >= 1")
    entries = np.zeros((n,) * 4, dtype=complex)
    for pos, item in enumerate(items):
        try:
            idx = tuple(int(item[key]) - 1 for key in ("i", "j", "k", "l"))
            value = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed entry #{pos} ({exc})") from exc
        if not all(0 <= x < n for x in idx):
            raise ValueError(f"{path}: entry #{pos} index out of range 1..{n}")
        entries[idx] = value
    if project:
        return symmetrize(entries)
    try:
        return VertexModel(n, entries)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _matchings(points: list[Endpoint]):
    """All perfect matchings of an even-sized point list."""
    if not points:
        yield []
        return
    first = points[0]
    for i in range(1, len(points)):
        rest = points[1:i] + points[i + 1 :]
        for sub in _matchings(rest):
            yield [(first, points[i])] + sub


def reference_enumerate_tangles(k: int, max_vertices: int) -> list[Tangle]:
    """All loop-free k-tangles with at most ``max_vertices`` vertices, up to
    isomorphism, sorted by canonical key."""
    if k % 2:
        raise ValueError("arity must be even")
    if k + 4 * max_vertices > ENUMERATION_ENDPOINT_BUDGET:
        raise ValueError(
            f"endpoint budget exceeded: k + 4*max_vertices = {k + 4 * max_vertices} "
            f"> {ENUMERATION_ENDPOINT_BUDGET}"
        )
    seen: dict[bytes, Tangle] = {}
    for v in range(max_vertices + 1):
        points = [(LEG, i) for i in range(1, k + 1)]
        points += [(vv, s) for vv in range(v) for s in range(4)]
        for matching in _matchings(points):
            t = build_tangle(v, matching, 0)
            key = canonical_key(t)
            if key not in seen:
                seen[key] = t
    return [seen[key] for key in sorted(seen)]


# ---------------------------------------------------------------------------
# Leg relabelling and vertex deletion: one mapping function per call, every
# result rebuilt and normalized by `build_tangle`.


def reference_relabel_legs(t: Tangle, perm: dict[int, int]) -> Tangle:
    """Relabel legs by the permutation ``perm`` of 1..k (label -> new label)."""
    if sorted(perm) != list(range(1, t.arity + 1)) or sorted(perm.values()) != sorted(perm):
        raise ValueError(f"perm must permute 1..{t.arity}")

    def mapped(ep: Endpoint) -> Endpoint:
        return (LEG, perm[ep[1]]) if ep[0] == LEG else ep

    return build_tangle(
        t.num_vertices,
        [(mapped(a), mapped(b)) for a, b in t.edges],
        t.loop_count,
    )


def reference_det_tangle(m: int) -> QuantumTangle:
    """The determinant tangle built afresh on every call, one permutation
    matching per permutation of 0..m-1 with its sign, -1 to the number of
    inversions."""
    items = []
    for perm in itertools.permutations(range(m)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        items.append((permutation_matching(perm), complex((-1) ** inversions)))
    return _from_items(items)


def reference_tangle_derivative(g: Tangle) -> QuantumTangle:
    """Formal derivative of a diagram: a 4-tangle combination, one pair of
    half-weight terms per vertex.

    Deleting a vertex frees its four edge ends; they become legs 1..4 in slot
    order, and again legs 3,4,1,2 (the rotation by two), each with weight 1/2.
    """
    if g.arity:
        raise ValueError("tangle_derivative is defined for diagrams (arity 0) only")
    items: list[tuple[Tangle, complex]] = []
    for v in range(g.num_vertices):
        for labels in ((1, 2, 3, 4), (3, 4, 1, 2)):
            items.append((_delete_vertex(g, v, labels), 0.5 + 0j))
    return _from_items(items)


def _delete_vertex(g: Tangle, v: int, labels: tuple[int, int, int, int]) -> Tangle:
    def mapped(ep: Endpoint) -> Endpoint:
        if ep[0] == v:
            return (LEG, labels[ep[1]])
        if ep[0] > v:
            return (ep[0] - 1, ep[1])
        return ep

    return build_tangle(
        g.num_vertices - 1,
        [(mapped(a), mapped(b)) for a, b in g.edges],
        g.loop_count,
    )


# ---------------------------------------------------------------------------
# Rewriting by cut and glue: every edge of both tangles enters the connector
# graph, and every piece is rebuilt and normalized by `build_tangle`.


def reference_glue(t: Tangle, u: Tangle) -> Tangle:
    """Glue equal-labeled legs of two k-tangles into a closed product.

    Vertices of ``u`` are shifted past those of ``t``.  Each maximal chain of
    edges through identified legs becomes one edge; chains closing on
    themselves become vertexless loops.
    """
    if t.arity != u.arity:
        raise ValueError(f"arity mismatch: cannot glue a {t.arity}-tangle to a {u.arity}-tangle")
    shift = t.num_vertices

    def t_end(ep: Endpoint) -> tuple:
        return ("c", ep[1]) if ep[0] == LEG else ("t", ep)

    def u_end(ep: Endpoint) -> tuple:
        return ("c", ep[1]) if ep[0] == LEG else ("t", (ep[0] + shift, ep[1]))

    # Arcs of the connector graph: connectors ("c", label) have degree two
    # (one arc from each side), terminals ("t", endpoint) degree one.
    arcs = [(t_end(a), t_end(b)) for a, b in t.edges]
    arcs += [(u_end(a), u_end(b)) for a, b in u.edges]

    incident: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(arcs):
        incident.setdefault(a, []).append(i)
        incident.setdefault(b, []).append(i)

    used = [False] * len(arcs)
    edges: list[tuple[Endpoint, Endpoint]] = []

    def walk(start_arc: int, start_node: tuple) -> tuple:
        """Follow the chain from a terminal until the far terminal."""
        arc, node = start_arc, start_node
        while True:
            used[arc] = True
            a, b = arcs[arc]
            node = b if node == a else a
            if node[0] == "t":
                return node[1]
            arc = next(j for j in incident[node] if j != arc)

    for i, (a, b) in enumerate(arcs):
        if used[i]:
            continue
        if a[0] == "t":
            edges.append((a[1], walk(i, a)))
        elif b[0] == "t":
            edges.append((b[1], walk(i, b)))
    loops = t.loop_count + u.loop_count
    for i in range(len(arcs)):
        if not used[i]:  # chain of connectors with no terminal: a closed loop
            arc, node = i, arcs[i][0]
            while not used[arc]:
                used[arc] = True
                a, b = arcs[arc]
                node = b if node == a else a
                arc = next(j for j in incident[node] if j != arc)
            loops += 1
    return build_tangle(t.num_vertices + u.num_vertices, edges, loops)


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


#: Vertex-anchored kinds: pattern name, vertex count and anchor length.
_VERTEX_ANCHORED = {"R1-": ("kink", 1, 2), "R2-": ("crossing pair", 2, 4), "R3": ("braid", 3, 7)}


def _check_vertex_anchor(g: Tangle, kind: str, anchor: tuple) -> None:
    """Refuse an anchor that does not name the pattern's distinct vertices
    of ``g``, each turned by a frame rotation of 0 or 2.  A quarter turn
    swaps a vertex's over and under strands: the pattern would be placed
    with a crossing flipped, and the rewrite would not be a move."""
    name, k, length = _VERTEX_ANCHORED[kind]
    vertices, rotations = anchor[:k], anchor[k : 2 * k]
    if (
        len(anchor) != length
        or len(set(vertices)) != k
        or not all(0 <= v < g.num_vertices for v in vertices)
        or not all(r in (0, 2) for r in rotations)
    ):
        raise ValueError(f"stale move site: bad {name} anchor {anchor}")


#: Edge-anchored kinds: pattern name and edge count.
_EDGE_ANCHORED = {"R1+": ("kink", 1), "R2+": ("crossing pair", 2)}


def _check_edge_anchor(g: Tangle, kind: str, anchor: tuple) -> None:
    """Refuse an anchor that does not name the pattern's distinct current
    edges of ``g``, each in the sorted orientation the diagram stores."""
    name, k = _EDGE_ANCHORED[kind]
    if len(anchor) != k or len(set(anchor)) != k or not all(e in g.edges for e in anchor):
        raise ValueError(f"stale move site: bad {name} anchor {anchor}")


def reference_apply_move(g: Tangle, site) -> Tangle:
    """Rewrite ``g`` at ``site``; raises ValueError on a stale site."""
    if g.arity:
        raise ValueError("moves apply to diagrams (arity 0) only")
    kind, anchor = site.kind, site.anchor

    if kind == "R1+" and anchor == ("loop",):
        if not g.loop_count:
            raise ValueError("stale move site: diagram has no vertexless loop")
        trimmed = Tangle(g.num_vertices, 0, g.edges, g.loop_count - 1)
        closed_kink = build_tangle(1, [((0, 0), (0, 3)), ((0, 1), (0, 2))])
        return reference_glue(trimmed, closed_kink)

    if kind in _EDGE_ANCHORED:
        _check_edge_anchor(g, kind, anchor)
    if kind in _VERTEX_ANCHORED:
        _check_vertex_anchor(g, kind, anchor)

    if kind == "R1+":
        (edge,) = anchor
        p, q = edge
        complement = _cut_edges(g, [(p, 1), (q, 2)], {edge})
        return reference_glue(complement, _kink_tangle())

    if kind == "R1-":
        v, r = anchor
        loop = _edge((v, (1 + r) % 4), (v, (2 + r) % 4))
        if loop not in g.edges:
            raise ValueError("stale move site: kink pattern absent")
        boundary = {1: (v, r % 4), 2: (v, (3 + r) % 4)}
        complement = _cut(g, {v}, boundary, {loop})
        return reference_glue(complement, strand_tangle())

    if kind == "R2+":
        ea, eb = anchor
        (p1, q1), (p2, q2) = ea, eb
        complement = _cut_edges(g, [(p1, 1), (p2, 2), (q1, 3), (q2, 4)], {ea, eb})
        return reference_glue(complement, _crossing_pair_tangle())

    if kind == "R2-":
        u, w, ru, rw = anchor
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
        return reference_glue(complement, _parallel_tangle())

    if kind == "R3":
        u, v, w, ru, rv, rw, direction = anchor
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
        return reference_glue(complement, replacement)

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


def reference_condition_residuals(entries: np.ndarray, n: int) -> tuple[float, float, float]:
    """Frobenius residuals of the kink, return and Yang-Baxter conditions,
    with R read as an operator on C^n (x) C^n (rows at index positions 1,2,
    columns at 3,4): C(R) - I, R D(R) - I(x)I with D(R)[i,j,k,l] =
    R[i,l,k,j], and E12 E13 E23 - E23 E13 E12 on (C^n)^(x)3."""
    eye = np.eye(n)
    r1 = float(np.linalg.norm(np.einsum("abbc->ac", entries) - eye))
    rop = entries.reshape(n * n, n * n)
    dop = entries.transpose(0, 3, 2, 1).reshape(n * n, n * n)
    r2 = float(np.linalg.norm(rop @ dop - np.eye(n * n)))
    e12 = np.kron(rop, eye)
    e23 = np.kron(eye, rop)
    e13 = np.einsum("acdf,be->abcdef", entries, eye).reshape(n**3, n**3)
    r3 = float(np.linalg.norm(e12 @ e13 @ e23 - e23 @ e13 @ e12))
    return r1, r2, r3
