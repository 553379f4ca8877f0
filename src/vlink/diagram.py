"""Abstract virtual link diagrams and tangles.

A diagram is a finite 4-valent graph together with, at every vertex, a
clockwise cyclic order of the four edge ends.  Slots are numbered 0..3 in
that order and the pair of slots {0, 2} marks the over-going strand.  No
planarity is assumed: two diagrams that differ by "virtual" moves are simply
the same graph, so virtual moves never need to be implemented.  Closed
vertexless loops are allowed and are stored as a bare count.

A k-tangle additionally has k edge ends of degree one, labeled 1..k; gluing
two k-tangles along equal labels is the basic product of the theory (see
:mod:`vlink.algebra`).  A diagram is the k = 0 case.

Internally every tangle is a perfect matching on the endpoint set

    {(v, s) : v vertex index, s slot in 0..3}  union  {(LEG, i) : 1 <= i <= k}

with ``LEG = -1``, plus the loop count.  Isomorphisms are bijections of
vertices combined with per-vertex slot rotations by two positions (rotating
by one or three would exchange over- and under-strands, and mirror images are
deliberately not identified); leg labels are fixed pointwise.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Container
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "LEG",
    "Endpoint",
    "VldError",
    "Tangle",
    "build_tangle",
    "empty_tangle",
    "loop_diagram",
    "strand_tangle",
    "parse_tangle",
    "read_source",
    "load_tangle",
    "serialize_tangle",
    "save_tangle",
    "partner_map",
    "relabel_legs",
    "knot_components",
    "canonical_key",
    "CacheInfo",
    "key_cache_info",
]

#: Pseudo-vertex index marking a labeled degree-one end: ``(LEG, label)``.
LEG = -1

#: An endpoint is ``(vertex, slot)`` with ``vertex >= 0`` or ``(LEG, label)``.
Endpoint = tuple[int, int]


class VldError(ValueError):
    """Parse or validation failure of a ``.vld`` diagram file."""

    def __init__(self, message: str, source: str = "<string>", line: int | None = None):
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


@dataclass(frozen=True)
class Tangle:
    """A k-tangle: vertices, the endpoint matching, and vertexless loops.

    ``edges`` is a frozenset of sorted endpoint pairs forming a perfect
    matching on the endpoint set described in the module docstring.  Use
    :func:`build_tangle` (or the parser) instead of the raw constructor;
    the constructor validates but does not normalize its input.  A valid
    matching is accepted by a few set operations over its 2E endpoints,
    checked against a cached copy of the expected endpoint set; the
    per-edge loop that names a fault runs only on invalid input.
    """

    num_vertices: int
    arity: int
    edges: frozenset[tuple[Endpoint, Endpoint]]
    loop_count: int = 0

    def __post_init__(self) -> None:
        if self.num_vertices < 0 or self.arity < 0 or self.loop_count < 0:
            raise ValueError("vertex, leg and loop counts must be nonnegative")
        if self.arity % 2:
            raise ValueError(f"arity must be even, got {self.arity}")
        # Every edge a sorted pair, 2E endpoints, all of them the expected
        # ones: checked in C.  `_reject` names the first fault.
        edges = self.edges
        expected = _endpoint_set(self.num_vertices, self.arity)
        if not (
            set(map(len, edges)) <= {2}
            and len(expected) == 2 * len(edges)
            and all(map(operator.lt, map(_first, edges), map(_second, edges)))
            and expected == set(itertools.chain.from_iterable(edges))
        ):
            self._reject(edges, expected)

    def _reject(self, edges: frozenset, expected: frozenset[Endpoint]) -> None:
        """Raise the error naming the first fault of an invalid matching."""
        seen: set[Endpoint] = set()
        for edge in edges:
            if len(edge) != 2 or edge[0] >= edge[1]:
                raise ValueError(f"edge {edge!r} is not a sorted pair of distinct endpoints")
            for ep in edge:
                if ep in seen:
                    raise ValueError(f"endpoint {ep!r} used by more than one edge")
                seen.add(ep)
        missing = sorted(expected - seen)
        extra = sorted(seen - expected)
        raise ValueError(
            f"edges do not form a perfect matching on the endpoint set"
            f" (missing {missing!r}, unexpected {extra!r})"
        )

    def __repr__(self) -> str:  # compact, deterministic
        return (
            f"Tangle(v={self.num_vertices}, k={self.arity}, "
            f"loops={self.loop_count}, edges={sorted(self.edges)!r})"
        )

    def __getstate__(self) -> dict:
        """The instance dict less the value `partition_function` keeps: its
        weak reference to a model neither pickles nor copies."""
        state = dict(self.__dict__)
        state.pop("_value", None)
        return state


_first, _second = operator.itemgetter(0), operator.itemgetter(1)


#: Most (vertex count, arity) endpoint sets `Tangle` validation keeps.
ENDPOINT_SET_CACHE_BOUND = 256


@functools.lru_cache(maxsize=ENDPOINT_SET_CACHE_BOUND)
def _endpoint_set(num_vertices: int, arity: int) -> frozenset[Endpoint]:
    """Every endpoint of a tangle with these counts: its slots and its legs."""
    slots = {(v, s) for v in range(num_vertices) for s in range(4)}
    return frozenset(slots | {(LEG, i) for i in range(1, arity + 1)})


def build_tangle(
    num_vertices: int,
    edges: object,
    loop_count: int = 0,
) -> Tangle:
    """Build a tangle from an iterable of endpoint pairs, inferring the arity.

    Edge pairs are normalized (sorted); leg labels present in the endpoints
    must be exactly 1..k for some even k.
    """
    norm = []
    labels = set()
    for a, b in edges:  # type: ignore[misc]
        ea, eb = (a, b) if a <= b else (b, a)
        norm.append((ea, eb))
        for v, x in (ea, eb):
            if v == LEG:
                labels.add(x)
    arity = len(labels)
    if labels != set(range(1, arity + 1)):
        raise ValueError(f"leg labels must be 1..k, got {sorted(labels)}")
    return Tangle(num_vertices, arity, frozenset(norm), loop_count)


def empty_tangle() -> Tangle:
    """The empty diagram (no vertices, no edges, no loops)."""
    return Tangle(0, 0, frozenset(), 0)


def loop_diagram(count: int = 1) -> Tangle:
    """A diagram consisting of ``count`` vertexless loops."""
    return Tangle(0, 0, frozenset(), count)


def strand_tangle() -> Tangle:
    """The 2-tangle that is a single edge joining legs 1 and 2."""
    return build_tangle(0, [((LEG, 1), (LEG, 2))])


# ---------------------------------------------------------------------------
# .vld parsing and serialization
#
# Line-oriented UTF-8.  Blank lines and text after "#" are ignored.
#   loops <m>                      vertexless loop count (lines accumulate)
#   x <vertex-id> <e0> <e1> <e2> <e3>   vertex with edge ids at slots 0..3
#   leg <label> <edge-id>          degree-one end of <edge-id>
# Every edge id must occur exactly twice across all slot/leg positions.


def _lines(text: str):
    """(line number, tokens) of each line of ``.vld`` or ``.qtl`` text that
    holds more than a comment.  Lines end at "\\n" only, and a ``#`` comment
    runs to the end of its line."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def parse_tangle(text: str, source: str = "<string>") -> Tangle:
    """Parse ``.vld`` text into a :class:`Tangle`.

    Vertices are numbered in order of appearance.  Raises :class:`VldError`
    with the offending line on malformed input.
    """
    occurrences: dict[str, list[tuple[Endpoint, int]]] = {}
    vertex_index: dict[str, int] = {}
    leg_lines: dict[int, int] = {}
    loops = 0

    def note(edge_id: str, ep: Endpoint, lineno: int) -> None:
        occurrences.setdefault(edge_id, []).append((ep, lineno))

    for lineno, tokens in _lines(text):
        kw = tokens[0]
        if kw == "loops":
            if len(tokens) != 2:
                raise VldError("expected: loops <count>", source, lineno)
            try:
                m = int(tokens[1])
            except ValueError:
                raise VldError(f"loop count {tokens[1]!r} is not an integer", source, lineno)
            if m < 0:
                raise VldError("loop count must be nonnegative", source, lineno)
            loops += m
        elif kw == "x":
            if len(tokens) != 6:
                raise VldError("expected: x <vertex-id> <e0> <e1> <e2> <e3>", source, lineno)
            name = tokens[1]
            if name in vertex_index:
                raise VldError(f"duplicate vertex id {name!r}", source, lineno)
            v = len(vertex_index)
            vertex_index[name] = v
            for s, edge_id in enumerate(tokens[2:6]):
                note(edge_id, (v, s), lineno)
        elif kw == "leg":
            if len(tokens) != 3:
                raise VldError("expected: leg <label> <edge-id>", source, lineno)
            try:
                label = int(tokens[1])
            except ValueError:
                raise VldError(f"leg label {tokens[1]!r} is not an integer", source, lineno)
            if label < 1:
                raise VldError("leg labels start at 1", source, lineno)
            if label in leg_lines:
                raise VldError(f"duplicate leg label {label}", source, lineno)
            leg_lines[label] = lineno
            note(tokens[2], (LEG, label), lineno)
        else:
            raise VldError(f"unknown directive {kw!r}", source, lineno)

    arity = len(leg_lines)
    if leg_lines and sorted(leg_lines) != list(range(1, arity + 1)):
        missing = sorted(set(range(1, max(leg_lines) + 1)) - set(leg_lines))
        raise VldError(f"leg labels are not contiguous 1..k (missing {missing})", source)
    edges = []
    for edge_id, occ in sorted(occurrences.items()):
        if len(occ) != 2:
            lines = ", ".join(str(ln) for _, ln in occ)
            raise VldError(
                f"edge id {edge_id!r} occurs {len(occ)} time(s) (lines {lines}); "
                "every edge id must occur exactly twice",
                source,
            )
        (ep_a, _), (ep_b, _) = occ
        edges.append((ep_a, ep_b))
    try:
        return build_tangle(len(vertex_index), edges, loops)
    except ValueError as exc:
        raise VldError(str(exc), source) from exc


def read_source(path: str) -> str:
    """The UTF-8 text of a ``.vld`` or ``.qtl`` file; undecodable bytes are a
    :class:`VldError` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise VldError(str(exc), str(path)) from exc


def load_tangle(path: str) -> Tangle:
    return parse_tangle(read_source(path), source=str(path))


def serialize_tangle(t: Tangle) -> str:
    """Serialize to ``.vld`` text; ``parse_tangle`` recovers an equal tangle."""
    edge_ids: dict[Endpoint, str] = {}
    partner = partner_map(t)

    def name_for(ep: Endpoint) -> str:
        edge = min(ep, partner[ep])  # an edge is named by its lesser endpoint
        if edge not in edge_ids:
            edge_ids[edge] = f"e{len(edge_ids)}"
        return edge_ids[edge]

    lines = []
    if t.loop_count:
        lines.append(f"loops {t.loop_count}")
    for v in range(t.num_vertices):
        ids = " ".join(name_for((v, s)) for s in range(4))
        lines.append(f"x v{v} {ids}")
    for i in range(1, t.arity + 1):
        lines.append(f"leg {i} {name_for((LEG, i))}")
    return "\n".join(lines) + ("\n" if lines else "")


def save_tangle(t: Tangle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_tangle(t))


# ---------------------------------------------------------------------------
# Structural helpers


def partner_map(t: Tangle) -> dict[Endpoint, Endpoint]:
    """Map each endpoint to the opposite endpoint of its edge."""
    partner: dict[Endpoint, Endpoint] = {}
    for a, b in t.edges:
        partner[a] = b
        partner[b] = a
    return partner


def relabel_legs(t: Tangle, perm: dict[int, int]) -> Tangle:
    """Relabel legs by the permutation ``perm`` of 1..k (label -> new label)."""
    if sorted(perm) != list(range(1, t.arity + 1)) or sorted(perm.values()) != sorted(perm):
        raise ValueError(f"perm must permute 1..{t.arity}")
    return _remap(t, {(LEG, old): (LEG, new) for old, new in perm.items()})


def _remap(
    t: Tangle,
    ends: dict[Endpoint, Endpoint],
    gone: Container[int] = (),
    drop: Container[tuple[Endpoint, Endpoint]] = (),
) -> Tangle:
    """``t`` without the vertices in ``gone`` and the edges in ``drop``, every
    other edge mapped endpoint by endpoint: one in ``ends`` to its image,
    a slot to the same slot of its vertex renumbered among the kept ones.

    The images in ``ends`` are the legs of the result, so ``ends`` covers
    every leg of ``t`` and every slot of a vertex in ``gone`` outside
    ``drop``; an endpoint left out makes `Tangle` reject the result.
    Relabelling legs, deleting a vertex and cutting a move pattern out are
    all this one map.  Endpoints that keep their name are reused, not
    copied: the edges of derivative terms live on in the key cache.
    """
    kept = [v for v in range(t.num_vertices) if v not in gone]
    where = {(old, s): (new, s) for new, old in enumerate(kept) if new != old for s in range(4)}
    where.update(ends)
    edges = []
    for a, b in t.edges:
        if (a, b) not in drop:
            a, b = where.get(a, a), where.get(b, b)
            edges.append((a, b) if a < b else (b, a))
    return Tangle(len(kept), len(ends), frozenset(edges), t.loop_count)


def knot_components(g: Tangle) -> int:
    """Number of knots of a diagram.

    Two edges belong to the same knot when some chain of vertices joins them
    through opposite slots (0 with 2, 1 with 3); every vertexless loop is one
    further knot.
    """
    if g.arity:
        raise ValueError("knot_components is defined for diagrams (arity 0) only")
    # Union-find over endpoints: an edge joins its two ends, a vertex joins
    # opposite slots; each class is one knot.
    parent = {ep: ep for edge in g.edges for ep in edge}

    def find(a: Endpoint) -> Endpoint:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joins = list(g.edges)
    joins += [((v, s), (v, s + 2)) for v in range(g.num_vertices) for s in (0, 1)]
    for a, b in joins:
        parent[find(a)] = find(b)
    return len({find(a) for a in parent}) + g.loop_count


# ---------------------------------------------------------------------------
# Canonical form
#
# Every vertex fixes its slot cycle up to rotation by two, so a traversal
# from a start vertex u at rotation r in {0, 2} labels u's component without
# any choice: vertices are visited breadth-first in label order, each reading
# its slots (s + r) % 4 for s = 0..3, and a newly reached vertex takes the
# next label and the rotation that puts its arrival slot in {0, 1}.  Listing
# the partner of every visited slot, as (label, rotated slot) or (LEG, label),
# encodes the component under that labeling.
#
# Legs are fixed pointwise, so a component touching legs has one admissible
# start: the vertex at its lowest leg, rotated to put that leg's slot in
# {0, 1}.  A closed component of c vertices is keyed by the minimum code over
# its 2c starts.  Every such code has 4c entries, so each walk after the
# first is read against the least code so far and stops at its first entry
# that exceeds it; only walks that tie it or beat it run to the end.  A
# symmetric component (a ring) still costs O(c) per walk and O(c^2) in all,
# but most walks stop within a few entries: keying closed diagrams of 1-12
# vertices took 0.066 instead of 0.14 ms per key on a 2.1 GHz Xeon.  Keys
# are equal iff the tangles are isomorphic (with legs fixed pointwise).

#: Most tangles whose keys `canonical_key` keeps, by their fields rather
#: than the tangles themselves (which would keep their plans alive); the
#: least recently used goes first, so a long run keying many distinct
#: tangles holds bounded memory: about 2.6 KB per entry, 1.3 MiB when full.
#: Reuse is short-range: nearly every hit is on a tangle of 0-2 vertices or
#: repeats a key made in the same probe, so over 4,000 seeded
#: characterization probes 512 entries kept 4,678 of the 5,403 hits that
#: 4,096 got, in about 9 MiB less memory.
KEY_CACHE_BOUND = 1 << 9


class CacheInfo(NamedTuple):
    """Counts of a cache: hits and misses since import, its current size
    and its bound (None for `plan_cache_info`, whose plans live on their
    tangles)."""

    hits: int
    misses: int
    size: int | None
    bound: int | None

    @classmethod
    def of(cls, cached) -> CacheInfo:
        """The counts of a ``functools.lru_cache`` wrapper."""
        info = cached.cache_info()
        return cls(info.hits, info.misses, info.currsize, info.maxsize)


def key_cache_info() -> CacheInfo:
    """Hits and misses of `canonical_key`'s cache since import, its current
    size and its bound."""
    return CacheInfo.of(_canonical_key)


def canonical_key(t: Tangle) -> bytes:
    """Canonical byte-string key of the isomorphism class of ``t``."""
    return _canonical_key(t.num_vertices, t.arity, t.edges, t.loop_count)


@functools.lru_cache(maxsize=KEY_CACHE_BOUND)
def _canonical_key(
    num_vertices: int, arity: int, edges: frozenset[tuple[Endpoint, Endpoint]], loop_count: int
) -> bytes:
    partner = dict(edges)
    partner.update((b, a) for a, b in edges)

    def traverse(
        u: int, r: int, best: tuple[Endpoint, ...] = ()
    ) -> tuple[tuple[Endpoint, ...] | None, dict[int, int]]:
        # Against a code ``best`` of the same length: None as soon as the
        # code is known to exceed it.
        label, rot, order, code = {u: 0}, {u: r}, [u], []
        tied = bool(best)  # every entry so far equals best's
        for x in order:  # grows while it is walked: breadth-first
            rx = rot[x]
            for s in range(4):
                # Rotating by 0 or 2 is an xor: (s + r) % 4 == s ^ r.
                w, sw = partner[(x, s ^ rx)]
                if w == LEG:
                    entry = (LEG, sw)
                else:
                    if w not in label:
                        label[w], rot[w] = len(order), sw & 2
                        order.append(w)
                    entry = (label[w], sw ^ rot[w])
                if tied and entry != best[len(code)]:
                    if entry > best[len(code)]:
                        return None, label
                    tied = False
                code.append(entry)
        return tuple(code), label

    reached: set[int] = set()
    leg_codes = []
    for i in range(1, arity + 1):
        w, sw = partner[(LEG, i)]
        if w == LEG and sw > i:
            leg_codes.append(((LEG, sw),))
        elif w != LEG and w not in reached:
            code, label = traverse(w, sw & 2)
            reached.update(label)
            leg_codes.append(code)
    closed_codes = []
    for u in range(num_vertices):
        if u not in reached:
            best, component = traverse(u, 0)
            reached.update(component)
            for w in component:
                for r in (0, 2) if w != u else (2,):
                    best = traverse(w, r, best)[0] or best
            closed_codes.append(best)
    return repr(
        (num_vertices, arity, loop_count, leg_codes, sorted(closed_codes))
    ).encode("ascii")
