"""Gluing products, formal linear combinations, and derived tangles.

Gluing two k-tangles identifies legs with equal labels; every chain of
identified legs collapses to a single edge and every closed chain becomes a
vertexless loop.  For k = 0 this is the disjoint union of diagrams.  The
product of tangles of different arities is zero, which is why linear
combinations (:class:`QuantumTangle`) are the natural ambient objects.

Also here: the matching tangles (vertex-free tangles pairing legs), their
signed sum over permutations (the determinant tangle, whose gluings span the
kernel of every n-state partition function with 2(n+1) legs), and the
derivative tangle of a diagram (the formal derivative of the partition
function with respect to the vertex tensor).  Determinant tangles depend on
m alone, so each is built once per process and shared.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import os
from dataclasses import dataclass

from .diagram import (
    LEG,
    Endpoint,
    Tangle,
    VldError,
    _lines,
    _remap,
    build_tangle,
    canonical_key,
    load_tangle,
    read_source,
)

__all__ = [
    "COEFF_PRUNE_TOL",
    "DET_ARITY_BOUND",
    "glue",
    "disjoint_union",
    "QuantumTangle",
    "qt_add",
    "qt_scale",
    "qt_glue",
    "matching_tangle",
    "permutation_matching",
    "det_tangle",
    "tangle_derivative",
    "load_quantum_tangle",
]

#: Terms with |coefficient| at or below this are dropped.
COEFF_PRUNE_TOL = 1e-14

#: ``det_tangle(m)`` has m! terms; refuse beyond this bound.  It is also
#: how many combinations ``det_tangle`` keeps: one for every allowed m.
DET_ARITY_BOUND = 6


def glue(t: Tangle, u: Tangle) -> Tangle:
    """Glue equal-labeled legs of two k-tangles into a closed product.

    Vertices of ``u`` are shifted past those of ``t``.  Each maximal chain of
    edges through identified legs becomes one edge; chains closing on
    themselves become vertexless loops.

    Edges touching no leg pass straight through, so the cost is one pass
    over both edge sets plus a walk over the k legs; the result is validated
    once, as a diagram.  Only the four fields of each side are read, so
    the unvalidated cut of a move rewrite (`moves._Cut`) glues as a tangle.
    """
    if t.arity != u.arity:
        raise ValueError(f"arity mismatch: cannot glue a {t.arity}-tangle to a {u.arity}-tangle")
    shift = t.num_vertices
    edges = []
    # t_far[l] and u_far[l]: the other end of that side's edge at leg l; a
    # leg end there means the chain goes on through the other side.
    t_far: dict[int, Endpoint] = {}
    for a, b in t.edges:  # sorted pairs: a leg end always comes first
        if a[0] != LEG:
            edges.append((a, b))
        else:
            t_far[a[1]] = b
            if b[0] == LEG:
                t_far[b[1]] = a
    u_far: dict[int, Endpoint] = {}
    for a, b in u.edges:
        if a[0] != LEG:
            edges.append(((a[0] + shift, a[1]), (b[0] + shift, b[1])))
        elif b[0] == LEG:
            u_far[a[1]] = b
            u_far[b[1]] = a
        else:
            u_far[a[1]] = (b[0] + shift, b[1])

    walked: set[int] = set()
    for near, far in ((t_far, u_far), (u_far, t_far)):
        for label, start in near.items():
            if start[0] == LEG or label in walked:
                continue
            sides = (far, near)
            side = 0
            while True:  # leave each leg by the side it was not entered by
                walked.add(label)
                end = sides[side][label]
                if end[0] != LEG:
                    break
                label = end[1]
                side ^= 1
            edges.append((start, end) if start < end else (end, start))
    loops = t.loop_count + u.loop_count
    for label in t_far:
        if label not in walked:  # a chain of legs with no end: a closed loop
            loops += 1
            sides, side = (u_far, t_far), 0
            while label not in walked:
                walked.add(label)
                label = sides[side][label][1]
                side ^= 1
    return Tangle(t.num_vertices + u.num_vertices, 0, frozenset(edges), loops)


def disjoint_union(g: Tangle, h: Tangle) -> Tangle:
    """Disjoint union of two diagrams (arity 0 on both sides)."""
    if g.arity or h.arity:
        raise ValueError("disjoint_union is defined for diagrams (arity 0) only")
    return glue(g, h)


# ---------------------------------------------------------------------------
# Formal linear combinations


@dataclass(frozen=True)
class QuantumTangle:
    """A finite complex-linear combination of tangles.

    Terms are (tangle, coefficient) pairs, one per isomorphism class, sorted
    by canonical key.  Keys are made only where terms can merge (`qt_add`,
    `qt_glue`, `det_tangle`, `tangle_derivative`, `.qtl` loading) or are
    compared (`coefficient`); `of` and `qt_scale` make none.  Every
    coefficient is finite and above `COEFF_PRUNE_TOL` in absolute value: a
    product or sum that overflows is a ValueError.  Instances are immutable;
    use the ``qt_*`` functions to build new ones.
    """

    terms: tuple[tuple[Tangle, complex], ...]

    @staticmethod
    def zero() -> "QuantumTangle":
        return QuantumTangle(())

    @staticmethod
    def of(t: Tangle, coeff: complex = 1.0) -> "QuantumTangle":
        return _combination([(t, coeff)])

    def coefficient(self, t: Tangle) -> complex:
        key = canonical_key(t)
        for u, c in self.terms:
            if canonical_key(u) == key:
                return c
        return 0j

    @property
    def arities(self) -> set[int]:
        return {t.arity for t, _ in self.terms}

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)


def _finite(z: complex) -> complex:
    """``complex(z)``; a NaN or infinite part is a ValueError."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"coefficient must be finite, got {z}")
    return z


def _combination(pairs) -> QuantumTangle:
    """The combination of the (tangle, coefficient) ``pairs``, in their
    order: a coefficient that is not finite is a ValueError, and one at or
    below `COEFF_PRUNE_TOL` is dropped.  The modulus is ``math.hypot``'s,
    which is ``abs``'s but inf where a finite coefficient's overflows."""
    terms = []
    for t, c in pairs:
        c = _finite(c)
        if math.hypot(c.real, c.imag) > COEFF_PRUNE_TOL:
            terms.append((t, c))
    return QuantumTangle(tuple(terms))


def _from_items(items) -> QuantumTangle:
    """Merge ``items`` by isomorphism class, summing coefficients, into a
    combination sorted by canonical key."""
    acc: dict[bytes, tuple[Tangle, complex]] = {}
    for t, c in items:
        key = canonical_key(t)
        if key in acc:
            rep, prev = acc[key]
            acc[key] = (rep, prev + c)
        else:
            acc[key] = (t, c)
    return _combination(acc[key] for key in sorted(acc))


def qt_add(a: QuantumTangle, b: QuantumTangle) -> QuantumTangle:
    return _from_items([*a, *b])


def qt_scale(z: complex, a: QuantumTangle) -> QuantumTangle:
    """``z`` times each term of ``a``, in term order.  ``z`` itself must be
    finite, even when ``a`` has no terms."""
    z = _finite(z)
    return _combination((t, z * c) for t, c in a)


def qt_glue(a: QuantumTangle, b: QuantumTangle) -> QuantumTangle:
    """Bilinear extension of :func:`glue`; cross-arity products vanish."""
    items = []
    for t, ct in a:
        for u, cu in b:
            if t.arity != u.arity:
                continue
            items.append((glue(t, u), ct * cu))
    return _from_items(items)


# ---------------------------------------------------------------------------
# Matching tangles and the determinant tangle


def matching_tangle(pairs) -> Tangle:
    """Vertex-free tangle whose edges pair legs as in ``pairs``.

    ``pairs`` is an iterable of label pairs partitioning 1..2m.
    """
    return build_tangle(0, [((LEG, a), (LEG, b)) for a, b in pairs])


def permutation_matching(perm: tuple[int, ...]) -> Tangle:
    """The 2m-tangle with edges {i, m + perm(i)} for a permutation of 0..m-1."""
    m = len(perm)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"not a permutation of 0..{m - 1}: {perm!r}")
    return matching_tangle((i + 1, m + perm[i] + 1) for i in range(m))


def _parity_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det_tangle(m: int) -> QuantumTangle:
    """Signed sum of all permutation matchings: sum_perm sgn(perm) T_perm.

    A 2m-tangle combination with m! terms.  Gluing it to any 2m-tangle with
    m > n yields an element of the kernel of the n-state partition function.
    """
    if m < 1:
        raise ValueError("det_tangle needs m >= 1")
    if m > DET_ARITY_BOUND:
        raise ValueError(
            f"det_tangle(m={m}) would have {m}! terms, above the bound m <= {DET_ARITY_BOUND}"
        )
    return _det_tangle(m)


@functools.lru_cache(maxsize=DET_ARITY_BOUND)
def _det_tangle(m: int) -> QuantumTangle:
    """`det_tangle(m)`, built once per m: a `QuantumTangle` is immutable, so
    every caller can share it."""
    return _from_items(
        (permutation_matching(perm), complex(_parity_sign(perm)))
        for perm in itertools.permutations(range(m))
    )


# ---------------------------------------------------------------------------
# Derivative tangles


def tangle_derivative(g: Tangle) -> QuantumTangle:
    """Formal derivative of a diagram: a 4-tangle combination, one pair of
    half-weight terms per vertex.

    Deleting a vertex frees its four edge ends; they become legs 1..4 in slot
    order, and again legs 3,4,1,2 (the rotation by two), each with weight 1/2.
    Pairing the result with a direction tensor S gives the directional
    derivative of the partition function at R along S.
    """
    if g.arity:
        raise ValueError("tangle_derivative is defined for diagrams (arity 0) only")
    items: list[tuple[Tangle, complex]] = []
    for v in range(g.num_vertices):
        for labels in ((1, 2, 3, 4), (3, 4, 1, 2)):
            ends = {(v, s): (LEG, label) for s, label in enumerate(labels)}
            items.append((_remap(g, ends, (v,)), 0.5 + 0j))
    return _from_items(items)


# ---------------------------------------------------------------------------
# .qtl manifests: "term <re> <im> <path-to-.vld>" per line


def load_quantum_tangle(path: str) -> QuantumTangle:
    """Load a linear combination from a ``.qtl`` manifest.

    Coefficient parts must be finite numbers, and so must the sum of the
    terms of each isomorphism class.  Diagram paths are resolved relative
    to the manifest's directory.
    """
    base = os.path.dirname(os.path.abspath(path))
    items = []
    for lineno, tokens in _lines(read_source(path)):
        if tokens[0] != "term" or len(tokens) != 4:
            raise VldError("expected: term <re> <im> <path>", str(path), lineno)
        try:
            re_part, im_part = float(tokens[1]), float(tokens[2])
        except ValueError:
            raise VldError("coefficient parts must be numbers", str(path), lineno)
        if not math.isfinite(re_part) or not math.isfinite(im_part):
            raise VldError("coefficient parts must be finite", str(path), lineno)
        sub = tokens[3]
        if not os.path.isabs(sub):
            sub = os.path.join(base, sub)
        items.append((load_tangle(sub), complex(re_part, im_part)))
    try:
        return _from_items(items)
    except ValueError as exc:  # a class's coefficients sum past the float range
        raise VldError(f"summed terms: {exc}", str(path)) from exc
