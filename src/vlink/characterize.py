"""Desk-scale checks of the partition-function characterization machinery.

Four families of evidence about which tensors arise as n-state partition
functions:

* kernel vanishing: gluing the determinant tangle on 2(n+1) legs to any
  2(n+1)-tangle evaluates to zero under every n-state model, while the
  determinant on 2n legs does not (the negative control);
* the Gram matrix of glued tangle pairs is positive semidefinite for real
  models;
* a rank probe comparing the pairing Gram rank with the tensor span rank
  (equal for real models, possibly smaller for complex ones since the
  pairing has no conjugation);
* the derivative tangle reproduces directional derivatives of the partition
  function, checked against central finite differences.

Tangle enumeration walks the order in which `canonical_key` reads a tangle
(legs 1..k, then each reached vertex's slots 0..3) and at each open endpoint
chooses its partner, so each candidate comes out already in that labelling.
A class whose every vertex is joined to a leg is built once; a closed
component can come out once per start vertex and rotation and per order
among the other closed components, and canonical keys remove those repeats.
The cost is one `Tangle` and one key per candidate: (k, max_vertices) =
(4, 3) makes 51,540 candidates for 46,374 classes, where a walk over every
perfect matching of up to 16 endpoints makes over two million.  The result
is sorted by canonical key.

A basis depends on (arity, max_vertices) alone, so `gram_psd` and
`nondegeneracy_probe` take theirs from a cache of at most
`BASIS_CACHE_BOUND` tuples, least recently used first out
(`basis_cache_info` reports it); `enumerate_tangles` itself builds a new
list on every call and keeps nothing.  A cached basis holds about 1 KB per
tangle (10.1 MiB at (12, 0), 10,395 tangles; 6.5 MiB at (0, 4), 6,584),
less than the 16 |B|^2 bytes of its Gram once |B| exceeds 64.  A Gram of
more than `GRAM_BYTES_BOUND` bytes is refused with a ValueError once the
basis is enumerated, and the Gram is allocated before any row is
evaluated, so one that cannot be allocated fails there too.  A refused
Gram, or rows or a Gram that cannot be allocated, empty the cache, so no
basis too large to use stays behind.

A basis is mostly leg relabellings of a few interior shapes, and the plans
of such tangles at n compile to one program (`execute_plan`'s initial
nodes and merges) that differs only in the final leg transpose.  So a
basis keeps, per n, a program table made at its first Gram at n: the
first tangle of each (loop count, program), and for every tangle its
program and where each of its legs sits in that program's tensor.  That
is O(|B| k) integers.  A Gram evaluates only the first tangles, through
`tangle_tensor` like every other tangle (one plan lookup per program),
and gathers every row from their tensors in one `np.take`, without a
program hash: the same bits each tangle's own evaluation would give.  At
n=2, (4, 1) has 60 tangles and 10 programs, (4, 2) 1,470 and 235, (6, 1)
510 and 10, (6, 2) 18,270 and 253.  The tables go when their basis
leaves the cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import QuantumTangle, det_tangle, qt_glue, tangle_derivative
from .contraction import plan_contraction
from .diagram import LEG, CacheInfo, Endpoint, Tangle, build_tangle, canonical_key
from .model import VertexModel, pair, partition_function, qt_evaluate, tangle_tensor

__all__ = [
    "BASIS_CACHE_BOUND",
    "ENUMERATION_ENDPOINT_BUDGET",
    "GRAM_BYTES_BOUND",
    "basis_cache_info",
    "enumerate_tangles",
    "random_tangle",
    "KernelReport",
    "kernel_residual",
    "kernel_probe",
    "GramReport",
    "gram_psd",
    "nondegeneracy_probe",
    "fd_check",
]

#: Exhaustive enumeration refuses beyond this many endpoints (k + 4v).
ENUMERATION_ENDPOINT_BUDGET = 16

#: Most enumerated bases `gram_psd` and `nondegeneracy_probe` keep, keyed
#: by (arity, max_vertices), least recently used first out.
BASIS_CACHE_BOUND = 8

#: Most bytes of a Gram matrix (16 |B|^2 for a basis B) that `gram_psd` and
#: `nondegeneracy_probe` allocate; a larger one is refused once the basis
#: is enumerated.
GRAM_BYTES_BOUND = 1 << 30


def _candidates(k: int, max_vertices: int) -> list[Tangle]:
    """Loop-free k-tangles with at most ``max_vertices`` vertices, each in
    the labelling `canonical_key` reads: at least one per isomorphism class,
    and exactly one per class whose every vertex is joined to a leg.

    The walk reads legs 1..k in order and pairs each unmatched one with a
    later unmatched leg or with a fresh vertex, which takes the next id and
    arrives at slot 0 or 1.  Before the next leg, the slots of every reached
    vertex are read in id order, 0..3; each open one is paired with an
    unmatched leg, a later open slot, or a fresh vertex arriving at slot 0
    or 1.  Once every leg is matched, the tangle is emitted and each further
    closed component starts at a fresh vertex's slot 0.  Only closed
    components (from their 2c starts and in any order) can repeat a class.
    Every open endpoint always has a partner, so every branch emits.
    """
    slots = [(v, s) for v in range(max_vertices) for s in range(4)]
    legs = [(LEG, i) for i in range(k + 1)]  # legs[0] is unused
    slot_open = [True] * len(slots)
    leg_open = [False] + [True] * k
    out: list[Tangle] = []

    def walk(p: int, nv: int, leg: int, edges: tuple) -> None:
        # Slots below p and legs below leg are matched; nv vertices exist.
        end = 4 * nv
        while p < end and not slot_open[p]:
            p += 1
        if p < end:
            here = slots[p]
            slot_open[p] = False
            for j in range(leg, k + 1):
                if leg_open[j]:
                    leg_open[j] = False
                    walk(p + 1, nv, leg, edges + ((legs[j], here),))
                    leg_open[j] = True
            for q in range(p + 1, end):
                if slot_open[q]:
                    slot_open[q] = False
                    walk(p + 1, nv, leg, edges + ((here, slots[q]),))
                    slot_open[q] = True
            if nv < max_vertices:
                for q in (end, end + 1):
                    slot_open[q] = False
                    walk(p + 1, nv + 1, leg, edges + ((here, slots[q]),))
                    slot_open[q] = True
            slot_open[p] = True
            return
        while leg <= k and not leg_open[leg]:
            leg += 1
        if leg <= k:
            here = legs[leg]
            leg_open[leg] = False
            for j in range(leg + 1, k + 1):
                if leg_open[j]:
                    leg_open[j] = False
                    walk(p, nv, leg + 1, edges + ((here, legs[j]),))
                    leg_open[j] = True
            if nv < max_vertices:
                for q in (end, end + 1):
                    slot_open[q] = False
                    walk(p, nv + 1, leg + 1, edges + ((here, slots[q]),))
                    slot_open[q] = True
            leg_open[leg] = True
            return
        out.append(Tangle(nv, k, frozenset(edges), 0))
        if nv < max_vertices:
            walk(end, nv + 1, leg, edges)

    walk(0, 0, 1, ())
    # `walk` refers to itself through its closure; unbinding it frees the
    # walk and its state now instead of at the next garbage collection.
    del walk
    return out


def enumerate_tangles(k: int, max_vertices: int) -> list[Tangle]:
    """All loop-free k-tangles with at most ``max_vertices`` vertices, up to
    isomorphism, sorted by canonical key."""
    if k < 0:
        raise ValueError(f"arity must be nonnegative, got {k}")
    if max_vertices < 0:
        raise ValueError(f"max_vertices must be nonnegative, got {max_vertices}")
    if k % 2:
        raise ValueError("arity must be even")
    if k + 4 * max_vertices > ENUMERATION_ENDPOINT_BUDGET:
        raise ValueError(
            f"endpoint budget exceeded: k + 4*max_vertices = {k + 4 * max_vertices} "
            f"> {ENUMERATION_ENDPOINT_BUDGET}"
        )
    seen: dict[bytes, Tangle] = {}
    for t in _candidates(k, max_vertices):
        seen.setdefault(canonical_key(t), t)
    return [seen[key] for key in sorted(seen)]


def random_tangle(
    rng: np.random.Generator,
    arity: int,
    num_vertices: int,
    loop_count: int = 0,
) -> Tangle:
    """Uniform random wiring: shuffle all endpoints, pair them consecutively."""
    if arity < 0:
        raise ValueError(f"arity must be nonnegative, got {arity}")
    if arity % 2:
        raise ValueError("arity must be even")
    points: list[Endpoint] = [(LEG, i) for i in range(1, arity + 1)]
    points += [(v, s) for v in range(num_vertices) for s in range(4)]
    order = rng.permutation(len(points))
    shuffled = [points[i] for i in order]
    edges = [(shuffled[2 * i], shuffled[2 * i + 1]) for i in range(len(points) // 2)]
    return build_tangle(num_vertices, edges, loop_count)


# ---------------------------------------------------------------------------
# Kernel of the partition function


def kernel_residual(model: VertexModel, t: Tangle) -> float:
    """|f_R(det(n+1) . t)| for a 2(n+1)-tangle t; zero in exact arithmetic."""
    m = model.n + 1
    if t.arity != 2 * m:
        raise ValueError(f"need a {2 * m}-tangle for an n={model.n} model, got arity {t.arity}")
    return float(np.abs(qt_evaluate(model, qt_glue(det_tangle(m), QuantumTangle.of(t)))))


def _saturating_pow(base: float, exponent: int) -> float:
    """``base ** exponent``, or infinity where Python's float power raises
    OverflowError past the float range, as numpy's would."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class KernelReport:
    n: int
    residuals: tuple[float, ...]
    max_scaled_residual: float
    negative_control: float

    def passed(self, tol: float = 1e-8) -> bool:
        """Every scaled residual is at most ``tol`` and the negative control
        exceeds 1e-3: where the control vanishes too (a zero model, say),
        vanishing residuals show nothing."""
        return self.max_scaled_residual <= tol and self.negative_control > 1e-3


def kernel_probe(
    model: VertexModel,
    samples: int,
    max_vertices: int,
    rng: np.random.Generator,
) -> KernelReport:
    """Evaluate kernel residuals on random tangles, with a negative control.

    Residuals are scaled by 1 + |R|^v, for random tangles of 0 to
    ``max_vertices`` vertices.  The control glues the determinant tangle on
    2n legs (one size too small) to random 2n-tangles and records the
    largest magnitude, which should be far from zero.  Control tangles have
    1 to max(1, ``max_vertices``) vertices: glued to a vertex-free one,
    det(n) gives a signed sum of powers of n whatever R is, so a model that
    vanishes everywhere would still pass.  A NaN among the draws makes its
    figure NaN, so the report fails whatever the order of the draws.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if max_vertices < 0:
        raise ValueError(f"max_vertices must be nonnegative, got {max_vertices}")
    drawn = []  # (v, |f_R(det(m) . t)|) for random 2m-tangles t, m = n + 1 first
    for m, fewest in ((model.n + 1, 0), (model.n, 1)):
        for _ in range(samples):
            v = int(rng.integers(fewest, max(fewest, max_vertices) + 1))
            t = random_tangle(rng, 2 * m, v)
            value = qt_evaluate(model, qt_glue(det_tangle(m), QuantumTangle.of(t)))
            drawn.append((v, float(np.abs(value))))
    kernel = drawn[:samples]
    control = float(np.max([value for _, value in drawn[samples:]]))
    norm = model.norm
    scaled = float(np.max([r / (1.0 + _saturating_pow(norm, v)) for v, r in kernel]))
    return KernelReport(model.n, tuple(r for _, r in kernel), scaled, control)


# ---------------------------------------------------------------------------
# Gram positivity and the rank probe


@dataclass(frozen=True)
class GramReport:
    basis: tuple[Tangle, ...]
    gram: np.ndarray
    min_eigenvalue: float

    def passed(self, tol: float = 1e-8) -> bool:
        """The least eigenvalue is at least -``tol`` times 1 + the Gram's
        Frobenius norm.  Where every entry is finite but the sum of their
        squares overflows, both sides are taken in units of the largest
        real or imaginary part, since an infinite scale would pass any
        Gram."""
        norm = float(np.linalg.norm(self.gram))
        if norm == math.inf:
            top = max(float(np.abs(self.gram.real).max()), float(np.abs(self.gram.imag).max()))
            norm = float(np.linalg.norm(self.gram / top))
            return self.min_eigenvalue / top >= -tol * (1.0 / top + norm)
        return self.min_eigenvalue >= -tol * (1.0 + norm)


def basis_cache_info() -> CacheInfo:
    """Hits and misses of the cache of enumerated bases behind `gram_psd`
    and `nondegeneracy_probe` since import, its current size and its
    bound."""
    return CacheInfo.of(_basis)


class _Programs:
    """A basis's program table at one n (see the module docstring): each
    program's first tangle, and per basis tangle the flat offset of its
    program's tensor and the flat stride of each of its legs in it.  That
    is O(|B| k) integers, never O(|B| n^k)."""

    def __init__(self, basis: tuple[Tangle, ...], arity: int, n: int) -> None:
        self.firsts: list[Tangle] = []
        known: dict[tuple, int] = {}  # program -> its index in self.firsts
        inverses = []  # per program, the inverse of its first tangle's leg transpose
        program = np.empty(len(basis), dtype=np.intp)
        axes = np.empty((len(basis), arity), dtype=np.intp)
        for i, t in enumerate(basis):
            c = plan_contraction(t, n).compiled
            p = known.setdefault((t.loop_count, c.num_vertices, c.init, c.steps), len(self.firsts))
            if p == len(self.firsts):
                self.firsts.append(t)
                inverses.append(sorted(range(arity), key=c.transpose.__getitem__))
            program[i] = p
            axes[i] = [inverses[p][x] for x in c.transpose]
        self.offsets = program * n**arity
        self.strides = n ** (arity - 1 - axes)

    def fill(self, model: VertexModel, rows: np.ndarray) -> None:
        """Evaluate each program's first tangle under ``model``, and gather
        every row from those tensors, its legs in its own order."""
        n, arity = model.n, self.strides.shape[1]
        tensors = np.empty((len(self.firsts), n**arity), dtype=complex)
        for tensor, t in zip(tensors, self.firsts):
            tensor[:] = tangle_tensor(model, t).ravel()
        # digits[:, j]: the leg indices of flat position j, in C order.
        digits = np.indices((n,) * arity).reshape(arity, n**arity)
        index = self.offsets[:, None] + self.strides @ digits
        # Every index is in range; "clip" lets take write into rows unbuffered.
        np.take(tensors.ravel(), index, out=rows, mode="clip")


class _Basis(tuple):
    """An enumerated basis: a tuple, which no caller can change, that also
    keeps its program table at each n it was evaluated at, so that the
    tables go when the basis goes."""

    def __init__(self, tangles) -> None:
        self.programs: dict[int, _Programs] = {}


@functools.lru_cache(maxsize=BASIS_CACHE_BOUND)
def _basis(arity: int, max_vertices: int) -> _Basis:
    """`enumerate_tangles(arity, max_vertices)` as a `_Basis`."""
    return _Basis(enumerate_tangles(arity, max_vertices))


def _basis_gram(
    model: VertexModel, arity: int, max_vertices: int
) -> tuple[tuple[Tangle, ...], np.ndarray, np.ndarray]:
    """The enumerated basis, its tensors as rows, and their Gram matrix
    ``rows @ rows.T``.  The basis is never empty, so neither is the matrix.
    A Gram above `GRAM_BYTES_BOUND` bytes is a ValueError, and so is one
    that is not finite."""
    basis = _basis(arity, max_vertices)
    n = model.n
    nbytes = 16 * len(basis) ** 2
    if nbytes > GRAM_BYTES_BOUND:
        _basis.cache_clear()  # keep no basis whose Gram is refused
        raise ValueError(
            f"the Gram of {len(basis)} basis tangles (arity {arity}, max_vertices "
            f"{max_vertices}) needs {nbytes} bytes, above the bound of "
            f"{GRAM_BYTES_BOUND}"
        )
    try:
        # The Gram first: one that cannot be allocated fails before any row
        # is evaluated or any plan made.
        gram = np.empty((len(basis),) * 2, dtype=complex)
        rows = np.empty((len(basis), n**arity), dtype=complex)
        programs = basis.programs.get(n)
        if programs is None:
            programs = basis.programs[n] = _Programs(basis, arity, n)
        programs.fill(model, rows)
        np.matmul(rows, rows.T, out=gram)
    except MemoryError:
        _basis.cache_clear()  # keep no basis, nor its tables, whose Gram does not fit
        raise
    # A row entry that is not finite makes its diagonal entry not finite, so
    # this one check also covers the rows.
    if not np.isfinite(gram).all():
        raise ValueError(
            f"the Gram of {len(basis)} basis tangles (arity {arity}, max_vertices "
            f"{max_vertices}) is not finite (the evaluation overflowed)"
        )
    return basis, rows, gram


def _rank(a: np.ndarray, rel_tol: float) -> int:
    """How many singular values of ``a`` are at or above ``rel_tol`` times the
    largest."""
    sv = np.linalg.svd(a, compute_uv=False)
    top = sv.max()
    if top == 0.0:
        return 0
    return int(np.sum(sv >= rel_tol * top))


def gram_psd(model: VertexModel, max_vertices: int) -> GramReport:
    """Gram matrix of glued 4-tangle basis pairs for a real model; PSD if the
    model's tensors are honest real partition-function data.

    Entries are pair(f(T), f(T')), equal to f(T . T') by the pairing
    identity.  A Gram that is not finite (the model's values overflowed) is
    a ValueError naming the basis, raised before any eigenvalue is taken.
    """
    if not model.is_real:
        raise ValueError("gram_psd needs a real model")
    basis, _, gram = _basis_gram(model, 4, max_vertices)
    # rows @ rows.T is exactly symmetric, and eigvalsh reads one triangle.
    eigs = np.linalg.eigvalsh(gram.real)
    return GramReport(basis, gram, float(eigs.min()))


def nondegeneracy_probe(model: VertexModel, arity: int, max_vertices: int) -> tuple[int, int]:
    """(gram_rank, span_rank) over the enumerated basis.

    Ranks count singular values at or above 1e-8 times the largest.
    Equality certifies the pairing is nondegenerate on the span; real models
    always pass, while complex models can drop Gram rank on isotropic
    directions.  A Gram that is not finite (the model's values overflowed)
    is a ValueError naming the basis, raised before any rank is taken.
    """
    _, rows, gram = _basis_gram(model, arity, max_vertices)
    return _rank(gram, 1e-8), _rank(rows, 1e-8)


# ---------------------------------------------------------------------------
# Derivative tangles vs finite differences


def fd_check(
    model: VertexModel,
    g: Tangle,
    direction: VertexModel,
    h: float = 1e-5,
) -> float:
    """|central difference - pairing with the derivative tangle| at ``g``.

    The derivative tangle evaluates to a 4-leg tensor; pairing it with the
    direction tensor gives the exact directional derivative, so the return
    value is the finite-difference error (zero up to O(h^2) terms, exactly
    zero for diagrams with fewer than three vertices).  A step ``h`` that is
    zero or not finite is a ValueError, as is one too small to move the
    model along a nonzero direction; a negative one serves as well as its
    absolute value.  An error that is not finite (the evaluation overflowed)
    is a ValueError too.
    """
    if not (h and math.isfinite(h)):
        raise ValueError(f"step h must be finite and nonzero, got {h!r}")
    plus, minus = model.perturbed(direction, +h), model.perturbed(direction, -h)
    if np.array_equal(plus.entries, minus.entries) and direction.entries.any():
        raise ValueError(f"step h = {h!r} does not move the model: R + hS equals R - hS")
    central = (partition_function(plus, g) - partition_function(minus, g)) / (2.0 * h)
    # An empty derivative evaluates to the 0-d zero, which pairs to 0
    # against the 4-leg direction tensor.
    paired = pair(qt_evaluate(model, tangle_derivative(g)), direction.entries)
    error = abs(central - paired)
    if not math.isfinite(error):
        raise ValueError(
            f"the finite-difference error at step h = {h!r} is not finite (the evaluation overflowed)"
        )
    return error
