"""Vertex models and partition functions.

An n-state vertex model is a complex tensor R of shape (n, n, n, n) that is
invariant under swapping its first and last index pairs:
R[i, j, k, l] = R[k, l, i, j].  The indices follow the four slots of a vertex
in clockwise order, so positions 1,3 see the over-going strand and positions
2,4 the under-going one.

The partition function of a diagram G is

    f_R(G) = sum over edge colorings phi : E(G) -> {1..n} of
             prod over vertices of R[phi at slots 0..3]   times  n^loops,

with f_R(empty) = 1.  It is multiplicative over disjoint union.  For a
k-tangle the leg colors stay free and the result is a tensor of shape
(n,) * k, ordered by leg labels; gluing tangles corresponds to the bilinear
pairing of their tensors (no conjugation).  Every evaluation is a plain
complex ``np.ndarray`` of shape (n,) * k, 0-d for a diagram;
:func:`partition_function` alone returns a Python ``complex``.

The orthogonal group acting diagonally on all four indices fixes every
partition function, which is exercised by :func:`apply_orthogonal` together
with the Cayley transform generator for complex orthogonal matrices.
"""

from __future__ import annotations

import cmath
import functools
import json
import weakref
from dataclasses import dataclass

import numpy as np

from .algebra import QuantumTangle
from .contraction import _state_count, execute_plan, plan_contraction
from .diagram import CacheInfo, Tangle

__all__ = [
    "VertexModel",
    "symmetrize",
    "transmission_model",
    "strand_product_model",
    "knot_counting_model",
    "random_model",
    "random_orthogonal",
    "cayley_orthogonal",
    "load_model",
    "model_cache_info",
    "MODEL_CACHE_BOUND",
    "model_to_json",
    "save_model",
    "partition_function",
    "tangle_tensor",
    "qt_evaluate",
    "pair",
    "apply_orthogonal",
    "ORTHOGONALITY_TOL",
]

#: Frobenius tolerance on U^T U - I for apply_orthogonal.
ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class VertexModel:
    """State count, an integer of at least 1, and the swap-invariant vertex
    tensor, finite in every entry."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = _state_count(self.n)
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (n,) * 4:
            raise ValueError(f"entries must have shape {(n,) * 4}, got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("entries must be finite (no NaN or infinity)")
        swapped = entries.transpose(2, 3, 0, 1)
        if not np.array_equal(entries, swapped):
            raise ValueError(
                "entries are not swap-invariant (R[i,j,k,l] != R[k,l,i,j]); "
                "use symmetrize() if projection is intended"
            )
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @property
    def norm(self) -> float:
        """Frobenius norm of the vertex tensor."""
        return float(np.linalg.norm(self.entries.ravel()))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.entries.imag == 0.0))

    def perturbed(self, direction: "VertexModel", h: float) -> "VertexModel":
        """The model R + h * S for a swap-invariant direction S."""
        if direction.n != self.n:
            raise ValueError("direction must have the same state count")
        return VertexModel(self.n, self.entries + h * direction.entries)


def symmetrize(raw: np.ndarray) -> VertexModel:
    """Project an arbitrary rank-4 tensor onto swap-invariant models."""
    raw = np.asarray(raw, dtype=complex)
    if raw.ndim != 4 or len(set(raw.shape)) != 1:
        raise ValueError(f"expected shape (n, n, n, n), got {raw.shape}")
    sym = (raw + raw.transpose(2, 3, 0, 1)) / 2.0
    return VertexModel(raw.shape[0], sym)


# ---------------------------------------------------------------------------
# Stock models and generators


def transmission_model(n: int) -> VertexModel:
    """Colors pass straight through every crossing: R[i,j,k,l] = d_ik d_jl.

    Counts colorings constant on knots, so f_R(G) = n^knots; satisfies all
    three move conditions exactly.
    """
    return strand_product_model(np.eye(n))


def strand_product_model(a: np.ndarray) -> VertexModel:
    """R[i,j,k,l] = A[i,k] A[j,l] for a symmetric matrix A.

    Each strand passing a vertex picks up a factor of A, so the partition
    function is a product of tr(A^m) over knots.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("need a symmetric matrix for swap invariance")
    return VertexModel(a.shape[0], np.einsum("ik,jl->ijkl", a, a))


#: Symmetric matrix with double eigenvalue 1: all positive powers have trace 2.
KNOT_COUNT_MATRIX = np.array([[2.0, 1.0j], [1.0j, 0.0]])


def knot_counting_model() -> VertexModel:
    """Two-state model whose partition function is 2^knots on every diagram,
    despite failing the kink condition outright."""
    return strand_product_model(KNOT_COUNT_MATRIX)


def random_model(n: int, rng: np.random.Generator, real: bool = False) -> VertexModel:
    """Swap-symmetrized standard-normal model."""
    n = _state_count(n)
    raw = rng.standard_normal((n,) * 4)
    if not real:
        raw = raw + 1j * rng.standard_normal((n,) * 4)
    return symmetrize(raw)


def cayley_orthogonal(a: np.ndarray) -> np.ndarray:
    """Cayley transform (I - A)(I + A)^-1 of an antisymmetric matrix.

    The result U satisfies U^T U = I; for complex antisymmetric A this
    produces complex orthogonal (not unitary) matrices.
    """
    a = np.asarray(a, dtype=complex)
    if not np.allclose(a, -a.T, atol=1e-12):
        raise ValueError("need an antisymmetric matrix")
    eye = np.eye(a.shape[0])
    return np.linalg.solve(eye + a, eye - a)


def random_orthogonal(n: int, rng: np.random.Generator, real: bool = False) -> np.ndarray:
    """Random orthogonal matrix: QR-based when real, Cayley-based otherwise.

    The complex orthogonal group is unbounded, and an ill-conditioned
    transform amplifies round-off in every contraction it touches, so
    complex draws are rejected until |U|_F <= 3n.  An ``n`` that is not an
    integer of at least 1 is a ValueError naming it.
    """
    n = _state_count(n)
    if real:
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    while True:
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = cayley_orthogonal(0.3 * (raw - raw.T))
        if float(np.linalg.norm(u)) <= 3.0 * n:
            return u


# ---------------------------------------------------------------------------
# Model files: {"n": ..., "entries": [{"i","j","k","l","re","im"}, ...]}
# with 1-based indices; omitted entries are zero.

_INDEX_KEYS = ("i", "j", "k", "l")


def _integer(value) -> int:
    """``int(value)`` for integral numbers and digit strings; a boolean or a
    number with a fractional part is a TypeError, as an index would be."""
    if isinstance(value, bool) or (isinstance(value, float) and value != int(value)):
        raise TypeError(f"{json.dumps(value)} is not an integer")
    return int(value)


#: Most validated models `load_model` keeps; the least recently used goes
#: first.
MODEL_CACHE_BOUND = 16


def model_cache_info() -> CacheInfo:
    """Hits and misses of `load_model`'s cache since import, its current
    size and its bound."""
    return CacheInfo.of(_decode_model)


def load_model(path: str, project: bool = False) -> VertexModel:
    """Load a model from JSON; validates swap invariance unless ``project``.

    ``n`` and the indices ``i, j, k, l`` are integers (digit strings are
    accepted; booleans and fractions are not), the indices 1-based.
    ``re`` and ``im`` default to 0 and must be finite, and entries left out
    are zero.  Entries are decoded one by one in file order, each stored
    over any earlier one at its index, so of two duplicates the later one
    wins.

    The file is read on every call, but a text seen recently (with the same
    ``project``) is not decoded again: its validated model is shared, keyed
    by the text itself, so a rewritten file never reads stale.  Errors are
    not kept, and every one names the file, a tensor too large to allocate
    (a `MemoryError`) included.  `model_cache_info` reports the cache's hits
    and misses.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return _decode_model(fh.read(), project)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: malformed model file ({exc})") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except MemoryError as exc:
            raise MemoryError(f"{path}: {exc}") from exc


@functools.lru_cache(maxsize=MODEL_CACHE_BOUND)
def _decode_model(text: str, project: bool) -> VertexModel:
    """The model in a model file's ``text``; errors do not name the file."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed model file ({exc})") from exc
    try:
        n = _integer(doc["n"])
        items = list(doc.get("entries", []))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model file ({exc})") from exc
    if n < 1:
        raise ValueError("state count n must be >= 1")
    entries = np.zeros((n,) * 4, dtype=complex)
    for pos, item in enumerate(items):
        try:
            index = tuple(_integer(item[key]) - 1 for key in _INDEX_KEYS)
            value = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed entry #{pos} ({exc})") from exc
        if not all(0 <= x < n for x in index):
            raise ValueError(f"entry #{pos} index out of range 1..{n}")
        if not cmath.isfinite(value):
            raise ValueError(f"entry #{pos} is not finite")
        entries[index] = value
    if project:
        return symmetrize(entries)
    return VertexModel(n, entries)


def model_to_json(model: VertexModel) -> str:
    items = []
    for idx in np.ndindex(model.entries.shape):
        z = model.entries[idx]
        if z != 0:
            i, j, k, l = (x + 1 for x in idx)
            items.append(
                {"i": i, "j": j, "k": k, "l": l, "re": float(z.real), "im": float(z.imag)}
            )
    return json.dumps({"n": model.n, "entries": items}, indent=2) + "\n"


def save_model(model: VertexModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


# ---------------------------------------------------------------------------
# Evaluation


def tangle_tensor(model: VertexModel, t: Tangle) -> np.ndarray:
    """Evaluate a k-tangle to its tensor over leg labels 1..k: shape
    (n,) * k, 0-d for a diagram."""
    values = execute_plan(model.entries, model.n, t, plan_contraction(t, model.n))
    if t.loop_count:
        try:
            scale = float(model.n) ** t.loop_count
        except OverflowError as exc:
            raise ValueError(
                f"n^loops overflows a float: n = {model.n}, {t.loop_count} vertexless loops"
            ) from exc
        # In place, so that a diagram's 0-d array stays an array:
        # `values * scale` gives a numpy scalar, which `qt_evaluate` would
        # multiply by its coefficient with Python's complex arithmetic.
        values *= scale
    return values


def partition_function(model: VertexModel, g: Tangle) -> complex:
    """The scalar f_R(G) of a diagram (arity 0).

    A diagram keeps its value under the last model it was evaluated with:
    a weak reference to that model and the value, in the tangle's instance
    dict, outside its equality, hash, repr and pickled state.  A call with
    the same model object returns the kept value, with no plan lookup and
    no contraction; any other model, an equal one included, evaluates
    afresh and replaces it.  Both objects are immutable, so the value is
    the one a fresh evaluation gives, bit for bit.  The entry keeps
    neither the model nor the tangle alive, and a reference to a model
    that is gone matches no model.  In a move chain each rewritten diagram
    is the "after" of one check and the "before" of the next, so the
    benchmark's `moves` workload serves 28.5% of its calls from here.
    """
    if g.arity:
        raise ValueError("partition_function needs a diagram; use tangle_tensor for tangles")
    try:
        ref, value = g._value
    except AttributeError:  # never evaluated
        pass
    else:
        if ref() is model:
            return value
    value = complex(tangle_tensor(model, g))
    object.__setattr__(g, "_value", (weakref.ref(model), value))
    return value


def qt_evaluate(model: VertexModel, qt: QuantumTangle) -> np.ndarray:
    """Evaluate a linear combination to an array of its arity: shape
    (n,) * k, 0-d for a combination of diagrams.

    The empty combination evaluates to the 0-d zero.
    """
    arities = qt.arities
    if len(arities) > 1:
        raise ValueError(f"mixed arities in combination: {sorted(arities)}")
    total = np.zeros((model.n,) * max(arities, default=0), dtype=complex)
    for t, c in qt:
        total += c * tangle_tensor(model, t)
    return total


def pair(x: np.ndarray, y: np.ndarray) -> complex:
    """Bilinear pairing sum(x * y), no conjugation.

    Tensors of different shapes (arity or state count) pair to 0, matching
    the vanishing of cross-arity glue products; two 0-d arrays pair to
    their product.
    """
    if x.shape != y.shape:
        return 0j
    return complex(np.sum(x * y))


def apply_orthogonal(model: VertexModel, u: np.ndarray) -> VertexModel:
    """Transform the model by U acting on all four indices.

    Requires U^T U = I to ``ORTHOGONALITY_TOL``; such transforms leave every
    partition function unchanged.  The result is re-symmetrized to keep swap
    invariance exact against round-off.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (model.n, model.n):
        raise ValueError(f"U must be {model.n} x {model.n}")
    if not np.isfinite(u).all():
        raise ValueError("U must have finite entries")
    residual = float(np.linalg.norm(u.T @ u - np.eye(model.n)))
    if not residual <= ORTHOGONALITY_TOL:
        raise ValueError(f"U^T U - I has Frobenius norm {residual:.3e} > {ORTHOGONALITY_TOL}")
    out = np.einsum("ai,bj,ck,dl,ijkl->abcd", u, u, u, u, model.entries, optimize=True)
    return symmetrize(out)
