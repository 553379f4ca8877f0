import gc
import itertools
import math
import re
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest

import vlink as vl
import vlink.characterize
import vlink.diagram
import vlink.model
from vlink import LEG
from vlink.characterize import BASIS_CACHE_BOUND, _candidates, _rank

from oracles import brute_isomorphic, reference_enumerate_tangles


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_base_cases():
    assert vl.enumerate_tangles(0, 0) == [vl.empty_tangle()]
    assert vl.enumerate_tangles(2, 0) == [vl.strand_tangle()]
    assert len(vl.enumerate_tangles(4, 0)) == 3  # the three pairings of 4 legs


def test_enumerate_is_complete_and_irredundant():
    # Validate the k=2, one-vertex list against exhaustive isomorphism tests.
    listed = vl.enumerate_tangles(2, 1)
    for a, b in itertools.combinations(listed, 2):
        assert not brute_isomorphic(a, b)
    points = [(LEG, 1), (LEG, 2)] + [(0, s) for s in range(4)]

    def matchings(pts):
        if not pts:
            yield []
            return
        for i in range(1, len(pts)):
            for sub in matchings(pts[1:i] + pts[i + 1 :]):
                yield [(pts[0], pts[i])] + sub

    for matching in matchings(points):
        t = vl.build_tangle(1, matching, 0)
        assert sum(brute_isomorphic(t, u) for u in listed) == 1


def test_enumerate_counts_frozen():
    # Regression pins; the k=2 value is brute-validated above.
    assert len(vl.enumerate_tangles(2, 1)) == 10
    assert len(vl.enumerate_tangles(4, 1)) == 60
    assert len(vl.enumerate_tangles(0, 1)) == 4


def test_enumerate_is_loop_free_and_sorted():
    listed = vl.enumerate_tangles(4, 1)
    assert all(t.loop_count == 0 for t in listed)
    keys = [vl.canonical_key(t) for t in listed]
    assert keys == sorted(keys)


def test_enumerate_budget():
    with pytest.raises(ValueError, match="endpoint budget"):
        vl.enumerate_tangles(2, 4)
    with pytest.raises(ValueError, match="arity must be even"):
        vl.enumerate_tangles(3, 0)


def test_enumerate_rejects_negative_sizes():
    with pytest.raises(ValueError, match="arity must be nonnegative, got -2"):
        vl.enumerate_tangles(-2, 1)
    with pytest.raises(ValueError, match="arity must be nonnegative, got -3"):
        vl.enumerate_tangles(-3, 0)
    with pytest.raises(ValueError, match="max_vertices must be nonnegative, got -1"):
        vl.enumerate_tangles(2, -1)


def _has_closed_component(t: vl.Tangle) -> bool:
    """Whether some vertex of ``t`` is joined to no leg."""
    partner = dict(t.edges)
    partner.update((b, a) for a, b in t.edges)
    reached = {partner[(LEG, i)][0] for i in range(1, t.arity + 1)} - {LEG}
    stack = list(reached)
    while stack:
        x = stack.pop()
        for s in range(4):
            w = partner[(x, s)][0]
            if w != LEG and w not in reached:
                reached.add(w)
                stack.append(w)
    return len(reached) < t.num_vertices


def test_enumerate_matches_matching_walk_reference():
    # Every size with at most 12 endpoints: the same classes as the walk over
    # all perfect matchings, and one candidate per class unless the class has
    # a closed component, whose starts and orders are the only repeats.
    closed_repeats = 0
    for k in range(0, 13, 2):
        for v in range((12 - k) // 4 + 1):
            got = vl.enumerate_tangles(k, v)
            ref = reference_enumerate_tangles(k, v)
            assert len(got) == len(ref), (k, v)
            assert {vl.canonical_key(t) for t in got} == {vl.canonical_key(t) for t in ref}
            candidates = _candidates(k, v)
            assert all(t.loop_count == 0 and t.num_vertices <= v for t in candidates)
            open_keys = [vl.canonical_key(t) for t in candidates if not _has_closed_component(t)]
            assert len(open_keys) == len(set(open_keys)), (k, v)
            closed_repeats += len(candidates) - len(got)
    assert closed_repeats > 0


# ---------------------------------------------------------------------------
# Random tangles


def test_random_tangle_shape():
    rng = np.random.default_rng(0)
    t = vl.random_tangle(rng, 4, 3, loop_count=2)
    assert (t.arity, t.num_vertices, t.loop_count) == (4, 3, 2)


def test_random_tangle_deterministic():
    a = vl.random_tangle(np.random.default_rng(12), 2, 3)
    b = vl.random_tangle(np.random.default_rng(12), 2, 3)
    assert a == b


def test_random_tangle_odd_arity():
    with pytest.raises(ValueError):
        vl.random_tangle(np.random.default_rng(0), 3, 1)


def test_random_tangle_rejects_negative_arity():
    # Refused with `enumerate_tangles`'s message, even or odd, before any draw.
    for arity in (-2, -3):
        with pytest.raises(ValueError, match=f"arity must be nonnegative, got {arity}"):
            vl.random_tangle(np.random.default_rng(0), arity, 1)


# ---------------------------------------------------------------------------
# Determinant-tangle kernel


def test_kernel_residual_arity_check():
    model = vl.transmission_model(2)
    with pytest.raises(ValueError, match="6-tangle"):
        vl.kernel_residual(model, vl.strand_tangle())


def test_kernel_vanishes_exhaustively_n1():
    # n = 1: every 4-tangle with up to one vertex kills the 2-leg determinant.
    model = vl.random_model(1, np.random.default_rng(31))
    for t in vl.enumerate_tangles(4, 1):
        assert vl.kernel_residual(model, t) <= 1e-12


def test_kernel_vanishes_on_random_tangles_n2():
    model = vl.random_model(2, np.random.default_rng(32))
    rng = np.random.default_rng(33)
    norm = model.norm
    for _ in range(25):
        v = int(rng.integers(0, 3))
        t = vl.random_tangle(rng, 6, v)
        assert vl.kernel_residual(model, t) <= 1e-10 * (1.0 + norm**v)


def test_kernel_probe_passes_and_controls():
    rng = np.random.default_rng(34)
    model = vl.random_model(2, rng)
    report = vl.kernel_probe(model, samples=30, max_vertices=2, rng=rng)
    assert report.n == 2
    assert len(report.residuals) == 30
    assert report.passed()
    assert report.negative_control > 1e-3


def test_kernel_probe_rejects_empty_or_negative_probes():
    model = vl.random_model(2, np.random.default_rng(36))
    rng = np.random.default_rng(37)
    for samples in (0, -3):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            vl.kernel_probe(model, samples=samples, max_vertices=2, rng=rng)
    with pytest.raises(ValueError, match="max_vertices must be nonnegative, got -1"):
        vl.kernel_probe(model, samples=5, max_vertices=-1, rng=rng)


def test_kernel_residual_never_keys_its_tangle():
    # `QuantumTangle.of(t)` makes no key and `qt_glue` keys only the glued
    # products, so t's key is never made, and the residual is the bits of
    # gluing det(n+1) to t as a combination.
    model = vl.random_model(2, np.random.default_rng(38))
    rng = np.random.default_rng(39)
    for v in (0, 1, 2, 3):
        t = vl.random_tangle(rng, 6, v)
        vlink.diagram._canonical_key.cache_clear()
        residual = vl.kernel_residual(model, t)
        misses = vl.key_cache_info().misses
        vl.canonical_key(t)
        assert vl.key_cache_info().misses == misses + 1, v
        combo = vl.qt_glue(vl.det_tangle(3), vl.QuantumTangle.of(t))
        assert residual == abs(vl.qt_evaluate(model, combo)), v


def test_a_residual_past_the_float_range_is_infinite(monkeypatch):
    # Python's abs of a finite complex past the float range raised
    # OverflowError; the residual saturates to infinity instead.
    monkeypatch.setattr(vlink.characterize, "qt_evaluate", lambda model, qt: 1.7e308 + 1.7e308j)
    t = vl.random_tangle(np.random.default_rng(0), 4, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = vl.kernel_residual(vl.transmission_model(1), t)
    assert type(residual) is float and residual == math.inf


def test_kernel_probe_fails_when_its_control_vanishes():
    # The zero model kills every gluing with a vertex in it, and every
    # control tangle has one, so the control reads 0 too and the zero
    # residuals show nothing.
    model = vl.VertexModel(2, np.zeros((2, 2, 2, 2)))
    report = vl.kernel_probe(model, samples=5, max_vertices=2, rng=np.random.default_rng(0))
    assert (report.max_scaled_residual, report.negative_control) == (0.0, 0.0)
    assert not report.passed()
    assert not report.passed(tol=1.0)


@pytest.mark.parametrize(
    "at, bad",  # draws 0-7 are residuals, 8-15 controls
    [(3, complex("nan")), (12, complex("nan")), (3, complex(1.5e308, 1.5e308))],
)
def test_a_draw_that_is_nan_or_past_the_float_range_fails_the_kernel_probe(monkeypatch, at, bad):
    # Python's max keeps a finite value that comes before a NaN, so a NaN
    # drawn after a finite one gave a passing report; Python's abs of a
    # finite complex past the float range raised OverflowError.
    model = vl.knot_counting_model()
    assert vl.kernel_probe(model, 8, 2, np.random.default_rng(0)).passed()
    calls = itertools.count()
    evaluate = vlink.characterize.qt_evaluate

    def one_bad(model, qt):
        value = evaluate(model, qt)
        return bad if next(calls) == at else value

    monkeypatch.setattr(vlink.characterize, "qt_evaluate", one_bad)
    report = vl.kernel_probe(model, 8, 2, np.random.default_rng(0))
    assert next(calls) == 16
    figure = report.max_scaled_residual if at < 8 else report.negative_control
    assert not np.isfinite(figure) and not report.passed(tol=1.0)


def _written_out_kernel_probe(model, samples, max_vertices, rng):
    """`kernel_probe` as two loops: the residual tangles, with 0 to
    ``max_vertices`` vertices, are drawn from ``rng`` first, then the control
    tangles, with 1 to max(1, ``max_vertices``)."""
    residuals, scaled = [], []
    for _ in range(samples):
        v = int(rng.integers(max_vertices + 1))
        residuals.append(vl.kernel_residual(model, vl.random_tangle(rng, 2 * (model.n + 1), v)))
        scaled.append(residuals[-1] / (1.0 + model.norm**v))
    control = 0.0
    for _ in range(samples):
        v = int(rng.integers(1, max(1, max_vertices) + 1))
        t = vl.random_tangle(rng, 2 * model.n, v)
        value = vl.qt_evaluate(model, vl.qt_glue(vl.det_tangle(model.n), vl.QuantumTangle.of(t)))
        control = max(control, abs(value))
    return vl.KernelReport(model.n, tuple(residuals), max(scaled), control)


def test_kernel_probe_matches_its_draws_written_out():
    for n in (1, 2):
        for seed in range(20):
            model = vl.random_model(n, np.random.default_rng(seed))
            got = vl.kernel_probe(model, 8, 2, np.random.default_rng(seed))
            expected = _written_out_kernel_probe(model, 8, 2, np.random.default_rng(seed))
            assert got == expected, (n, seed)


def test_kernel_probe_deterministic():
    def run():
        rng = np.random.default_rng(35)
        model = vl.random_model(2, rng)
        return vl.kernel_probe(model, samples=10, max_vertices=2, rng=rng)

    assert run().residuals == run().residuals


# ---------------------------------------------------------------------------
# Gram positivity


def test_gram_psd_real_models():
    for seed in range(4):
        model = vl.random_model(2, np.random.default_rng(seed), real=True)
        report = vl.gram_psd(model, max_vertices=1)
        assert report.gram.shape == (60, 60)
        assert not report.gram.imag.any()
        assert report.passed()


def test_gram_entries_are_glued_partition_values():
    model = vl.random_model(2, np.random.default_rng(40), real=True)
    report = vl.gram_psd(model, max_vertices=1)
    basis = report.basis
    for i, j in [(0, 0), (0, 5), (7, 3)]:
        direct = vl.partition_function(model, vl.glue(basis[i], basis[j]))
        assert abs(report.gram[i, j] - direct) <= 1e-9 * (1.0 + abs(direct))


def test_gram_rejects_complex_models():
    with pytest.raises(ValueError, match="real"):
        vl.gram_psd(vl.knot_counting_model(), max_vertices=1)


def test_gram_zero_model_still_psd():
    # With R = 0 only the vertex-free rows survive, and those still form a
    # nonzero PSD Gram matrix of matching tensors.
    model = vl.VertexModel(2, np.zeros((2, 2, 2, 2)))
    report = vl.gram_psd(model, max_vertices=1)
    assert float(np.linalg.norm(report.gram)) > 0
    assert report.passed()


def test_a_gram_that_overflowed_is_refused_naming_its_basis():
    # Two vertices of 1e200 overflow: the Gram holds inf and NaN, which made
    # eigvalsh fail with "Eigenvalues did not converge".  Library callers own
    # their numpy warnings, so the overflow itself is not warned about here.
    model = vl.VertexModel(2, np.full((2,) * 4, 1e200))
    message = r"Gram of 60 basis tangles \(arity 4, max_vertices 1\) is not finite"
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=message):
            vl.gram_psd(model, max_vertices=1)
        with pytest.raises(ValueError, match=message):
            vl.nondegeneracy_probe(model, 4, max_vertices=1)


def test_a_gram_whose_norm_overflows_is_still_judged():
    # Entries near 1e161 are finite, but the sum of their squares is not:
    # an infinite scale passed any Gram, the negated one too.
    model = vl.random_model(2, np.random.default_rng(0), real=True)
    big = vl.VertexModel(2, model.entries * 1e80)
    with np.errstate(all="ignore"):
        report = vl.gram_psd(big, max_vertices=1)
        assert np.linalg.norm(report.gram) == np.inf
        assert report.passed()
        negated = -report.gram
        least = float(np.linalg.eigvalsh(negated.real).min())
        assert not vl.GramReport(report.basis, negated, least).passed()


def test_a_gram_past_half_the_float_range_is_judged_without_overflow():
    # At 1.8e153 the Gram is finite (entries up to 1.04e308), but the sum of
    # a pair of them is not: re-symmetrizing it as (a + b) / 2 made eigvalsh
    # fail with "Eigenvalues did not converge".  The Gram is exactly
    # symmetric, so eigvalsh takes it as it is, and a Gram that worked
    # keeps the bits (a + b) / 2 gave.
    model = vl.random_model(2, np.random.default_rng(0), real=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        works = vl.gram_psd(vl.VertexModel(2, model.entries * 1.5e153), max_vertices=1)
        wide = vl.gram_psd(vl.VertexModel(2, model.entries * 1.8e153), max_vertices=1)
    real = works.gram.real
    assert works.min_eigenvalue == float(np.linalg.eigvalsh((real + real.T) / 2.0).min())
    real = wide.gram.real
    assert np.isfinite(real).all() and np.abs(real).max() > np.finfo(float).max / 2
    assert math.isfinite(wide.min_eigenvalue)
    assert wide.min_eigenvalue == float(np.linalg.eigvalsh(real).min())


def test_nondegeneracy_probe_ranks_agree():
    for arity in (2, 4):
        model = vl.random_model(2, np.random.default_rng(41), real=True)
        gram_rank, span_rank = vl.nondegeneracy_probe(model, arity, max_vertices=1)
        assert gram_rank == span_rank
        assert gram_rank >= 1


def _programs(basis, n: int) -> set:
    """The distinct (loop count, compiled program without its leg
    transpose) of the tangles of ``basis`` at ``n``."""
    out = set()
    for t in basis:
        c = vl.plan_contraction(t, n).compiled
        out.add((t.loop_count, c.num_vertices, c.init, c.steps))
    return out


@pytest.mark.parametrize("arity, max_vertices", [(4, 1), (4, 2), (6, 1), (2, 2), (0, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_rows_and_gram_are_the_per_tangle_bits(arity, max_vertices, n):
    # Rows copied from the row of an earlier tangle with the same program
    # are the bits `tangle_tensor` gives each tangle on its own, and the
    # Gram equals its transpose bit for bit: `gram_psd` takes its
    # eigenvalues as it is.
    for real in (True, False):
        model = vl.random_model(n, np.random.default_rng(70 + n), real=real)
        basis, rows, gram = vlink.characterize._basis_gram(model, arity, max_vertices)
        want = np.array([vl.tangle_tensor(model, t).ravel() for t in basis])
        assert rows.shape == want.shape and rows.dtype == want.dtype
        assert rows.tobytes() == want.tobytes()
        assert gram.tobytes() == (want @ want.T).tobytes()
        assert np.array_equal(gram, gram.T)


def test_a_gram_of_thousands_of_tangles_equals_its_transpose(empty_basis_cache):
    # (2, 3) has 3,278 tangles: a complex Gram of 172 MB, which is why the
    # test above does not take it.
    model = vl.random_model(2, np.random.default_rng(72))
    _, _, gram = vlink.characterize._basis_gram(model, 2, 3)
    assert gram.shape == (3278, 3278) and np.array_equal(gram, gram.T)


@pytest.mark.parametrize(
    "arity, max_vertices, tangles, programs", [(6, 1, 510, 10), (4, 2, 1470, 235), (0, 2, 30, 30)]
)
def test_a_basis_contracts_each_distinct_program_once(monkeypatch, arity, max_vertices, tangles, programs):
    calls = []
    execute = vlink.model.execute_plan

    def counted(entries, n, t, plan):
        calls.append(t)
        return execute(entries, n, t, plan)

    model = vl.random_model(2, np.random.default_rng(73), real=True)
    basis = vlink.characterize._basis(arity, max_vertices)
    assert len(basis) == tangles and len(_programs(basis, 2)) == programs
    monkeypatch.setattr(vlink.model, "execute_plan", counted)
    vlink.characterize._basis_gram(model, arity, max_vertices)
    assert len(calls) == programs
    assert len(_programs(calls, 2)) == programs


def test_tangles_of_one_program_with_other_loop_counts_get_rows_of_their_own(monkeypatch):
    # A one-vertex 4-tangle and its leg relabellings share one program;
    # vertexless loops scale a tensor by n^loops, so each loop count is
    # contracted on its own.
    t = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    swapped = vl.relabel_legs(t, {1: 3, 2: 4, 3: 1, 4: 2})
    turned = vl.relabel_legs(t, {1: 2, 2: 3, 3: 4, 4: 1})
    looped = [vl.Tangle(u.num_vertices, u.arity, u.edges, loops) for u in (t, turned) for loops in (1, 2)]
    basis = (t, swapped, turned, *looped)
    monkeypatch.setattr(vlink.characterize, "_basis", lambda arity, max_vertices: vlink.characterize._Basis(basis))
    model = vl.random_model(2, np.random.default_rng(74), real=True)
    assert len(_programs(basis[:3], 2)) == 1 and len(_programs(basis, 2)) == 3
    _, rows, gram = vlink.characterize._basis_gram(model, 4, 1)
    want = np.array([vl.tangle_tensor(model, u).ravel() for u in basis])
    assert rows.tobytes() == want.tobytes()
    assert gram.tobytes() == (want @ want.T).tobytes()
    assert np.array_equal(rows[3], 2 * rows[0]) and np.array_equal(rows[4], 4 * rows[0])
    assert not np.array_equal(rows[0], rows[2])


@pytest.fixture
def empty_basis_cache():
    """An empty basis cache, emptied again afterwards."""
    vlink.characterize._basis.cache_clear()
    yield
    vlink.characterize._basis.cache_clear()


@pytest.mark.parametrize("seed, real", [(60, True), (61, True), (62, False), (63, False)])
def test_cached_bases_give_the_grams_of_a_fresh_enumeration(empty_basis_cache, seed, real):
    # Each size twice (a miss, then a hit), after sizes sharing its arity or
    # its vertex bound: the same ranks as a fresh basis, and at arity 4, the
    # one `gram_psd` takes, the same Gram bits.
    model = vl.random_model(2, np.random.default_rng(seed), real=real)
    for arity, max_vertices in [(2, 0), (2, 1), (4, 1), (0, 1), (0, 2)] * 2:
        fresh = vl.enumerate_tangles(arity, max_vertices)
        rows = np.array([vl.tangle_tensor(model, t).ravel() for t in fresh])
        gram = rows @ rows.T
        if real and arity == 4:
            report = vl.gram_psd(model, max_vertices)
            assert report.basis == tuple(fresh)
            assert report.gram.tobytes() == gram.tobytes(), (arity, max_vertices)
        ranks = vl.nondegeneracy_probe(model, arity, max_vertices)
        assert ranks == (_rank(gram, 1e-8), _rank(rows, 1e-8)), (arity, max_vertices)
    assert vl.basis_cache_info().misses == 5


def test_callers_cannot_change_a_cached_basis(empty_basis_cache):
    model = vl.random_model(2, np.random.default_rng(64), real=True)
    before = vl.gram_psd(model, max_vertices=1)
    assert isinstance(before.basis, tuple)
    listed = vl.enumerate_tangles(4, 1)
    listed.reverse()
    del listed[5:]
    after = vl.gram_psd(model, max_vertices=1)
    assert vl.basis_cache_info().hits == 1
    assert after.basis == before.basis
    assert after.gram.tobytes() == before.gram.tobytes()
    assert vl.enumerate_tangles(4, 1) == list(before.basis)  # a new list each call


def test_basis_cache_stays_within_its_bound(empty_basis_cache):
    model = vl.random_model(1, np.random.default_rng(65), real=True)
    flood = [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (6, 0), (8, 0)]
    assert len(flood) > BASIS_CACHE_BOUND
    for arity, max_vertices in flood:
        vl.nondegeneracy_probe(model, arity, max_vertices)
        assert vl.basis_cache_info().size <= BASIS_CACHE_BOUND
    assert vl.basis_cache_info() == (0, len(flood), BASIS_CACHE_BOUND, BASIS_CACHE_BOUND)
    vl.nondegeneracy_probe(model, 8, 0)  # the newest is kept, the oldest is not
    vl.nondegeneracy_probe(model, 0, 0)
    assert vl.basis_cache_info() == (1, len(flood) + 1, BASIS_CACHE_BOUND, BASIS_CACHE_BOUND)


def test_a_second_gram_at_one_n_makes_no_plan(empty_basis_cache):
    # The first call at (4, 1) and n=2 builds the basis's program table; a
    # second, under another model, evaluates only each program's first
    # tangle, whose plan is already made: one plan lookup per program, 10
    # in all, and the per-tangle bits.
    vl.gram_psd(vl.random_model(2, np.random.default_rng(77), real=True), max_vertices=1)
    hits, misses, _, _ = vl.plan_cache_info()
    model = vl.random_model(2, np.random.default_rng(78), real=True)
    report = vl.gram_psd(model, max_vertices=1)
    assert vl.plan_cache_info()[:2] == (hits + 10, misses)
    assert len(_programs(report.basis, 2)) == 10
    want = np.array([vl.tangle_tensor(model, t).ravel() for t in report.basis])
    assert report.gram.tobytes() == (want @ want.T).tobytes()


def test_rows_that_do_not_fit_drop_the_program_table_with_the_basis(empty_basis_cache, monkeypatch):
    def no_memory(model, t):
        raise MemoryError

    model = vl.random_model(2, np.random.default_rng(79), real=True)
    vl.gram_psd(model, max_vertices=1)
    programs = weakref.ref(vlink.characterize._basis(4, 1).programs[2])
    monkeypatch.setattr(vlink.characterize, "tangle_tensor", no_memory)
    with pytest.raises(MemoryError):
        vl.gram_psd(model, max_vertices=1)
    gc.collect()
    assert programs() is None
    assert vl.basis_cache_info().size == 0


def test_gram_above_the_byte_bound_is_refused_before_any_plan(empty_basis_cache, monkeypatch):
    # The (4, 1) Gram of 60 tangles takes 16 * 60**2 = 57,600 bytes.
    model = vl.random_model(2, np.random.default_rng(80), real=True)
    monkeypatch.setattr(vlink.characterize, "GRAM_BYTES_BOUND", 57_599)
    planned = vl.plan_cache_info()
    with pytest.raises(ValueError, match="the Gram of 60 basis tangles .* needs 57600 bytes"):
        vl.gram_psd(model, max_vertices=1)
    with pytest.raises(ValueError, match="needs 57600 bytes, above the bound of 57599"):
        vl.nondegeneracy_probe(model, 4, max_vertices=1)
    assert vl.plan_cache_info() == planned
    assert vl.basis_cache_info().size == 0
    monkeypatch.setattr(vlink.characterize, "GRAM_BYTES_BOUND", 57_600)
    assert vl.gram_psd(model, max_vertices=1).gram.shape == (60, 60)


def test_basis_whose_gram_does_not_fit_is_dropped(empty_basis_cache, monkeypatch):
    def no_memory(model, t):
        raise MemoryError

    model = vl.random_model(2, np.random.default_rng(66), real=True)
    vl.gram_psd(model, max_vertices=0)
    monkeypatch.setattr(vlink.characterize, "tangle_tensor", no_memory)
    with pytest.raises(MemoryError):
        vl.gram_psd(model, max_vertices=1)
    assert vl.basis_cache_info().size == 0


#: Child process: build a small Gram, so BLAS has its buffers, and the
#: (4, 2) basis; cap the address space at 16 MiB above what is then mapped,
#: and ask for the (4, 2) Gram (1,470 tangles, 33 MiB).  Prints the basis
#: size, the plan-cache misses the refused call made and the basis-cache
#: size after it.
_CAPPED_GRAM = """
import os, resource
import numpy as np
import vlink as vl
import vlink.characterize
import vlink.model
model = vl.random_model(2, np.random.default_rng(67), real=True)
vl.gram_psd(model, max_vertices=1)  # BLAS takes its buffers before the cap
basis = vlink.characterize._basis(4, 2)
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
cap = mapped + (16 << 20)
resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
misses = vl.plan_cache_info().misses
try:
    vl.gram_psd(model, max_vertices=2)
except MemoryError:
    print(len(basis), vl.plan_cache_info().misses - misses, vl.basis_cache_info().size)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
def test_gram_that_cannot_be_allocated_fails_before_any_row(child_env):
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_GRAM],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "1470 0 0\n"


# ---------------------------------------------------------------------------
# Derivative tangles vs finite differences


def test_fd_exact_for_small_diagrams():
    model = vl.random_model(2, np.random.default_rng(50))
    direction = vl.random_model(2, np.random.default_rng(51))
    one = vl.parse_tangle("x v1 a b a b")
    two = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    assert vl.fd_check(model, one, direction, h=1e-2) <= 1e-10
    assert vl.fd_check(model, two, direction, h=1e-3) <= 1e-9


def test_fd_small_for_larger_diagrams():
    model = vl.random_model(2, np.random.default_rng(52))
    direction = vl.random_model(2, np.random.default_rng(53))
    g = vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nx v3 e f a b")
    bound = 1e-5 * (1.0 + model.norm**4 * direction.norm)
    assert vl.fd_check(model, g, direction) <= bound


def test_fd_zero_for_vertexless():
    model = vl.random_model(2, np.random.default_rng(54))
    direction = vl.random_model(2, np.random.default_rng(55))
    assert vl.fd_check(model, vl.loop_diagram(2), direction) <= 1e-12


def test_fd_check_refuses_a_step_it_cannot_use():
    model = vl.random_model(2, np.random.default_rng(58))
    direction = vl.random_model(2, np.random.default_rng(59))
    g = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (0, 0.0, -0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=re.escape(f"step h must be finite and nonzero, got {h!r}")):
                vl.fd_check(model, g, direction, h=h)
    # A central difference is symmetric: a negative step gives the same bits.
    assert vl.fd_check(model, g, direction, h=-1e-3) == vl.fd_check(model, g, direction, h=1e-3)
    # A step so small that R + hS equals R - hS bit for bit would read as a
    # failing derivative tangle, and one so large that the evaluation
    # overflows would return NaN: both are refused, naming h.
    model = vl.random_model(2, np.random.default_rng(1))
    ring = vl.parse_tangle("x v1 a b c d\nx v2 c e f a\nx v3 f d b e")
    for h in (1e-30, 1e-300):
        with pytest.raises(ValueError, match=re.escape(f"step h = {h!r} does not move the model")):
            vl.fd_check(model, ring, model, h=h)
    for h in (1e150, 1e300):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=re.escape(f"at step h = {h!r} is not finite")):
                vl.fd_check(model, ring, model, h=h)


def test_fd_direction_must_match_n():
    model = vl.random_model(2, np.random.default_rng(56))
    direction = vl.random_model(3, np.random.default_rng(57))
    with pytest.raises(ValueError):
        vl.fd_check(model, vl.loop_diagram(1), direction)
