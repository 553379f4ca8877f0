"""End-to-end acceptance checks at pinned tolerances.

Every test prints one ``[PASS]``/``[FAIL]`` line (via the ``announce``
fixture, so the lines survive pytest's capture).  Tolerances are fixed
here and should not be loosened; each check either certifies a theorem
at desk scale or pins an exact reference value.
"""

import itertools
import sys
import time

import numpy as np

import vlink as vl

from oracles import dfs_knot_components, naive_tangle_tensor
from test_moves import _bracket_drift


def _chained_move_deltas(model, diagrams, count, rng, cap=12):
    """Max |f(moved) - f(g)| over ``count`` random moves.

    Moves chain: each result replaces its diagram in the working pool, so
    later moves act on rewritten diagrams; a pool entry is reset to its
    original once it grows past ``cap`` vertices.
    """
    pool = list(diagrams)
    worst = 0.0
    applied = 0
    while applied < count:
        i = int(rng.integers(len(pool)))
        if pool[i].num_vertices > cap:
            pool[i] = diagrams[i]
        g = pool[i]
        f_before = vl.partition_function(model, g)
        try:
            _, moved = vl.random_move(g, rng)
        except ValueError:  # the empty diagram admits no moves
            continue
        applied += 1
        worst = max(worst, abs(vl.partition_function(model, moved) - f_before))
        pool[i] = moved
    return worst


def _knot_count_realization(model, corpus) -> tuple[bool, str]:
    """Whether f under ``model`` is 2^knots on every corpus diagram and
    unchanged by 100 seeded chained moves, while the model fails the kink
    condition by a wide margin (residual above 0.5); and the figures behind
    the verdict."""
    worst = 0.0
    for g in corpus:
        expected = 2.0 ** dfs_knot_components(g)
        value = vl.partition_function(model, g)
        worst = max(worst, abs(value - expected) / expected)
    r1 = vl.check_algebraic(model).residual_r1
    drift = _chained_move_deltas(model, corpus, 100, np.random.default_rng(101))
    ok = worst <= 1e-9 and r1 > 0.5 and drift <= 1e-9
    return ok, (
        f"rel err {worst:.2e} over {len(corpus)} diagrams, "
        f"kink residual {r1:.3g}, move drift {drift:.2e}"
    )


def test_knot_count_realization(corpus, announce):
    """A model whose partition function is exactly 2^knots, certified on
    the corpus, yet failing the kink condition by a wide margin."""
    assert len(corpus) >= 20
    assert max(g.num_vertices for g in corpus) <= 6
    announce("knot-count realization", *_knot_count_realization(vl.knot_counting_model(), corpus))


def test_knot_count_realization_fails_on_controls(corpus):
    # Negative controls, one per clause.  diag(1.5, 0.5) has trace 2 but
    # tr(A^m) != 2 for m > 1, so f is not 2^knots; the transmission model
    # gives f = 2^knots exactly but passes the kink condition (r1 = 0).
    for model in (vl.strand_product_model(np.diag([1.5, 0.5])), vl.transmission_model(2)):
        ok, detail = _knot_count_realization(model, corpus)
        assert not ok, detail


def _multiplicativity(f, corpus) -> tuple[bool, str]:
    """Whether the closed-diagram function ``f(model, g)`` is multiplicative
    over disjoint union on 200 seeded corpus pairs under four models, and
    exactly 1 on the empty diagram; and the figures behind the verdict."""
    models = [
        vl.transmission_model(2),
        vl.knot_counting_model(),
        vl.random_model(2, np.random.default_rng(102)),
        vl.random_model(3, np.random.default_rng(103)),
    ]
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(200):
        model = models[trial % len(models)]
        g = corpus[int(rng.integers(len(corpus)))]
        h = corpus[int(rng.integers(len(corpus)))]
        lhs = f(model, vl.disjoint_union(g, h))
        rhs = f(model, g) * f(model, h)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    exact_empty = all(f(m, vl.empty_tangle()) == 1.0 + 0.0j for m in models)
    ok = worst <= 1e-9 and exact_empty
    return ok, f"worst scaled defect {worst:.2e} over 200 pairs, f(empty) == 1: {exact_empty}"


def test_multiplicativity_and_normalization(corpus, announce):
    announce("multiplicativity", *_multiplicativity(vl.partition_function, corpus))


def _orthogonal_invariance(transform, small_corpus) -> tuple[bool, str]:
    """Whether f is unchanged when 50 seeded models R become
    ``transform(R, U)`` for a random orthogonal U (QR when real, Cayley
    when complex); and the figure behind the verdict."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(50):
        n = 2 + trial % 2
        real = trial % 4 < 2
        model = vl.random_model(n, rng, real=real)
        u = vl.random_orthogonal(n, rng, real=real)
        moved = transform(model, u)
        g = small_corpus[int(rng.integers(len(small_corpus)))]
        a = vl.partition_function(model, g)
        b = vl.partition_function(moved, g)
        worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    ok = worst <= 1e-8
    return ok, f"worst scaled change {worst:.2e} over 50 transforms (QR and Cayley)"


def test_orthogonal_invariance(small_corpus, announce):
    announce("orthogonal invariance", *_orthogonal_invariance(vl.apply_orthogonal, small_corpus))


def _scaled_by_1_1(model, u):
    """R acted on by U = 1.1 I on all four indices, whatever ``u``: that is,
    1.1^4 R.  `apply_orthogonal` refuses U, which is not orthogonal."""
    s = 1.1 * np.eye(model.n)
    return vl.symmetrize(np.einsum("ai,bj,ck,dl,ijkl->abcd", s, s, s, s, model.entries))


def test_multiplicativity_fails_on_f_plus_one(corpus):
    # Negative control: f + 1 is 2 on the empty diagram, and f(g) + f(h)
    # off multiplicative on a pair.
    ok, detail = _multiplicativity(lambda model, g: vl.partition_function(model, g) + 1, corpus)
    assert not ok, detail


def test_orthogonal_invariance_fails_on_a_scaled_model(small_corpus):
    # Negative control: R -> 1.1^4 R scales f by 1.1^(4v) on a diagram
    # with v vertices.
    ok, detail = _orthogonal_invariance(_scaled_by_1_1, small_corpus)
    assert not ok, detail


def _pairing_identity(pair) -> tuple[bool, str]:
    """Whether ``pair(f(T), f(U))`` equals f of T glued to U, to 1e-9 scaled,
    on 100 seeded pairs of 2- and 4-tangles under four models; and the
    figure behind the verdict."""
    rng = np.random.default_rng(106)
    models = [
        vl.random_model(2, np.random.default_rng(107)),
        vl.random_model(2, np.random.default_rng(108), real=True),
        vl.random_model(3, np.random.default_rng(109)),
        vl.transmission_model(2),
    ]
    worst = 0.0
    for trial in range(100):
        model = models[trial % len(models)]
        k = 2 if trial % 2 else 4
        t = vl.random_tangle(rng, k, int(rng.integers(3)))
        u = vl.random_tangle(rng, k, int(rng.integers(3)))
        lhs = pair(vl.tangle_tensor(model, t), vl.tangle_tensor(model, u))
        rhs = vl.partition_function(model, vl.glue(t, u))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = worst <= 1e-9
    return ok, f"worst scaled defect {worst:.2e} over 100 glued pairs, k in {{2, 4}}"


def test_pairing_identity(announce):
    announce("pairing identity", *_pairing_identity(vl.pair))


def _conjugating_pair(x, y):
    """`vl.pair` with its first side conjugated."""
    return vl.pair(np.conj(x), y)


def test_pairing_identity_fails_when_pair_conjugates():
    # Negative control: three of the four models are complex.
    ok, detail = _pairing_identity(_conjugating_pair)
    assert not ok, detail


def _determinant_kernel(models) -> tuple[bool, str]:
    """Whether each model, probed by 100 samples of at most three vertices
    (model i drawn from seed 111 + 2i), leaves every determinant tangle in
    the kernel within 1e-8 while its negative control exceeds 1e-3; and the
    figures behind the verdict."""
    ok = True
    details = []
    for i, model in enumerate(models):
        report = vl.kernel_probe(
            model, samples=100, max_vertices=3, rng=np.random.default_rng(111 + 2 * i)
        )
        ok = ok and report.passed(1e-8)
        details.append(
            f"n={model.n}: residual {report.max_scaled_residual:.2e}, "
            f"control {report.negative_control:.3g}"
        )
    return ok, "; ".join(details)


def _kernel_models() -> list[vl.VertexModel]:
    return [vl.random_model(n, np.random.default_rng(seed)) for n, seed in ((1, 110), (2, 112))]


def test_determinant_kernel(announce):
    announce("determinant-tangle kernel", *_determinant_kernel(_kernel_models()))


def test_determinant_kernel_fails_on_zero_models():
    # Negative control: a zero model vanishes on every control tangle, and
    # every control tangle has a vertex, so the control reads 0.
    ok, detail = _determinant_kernel([vl.VertexModel(n, np.zeros((n,) * 4)) for n in (1, 2)])
    assert not ok, detail


def _move_invariance(make_model, corpus) -> tuple[bool, str]:
    """Whether f under ``make_model(n)`` at n = 2 and 3 is unchanged by 100
    seeded chained moves each, and every move tangle evaluates to zero; and
    the figures behind the verdict."""
    drift = 0.0
    residual = 0.0
    for n, seed in ((2, 114), (3, 115)):
        model = make_model(n)
        drift = max(
            drift,
            _chained_move_deltas(model, corpus, 100, np.random.default_rng(seed)),
        )
        for kind in (1, 2, 3):
            tensor = vl.qt_evaluate(model, vl.move_tangles(kind))
            residual = max(residual, float(np.max(np.abs(tensor))))
    ok = drift <= 1e-8 and residual <= 1e-10
    return ok, f"drift {drift:.2e} over 200 moves, move-tangle residual {residual:.2e}"


def test_transmission_invariance(corpus, announce):
    announce("transmission invariance", *_move_invariance(vl.transmission_model, corpus))


def _random_strand_product(n):
    """A (x) A for A the symmetric part of a seeded standard-normal matrix."""
    a = np.random.default_rng(7).standard_normal((n, n))
    return vl.strand_product_model((a + a.T) / 2)


def test_move_invariance_fails_on_a_random_strand_product(corpus):
    # Negative control: a kink of A (x) A is A^2, not I, so the drift (20.6)
    # and the move-tangle residual (1.0) are far past their bounds.
    ok, detail = _move_invariance(_random_strand_product, corpus)
    assert not ok, detail


def _failing_models_witnessed(models, corpus) -> tuple[bool, str]:
    """Whether every model fails the move conditions, `find_move_witness`
    finds a move over ``corpus`` changing its f by more than 1e-6, and its
    pairing rank equals its span rank at k = 2 and 4; and the figures
    behind the verdict."""
    ok = True
    witnessed = 0
    worst_delta = np.inf
    for model in models:
        if vl.check_algebraic(model).passed:
            ok = False
            continue
        hit = vl.find_move_witness(model, corpus)
        if hit is None or hit[2] <= 1e-6:
            ok = False
            continue
        witnessed += 1
        worst_delta = min(worst_delta, hit[2])
        for arity in (2, 4):
            gram_rank, span_rank = vl.nondegeneracy_probe(model, arity, max_vertices=1)
            ok = ok and gram_rank == span_rank
    return ok, (
        f"{witnessed}/{len(models)} witnesses with |delta f| > 1e-6 (min {worst_delta:.3g}), "
        "pairing rank == span rank for k in {2, 4}"
    )


def _witness_models() -> list[vl.VertexModel]:
    return [vl.random_model(2, np.random.default_rng(120 + seed), real=True) for seed in range(10)]


def test_failing_models_are_witnessed(corpus, announce):
    announce("failing models witnessed", *_failing_models_witnessed(_witness_models(), corpus))


def test_failing_models_witnessed_fails_on_controls(corpus):
    # Negative controls, one per clause, each run alone: the transmission
    # model passes the conditions; the knot-counting model fails them, yet
    # no move over the corpus changes its f (it is 2^knots).
    for model in (vl.transmission_model(2), vl.knot_counting_model()):
        ok, detail = _failing_models_witnessed([model], corpus)
        assert not ok, detail


def test_real_gram_psd(announce):
    worst = np.inf
    ok = True
    for seed in range(30):
        model = vl.random_model(2, np.random.default_rng(150 + seed), real=True)
        report = vl.gram_psd(model, max_vertices=1)
        scale = 1.0 + float(np.linalg.norm(report.gram))
        worst = min(worst, report.min_eigenvalue / scale)
        ok = ok and report.passed(1e-8)
    announce(
        "real Gram positivity",
        ok,
        f"30 models, min scaled eigenvalue {worst:.2e} >= -1e-8",
    )


def _derivative_tangles(fd_check) -> tuple[bool, str]:
    """Whether ``fd_check`` stays within the h^2 bound on 50 seeded random
    diagrams and models, and at round-off on 10 one-vertex diagrams, where
    f is linear in R and the central difference exact; and the figures
    behind the verdict."""
    rng = np.random.default_rng(160)
    worst_scaled = 0.0
    for _ in range(50):
        model = vl.random_model(2, rng)
        direction = vl.random_model(2, rng)
        g = vl.random_tangle(rng, 0, 1 + int(rng.integers(3)))
        bound = 1e-5 * (1.0 + model.norm**4 * direction.norm)
        worst_scaled = max(worst_scaled, fd_check(model, g, direction) / bound)
    worst_linear = 0.0
    for seed in range(10):
        model = vl.random_model(2, np.random.default_rng(170 + seed))
        direction = vl.random_model(2, np.random.default_rng(180 + seed))
        g = vl.random_tangle(np.random.default_rng(190 + seed), 0, 1)
        worst_linear = max(worst_linear, fd_check(model, g, direction, h=1e-2))
    ok = worst_scaled <= 1.0 and worst_linear <= 1e-10
    return ok, (
        f"50 diagrams within the h^2 bound (worst ratio {worst_scaled:.2e}), "
        f"one-vertex error {worst_linear:.2e}"
    )


def test_derivative_tangles(announce):
    announce("derivative tangles", *_derivative_tangles(vl.fd_check))


def _fd_check_conjugating(model, g, direction, h=1e-5):
    """`vl.fd_check` pairing the conjugated derivative with the direction."""
    f_plus = vl.partition_function(model.perturbed(direction, +h), g)
    f_minus = vl.partition_function(model.perturbed(direction, -h), g)
    derivative = vl.qt_evaluate(model, vl.tangle_derivative(g))
    return abs((f_plus - f_minus) / (2.0 * h) - _conjugating_pair(derivative, direction.entries))


def test_derivative_tangles_fail_when_pair_conjugates():
    # Negative control: the models are complex, so the conjugated pairing
    # misses the derivative.
    ok, detail = _derivative_tangles(_fd_check_conjugating)
    assert not ok, detail


def _chain_diagram(length: int) -> vl.Tangle:
    edges = []
    for i in range(length):
        j = (i + 1) % length
        edges.append(((i, 2), (j, 0)))
        edges.append(((i, 3), (j, 1)))
    return vl.build_tangle(length, edges)


def _naive_prefix_seconds(entries, n, t, prefix: int) -> tuple[float, int]:
    """Time the naive coloring loop restricted to the first ``prefix`` edges.

    Each iteration does strictly less work than a full naive iteration
    (fewer edge assignments, vertex factors only where all four slots are
    colored), so total_naive >= per_prefix_iteration * n**len(edges).
    """
    edges = sorted(t.edges)[:prefix]
    endpoints = {ep for e in edges for ep in e}
    full_vertices = [
        v
        for v in range(t.num_vertices)
        if all((v, s) in endpoints for s in range(4))
    ]
    start = time.perf_counter()
    sink = 0.0 + 0.0j
    for colors in itertools.product(range(n), repeat=prefix):
        cmap = {}
        for (a, b), c in zip(edges, colors):
            cmap[a] = c
            cmap[b] = c
        weight = 1.0 + 0.0j
        for v in full_vertices:
            weight *= entries[cmap[(v, 0)], cmap[(v, 1)], cmap[(v, 2)], cmap[(v, 3)]]
        sink += weight
    elapsed = time.perf_counter() - start
    assert sink == sink  # keep the loop from being optimized away
    return elapsed, n**prefix


def _planner_equivalence(tangle_tensor, small_corpus) -> tuple[bool, str]:
    """Whether ``tangle_tensor`` reproduces naive enumeration, to 1e-10
    scaled, on the small corpus and five tangles, under a random model and
    the transmission model; and the figure behind the verdict."""
    worst = 0.0
    zoo = list(small_corpus) + [
        vl.strand_tangle(),
        vl.matching_tangle([(1, 3), (2, 4)]),
        vl.parse_tangle("x v1 a b c c\nleg 1 a\nleg 2 b"),
        vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d"),
        vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f"),
    ]
    for model in (vl.random_model(2, np.random.default_rng(200)), vl.transmission_model(3)):
        for t in zoo:
            ref = naive_tangle_tensor(model.entries, model.n, t)
            got = tangle_tensor(model, t)
            scale = 1.0 + float(np.max(np.abs(ref)))
            worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    return worst <= 1e-10, f"worst defect {worst:.2e}"


def _turned_tangle_tensor(model, t):
    """`vl.tangle_tensor` with the vertex tensor turned one slot, which
    keeps it swap-invariant."""
    return vl.tangle_tensor(vl.VertexModel(model.n, model.entries.transpose(1, 2, 3, 0)), t)


def test_planner_equivalence_fails_on_a_turned_vertex_tensor(small_corpus):
    # Negative control: the random model is not invariant under the turn.
    ok, detail = _planner_equivalence(_turned_tangle_tensor, small_corpus)
    assert not ok, detail


def test_planner_equivalence_and_speed(small_corpus, announce):
    equal, equivalence = _planner_equivalence(vl.tangle_tensor, small_corpus)

    # Speed: an eight-vertex chain at n = 4 has 4**16 colorings.  Timing a
    # strictly-cheaper prefix loop gives a lower bound on full enumeration.
    chain = _chain_diagram(8)
    model = vl.random_model(4, np.random.default_rng(201))
    t0 = time.perf_counter()
    value = vl.partition_function(model, chain)
    planner_seconds = time.perf_counter() - t0
    prefix_seconds, prefix_count = _naive_prefix_seconds(model.entries, 4, chain, 8)
    total_colorings = 4 ** len(chain.edges)
    naive_floor = prefix_seconds * (total_colorings / prefix_count)
    fast_enough = 10.0 * planner_seconds <= naive_floor
    assert abs(value) >= 0.0  # the contraction actually ran

    ok = equal and fast_enough
    announce(
        "planner equivalence and speed",
        ok,
        f"{equivalence}; planner {planner_seconds * 1e3:.1f} ms vs "
        f"naive floor {naive_floor:.0f} s (x{naive_floor / max(planner_seconds, 1e-9):.0f})",
    )


# ---------------------------------------------------------------------------
# Mutants: each acceptance line fails under some fault in the code


def _mutate(monkeypatch, module, name, make) -> None:
    """Bind ``make(original)`` in place of ``module.name`` in every vlink
    module that binds the original."""
    original = getattr(module, name)
    mutant = make(original)
    for key, loaded in list(sys.modules.items()):
        if key.partition(".")[0] == "vlink" and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, mutant)


def _turned_at_vertex_0(t: vl.Tangle) -> vl.Tangle:
    """``t`` with vertex 0 turned one slot, which flips its crossing."""

    def turn(end):
        return (0, (end[1] + 1) % 4) if end[0] == 0 else end

    return vl.build_tangle(t.num_vertices, [(turn(a), turn(b)) for a, b in t.edges], t.loop_count)


def _unscaled_tangle_tensor(model, t):
    """`vl.tangle_tensor` without the factor n^loops."""
    return vl.contraction.execute_plan(model.entries, model.n, t, vl.plan_contraction(t, model.n))


#: Each mutant as (module, name, make, lines): ``make`` builds the mutant
#: from the original function, and ``lines`` are the checks it must fail.
#: Scaling the Gram rows by 1 + v is a mutant too, but no acceptance line
#: can see it: the Gram that real Gram positivity reads is a product
#: rows @ rows.T, positive semidefinite by construction.
MUTANTS = {
    "vertex tensor turned in tangle_tensor": (
        vl.model,
        "execute_plan",
        lambda f: lambda entries, n, t, plan: f(entries.transpose(1, 2, 3, 0), n, t, plan),
        ("derivative tangles", "planner equivalence"),
    ),
    "n^loops dropped": (
        vl.model,
        "tangle_tensor",
        lambda f: _unscaled_tangle_tensor,
        (
            "knot-count realization",
            "pairing identity",
            "determinant-tangle kernel",
            "transmission invariance",
            "planner equivalence",
        ),
    ),
    "det_tangle without signs": (
        vl.algebra,
        "det_tangle",
        lambda f: lambda m: vl.QuantumTangle(tuple((t, abs(c)) for t, c in f(m))),
        ("determinant-tangle kernel",),
    ),
    "pair conjugates one side": (
        vl.model,
        "pair",
        lambda f: lambda x, y: f(np.conj(x), y),
        ("pairing identity", "derivative tangles"),
    ),
    "apply_move turns vertex 0": (
        vl.moves,
        "apply_move",
        lambda f: lambda g, site: _turned_at_vertex_0(f(g, site)),
        ("bracket rewrites",),
    ),
    "apply_move returns its input": (
        vl.moves,
        "apply_move",
        lambda f: lambda g, site: g,
        ("failing models witnessed",),
    ),
}


def test_every_mutant_fails_its_checks(monkeypatch, corpus, small_corpus):
    # Each check reads the patched functions through the vlink namespace at
    # call time, and builds its models afresh, so no value kept on a
    # diagram by an earlier evaluation is read back.  The flip of one
    # crossing is seen by no acceptance line, only by the bracket, whose
    # f changes with a crossing (tests/test_moves.py).
    checks = {
        "knot-count realization": lambda: _knot_count_realization(
            vl.knot_counting_model(), corpus
        ),
        "pairing identity": lambda: _pairing_identity(vl.pair),
        "determinant-tangle kernel": lambda: _determinant_kernel(_kernel_models()),
        "transmission invariance": lambda: _move_invariance(vl.transmission_model, corpus),
        "failing models witnessed": lambda: _failing_models_witnessed(_witness_models(), corpus),
        "derivative tangles": lambda: _derivative_tangles(vl.fd_check),
        "planner equivalence": lambda: _planner_equivalence(vl.tangle_tensor, small_corpus),
        "bracket rewrites": lambda: (_bracket_drift()[0] <= 1e-9, "bracket drift"),
    }
    for name, (module, attr, make, lines) in MUTANTS.items():
        with monkeypatch.context() as patch:
            _mutate(patch, module, attr, make)
            for line in lines:
                ok, detail = checks[line]()
                assert not ok, (name, line, detail)
