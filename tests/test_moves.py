import collections
import itertools
import time

import numpy as np
import pytest

import vlink as vl
from vlink.moves import MOVE_KINDS

from oracles import (
    brute_move_sites,
    dfs_knot_components,
    reference_apply_move,
    reference_condition_residuals,
)


def _swap_model() -> vl.VertexModel:
    """Colors cross over: passes all three conditions, unlike transmission
    it acts nontrivially."""
    return vl.strand_product_model(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _braid_left() -> vl.Tangle:
    (left,) = [t for t, c in vl.move_tangles(3) if c == 1.0]
    return left


def _closed_braid() -> vl.Tangle:
    return vl.glue(_braid_left(), vl.matching_tangle([(1, 6), (2, 3), (4, 5)]))


def _all_sites(g: vl.Tangle) -> list[vl.MoveSite]:
    return [s for kind in MOVE_KINDS for s in vl.enumerate_move_sites(g, kind)]


# ---------------------------------------------------------------------------
# Algebraic conditions


def test_transmission_passes_exactly():
    report = vl.check_algebraic(vl.transmission_model(3))
    assert report.residual_r1 == 0.0
    assert report.residual_r2 == 0.0
    assert report.residual_r3 == 0.0
    assert report.passed


def test_swap_model_passes():
    report = vl.check_algebraic(_swap_model())
    assert report.passed
    assert report.residual_r1 <= 1e-12


def test_knot_counting_model_fails_kink_condition():
    report = vl.check_algebraic(vl.knot_counting_model())
    assert abs(report.residual_r1 - 4.0) < 1e-12  # |A^2 - I|_F for the stock A
    assert report.residual_r3 < 1e-12  # products of A never reorder
    assert not report.passed
    assert report.residual_r3 <= report.bound < report.residual_r1


def test_random_models_generically_fail():
    for seed in range(5):
        report = vl.check_algebraic(vl.random_model(2, np.random.default_rng(seed)))
        assert not report.passed
        assert report.residual_r1 > 1e-3


# ---------------------------------------------------------------------------
# Move tangles mirror the conditions


def test_move_tangles_structure():
    for kind, arity in ((1, 2), (2, 4), (3, 6)):
        qt = vl.move_tangles(kind)
        assert len(qt) == 2
        assert qt.arities == {arity}
        assert sorted(c.real for _, c in qt) == [-1.0, 1.0]
        assert all(c.imag == 0 for _, c in qt)
    with pytest.raises(ValueError):
        vl.move_tangles(4)


def test_move_tangles_evaluate_to_condition_residuals():
    # check_algebraic evaluates the move tangles; the oracle multiplies R
    # as an operator.  Seeded models at n = 1..4, real and complex, and one
    # scaled by 1e50, agree to 1e-12 relative.
    models = [
        vl.random_model(n, np.random.default_rng(10 * n + seed), real=real)
        for n in (1, 2, 3, 4)
        for seed, real in ((0, False), (1, True))
    ]
    models.append(vl.VertexModel(3, 1e50 * vl.random_model(3, np.random.default_rng(30)).entries))
    for model in models:
        report = vl.check_algebraic(model)
        got = (report.residual_r1, report.residual_r2, report.residual_r3)
        ref = reference_condition_residuals(model.entries, model.n)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-12 * abs(b), (model.n, got, ref)


def test_move_tangles_vanish_for_transmission():
    model = vl.transmission_model(3)
    for kind in (1, 2, 3):
        tensor = vl.qt_evaluate(model, vl.move_tangles(kind))
        assert float(np.max(np.abs(tensor))) <= 1e-10


# ---------------------------------------------------------------------------
# Site enumeration


def test_sites_on_free_loop():
    g = vl.loop_diagram(1)
    assert vl.enumerate_move_sites(g, "R1+") == [vl.MoveSite("R1+", ("loop",))]
    for kind in ("R1-", "R2+", "R2-", "R3"):
        assert vl.enumerate_move_sites(g, kind) == []


def test_sites_on_one_crossing():
    g = vl.parse_tangle("x v1 a b a b")
    assert len(vl.enumerate_move_sites(g, "R1+")) == 2  # one per edge
    assert vl.enumerate_move_sites(g, "R1-") == []
    assert len(vl.enumerate_move_sites(g, "R2+")) == 2  # ordered edge pairs
    assert vl.enumerate_move_sites(g, "R2-") == []
    assert vl.enumerate_move_sites(g, "R3") == []


def test_kink_chirality_distinguishes_r1_sites():
    kink = vl.parse_tangle("x v1 a b b a")  # loop on slots 1,2
    other = vl.parse_tangle("x v1 a a b b")  # loops on slots 0,1 and 2,3
    assert vl.enumerate_move_sites(kink, "R1-") == [vl.MoveSite("R1-", (0, 0))]
    assert vl.enumerate_move_sites(other, "R1-") == []


def test_site_enumeration_deterministic(corpus):
    for g in corpus[:10]:
        for kind in MOVE_KINDS:
            assert vl.enumerate_move_sites(g, kind) == vl.enumerate_move_sites(g, kind)


def _chain_diagrams() -> list[vl.Tangle]:
    """Seeded random diagrams and the diagrams met along random-move chains
    from them and from the closed braid, at most ten vertices."""
    diagrams = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        g = _closed_braid() if seed == 0 else vl.random_tangle(rng, 0, int(rng.integers(1, 9)))
        for _ in range(20):
            diagrams.append(g)
            _, g = vl.random_move(g, rng)
            if g.num_vertices > 10:
                g = vl.random_tangle(rng, 0, 4)
    return diagrams


def _relabelled(g: vl.Tangle, perm: list[int]) -> vl.Tangle:
    """Closed diagram ``g`` with vertex v renamed ``perm[v]``."""

    def renamed(ep):
        return (perm[ep[0]], ep[1])

    edges = [(renamed(a), renamed(b)) for a, b in g.edges]
    return vl.build_tangle(g.num_vertices, edges, g.loop_count)


_ONE_ORIENTATION = pytest.mark.xfail(
    strict=True,
    reason="R1+ and R2+ list each edge in its sorted orientation only: see the FOUND line"
    " on R1+ and R2+ site lists in CHANGES.md",
)


@pytest.mark.parametrize(
    "kind", [pytest.param(k, marks=_ONE_ORIENTATION) if "+" in k else k for k in MOVE_KINDS]
)
def test_site_lists_are_functions_of_the_class(kind):
    # A diagram and a copy with its vertices renamed have rewrites of the
    # same classes, counted with multiplicity: 20 seeded diagrams of 2-5
    # vertices and the first 20 of a move chain from the closed braid.
    rng = np.random.default_rng(37)
    diagrams = [vl.random_tangle(rng, 0, 2 + i % 4) for i in range(20)] + _chain_diagrams()[:20]
    rewrites = 0
    for g in diagrams:
        h = _relabelled(g, [int(v) for v in rng.permutation(g.num_vertices)])
        classes = [
            collections.Counter(
                vl.canonical_key(vl.apply_move(t, s)) for s in vl.enumerate_move_sites(t, kind)
            )
            for t in (g, h)
        ]
        assert classes[0] == classes[1], (g, kind)
        rewrites += classes[0].total()
    assert rewrites > 0


def test_sites_match_brute_scan():
    seen = {"R1-": 0, "R2-": 0, "R3": 0}
    for g in _chain_diagrams():
        for kind in seen:
            sites = vl.enumerate_move_sites(g, kind)
            assert all(s.kind == kind for s in sites)
            assert [s.anchor for s in sites] == brute_move_sites(g, kind), (g, kind)
            seen[kind] += len(sites)
    assert min(seen.values()) > 0, seen


def test_site_scans_are_linear():
    big = vl.random_tangle(np.random.default_rng(0), 0, 300)
    planted = vl.glue(vl.random_tangle(np.random.default_rng(1), 6, 297), _braid_left())
    start = time.perf_counter()
    for g in (big, planted):
        for kind in ("R1-", "R2-", "R3"):
            vl.enumerate_move_sites(g, kind)
    assert time.perf_counter() - start < 0.5
    # glue shifts the braid's vertices past the 297 of the random tangle.
    braid_site = vl.MoveSite("R3", (297, 298, 299, 0, 0, 0, +1))
    assert braid_site in vl.enumerate_move_sites(planted, "R3")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown move kind"):
        vl.enumerate_move_sites(vl.loop_diagram(1), "R4")
    with pytest.raises(ValueError):
        vl.enumerate_move_sites(vl.strand_tangle(), "R1+")
    with pytest.raises(ValueError, match="unknown move kind 'R4'"):
        vl.apply_move(vl.loop_diagram(1), vl.MoveSite("R4", ("loop",)))


def test_moves_refuse_a_tangle_with_legs():
    # An open kink: it carries an R1- site as a diagram would.
    open_kink = vl.parse_tangle("x v1 a b b c\nleg 1 a\nleg 2 c")
    with pytest.raises(ValueError, match=r"moves apply to diagrams \(arity 0\) only"):
        vl.apply_move(open_kink, vl.MoveSite("R1-", (0, 0)))
    with pytest.raises(ValueError, match=r"move sites are enumerated on diagrams \(arity 0\) only"):
        vl.random_move(open_kink, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Applying moves


def test_r1_minus_unknots_the_kink():
    g = vl.parse_tangle("x v1 a b b a")
    out = vl.apply_move(g, vl.MoveSite("R1-", (0, 0)))
    assert out == vl.loop_diagram(1)


def test_r1_plus_on_loop_round_trip():
    g = vl.loop_diagram(1)
    kinked = vl.apply_move(g, vl.MoveSite("R1+", ("loop",)))
    assert kinked.num_vertices == 1 and kinked.loop_count == 0
    back = vl.apply_move(kinked, vl.MoveSite("R1-", (0, 0)))
    assert back == g


def test_vertex_count_deltas():
    g = vl.parse_tangle("x v1 a b a b")
    for site in vl.enumerate_move_sites(g, "R1+"):
        assert vl.apply_move(g, site).num_vertices == g.num_vertices + 1
    for site in vl.enumerate_move_sites(g, "R2+"):
        assert vl.apply_move(g, site).num_vertices == g.num_vertices + 2


def test_moves_preserve_partition_function(corpus):
    models = [vl.transmission_model(2), vl.knot_counting_model(), _swap_model()]
    for g in corpus[:10]:
        for model in models:
            before = vl.partition_function(model, g)
            for site in _all_sites(g):
                after = vl.partition_function(model, vl.apply_move(g, site))
                assert abs(after - before) <= 1e-9 * (1.0 + abs(before)), (g, site)


def test_moves_preserve_knot_count(corpus):
    for g in corpus[:10]:
        knots = dfs_knot_components(g)
        for site in _all_sites(g):
            assert dfs_knot_components(vl.apply_move(g, site)) == knots


def test_r2_round_trip_up_to_isomorphism():
    g = vl.parse_tangle("x v1 a b a b")
    key = vl.canonical_key(g)
    for site in vl.enumerate_move_sites(g, "R2+"):
        grown = vl.apply_move(g, site)
        shrunk = [
            vl.canonical_key(vl.apply_move(grown, s))
            for s in vl.enumerate_move_sites(grown, "R2-")
        ]
        assert key in shrunk


def test_r3_round_trip_up_to_isomorphism():
    closed = _closed_braid()
    assert closed.num_vertices == 3
    sites = vl.enumerate_move_sites(closed, "R3")
    assert sites  # the braid pattern is present by construction
    key = vl.canonical_key(closed)
    for site in sites:
        moved = vl.apply_move(closed, site)
        assert moved.num_vertices == 3
        back = [
            vl.canonical_key(vl.apply_move(moved, s))
            for s in vl.enumerate_move_sites(moved, "R3")
        ]
        assert key in back


def _bracket_model() -> vl.VertexModel:
    """The Kauffman bracket at n = 3: R = A d_ij d_kl + A^-1 d_il d_jk with
    loop value -A^2 - A^-2 = 3.  It passes the return and slide conditions
    but not the kink one, and a flipped crossing trades A for A^-1, so its
    f sees a rewrite that flips a crossing; the f of the models above
    depends only on the strands."""
    n = 3
    a = 1j * np.sqrt((3 - np.sqrt(5)) / 2)
    eye = np.eye(n)
    entries = a * np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye) / a
    return vl.VertexModel(n, entries)


def _bracket_drift() -> tuple[float, list[vl.MoveSite]]:
    """The worst relative change of f under `_bracket_model` over every
    enumerated R2+ rewrite and every R2- and R3 anchor, rotations 0..3,
    that `vl.apply_move` accepts, and the sites it accepted.  The seeded
    diagrams are the closed braid and random tangles closed by a crossing
    pair or a braid, so that R2- and R3 sites occur."""
    model = _bracket_model()
    (pair,) = [t for t, c in vl.move_tangles(2) if c == 1.0]
    rng = np.random.default_rng(31)
    diagrams = [_closed_braid()]
    for vertices in range(3):
        diagrams.append(vl.glue(vl.random_tangle(rng, 4, vertices + 1), pair))
        diagrams.append(vl.glue(vl.random_tangle(rng, 6, vertices), _braid_left()))
    rotations = range(4)
    worst, accepted = 0.0, []
    for g in diagrams:
        before = vl.partition_function(model, g)
        ids = range(g.num_vertices)
        sites = vl.enumerate_move_sites(g, "R2+")
        sites += [vl.MoveSite("R2-", a) for a in itertools.product(ids, ids, rotations, rotations)]
        sites += [
            vl.MoveSite("R3", (*vertices, *turns, direction))
            for vertices in itertools.permutations(ids, 3)
            for turns in itertools.product(rotations, repeat=3)
            for direction in (1, -1)
        ]
        for site in sites:
            try:
                moved = vl.apply_move(g, site)
            except ValueError:
                continue
            after = vl.partition_function(model, moved)
            worst = max(worst, abs(after - before) / abs(before))
            accepted.append(site)
    return worst, accepted


def test_rewrites_keep_the_bracket():
    # Rewrites that keep every crossing keep the bracket's f; a rotation of
    # 1 or 3 flips a crossing and is refused.
    worst, accepted = _bracket_drift()
    assert worst <= 1e-9, worst
    kinds = {kind: sum(site.kind == kind for site in accepted) for kind in ("R2+", "R2-", "R3")}
    assert min(kinds.values()) > 0, kinds
    for site in accepted:
        if site.kind != "R2+":
            k = int(site.kind[1])
            assert set(site.anchor[k : 2 * k]) <= {0, 2}, site


def test_the_clasp_has_no_r2_minus_site():
    # Two vertices joined slot to slot with their first two slots crossed:
    # no crossing pair.  R2- (0, 1, 2, 1) turns vertex 1 one slot and would
    # cut the clasp to one loop, moving the bracket's f from -5.29 to 3.
    clasp = vl.parse_tangle("x v0 e0 e1 e2 e3\nx v1 e1 e0 e2 e3")
    assert vl.enumerate_move_sites(clasp, "R2-") == []
    message = r"^stale move site: bad crossing pair anchor \(0, 1, 2, 1\)$"
    with pytest.raises(ValueError, match=message):
        vl.apply_move(clasp, vl.MoveSite("R2-", (0, 1, 2, 1)))


def _rewrite_diagrams() -> list[vl.Tangle]:
    """Seeded diagrams with 0-10 vertices, some carrying vertexless loops or
    kinks, and the diagrams met along random-move chains."""
    diagrams = [vl.empty_tangle(), vl.loop_diagram(2), vl.parse_tangle("loops 1\nx v1 a b b a")]
    rng = np.random.default_rng(11)
    for vertices in range(11):
        for loops in (0, 1):
            diagrams.append(vl.random_tangle(rng, 0, vertices, loop_count=loops))
    return diagrams + _chain_diagrams()


def test_apply_move_matches_cut_and_glue_reference():
    # Every site of every kind, except that R2+ takes every ordered edge
    # pair only on diagrams of at most four vertices and a seeded sample
    # of 20 pairs above that.
    rng = np.random.default_rng(12)
    applied = {kind: 0 for kind in MOVE_KINDS}
    loop_sites = 0
    for g in _rewrite_diagrams():
        for kind in MOVE_KINDS:
            sites = vl.enumerate_move_sites(g, kind)
            if kind == "R2+" and g.num_vertices > 4:
                sites = [sites[int(i)] for i in rng.choice(len(sites), 20, replace=False)]
            for site in sites:
                assert vl.apply_move(g, site) == reference_apply_move(g, site), (g, site)
                applied[kind] += 1
                loop_sites += site.anchor == ("loop",)
    assert min(applied.values()) > 0 and loop_sites > 0, (applied, loop_sites)


def test_a_rewrite_builds_one_tangle(monkeypatch):
    # The cut is a record that only `glue` reads, so the one tangle a
    # rewrite builds, and validates, is its result: for R1+ on an edge and
    # on a loop, R1-, R2+, R2- and R3 in both directions.
    built = []
    post_init = vl.Tangle.__post_init__

    def counted(t):
        built.append(t)
        post_init(t)

    monkeypatch.setattr(vl.Tangle, "__post_init__", counted)
    variants = set()
    for g in _rewrite_diagrams():
        for site in _all_sites(g):
            built.clear()
            moved = vl.apply_move(g, site)
            assert len(built) == 1 and built[0] is moved, (g, site)
            tag = site.anchor[-1] if site.kind == "R3" else site.anchor == ("loop",)
            variants.add((site.kind, tag))
    r3 = {("R3", 1), ("R3", -1)}
    assert {kind for kind, _ in variants} == set(MOVE_KINDS) and r3 <= variants
    assert {("R1+", False), ("R1+", True)} <= variants


def test_stale_sites_raise():
    g = vl.parse_tangle("x v1 a b a b")
    kink = vl.parse_tangle("x v1 a b b a")
    edge_site = vl.enumerate_move_sites(g, "R1+")[0]
    with pytest.raises(ValueError, match="stale"):
        vl.apply_move(vl.loop_diagram(2), edge_site)
    with pytest.raises(ValueError, match="stale"):
        vl.apply_move(g, vl.MoveSite("R1-", (0, 0)))
    with pytest.raises(ValueError, match="stale"):
        vl.apply_move(kink, vl.MoveSite("R1-", (7, 0)))
    with pytest.raises(ValueError, match="stale"):
        vl.apply_move(g, vl.MoveSite("R1+", ("loop",)))
    with pytest.raises(ValueError, match="stale"):
        vl.apply_move(g, vl.MoveSite("R2-", (0, 1, 0, 0)))


def test_every_vertex_anchor_matches_reference_or_its_error():
    # Every R1-, R2- and R3 anchor over the vertices (one past the end too),
    # the rotations 0..3 and the directions of small diagrams, most of them
    # stale, and anchors one entry short.  The rewrite and the reference
    # agree on the result or on the error message; no anchor that passes
    # the pattern checks leaves a slot of a pattern vertex uncovered.
    rng = np.random.default_rng(23)
    diagrams = [_closed_braid(), vl.parse_tangle("x v1 a b b a\nx v2 c d c d")]
    diagrams += [vl.random_tangle(rng, 0, vertices) for vertices in (1, 2, 3, 4, 4)]
    rotations = range(4)
    outcomes = {"applied": 0, "stale": 0}
    for g in diagrams:
        ids = range(g.num_vertices + 1)
        sites = [
            vl.MoveSite("R1-", (v, r))
            for v, r in itertools.product(range(-1, g.num_vertices + 1), rotations)
        ]
        sites += [
            vl.MoveSite("R2-", (u, w, ru, rw))
            for u, w, ru, rw in itertools.product(ids, ids, rotations, rotations)
        ]
        sites += [
            vl.MoveSite("R3", (u, v, w, ru, rv, rw, direction))
            for u, v, w in itertools.product(ids, repeat=3)
            for ru, rv, rw in itertools.product(rotations, repeat=3)
            for direction in (1, -1, 0)
        ]
        sites += [vl.MoveSite(site.kind, site.anchor[:-1]) for site in sites]
        for site in sites:
            _check_against_reference(g, site, outcomes)
    assert min(outcomes.values()) > 0, outcomes


def test_every_edge_anchor_matches_reference_or_its_error():
    # R1+ and R2+ anchors on the same kind of diagrams: every edge, up to
    # three edges of another diagram that this one lacks, every ordered pair
    # of these (equal pairs too), and the loop site with and without a
    # vertexless loop.  Malformed anchors too: R1+ of no edge, of two edges
    # and in the old ("edge", e) form, each edge with its ends swapped, R2+
    # of one edge and of three.  The rewrite and the reference agree on the
    # result or on the error message.
    rng = np.random.default_rng(29)
    diagrams = [_closed_braid(), vl.parse_tangle("x v1 a b b a\nx v2 c d c d")]
    diagrams += [vl.random_tangle(rng, 0, vertices) for vertices in (1, 2, 3, 4)]
    diagrams += [vl.loop_diagram(1), vl.random_tangle(rng, 0, 2, loop_count=1)]
    outcomes = {"applied": 0, "stale": 0, "absent": 0, "loop": 0}
    for g, other in zip(diagrams, diagrams[1:] + diagrams[:1]):
        absent = sorted(other.edges - g.edges)[:3]
        edges = sorted(g.edges) + absent
        pairs = list(itertools.product(edges, repeat=2))
        sites = [vl.MoveSite("R1+", (e,)) for e in edges]
        sites.append(vl.MoveSite("R1+", ("loop",)))
        sites += [vl.MoveSite("R2+", pair) for pair in pairs]
        sites.append(vl.MoveSite("R1+", ()))
        sites += [vl.MoveSite("R1+", pair) for pair in pairs]
        for e in edges:
            swapped = e[::-1]
            sites += [vl.MoveSite("R1+", (e)), vl.MoveSite("R1+", (swapped,))]
            sites += [vl.MoveSite("R2+", (e,)), vl.MoveSite("R2+", (edges[0], swapped))]
        sites += [vl.MoveSite("R2+", (a, b, a)) for a, b in pairs]
        for site in sites:
            _check_against_reference(g, site, outcomes)
        outcomes["absent"] += len(absent)
        outcomes["loop"] += not g.loop_count
    assert min(outcomes.values()) > 0, outcomes


def _check_against_reference(g: vl.Tangle, site: vl.MoveSite, outcomes: dict) -> None:
    """Assert `apply_move` gives the reference's result or its exact error,
    and count which of the two it was."""
    try:
        expected = reference_apply_move(g, site)
    except ValueError as exc:
        assert "pattern does not cover" not in str(exc), (g, site)
        with pytest.raises(ValueError) as info:
            vl.apply_move(g, site)
        assert str(info.value) == str(exc), (g, site)
        outcomes["stale"] += 1
    else:
        assert vl.apply_move(g, site) == expected, (g, site)
        outcomes["applied"] += 1


# ---------------------------------------------------------------------------
# Random moves and witness search


def test_random_move_deterministic():
    g = vl.parse_tangle("x v1 a b a b")
    site_a, out_a = vl.random_move(g, np.random.default_rng(42))
    site_b, out_b = vl.random_move(g, np.random.default_rng(42))
    assert site_a == site_b
    assert out_a == out_b


#: The first 20 moves of a seeded chain from the closed braid.  random_move
#: picks a site by its index, so this pins the order of every site list.
CHAIN_GOLDEN = [
    ("R3", (2, 1, 0, 0, 2, 0, 1)),
    ("R2+", (((0, 2), (2, 1)), ((1, 2), (2, 0)))),
    ("R1-", (1, 2)),
    ("R1+", (((0, 0), (0, 1)),)),
    ("R1+", (((0, 1), (4, 3)),)),
    ("R2-", (2, 3, 0, 0)),
    ("R1-", (3, 0)),
    ("R2+", (((0, 3), (1, 0)), ((1, 2), (1, 3)))),
    ("R2-", (3, 4, 0, 0)),
    ("R2+", (((0, 3), (1, 0)), ((0, 1), (2, 3)))),
    ("R2+", (((3, 3), (4, 3)), ((0, 3), (3, 0)))),
    ("R1-", (2, 0)),
    ("R3", (3, 2, 0, 2, 2, 0, 1)),
    ("R1+", (((1, 1), (4, 3)),)),
    ("R3", (5, 4, 3, 2, 2, 2, 1)),
    ("R1+", (((3, 3), (4, 1)),)),
    ("R2-", (1, 2, 0, 0)),
    ("R3", (2, 3, 4, 0, 0, 0, -1)),
    ("R1+", (((4, 3), (5, 1)),)),
    ("R1+", (((2, 3), (4, 1)),)),
]


def test_random_move_chain_golden():
    g = _closed_braid()
    rng = np.random.default_rng(0)
    chain = []
    for _ in range(len(CHAIN_GOLDEN)):
        site, g = vl.random_move(g, rng)
        chain.append((site.kind, site.anchor))
    assert chain == CHAIN_GOLDEN


def _listed_draw(g: vl.Tangle, rng: np.random.Generator) -> vl.MoveSite:
    """random_move's draw made from the full site list of every kind."""
    lists = [vl.enumerate_move_sites(g, kind) for kind in MOVE_KINDS]
    available = [sites for sites in lists if sites]
    sites = available[int(rng.integers(len(available)))]
    return sites[int(rng.integers(len(sites)))]


def test_random_move_draws_as_from_full_lists():
    drawn = {kind: 0 for kind in MOVE_KINDS}
    for seed in range(40):
        g = vl.random_tangle(np.random.default_rng(seed), 0, seed % 8 + 1)
        rng, listed = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            expected = _listed_draw(g, listed)
            site, g = vl.random_move(g, rng)
            assert site == expected
            drawn[site.kind] += 1
    assert all(drawn.values()), drawn


def test_random_move_needs_sites():
    with pytest.raises(ValueError, match="no move sites"):
        vl.random_move(vl.empty_tangle(), np.random.default_rng(0))


def test_random_move_chain_preserves_f():
    model = _swap_model()
    g = vl.parse_tangle("x v1 a b b a")
    before = vl.partition_function(model, g)
    rng = np.random.default_rng(3)
    for _ in range(40):
        _, g = vl.random_move(g, rng)
    assert abs(vl.partition_function(model, g) - before) <= 1e-9 * (1.0 + abs(before))


def test_witness_found_for_failing_model(corpus):
    model = vl.random_model(2, np.random.default_rng(1), real=True)
    assert not vl.check_algebraic(model).passed
    hit = vl.find_move_witness(model, corpus[:8])
    assert hit is not None
    g, site, delta = hit
    assert delta > 1e-6
    moved = vl.apply_move(g, site)
    change = abs(
        vl.partition_function(model, moved) - vl.partition_function(model, g)
    )
    assert abs(change - delta) < 1e-12


def test_witness_search_refuses_values_that_overflowed():
    # Under the all-1e200 model every f is inf or NaN, so every change is
    # abs(nan) and nan > 1e-6 is False: the search used to report no
    # witness for a model that fails the move conditions.
    model = vl.VertexModel(2, np.full((2,) * 4, 1e200))
    # The empty diagram has no move site, so the second diagram is the one named.
    empty, g = vl.parse_tangle(""), vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    assert not _all_sites(empty)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=r"^diagrams\[1\]: .* not finite"):
            vl.find_move_witness(model, [empty, g])


def _record_rewrites(monkeypatch) -> list[vl.MoveSite]:
    """The sites `find_move_witness` rewrites, in order."""
    applied = []
    original = vl.moves.apply_move

    def counting(g, site):
        applied.append(site)
        return original(g, site)

    monkeypatch.setattr(vl.moves, "apply_move", counting)
    return applied


def test_no_witness_once_every_site_is_checked(monkeypatch):
    # 2^knots is move-invariant, and the kink diagram has fewer sites than
    # the 2,000 checks the search allows: every site is rewritten and
    # evaluated, then None.
    g = vl.parse_tangle("x v1 a b b a")
    sites = _all_sites(g)
    assert 1 < len(sites) < 2000
    applied = _record_rewrites(monkeypatch)
    assert vl.find_move_witness(vl.knot_counting_model(), [g]) is None
    assert applied == sites


def test_witness_search_scans_the_vertices_once_per_diagram(monkeypatch):
    # The R1-, R2- and R3 sites all come from one pass over the vertices;
    # listing the three kinds one by one made three.
    passes = []
    original = vl.moves._vertex_anchors

    def counting(g):
        passes.append(g)
        return original(g)

    monkeypatch.setattr(vl.moves, "_vertex_anchors", counting)
    g = vl.parse_tangle("x v1 a b b a")
    assert vl.find_move_witness(vl.knot_counting_model(), [g]) is None
    assert passes == [g]


def test_witness_search_stops_after_2000_checks(monkeypatch):
    # 401 kink diagrams hold 2,005 sites, none changing 2^knots: the search
    # gives up after the first 2,000 rewrites instead of checking them all.
    g = vl.parse_tangle("x v1 a b b a")
    sites = _all_sites(g) * 401
    assert len(sites) > 2000
    applied = _record_rewrites(monkeypatch)
    assert vl.find_move_witness(vl.knot_counting_model(), [g] * 401) is None
    assert applied == sites[:2000]


def test_no_witness_for_knot_counting_model(corpus):
    # 2^knots is move-invariant even though the model fails the conditions:
    # closed-diagram invariance is strictly weaker than the tensor conditions.
    model = vl.knot_counting_model()
    assert vl.find_move_witness(model, corpus[:6]) is None
