import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vlink as vl
import vlink.diagram
from vlink import LEG

from oracles import brute_isomorphic, dfs_knot_components, reference_relabel_legs


# ---------------------------------------------------------------------------
# Construction and validation


def test_builders():
    assert vl.empty_tangle() == vl.Tangle(0, 0, frozenset(), 0)
    assert vl.loop_diagram(3).loop_count == 3
    strand = vl.strand_tangle()
    assert strand.arity == 2 and strand.num_vertices == 0


def test_build_tangle_infers_arity():
    t = vl.build_tangle(1, [((LEG, 1), (0, 0)), ((0, 1), (0, 2)), ((0, 3), (LEG, 2))])
    assert t.arity == 2
    assert t.num_vertices == 1


def test_validation_rejects_bad_matchings():
    with pytest.raises(ValueError, match="more than one edge"):
        vl.Tangle(
            0,
            2,
            frozenset({((LEG, 1), (LEG, 2)), ((LEG, 1), (LEG, 2))} | {((-2, 0), (LEG, 1))}),
        )
    with pytest.raises(ValueError, match="perfect matching"):
        vl.Tangle(1, 0, frozenset({((0, 0), (0, 1))}))
    with pytest.raises(ValueError, match="arity must be even"):
        vl.Tangle(0, 1, frozenset({((LEG, 1), (0, 0))}))
    with pytest.raises(ValueError, match="nonnegative"):
        vl.Tangle(0, 0, frozenset(), -1)
    with pytest.raises(ValueError, match="leg labels must be 1"):
        vl.build_tangle(0, [((LEG, 2), (LEG, 3))])


_PERFECT_MATCHING = "edges do not form a perfect matching on the endpoint set"


@pytest.mark.parametrize(
    "num_vertices, arity, edges, message",
    [
        (
            0, 2, [((LEG, 1), (LEG, 2), (LEG, 3))],
            "edge ((-1, 1), (-1, 2), (-1, 3)) is not a sorted pair of distinct endpoints",
        ),
        (
            0, 2, [((LEG, 2), (LEG, 1))],
            "edge ((-1, 2), (-1, 1)) is not a sorted pair of distinct endpoints",
        ),
        (
            0, 2, [((LEG, 1), (LEG, 1)), ((LEG, 2), (0, 0))],
            "edge ((-1, 1), (-1, 1)) is not a sorted pair of distinct endpoints",
        ),
        (
            0, 4, [((LEG, 1), (LEG, 2)), ((LEG, 1), (LEG, 3))],
            "endpoint (-1, 1) used by more than one edge",
        ),
        (
            1, 0, [((0, 0), (0, 1))],
            f"{_PERFECT_MATCHING} (missing [(0, 2), (0, 3)], unexpected [])",
        ),
        (
            1, 0, [((0, 0), (0, 1)), ((0, 2), (1, 3))],
            f"{_PERFECT_MATCHING} (missing [(0, 3)], unexpected [(1, 3)])",
        ),
        (
            0, 2, [((LEG, 1), (LEG, 3))],
            f"{_PERFECT_MATCHING} (missing [(-1, 2)], unexpected [(-1, 3)])",
        ),
        (
            0, 0, [((0, 0), (0, 1))],
            f"{_PERFECT_MATCHING} (missing [], unexpected [(0, 0), (0, 1)])",
        ),
    ],
    ids=[
        "three-tuple",
        "unsorted-pair",
        "self-pair",
        "repeated-endpoint",
        "missing-endpoint",
        "vertex-out-of-range",
        "leg-above-arity",
        "edges-without-vertices",
    ],
)
def test_validation_messages(num_vertices, arity, edges, message):
    with pytest.raises(ValueError) as info:
        vl.Tangle(num_vertices, arity, frozenset(edges))
    assert str(info.value) == message


def test_tangle_is_hashable_and_frozen():
    t = vl.parse_tangle("x v1 a b a b")
    assert hash(t) == hash(vl.parse_tangle("x v1 a b a b"))
    with pytest.raises(AttributeError):
        t.loop_count = 5


def test_equal_tangles_built_differently_hash_equal():
    # The hash is computed once per tangle; equal tangles must still agree
    # on it whichever route built them.
    text = "x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f"
    parsed = vl.parse_tangle(text)
    built = vl.build_tangle(2, [(b, a) for a, b in sorted(parsed.edges, reverse=True)])
    assert built == parsed and hash(built) == hash(parsed)
    # The value is the field tuple's, so dict and set orders do not change.
    assert hash(parsed) == hash((2, 4, parsed.edges, 0))
    assert {parsed: 1}[built] == 1

    crossing = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    glued = vl.glue(crossing, vl.matching_tangle([(1, 3), (2, 4)]))
    by_hand = vl.Tangle(1, 0, frozenset({((0, 0), (0, 2)), ((0, 1), (0, 3))}))
    assert glued == by_hand and hash(glued) == hash(by_hand)

    # A copy with a changed field hashes as a tangle built with that field.
    looped = dataclasses.replace(parsed, loop_count=2)
    assert hash(looped) == hash(vl.parse_tangle("loops 2\n" + text))


# ---------------------------------------------------------------------------
# Parsing and serialization


def test_parse_basic():
    t = vl.parse_tangle(
        """
        # a one-crossing closure plus a free loop
        loops 1
        x v1 a b a b
        """
    )
    assert (t.num_vertices, t.arity, t.loop_count) == (1, 0, 1)
    assert ((0, 0), (0, 2)) in t.edges
    assert ((0, 1), (0, 3)) in t.edges


def test_parse_legs_and_comments():
    t = vl.parse_tangle("x v1 a b c c  # kink\nleg 1 a\nleg 2 b\n")
    assert t.arity == 2
    assert ((LEG, 1), (0, 0)) in t.edges
    assert ((LEG, 2), (0, 1)) in t.edges
    assert ((0, 2), (0, 3)) in t.edges


def test_parse_empty_text_is_empty_diagram():
    assert vl.parse_tangle("") == vl.empty_tangle()
    assert vl.parse_tangle("# nothing\n\n") == vl.empty_tangle()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("loops", "expected: loops"),
        ("loops x", "not an integer"),
        ("loops -1", "nonnegative"),
        ("x v1 a b c", "expected: x"),
        ("x v1 a b c d\nx v1 e f e f", "duplicate vertex"),
        ("leg 1 a\nleg 1 b", "duplicate leg label"),
        ("leg 0 a", "start at 1"),
        ("leg one a", "not an integer"),
        ("x v1 a b a b\nleg 1", "expected: leg <label> <edge-id>"),
        ("x v1 a b a b\nleg 1 a b", "expected: leg <label> <edge-id>"),
        ("spin v1 a b c d", "unknown directive"),
        ("x v1 a a a b\nleg 1 b", "occurs 3 time"),
        ("x v1 a b c d\nx v2 a b c d\nleg 1 e", "occurs 1 time"),
        ("x v1 a b c d\nx v2 a b c d\nleg 1 c\nleg 3 d", "not contiguous"),
        ("x v1 a b a b\nleg 10000000 c\nleg 1 c", r"missing \[2\]\)$"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(vl.VldError, match=fragment):
        vl.parse_tangle(text)


def test_parse_error_carries_location():
    with pytest.raises(vl.VldError) as info:
        vl.parse_tangle("loops 1\nx v1 a b c", source="bad.vld")
    assert "bad.vld:2" in str(info.value)
    assert info.value.line == 2


@pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c"])
def test_lines_end_at_newline_only(tmp_path, separator):
    # A comment runs to the next "\n", whatever other line separator it
    # holds, in .vld and .qtl files alike; error lines count "\n" only.
    vld = tmp_path / "c.vld"
    vld.write_text(f"x v1 a b b a  # kink{separator}see below\n", encoding="utf-8")
    assert vl.load_tangle(str(vld)) == vl.parse_tangle("x v1 a b b a")
    qtl = tmp_path / "c.qtl"
    qtl.write_text(f"# kink{separator}see below\nterm 2 0 c.vld\n", encoding="utf-8")
    assert vl.load_quantum_tangle(str(qtl)).terms == ((vl.parse_tangle("x v1 a b b a"), 2),)
    for load, path, text in (
        (vl.load_quantum_tangle, qtl, "term 1 0 c.vld"),
        (vl.load_tangle, vld, "x v1 a b b a"),
    ):
        path.write_text(f"# one{separator}two\n{text}\nbogus\n", encoding="utf-8")
        with pytest.raises(vl.VldError) as info:
            load(str(path))
        assert (info.value.source, info.value.line) == (str(path), 3)


def test_serialize_round_trip_corpus(corpus):
    for t in corpus:
        again = vl.parse_tangle(vl.serialize_tangle(t))
        assert again == t


def test_serialize_round_trip_with_legs():
    t = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    assert vl.parse_tangle(vl.serialize_tangle(t)) == t
    assert vl.serialize_tangle(vl.empty_tangle()) == ""


@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.sampled_from([0, 2, 4]))
def test_serialize_round_trip_random(seed, vertices, arity):
    rng = np.random.default_rng(seed)
    t = vl.random_tangle(rng, arity, vertices, loop_count=seed % 3)
    assert vl.parse_tangle(vl.serialize_tangle(t)) == t


def test_save_load(tmp_path):
    t = vl.parse_tangle("x v1 a b a b")
    path = str(tmp_path / "one.vld")
    vl.save_tangle(t, path)
    assert vl.load_tangle(path) == t


# ---------------------------------------------------------------------------
# Knot components


def test_knot_components_known_values():
    assert vl.knot_components(vl.empty_tangle()) == 0
    assert vl.knot_components(vl.loop_diagram(2)) == 2
    # One crossing, both strands pass through: slots (0,2) and (1,3) pair up.
    assert vl.knot_components(vl.parse_tangle("x v1 a b a b")) == 2
    assert vl.knot_components(vl.parse_tangle("x v1 a b b a")) == 1
    assert vl.knot_components(vl.parse_tangle("loops 1\nx v1 a b a b")) == 3


def test_knot_components_refuses_a_tangle_with_legs():
    with pytest.raises(ValueError, match=r"knot_components is defined for diagrams \(arity 0\) only"):
        vl.knot_components(vl.strand_tangle())


def test_knot_components_matches_dfs_oracle(corpus):
    for g in corpus:
        assert vl.knot_components(g) == dfs_knot_components(g)


def test_knot_components_additive_under_union(corpus):
    for g in corpus[:6]:
        for h in corpus[:6]:
            u = vl.disjoint_union(g, h)
            assert vl.knot_components(u) == vl.knot_components(g) + vl.knot_components(h)


# ---------------------------------------------------------------------------
# Disjoint union and leg relabeling


def test_disjoint_union_counts():
    g = vl.parse_tangle("x v1 a b a b")
    h = vl.parse_tangle("loops 2\nx v1 a b b a")
    u = vl.disjoint_union(g, h)
    assert u.num_vertices == 2
    assert u.loop_count == 2
    assert len(u.edges) == 4


def test_disjoint_union_rejects_open_tangles():
    with pytest.raises(ValueError):
        vl.disjoint_union(vl.strand_tangle(), vl.loop_diagram(1))


def test_relabel_legs():
    t = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    u = vl.relabel_legs(t, {1: 2, 2: 1, 3: 4, 4: 3})
    assert ((LEG, 2), (0, 0)) in u.edges
    assert ((LEG, 1), (0, 1)) in u.edges
    assert vl.relabel_legs(u, {1: 2, 2: 1, 3: 4, 4: 3}) == t
    with pytest.raises(ValueError):
        vl.relabel_legs(t, {1: 1, 2: 2, 3: 3, 4: 5})


def test_relabel_legs_matches_reference():
    rng = np.random.default_rng(21)
    leg_pairs = loops = 0
    for vertices in range(11):
        for arity in (0, 2, 4, 6, 8):
            for _ in range(3):
                t = vl.random_tangle(rng, arity, vertices, loop_count=int(rng.integers(3)))
                perm = dict(zip(range(1, arity + 1), (rng.permutation(arity) + 1).tolist()))
                assert vl.relabel_legs(t, perm) == reference_relabel_legs(t, perm), (t, perm)
                leg_pairs += any(a[0] == b[0] == LEG for a, b in t.edges)
                loops += t.loop_count > 0
    assert leg_pairs and loops, (leg_pairs, loops)


# ---------------------------------------------------------------------------
# Canonical form


def _transformed(t: vl.Tangle, perm: list[int], rotations: list[int]) -> vl.Tangle:
    def mapped(ep):
        v, s = ep
        if v == LEG:
            return ep
        return perm[v], (s + rotations[v]) % 4

    return vl.build_tangle(
        t.num_vertices,
        [(mapped(a), mapped(b)) for a, b in t.edges],
        t.loop_count,
    )


def _random_copy(rng, t: vl.Tangle) -> vl.Tangle:
    """``t`` with vertices randomly permuted and frames rotated by two."""
    perm = [int(p) for p in rng.permutation(t.num_vertices)]
    rotations = [int(r) * 2 for r in rng.integers(0, 2, size=t.num_vertices)]
    return _transformed(t, perm, rotations)


def test_canonical_key_invariant_under_relabeling():
    rng = np.random.default_rng(99)
    for _ in range(40):
        t = vl.random_tangle(rng, int(rng.integers(0, 3)) * 2, int(rng.integers(1, 5)))
        u = _random_copy(rng, t)
        assert brute_isomorphic(t, u)
        assert vl.canonical_key(t) == vl.canonical_key(u)


def test_canonical_key_distinguishes_frame_shift():
    # Loops attached at slots (0,1)/(2,3) versus (1,2)/(3,0): related only by
    # a rotation by one, which is not an isomorphism of tangles.
    t = vl.parse_tangle("x v1 a a b b")
    u = vl.parse_tangle("x v1 a b b a")
    assert not brute_isomorphic(t, u)
    assert vl.canonical_key(t) != vl.canonical_key(u)


def test_canonical_key_per_leg_labels():
    t = vl.strand_tangle()
    u = vl.build_tangle(0, [((LEG, 1), (LEG, 3)), ((LEG, 2), (LEG, 4))])
    w = vl.build_tangle(0, [((LEG, 1), (LEG, 4)), ((LEG, 2), (LEG, 3))])
    assert len({vl.canonical_key(x) for x in (t, u, w)}) == 3


def test_canonical_key_agrees_with_brute_oracle():
    rng = np.random.default_rng(5)
    pool = []
    for _ in range(40):
        t = vl.random_tangle(
            rng, 2 * int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 2))
        )
        pool += [t, _random_copy(rng, t)]
    for i, t in enumerate(pool):
        for u in pool[i + 1 :]:
            assert (vl.canonical_key(t) == vl.canonical_key(u)) == brute_isomorphic(t, u)


def _ring(size: int) -> vl.Tangle:
    """Vertex-transitive closed diagram: slots 2, 3 of each vertex feed 0, 1 of the next."""
    edges = []
    for v in range(size):
        w = (v + 1) % size
        edges += [((v, 2), (w, 0)), ((v, 3), (w, 1))]
    return vl.build_tangle(size, edges)


def test_canonical_key_large_and_vertex_transitive():
    rng = np.random.default_rng(1)
    ring = _ring(8)
    assert vl.canonical_key(ring) == vl.canonical_key(_random_copy(rng, ring))
    big = vl.random_tangle(rng, 0, 12)
    assert vl.canonical_key(big) == vl.canonical_key(_random_copy(rng, big))
    # Rotating one frame by a single slot swaps over- and under-strand there.
    for size in (3, 4, 5, 8):
        ring = _ring(size)
        shifted = _transformed(ring, list(range(size)), [1] + [0] * (size - 1))
        if size <= 5:
            assert not brute_isomorphic(ring, shifted)
        assert vl.canonical_key(ring) != vl.canonical_key(shifted)


@pytest.fixture
def empty_key_cache():
    """An empty key cache, emptied again afterwards so a test's flood dies with it."""
    vlink.diagram._canonical_key.cache_clear()
    yield
    vlink.diagram._canonical_key.cache_clear()


def test_canonical_key_cache_is_bounded(empty_key_cache):
    rng = np.random.default_rng(8)
    early = [
        vl.random_tangle(rng, 2 * int(rng.integers(0, 3)), int(rng.integers(1, 6)))
        for _ in range(20)
    ]
    keys = [vl.canonical_key(t) for t in early]
    favourite = early[0]
    bound = vl.key_cache_info().bound
    assert bound == vlink.diagram.KEY_CACHE_BOUND
    # Vertexless diagrams with distinct loop counts: distinct and cheap to key.
    for count in range(bound + 1):
        vl.canonical_key(vl.loop_diagram(count))
        if count % (bound // 4) == 0:
            vl.canonical_key(favourite)  # a hit keeps it recently used
        assert vl.key_cache_info().size <= bound
    info = vl.key_cache_info()
    assert info.size == bound
    assert vl.canonical_key(favourite) == keys[0]
    assert vl.key_cache_info().hits == info.hits + 1
    # Every other early tangle was evicted; its key is recomputed unchanged.
    assert [vl.canonical_key(t) for t in early[1:]] == keys[1:]
    assert vl.key_cache_info().misses == info.misses + len(set(early[1:]) - {favourite})
    assert vl.key_cache_info().size == bound


def test_canonical_key_does_not_keep_its_tangle_alive():
    # Keys are cached by a tangle's fields, so a keyed tangle and the plan
    # it carries die with their last reference, while an equal tangle built
    # anew still finds its key in the cache.
    def fresh() -> vl.Tangle:
        return vl.random_tangle(np.random.default_rng(12), 4, 5)

    t = fresh()
    key = vl.canonical_key(t)
    tangle, plan = weakref.ref(t), weakref.ref(vl.plan_contraction(t, 2))
    del t
    gc.collect()
    assert tangle() is None and plan() is None
    info = vl.key_cache_info()
    assert vl.canonical_key(fresh()) == key
    assert vl.key_cache_info()[:2] == (info.hits + 1, info.misses)
