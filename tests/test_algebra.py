import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vlink as vl
import vlink.diagram
from vlink import LEG, QuantumTangle

from oracles import (
    naive_tangle_tensor,
    reference_det_tangle,
    reference_glue,
    reference_tangle_derivative,
)


def _cycle_count(perm: tuple[int, ...]) -> int:
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start in seen:
            continue
        cycles += 1
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return cycles


# ---------------------------------------------------------------------------
# Gluing


def test_glue_strand_closure():
    closed = vl.glue(vl.strand_tangle(), vl.strand_tangle())
    assert closed == vl.loop_diagram(1)


def test_glue_empty_is_disjoint_union(corpus):
    for g in corpus[:8]:
        for h in corpus[:8]:
            assert vl.glue(g, h) == vl.disjoint_union(g, h)


def test_glue_arity_mismatch():
    with pytest.raises(ValueError, match="arity mismatch"):
        vl.glue(vl.strand_tangle(), vl.loop_diagram(1))


@given(st.permutations(range(4)), st.permutations(range(4)))
def test_glue_permutation_matchings_count_cycles(pi, sigma):
    pi, sigma = tuple(pi), tuple(sigma)
    closed = vl.glue(vl.permutation_matching(pi), vl.permutation_matching(sigma))
    assert closed.num_vertices == 0
    composite = tuple(sigma.index(pi[i]) for i in range(len(pi)))
    assert closed.loop_count == _cycle_count(composite)


def test_glue_mixed_open_ends():
    # Glue a crossing (4-tangle) to a pair of bridges; the two bridge arcs
    # close the crossing into the one-vertex two-knot closure.
    crossing = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    bridges = vl.matching_tangle([(1, 3), (2, 4)])
    closed = vl.glue(crossing, bridges)
    assert closed == vl.parse_tangle("x v1 a b a b")


def test_glue_matches_connector_graph_reference():
    # Counted from the output: an edge joining two ends of the same side ran
    # through a leg-to-leg edge of the other side; extra loops are closed
    # chains of legs.
    rng = np.random.default_rng(13)
    seen = {"cross": 0, "leg_to_leg": 0, "closed": 0, "diagram": 0}
    for _ in range(300):
        k = 2 * int(rng.integers(4))
        t = vl.random_tangle(rng, k, int(rng.integers(4)), int(rng.integers(2)))
        u = vl.random_tangle(rng, k, int(rng.integers(4)), int(rng.integers(2)))
        glued = vl.glue(t, u)
        assert glued == reference_glue(t, u), (t, u)
        seen["diagram"] += k == 0
        seen["closed"] += glued.loop_count > t.loop_count + u.loop_count
        shift = t.num_vertices
        passed = t.edges | {((a + shift, s), (b + shift, r)) for (a, s), (b, r) in u.edges if a != LEG}
        for (a, _), (b, _) in glued.edges - passed:
            same_side = (a < t.num_vertices) == (b < t.num_vertices)
            seen["leg_to_leg" if same_side else "cross"] += 1
    assert min(seen.values()) > 0, seen


def test_glue_keeps_vertex_tensors(small_corpus):
    # Gluing never touches vertex rows, only rewires: knot counts from the
    # union-find agree before/after for matched closures of cut diagrams.
    model = vl.random_model(2, np.random.default_rng(0))
    t = vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f")
    u = vl.matching_tangle([(1, 2), (3, 4)])
    closed = vl.glue(t, u)
    assert closed.num_vertices == 2
    ref = naive_tangle_tensor(model.entries, model.n, closed)
    assert abs(vl.partition_function(model, closed) - complex(ref)) < 1e-12


# ---------------------------------------------------------------------------
# Linear combinations


def test_qt_zero_and_of():
    z = QuantumTangle.zero()
    assert len(z) == 0
    one = QuantumTangle.of(vl.loop_diagram(1))
    assert len(one) == 1
    assert one.coefficient(vl.loop_diagram(1)) == 1.0
    absent = one.coefficient(vl.loop_diagram(2))
    assert (type(absent), absent) == (complex, 0j)


def test_qt_merges_isomorphic_terms():
    t = vl.parse_tangle("x v1 a b b a")
    rotated = vl.parse_tangle("x v1 b a a b")  # same graph, frame turned by two
    s = vl.qt_add(QuantumTangle.of(t), QuantumTangle.of(rotated))
    assert len(s) == 1
    assert s.coefficient(t) == 2.0


def test_qt_cancellation_prunes():
    t = vl.parse_tangle("x v1 a b a b")
    s = vl.qt_add(QuantumTangle.of(t), QuantumTangle.of(t, -1.0))
    assert s == QuantumTangle.zero()


def test_qt_scale():
    t = vl.loop_diagram(2)
    s = vl.qt_scale(2.5j, QuantumTangle.of(t, 2.0))
    assert s.coefficient(t) == 5.0j
    assert vl.qt_scale(0.0, s) == QuantumTangle.zero()


def test_a_combination_holds_tangle_coefficient_pairs():
    t = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    for qt in (QuantumTangle.of(t, 2.0), vl.qt_scale(3.0, vl.tangle_derivative(vl.loop_diagram(1)))):
        assert all(len(term) == 2 and isinstance(term[1], complex) for term in qt.terms)
        assert list(qt) == list(qt.terms)


def test_of_and_qt_scale_make_no_key():
    # Neither can merge terms, so neither keys a tangle: the key cache sees
    # no lookup at all, hit or miss.
    t = vl.parse_tangle("x v1 a b c d\nx v2 a c e f\nleg 1 b\nleg 2 d\nleg 3 e\nleg 4 f")
    vlink.diagram._canonical_key.cache_clear()
    one = QuantumTangle.of(t, 2.0)
    scaled = vl.qt_scale(-1.5j, one)
    assert vl.key_cache_info()[:2] == (0, 0)
    assert scaled.terms == ((t, -3.0j),)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), complex(0, float("nan"))])
def test_a_coefficient_that_is_not_finite_is_refused(bad):
    t = vl.loop_diagram(1)
    with pytest.raises(ValueError, match="coefficient must be finite"):
        QuantumTangle.of(t, bad)
    for a in (QuantumTangle.of(t), QuantumTangle.zero()):
        with pytest.raises(ValueError, match="coefficient must be finite"):
            vl.qt_scale(bad, a)


def test_a_huge_finite_coefficient_is_kept():
    # Its modulus overflows a float, so abs() raises OverflowError on it.
    t = vl.loop_diagram(1)
    big = 1.7e308 + 1.7e308j
    assert QuantumTangle.of(t, big).terms == ((t, big),)


def test_a_product_or_sum_that_overflows_is_refused():
    # Finite coefficients whose product or sum is not finite once made
    # terms like (nan+infj), which evaluated to (nan+nanj).
    t, s = vl.loop_diagram(1), vl.strand_tangle()
    big = 1e300 + 1e300j
    for build in (
        lambda: vl.qt_scale(big, QuantumTangle.of(t, big)),
        lambda: vl.qt_add(QuantumTangle.of(t, 1.7e308), QuantumTangle.of(t, 1.7e308)),
        lambda: vl.qt_glue(QuantumTangle.of(s, big), QuantumTangle.of(s, big)),
    ):
        with pytest.raises(ValueError, match="coefficient must be finite"):
            build()


@given(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
)
def test_qt_evaluate_is_linear(za, zb):
    model = vl.knot_counting_model()
    a = QuantumTangle.of(vl.parse_tangle("x v1 a b a b"))
    b = QuantumTangle.of(vl.loop_diagram(1))
    combo = vl.qt_add(vl.qt_scale(za, a), vl.qt_scale(zb, b))
    fa = vl.qt_evaluate(model, a)
    fb = vl.qt_evaluate(model, b)
    assert abs(vl.qt_evaluate(model, combo) - (za * fa + zb * fb)) < 1e-9


def test_qt_glue_bilinear():
    s = vl.strand_tangle()
    lhs = vl.qt_glue(
        vl.qt_add(QuantumTangle.of(s, 2.0), QuantumTangle.of(s, 1.0)),
        QuantumTangle.of(s),
    )
    assert lhs.coefficient(vl.loop_diagram(1)) == 3.0


def test_qt_glue_skips_mismatched_arities():
    mixed = vl.qt_add(
        QuantumTangle.of(vl.strand_tangle()),
        QuantumTangle.of(vl.loop_diagram(1)),
    )
    out = vl.qt_glue(mixed, QuantumTangle.of(vl.strand_tangle()))
    # Only the strand term glues; the closed term has no legs to attach.
    assert out.coefficient(vl.loop_diagram(1)) == 1.0
    assert len(out) == 1


# ---------------------------------------------------------------------------
# Matchings, permutation tangles, determinant tangles


def test_matching_tangle():
    t = vl.matching_tangle([(1, 4), (2, 3)])
    assert t.arity == 4
    assert ((LEG, 1), (LEG, 4)) in t.edges
    with pytest.raises(ValueError):
        vl.matching_tangle([(1, 1)])


def test_permutation_matching_identity():
    t = vl.permutation_matching((0, 1, 2))
    assert t.edges == frozenset(
        {((LEG, 1), (LEG, 4)), ((LEG, 2), (LEG, 5)), ((LEG, 3), (LEG, 6))}
    )


def test_permutation_matching_refuses_a_non_permutation():
    for perm in ((0, 0), (1, 2), (0, 1, 3)):
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.\d: "):
            vl.permutation_matching(perm)


def test_det_tangle_term_count_and_signs():
    d2 = vl.det_tangle(2)
    assert len(d2) == 2
    identity = vl.permutation_matching((0, 1))
    swap = vl.permutation_matching((1, 0))
    assert d2.coefficient(identity) == 1.0
    assert d2.coefficient(swap) == -1.0
    d3 = vl.det_tangle(3)
    assert len(d3) == 6
    assert sum(c for _, c in d3) == 0  # three even, three odd permutations


def test_det_tangle_arity_bound():
    with pytest.raises(ValueError):
        vl.det_tangle(7)
    assert len(vl.det_tangle(6)) == 720


def test_det_tangle_alternates_under_leg_swap():
    # Swapping two of the first m legs negates the combination.
    d3 = vl.det_tangle(3)
    perm = {1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}
    swapped = QuantumTangle.zero()
    for t, c in d3:
        swapped = vl.qt_add(swapped, QuantumTangle.of(vl.relabel_legs(t, perm), c))
    assert swapped == vl.qt_scale(-1.0, d3)


def test_det_tangle_pairs_to_matrix_determinant():
    # Gluing legs m+1..2m back to 1..m by a permutation matching and summing
    # with a strand-product model reproduces det of the strand matrix powers:
    # for the identity matching and transmission the value is the signed sum
    # of n**cycles, the standard permanent-style expansion of a determinant.
    n = 3
    model = vl.transmission_model(n)
    value = vl.qt_evaluate(
        model, vl.qt_glue(vl.det_tangle(n), QuantumTangle.of(vl.permutation_matching(tuple(range(n)))))
    )
    expected = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1
        lst = list(perm)
        for i in range(n):  # selection-sort parity
            if lst[i] != i:
                j = lst.index(i)
                lst[i], lst[j] = lst[j], lst[i]
                sign = -sign
        expected += sign * n ** _cycle_count(perm)
    assert abs(value - expected) < 1e-9


def test_det_tangle_matches_the_uncached_builder():
    # Built once per m and shared: the same terms, bit for bit, as a fresh
    # build, whatever m was asked for before.
    for m in (3, 1, 2, 3, 6, 4, 2, 5, 1):
        assert vl.det_tangle(m) == reference_det_tangle(m), m
        assert vl.det_tangle(m) is vl.det_tangle(m)


def test_det_tangle_checks_its_bounds_on_every_call():
    vl.det_tangle(4)
    for _ in range(2):
        for m in (0, -1):
            with pytest.raises(ValueError, match="det_tangle needs m >= 1"):
                vl.det_tangle(m)
        with pytest.raises(ValueError, match=r"det_tangle\(m=7\) would have 7! terms, above the bound m <= 6"):
            vl.det_tangle(7)
    assert vl.det_tangle(4) == reference_det_tangle(4)


# ---------------------------------------------------------------------------
# Derivative combinations


def test_tangle_derivative_structure():
    g = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    d = vl.tangle_derivative(g)
    assert d.arities == {4}
    for t, c in d:
        assert t.num_vertices == 1
        assert c.imag == 0 and c.real > 0
        assert (2 * c.real) == int(2 * c.real)  # merged halves stay half-integral
    total = sum(c for _, c in d)
    assert abs(total - g.num_vertices) < 1e-12


def test_tangle_derivative_empty_for_vertexless():
    assert vl.tangle_derivative(vl.loop_diagram(2)) == QuantumTangle.zero()


def test_tangle_derivative_refuses_a_tangle_with_legs():
    open_kink = vl.parse_tangle("x v1 a b b c\nleg 1 a\nleg 2 c")
    with pytest.raises(ValueError, match=r"tangle_derivative is defined for diagrams \(arity 0\) only"):
        vl.tangle_derivative(open_kink)


def test_tangle_derivative_matches_reference():
    # Equal combinations: the same keys, coefficients and representatives.
    diagrams = [
        vl.parse_tangle("x v1 a a b b"),
        vl.parse_tangle("loops 2\nx v1 a b b a\nx v2 c d c d"),
    ]
    rng = np.random.default_rng(22)
    for vertices in range(11):
        for loops in (0, 1, 2):
            diagrams.append(vl.random_tangle(rng, 0, vertices, loop_count=loops))
    self_loops = 0
    for g in diagrams:
        assert vl.tangle_derivative(g) == reference_tangle_derivative(g), g
        self_loops += any(a[0] == b[0] for a, b in g.edges)
    assert self_loops > 2


# ---------------------------------------------------------------------------
# Combination manifests


def test_load_quantum_tangle(tmp_path):
    vl.save_tangle(vl.loop_diagram(1), str(tmp_path / "one.vld"))
    vl.save_tangle(vl.parse_tangle("x v1 a b a b"), str(tmp_path / "two.vld"))
    manifest = tmp_path / "combo.qtl"
    manifest.write_text(
        "# closed combination\nterm 1 0 one.vld\nterm -0.5 2 two.vld\n"
    )
    qt = vl.load_quantum_tangle(str(manifest))
    assert qt.coefficient(vl.loop_diagram(1)) == 1.0
    assert qt.coefficient(vl.parse_tangle("x v1 a b a b")) == -0.5 + 2.0j


def test_load_quantum_tangle_rejects_non_finite_coefficients(tmp_path):
    vl.save_tangle(vl.loop_diagram(1), str(tmp_path / "one.vld"))
    manifest = tmp_path / "bad.qtl"
    for part in ("nan", "inf", "-Infinity"):
        for line in (f"term {part} 0 one.vld", f"term 1 {part} one.vld"):
            manifest.write_text(f"term 1 0 one.vld\n{line}\n")
            with pytest.raises(vl.VldError, match="coefficient parts must be finite") as info:
                vl.load_quantum_tangle(str(manifest))
            assert (info.value.source, info.value.line) == (str(manifest), 2)


def test_load_quantum_tangle_names_the_manifest_when_terms_sum_past_the_float_range(tmp_path):
    vl.save_tangle(vl.loop_diagram(1), str(tmp_path / "one.vld"))
    manifest = tmp_path / "sum.qtl"
    manifest.write_text("term 1.7e308 0 one.vld\nterm 1.7e308 0 one.vld\n")
    with pytest.raises(vl.VldError, match="coefficient must be finite") as info:
        vl.load_quantum_tangle(str(manifest))
    assert (info.value.source, info.value.line) == (str(manifest), None)


def test_load_quantum_tangle_errors(tmp_path):
    manifest = tmp_path / "bad.qtl"
    manifest.write_text("term 1 0\n")
    with pytest.raises(ValueError, match="term <re> <im> <path>"):
        vl.load_quantum_tangle(str(manifest))
    manifest.write_text("add 1 0 x.vld\n")
    with pytest.raises(ValueError, match="term"):
        vl.load_quantum_tangle(str(manifest))
    for line in ("term one 0 x.vld", "term 1 0j x.vld"):
        manifest.write_text(f"{line}\n")
        with pytest.raises(vl.VldError, match="coefficient parts must be numbers") as info:
            vl.load_quantum_tangle(str(manifest))
        assert (info.value.source, info.value.line) == (str(manifest), 1)
