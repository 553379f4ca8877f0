import copy
import gc
import json
import os
import pickle
import re
import warnings
import weakref

import numpy as np
import pytest

import vlink as vl
import vlink.model

from vlink.cli import main
from vlink.model import MODEL_CACHE_BOUND

from oracles import dfs_knot_components, naive_tangle_tensor, reference_load_model


# ---------------------------------------------------------------------------
# Model construction and validation


def test_vertex_model_requires_swap_invariance():
    raw = np.zeros((2, 2, 2, 2))
    raw[0, 0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="swap"):
        vl.VertexModel(2, raw)
    model = vl.symmetrize(raw)
    assert np.allclose(model.entries, model.entries.transpose(2, 3, 0, 1))
    assert model.entries[0, 0, 0, 1] == 0.5
    assert model.entries[0, 1, 0, 0] == 0.5


def test_vertex_model_shape_check():
    with pytest.raises(ValueError):
        vl.VertexModel(2, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        vl.VertexModel(3, np.zeros((2, 2, 2, 2)))


def test_vertex_model_entries_frozen():
    model = vl.transmission_model(2)
    with pytest.raises(ValueError):
        model.entries[0, 0, 0, 0] = 7.0


def test_vertex_model_rejects_non_finite_entries():
    for value in (np.nan, np.inf, complex(0, -np.inf)):
        raw = np.zeros((2, 2, 2, 2), dtype=complex)
        raw[1, 0, 1, 0] = value  # swap-invariant: only finiteness fails
        with pytest.raises(ValueError, match="finite"):
            vl.VertexModel(2, raw)


def test_symmetrize_refuses_arrays_not_n_by_n_by_n_by_n():
    for shape in ((2, 2, 2), (2, 2, 3, 3), (2,) * 5):
        with pytest.raises(ValueError, match=re.escape(f"expected shape (n, n, n, n), got {shape}")):
            vl.symmetrize(np.zeros(shape))


def test_symmetrize_is_idempotent():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((3,) * 4) + 1j * rng.standard_normal((3,) * 4)
    once = vl.symmetrize(raw)
    twice = vl.symmetrize(once.entries)
    assert np.array_equal(once.entries, twice.entries)


def test_perturbed():
    model = vl.transmission_model(2)
    direction = vl.random_model(2, np.random.default_rng(1))
    shifted = model.perturbed(direction, 0.5)
    assert np.allclose(shifted.entries, model.entries + 0.5 * direction.entries)
    with pytest.raises(ValueError):
        model.perturbed(vl.random_model(3, np.random.default_rng(2)), 0.1)


def test_norm_and_is_real():
    assert vl.transmission_model(2).is_real
    assert not vl.knot_counting_model().is_real
    assert vl.transmission_model(2).norm == 2.0  # |I (x) I|_F = n


# ---------------------------------------------------------------------------
# Stock models evaluate to closed forms


def test_transmission_counts_colorings(corpus):
    for n in (1, 2, 3):
        model = vl.transmission_model(n)
        for g in corpus:
            expected = float(n) ** dfs_knot_components(g)
            assert abs(vl.partition_function(model, g) - expected) <= 1e-9 * expected


def test_knot_counting_model_on_corpus(corpus):
    model = vl.knot_counting_model()
    for g in corpus:
        expected = 2.0 ** dfs_knot_components(g)
        value = vl.partition_function(model, g)
        assert abs(value - expected) <= 1e-9 * expected


def test_strand_product_traces():
    model = vl.strand_product_model(np.diag([1.0, 2.0]))
    # Two knots, one vertex each: tr(A)^2.  One knot through both slots: tr(A^2).
    assert vl.partition_function(model, vl.parse_tangle("x v1 a b a b")) == 9.0
    assert vl.partition_function(model, vl.parse_tangle("x v1 a b b a")) == 5.0
    with pytest.raises(ValueError, match="symmetric"):
        vl.strand_product_model(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for a in (np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="need a square matrix"):
            vl.strand_product_model(a)


def test_basic_normalizations():
    model = vl.random_model(3, np.random.default_rng(3))
    assert vl.partition_function(model, vl.empty_tangle()) == 1.0 + 0.0j
    assert vl.partition_function(model, vl.loop_diagram(1)) == 3.0 + 0.0j
    assert vl.partition_function(model, vl.loop_diagram(2)) == 9.0 + 0.0j


# ---------------------------------------------------------------------------
# Random generators


def test_random_model_deterministic():
    a = vl.random_model(2, np.random.default_rng(5))
    b = vl.random_model(2, np.random.default_rng(5))
    assert np.array_equal(a.entries, b.entries)
    assert not vl.random_model(2, np.random.default_rng(6)).is_real
    assert vl.random_model(2, np.random.default_rng(6), real=True).is_real


def test_random_orthogonal_real():
    for seed in range(5):
        u = vl.random_orthogonal(3, np.random.default_rng(seed), real=True)
        assert np.all(u.imag == 0)
        assert np.linalg.norm(u.T @ u - np.eye(3)) < 1e-12


def test_random_orthogonal_complex_cayley():
    for seed in range(5):
        u = vl.random_orthogonal(3, np.random.default_rng(seed))
        assert np.linalg.norm(u.imag) > 1e-3  # genuinely complex
        assert np.linalg.norm(u.T @ u - np.eye(3)) < 1e-10


def test_cayley_orthogonal_validates():
    with pytest.raises(ValueError, match="antisymmetric"):
        vl.cayley_orthogonal(np.eye(2))


# ---------------------------------------------------------------------------
# Orthogonal action


def test_apply_orthogonal_fixes_transmission():
    model = vl.transmission_model(3)
    u = vl.random_orthogonal(3, np.random.default_rng(7))
    moved = vl.apply_orthogonal(model, u)
    assert np.allclose(moved.entries, model.entries, atol=1e-10)


def test_apply_orthogonal_preserves_partition(small_corpus):
    model = vl.random_model(2, np.random.default_rng(8))
    u = vl.random_orthogonal(2, np.random.default_rng(9), real=True)
    moved = vl.apply_orthogonal(model, u)
    for g in small_corpus[:8]:
        a = vl.partition_function(model, g)
        b = vl.partition_function(moved, g)
        assert abs(a - b) <= 1e-8 * (1.0 + abs(a))


def test_apply_orthogonal_rejects_non_orthogonal():
    model = vl.transmission_model(2)
    with pytest.raises(ValueError, match="Frobenius"):
        vl.apply_orthogonal(model, 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="2 x 2"):
        vl.apply_orthogonal(model, np.eye(3))
    # A NaN residual would pass `residual > tol`, and an infinite U would
    # reach numpy's matmul: such a U is refused by name before any product.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
            u = np.eye(2, dtype=complex)
            u[0, 1] = bad
            with pytest.raises(ValueError, match="^U must have finite entries$"):
                vl.apply_orthogonal(model, u)
        # A finite U whose U^T U overflows is refused by the residual check,
        # with no numpy warning first.
        with pytest.raises(ValueError, match="Frobenius"):
            vl.apply_orthogonal(model, 1e200 * np.eye(2))


def test_random_orthogonal_refuses_a_state_count_below_one():
    rng = np.random.default_rng(0)
    for n in (0, -1):
        for real in (False, True):
            with pytest.raises(ValueError, match=re.escape(f"state count n must be an integer >= 1, got {n}")):
                vl.random_orthogonal(n, rng, real=real)


# ---------------------------------------------------------------------------
# Evaluation interfaces


def test_partition_function_rejects_open_tangles():
    with pytest.raises(ValueError, match="diagram"):
        vl.partition_function(vl.transmission_model(2), vl.strand_tangle())


def _count_tangle_tensor(monkeypatch) -> list:
    """The tangles that `tangle_tensor` evaluates from here on."""
    calls = []
    evaluate = vlink.model.tangle_tensor

    def counted(model, t):
        calls.append(t)
        return evaluate(model, t)

    monkeypatch.setattr(vlink.model, "tangle_tensor", counted)
    return calls


def _bits(z: complex) -> bytes:
    return np.complex128(z).tobytes()


def _fresh(model, g) -> complex:
    """f of an equal diagram built anew, which keeps no value yet."""
    return vl.partition_function(model, vl.parse_tangle(vl.serialize_tangle(g)))


def test_a_diagram_keeps_its_value_under_the_same_model_object(monkeypatch):
    rng = np.random.default_rng(5)
    model, g = vl.random_model(2, rng), vl.random_tangle(rng, 0, 6, 1)
    calls = _count_tangle_tensor(monkeypatch)
    first = vl.partition_function(model, g)
    assert _bits(vl.partition_function(model, g)) == _bits(first)
    assert calls == [g]
    # An equal but distinct model, and a perturbed one, evaluate afresh.
    twin = vl.VertexModel(model.n, model.entries)
    assert _bits(vl.partition_function(twin, g)) == _bits(first) and len(calls) == 2
    nudged = model.perturbed(model, 1e-3)
    assert vl.partition_function(nudged, g) != first and len(calls) == 3
    assert _bits(vl.partition_function(nudged, g)) == _bits(_fresh(nudged, g))
    assert len(calls) == 4  # the fresh diagram; g kept nudged's value


def test_models_used_in_turn_each_evaluate_afresh(monkeypatch):
    rng = np.random.default_rng(6)
    models = [vl.random_model(2, rng) for _ in range(2)]
    g = vl.random_tangle(rng, 0, 5)
    expected = [_fresh(model, g) for model in models]
    calls = _count_tangle_tensor(monkeypatch)
    for turn in range(6):
        assert _bits(vl.partition_function(models[turn % 2], g)) == _bits(expected[turn % 2])
    assert calls == [g] * 6


def test_a_kept_value_keeps_neither_its_model_nor_its_diagram_alive(monkeypatch):
    rng = np.random.default_rng(7)
    model, g = vl.random_model(2, rng), vl.random_tangle(rng, 0, 4)
    value = vl.partition_function(model, g)
    model_ref, g_ref = weakref.ref(model), weakref.ref(g)
    entries = model.entries
    del model
    gc.collect()
    assert model_ref() is None and g_ref() is g
    # A new model, even one equal to the one gone, evaluates afresh.
    calls = _count_tangle_tensor(monkeypatch)
    assert _bits(vl.partition_function(vl.VertexModel(2, entries), g)) == _bits(value)
    assert calls == [g]
    calls.clear()
    del g
    gc.collect()
    assert g_ref() is None


def test_evaluated_diagrams_pickle_and_copy():
    rng = np.random.default_rng(8)
    model, g = vl.random_model(3, rng), vl.random_tangle(rng, 0, 5, 2)
    value = vl.partition_function(model, g)
    copies = [pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)]
    for twin in copies:
        assert twin is not g and twin == g and hash(twin) == hash(g)
        assert "_value" not in vars(twin) and "_plans" in vars(twin)
        assert _bits(vl.partition_function(model, twin)) == _bits(value)
    assert "_value" in vars(g)


def test_tangle_tensor_strand_is_identity():
    tensor = vl.tangle_tensor(vl.random_model(3, np.random.default_rng(0)), vl.strand_tangle())
    assert np.array_equal(tensor, np.eye(3))


def test_tangle_tensor_includes_loop_factor():
    model = vl.random_model(2, np.random.default_rng(1))
    t = vl.parse_tangle("loops 2\nx v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    base = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    assert np.allclose(
        vl.tangle_tensor(model, t),
        4.0 * vl.tangle_tensor(model, base),
    )


def test_a_diagram_with_loops_evaluates_to_a_0d_array():
    # Scaled out of place, a 0-d array becomes a numpy scalar, which a
    # Python complex coefficient multiplies with Python's arithmetic: the
    # last bit of some `.qtl` values then differs from numpy's product.
    model = vl.random_model(2, np.random.default_rng(0))
    for loops in (0, 1, 3):
        value = vl.tangle_tensor(model, vl.random_tangle(np.random.default_rng(1), 0, 2, loops))
        assert type(value) is np.ndarray and value.shape == () and value.dtype == complex


def test_loop_factor_that_overflows_is_an_error():
    model = vl.random_model(2, np.random.default_rng(3))
    message = r"^n\^loops overflows a float: n = 2, 1100 vertexless loops$"
    with pytest.raises(ValueError, match=message):
        vl.tangle_tensor(model, vl.loop_diagram(1100))
    # 2**1023 is still a float, and one state never overflows.
    assert vl.partition_function(model, vl.loop_diagram(1023)) == 2.0**1023
    assert vl.partition_function(vl.transmission_model(1), vl.loop_diagram(1100)) == 1.0


def test_tangle_tensor_matches_naive(small_corpus):
    model = vl.random_model(2, np.random.default_rng(2))
    for g in small_corpus:
        ref = naive_tangle_tensor(model.entries, model.n, g)
        got = vl.tangle_tensor(model, g)
        assert np.max(np.abs(got - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


def test_qt_evaluate_scalar_and_tensor():
    model = vl.transmission_model(2)
    qt = vl.QuantumTangle.of(vl.loop_diagram(1), 2.0)
    scalar = vl.qt_evaluate(model, qt)
    assert scalar.shape == () and scalar == 4.0 + 0.0j
    assert complex(scalar) == 4.0 and abs(scalar) == 4.0 and f"{scalar:.1f}" == "4.0+0.0j"
    tensor = vl.qt_evaluate(model, vl.QuantumTangle.of(vl.strand_tangle()))
    assert isinstance(tensor, np.ndarray) and tensor.dtype == complex
    assert np.array_equal(tensor, np.eye(2))
    zero = vl.qt_evaluate(model, vl.QuantumTangle.zero())
    assert zero.shape == () and zero.dtype == complex and zero == 0j


def test_qt_evaluate_rejects_mixed_arities():
    mixed = vl.qt_add(
        vl.QuantumTangle.of(vl.strand_tangle()),
        vl.QuantumTangle.of(vl.loop_diagram(1)),
    )
    with pytest.raises(ValueError, match="mixed arities"):
        vl.qt_evaluate(vl.transmission_model(2), mixed)


def test_pair_is_bilinear_without_conjugation():
    x = np.array([[1.0j]])
    assert vl.pair(x, x) == -1.0 + 0.0j
    y = np.eye(2, dtype=complex)
    assert vl.pair(x, y) == 0j  # mismatched state count pairs to zero
    z = np.asarray(3.0 + 0j)
    assert vl.pair(y, z) == 0j  # mismatched arity
    assert vl.pair(z, np.asarray(2.0j)) == 6.0j  # two scalars pair to their product


def test_pairing_matches_glue(small_corpus):
    model = vl.random_model(2, np.random.default_rng(4))
    t = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    u = vl.parse_tangle("x v1 d c b a\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    lhs = vl.pair(vl.tangle_tensor(model, t), vl.tangle_tensor(model, u))
    rhs = vl.partition_function(model, vl.glue(t, u))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# Model files


def test_model_round_trip(tmp_path):
    model = vl.random_model(2, np.random.default_rng(11))
    path = str(tmp_path / "model.json")
    vl.save_model(model, path)
    again = vl.load_model(path)
    assert again.n == 2
    assert np.allclose(again.entries, model.entries, atol=1e-15)


def test_model_json_is_one_based(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "re": 1.5, "im": 0.0},
    ]}))
    model = vl.load_model(str(path))
    assert model.entries[0, 0, 0, 0] == 1.5
    assert np.count_nonzero(model.entries) == 1


def test_model_json_index_range(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "entries": [
        {"i": 0, "j": 1, "k": 1, "l": 1, "re": 1.0, "im": 0.0},
    ]}))
    with pytest.raises(ValueError):
        vl.load_model(str(path))
    path.write_text(json.dumps({"n": 2, "entries": [
        {"i": 3, "j": 1, "k": 1, "l": 1, "re": 1.0, "im": 0.0},
    ]}))
    with pytest.raises(ValueError):
        vl.load_model(str(path))


def test_model_json_validates_swap_invariance(tmp_path):
    path = tmp_path / "m.json"
    asym = {"n": 2, "entries": [{"i": 1, "j": 1, "k": 2, "l": 2, "re": 1.0, "im": 0.0}]}
    path.write_text(json.dumps(asym))
    with pytest.raises(ValueError, match="swap"):
        vl.load_model(str(path))
    projected = vl.load_model(str(path), project=True)
    assert projected.entries[0, 0, 1, 1] == 0.5
    assert projected.entries[1, 1, 0, 0] == 0.5


def _write_model(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _items(cells, values, rng=None, spell_indices=False):
    """Entry dicts for zero-based ``cells``; with ``rng``, each value (and
    with ``spell_indices`` each index) is written in one of the spellings
    the loader accepts."""
    items = []
    for cell, z in zip(cells, values):
        item = {key: int(x) + 1 for key, x in zip("ijkl", cell)}
        item["re"], item["im"] = float(z.real), float(z.imag)
        if spell_indices:
            for key in "ijkl":
                item[key] = [item[key], str(item[key]), float(item[key])][rng.integers(3)]
        if rng is not None:
            for key in ("re", "im"):
                pick = rng.integers(3)
                if pick == 1:
                    del item[key]
                elif pick == 2:
                    item[key] = int(rng.integers(-3, 4))
        items.append(item)
    return items


def _valid_model_files(tmp_path):
    """Seeded valid model files, as (path, project) pairs."""
    rng = np.random.default_rng(12)
    files = []
    for n in (1, 2, 3, 4):
        model = vl.random_model(n, rng)
        dense = json.loads(vl.model_to_json(model))
        files.append((_write_model(tmp_path, f"dense{n}.json", dense), False))
        # Sparse and swap-invariant: each kept cell with its swap partner.
        cells = [c for c in np.ndindex((n,) * 4) if rng.random() < 0.25]
        cells += [(k, l, i, j) for i, j, k, l in cells]
        items = _items(cells, [model.entries[c] for c in cells])
        files.append((_write_model(tmp_path, f"sparse{n}.json", {"n": n, "entries": items}), False))
        # Duplicates: stale values first; the file's later entries win.
        stale = [dict(item, re=float(rng.standard_normal())) for item in items[:6]]
        doc = {"n": n, "entries": stale + items}
        files.append((_write_model(tmp_path, f"dup{n}.json", doc), False))
        # Random cells, colliding often, in every accepted spelling; projected.
        cells = [tuple(c) for c in rng.integers(0, n, size=(3 * n**3, 4))]
        values = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))
        for tag, spelled, spell_indices in (
            ("plain", None, False),
            ("values", rng, False),
            ("spelled", rng, True),
        ):
            doc = {"n": n, "entries": _items(cells, values, spelled, spell_indices)}
            files.append((_write_model(tmp_path, f"{tag}{n}.json", doc), True))
    files.append((_write_model(tmp_path, "empty.json", {"n": 3, "entries": []}), False))
    files.append((_write_model(tmp_path, "bare.json", {"n": 2}), False))
    doc = {"n": "2", "entries": [{"i": "1", "j": 2, "k": "1", "l": 2, "re": 3}]}
    files.append((_write_model(tmp_path, "strings.json", doc), False))
    return files


def test_load_model_matches_reference_bitwise(tmp_path):
    files = _valid_model_files(tmp_path)
    for path, project in files:
        got = vl.load_model(path, project=project)
        ref = reference_load_model(path, project=project)
        assert got.n == ref.n, path
        assert got.entries.tobytes() == ref.entries.tobytes(), path
    empty = vl.load_model(str(tmp_path / "empty.json"))
    assert empty.entries.shape == (3,) * 4 and not empty.entries.any()


def _malformed_model_files(tmp_path):
    """Seeded malformed files, as (path, project) pairs."""
    one = {"i": 1, "j": 1, "k": 1, "l": 1, "re": 1.0}
    rng = np.random.default_rng(13)
    valid = [{key: int(x) for key, x in zip("ijkl", rng.integers(1, 4, 4))} for _ in range(100)]
    docs = {
        "no_n": {"entries": [one]},
        "not_object": [one],
        "n_zero": {"n": 0, "entries": []},
        "missing_key": {"n": 2, "entries": [one, {"i": 1, "j": 1, "k": 1, "re": 1.0}]},
        "text_re": {"n": 2, "entries": [dict(one, re="one")]},
        "index_zero": {"n": 2, "entries": [dict(one, k=0)]},
        "index_past_n": {"n": 2, "entries": [one, dict(one, l=3)]},
        "index_past_int64": {"n": 2, "entries": [one, dict(one, i=2**70)]},
        "index_int64_min": {"n": 2, "entries": [one, dict(one, j=-(2**63))]},
        "not_dict": {"n": 2, "entries": [one, 7]},
        "list_entry": {"n": 2, "entries": [[1, 1, 1, 1]]},
        "late_out_of_range": {"n": 3, "entries": valid + [dict(one, j=4)]},
        "first_bad_wins": {"n": 2, "entries": [one, dict(one, i=3), {"i": 1}]},
    }
    files = [(_write_model(tmp_path, f"{name}.json", doc), False) for name, doc in docs.items()]
    files.append((_write_model(tmp_path, "late_project.json", docs["late_out_of_range"]), True))
    asym = {"n": 2, "entries": [dict(one, k=2, l=2)]}
    files.append((_write_model(tmp_path, "asym.json", asym), False))
    return files


def test_load_model_errors_match_reference(tmp_path):
    messages = {}
    for path, project in _malformed_model_files(tmp_path):
        with pytest.raises(ValueError) as want:
            reference_load_model(path, project=project)
        with pytest.raises(ValueError) as got:
            vl.load_model(path, project=project)
        assert str(got.value) == str(want.value)
        messages[path, project] = str(got.value)
    for name, project in (("late_out_of_range", False), ("late_project", True)):
        late = str(tmp_path / f"{name}.json")
        assert messages[late, project] == f"{late}: entry #100 index out of range 1..3"
    path = str(tmp_path / "asym.json")
    assert "swap-invariant" in messages[path, False]
    got, ref = vl.load_model(path, project=True), reference_load_model(path, project=True)
    assert got.entries.tobytes() == ref.entries.tobytes()


_ONE = {"i": 1, "j": 1, "k": 1, "l": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 2.7, "entries": []}, "malformed model file (2.7 is not an integer)"),
        ({"n": True, "entries": []}, "malformed model file (true is not an integer)"),
        ({"n": 2, "entries": [dict(_ONE, i=1.9)]}, "malformed entry #0 (1.9 is not an integer)"),
        ({"n": 2, "entries": [_ONE, dict(_ONE, l=True)]}, "malformed entry #1 (true is not an integer)"),
        ({"n": 2, "entries": 5}, "malformed model file ('int' object is not iterable)"),
        ({"n": float("inf")}, "malformed model file (cannot convert float infinity to integer)"),
        (
            {"n": 2, "entries": [dict(_ONE, re=10**400)]},
            "malformed entry #0 (int too large to convert to float)",
        ),
        ({"n": float("nan")}, "malformed model file (cannot convert float NaN to integer)"),
        ({"n": "two"}, "malformed model file (invalid literal for int() with base 10: 'two')"),
        ({"n": 0}, "state count n must be an integer >= 1, got 0"),
        ({"n": -2}, "state count n must be an integer >= 1, got -2"),
    ],
)
def test_load_model_rejects_non_integral_and_unconvertible_values(tmp_path, capsys, doc, message):
    path = _write_model(tmp_path, "m.json", doc)
    with pytest.raises(ValueError) as info:
        vl.load_model(path)
    assert str(info.value) == f"{path}: {message}"
    tangle = tmp_path / "loop.vld"
    tangle.write_text("loops 1\n")
    assert main(["eval", "--model", path, str(tangle)]) == 1
    assert capsys.readouterr().err == f"vlink: error: {path}: {message}\n"


@pytest.mark.parametrize("spelling", ['"re": NaN', '"re": "inf"', '"im": -Infinity'])
@pytest.mark.parametrize("symmetrize", [False, True])
def test_load_model_rejects_non_finite_values(tmp_path, capsys, spelling, symmetrize):
    # Python's json reads NaN and Infinity, and float() reads "inf": each
    # is refused by entry, with no numpy warning first.
    path = tmp_path / "m.json"
    path.write_text(
        '{"n": 2, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, "re": 1},'
        f' {{"i": 2, "j": 1, "k": 2, "l": 1, {spelling}}}]}}'
    )
    tangle = tmp_path / "loop.vld"
    tangle.write_text("x v1 a a b b\n")
    args = ["eval", "--model", str(path), str(tangle)] + ["--symmetrize"] * symmetrize
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            vl.load_model(str(path), project=symmetrize)
        assert str(info.value) == f"{path}: entry #1 is not finite"
        assert main(args) == 1
    assert capsys.readouterr() == ("", f"vlink: error: {path}: entry #1 is not finite\n")


def test_load_model_accepts_integral_numbers(tmp_path):
    doc = {"n": 2.0, "entries": [{"i": 2.0, "j": "1", "k": 2, "l": 1, "re": 1.5}]}
    model = vl.load_model(_write_model(tmp_path, "m.json", doc))
    assert model.n == 2 and model.entries[1, 0, 1, 0] == 1.5


# ---------------------------------------------------------------------------
# Undecodable model files and the model cache


def _cache_delta(before) -> tuple[int, int]:
    after = vl.model_cache_info()
    return after.hits - before.hits, after.misses - before.misses


@pytest.mark.parametrize(
    "raw, message",
    [
        (b'{"n": 2, "entries": [}', "Expecting value: line 1 column 22 (char 21)"),
        (b'{"n": 2, "entries": [\xff]}', "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte"),
        (
            b"[" * 100_000 + b"]" * 100_000,
            "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
        ),
    ],
)
def test_undecodable_model_file_names_the_file(tmp_path, capsys, raw, message):
    path = tmp_path / "m.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        vl.load_model(str(path))
    assert str(info.value) == f"{path}: malformed model file ({message})"
    (tmp_path / "loop.vld").write_text("loops 1\n")
    assert main(["eval", "--model", str(path), str(tmp_path / "loop.vld")]) == 1
    assert capsys.readouterr() == ("", f"vlink: error: {path}: malformed model file ({message})\n")


def test_model_too_big_to_allocate_names_the_file(tmp_path, capsys):
    # n**4 entries of 16 bytes overflow what numpy can describe, so the
    # allocation is refused before any memory is taken.
    path = _write_model(tmp_path, "huge.json", {"n": 1_000_000})
    with pytest.raises(ValueError) as info:
        vl.load_model(path)
    assert str(info.value).startswith(f"{path}: array is too big; ")
    (tmp_path / "loop.vld").write_text("loops 1\n")
    assert main(["eval", "--model", path, str(tmp_path / "loop.vld")]) == 1
    assert capsys.readouterr() == ("", f"vlink: error: {info.value}\n")


def test_load_model_rereads_a_file_rewritten_within_one_mtime(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 1, "entries": [dict(_ONE, re=1.25)]}))
    stat = os.stat(path)
    assert vl.load_model(str(path)).entries[0, 0, 0, 0] == 1.25
    path.write_text(json.dumps({"n": 1, "entries": [dict(_ONE, re=7.75)]}))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    assert os.stat(path).st_size == stat.st_size
    assert vl.load_model(str(path)).entries[0, 0, 0, 0] == 7.75


def test_load_model_shares_one_decode_between_paths(tmp_path):
    doc = {"n": 2, "entries": [dict(_ONE, re=0.5, im=-3.0)]}
    first, second = _write_model(tmp_path, "a.json", doc), _write_model(tmp_path, "b.json", doc)
    before = vl.model_cache_info()
    a, b = vl.load_model(first), vl.load_model(second)
    assert _cache_delta(before) == (1, 1)
    assert a.n == b.n == 2
    assert a.entries.tobytes() == b.entries.tobytes()


def test_load_model_errors_are_not_cached(tmp_path):
    doc = {"n": 2, "entries": [dict(_ONE, k=3)]}
    paths = [_write_model(tmp_path, name, doc) for name in ("a.json", "b.json", "a.json")]
    before = vl.model_cache_info()
    for path in paths:
        with pytest.raises(ValueError) as info:
            vl.load_model(path)
        assert str(info.value) == f"{path}: entry #0 index out of range 1..2"
    assert _cache_delta(before) == (0, 3)
    assert vl.model_cache_info().size == before.size


def test_load_model_caches_projected_and_validated_loads_apart(tmp_path):
    doc = {"n": 2, "entries": [dict(_ONE, re=2.0), dict(_ONE, i=2, k=2, re=-1.0, im=0.125)]}
    path = _write_model(tmp_path, "m.json", doc)
    before = vl.model_cache_info()
    plain, projected = vl.load_model(path), vl.load_model(path, project=True)
    assert _cache_delta(before) == (0, 2)
    assert vl.load_model(path) is plain
    assert vl.load_model(path, project=True) is projected
    assert _cache_delta(before) == (2, 2)
    asym = _write_model(tmp_path, "asym.json", {"n": 2, "entries": [dict(_ONE, k=2, l=2, re=1.0)]})
    assert vl.load_model(asym, project=True).entries[0, 0, 1, 1] == 0.5
    with pytest.raises(ValueError, match="swap-invariant"):
        vl.load_model(asym)


def test_model_cache_counts_and_evicts_least_recently_used(tmp_path):
    bound = MODEL_CACHE_BOUND
    assert bound == 16 and vl.model_cache_info().bound == bound
    # Values unique to this test, so no earlier load can hit.
    values = np.random.default_rng(14).standard_normal(bound + 1) + 20.0
    paths = [
        _write_model(tmp_path, f"m{j}.json", {"n": 1, "entries": [dict(_ONE, re=float(x))]})
        for j, x in enumerate(values)
    ]
    before = vl.model_cache_info()
    for path in paths[:bound]:
        vl.load_model(path)
        assert vl.model_cache_info().size <= bound
    assert _cache_delta(before) == (0, bound)
    assert vl.model_cache_info().size == bound
    vl.load_model(paths[0])  # now the most recently used
    assert _cache_delta(before) == (1, bound)
    vl.load_model(paths[bound])  # evicts paths[1], the least recently used
    assert _cache_delta(before) == (1, bound + 1)
    assert vl.model_cache_info().size == bound
    vl.load_model(paths[0])
    assert _cache_delta(before) == (2, bound + 1)
    assert vl.load_model(paths[1]).entries[0, 0, 0, 0] == values[1]
    assert _cache_delta(before) == (2, bound + 2)
    assert vl.model_cache_info().size == bound


def test_cached_model_entries_stay_read_only(tmp_path):
    path = _write_model(tmp_path, "m.json", {"n": 2, "entries": [dict(_ONE, re=4.5)]})
    for _ in range(2):
        model = vl.load_model(path)
        assert not model.entries.flags.writeable
        with pytest.raises(ValueError):
            model.entries[0, 0, 0, 0] = 0.0
    assert vl.load_model(path).entries[0, 0, 0, 0] == 4.5


@pytest.mark.parametrize("n", [None, 0, -2, 2.0, "2"])
def test_vertex_model_state_count_must_be_an_integer_of_at_least_one(n):
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 1, got {n!r}")):
        vl.VertexModel(n, np.zeros((2, 2, 2, 2)))


def test_vertex_model_takes_numpy_integer_state_counts_as_int():
    model = vl.VertexModel(np.int64(2), vl.transmission_model(2).entries)
    assert type(model.n) is int and model.n == 2
    kink = vl.parse_tangle("x v1 a b a b")
    assert vl.partition_function(model, kink) == vl.partition_function(vl.transmission_model(2), kink)
