import os
import subprocess
import sys

import numpy as np
import pytest

import vlink as vl
import vlink.contraction
from vlink.contraction import PLAN_CACHE_BOUND, execute_plan, plan_contraction

from oracles import greedy_plan_steps, naive_tangle_tensor, reference_execute


def _chain_diagram(length: int) -> vl.Tangle:
    """Closed ladder: vertex i feeds slots (2,3) into slots (0,1) of i+1."""
    edges = []
    for i in range(length):
        j = (i + 1) % length
        edges.append(((i, 2), (j, 0)))
        edges.append(((i, 3), (j, 1)))
    return vl.build_tangle(length, edges)


def test_plan_covers_all_legs():
    t = vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")
    plan = plan_contraction(t)
    assert plan.peak_arity >= 4
    tensor = execute_plan(vl.transmission_model(2).entries, 2, t, plan)
    assert tensor.shape == (2, 2, 2, 2)


def test_execute_matches_naive_on_zoo(small_corpus):
    model = vl.random_model(2, np.random.default_rng(21))
    zoo = list(small_corpus)
    zoo += [
        vl.parse_tangle("x v1 a b c c\nleg 1 a\nleg 2 b"),
        vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f"),
        vl.strand_tangle(),
        vl.matching_tangle([(1, 3), (2, 4)]),
        vl.parse_tangle("loops 1\nx v1 a a b c\nleg 1 b\nleg 2 c"),
    ]
    for t in zoo:
        ref = naive_tangle_tensor(model.entries, model.n, t)
        got = vl.tangle_tensor(model, t).values
        scale = 1.0 + float(np.max(np.abs(ref)))
        assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-10 * scale, t


def test_execute_matches_naive_various_n():
    rng = np.random.default_rng(22)
    t = vl.parse_tangle("x v1 a b c d\nx v2 b c d a")
    for n in (1, 2, 3, 4):
        model = vl.random_model(n, rng)
        ref = naive_tangle_tensor(model.entries, n, t)
        got = vl.partition_function(model, t)
        assert abs(got - complex(ref)) <= 1e-10 * (1.0 + abs(complex(ref)))


def test_self_loop_traced_at_init():
    # A vertex with both self-loops never enters a pairwise contraction.
    t = vl.parse_tangle("x v1 a a b b")
    plan = plan_contraction(t)
    assert len(plan.traced_at_init) >= 1
    assert not plan.steps
    model = vl.random_model(3, np.random.default_rng(23))
    ref = naive_tangle_tensor(model.entries, 3, t)
    assert abs(vl.partition_function(model, t) - complex(ref)) < 1e-10


def test_leg_to_leg_edge_gives_identity():
    plan = plan_contraction(vl.strand_tangle())
    values = execute_plan(vl.random_model(4, np.random.default_rng(0)).entries, 4, vl.strand_tangle(), plan)
    assert np.array_equal(values, np.eye(4))


def test_plan_reuse_and_determinism():
    t = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    plan_a = plan_contraction(t)
    plan_b = plan_contraction(t)
    assert plan_a == plan_b
    model = vl.random_model(2, np.random.default_rng(24))
    assert vl.partition_function(model, t, plan_a) == vl.partition_function(model, t, plan_b)


def test_chain_plan_stays_narrow():
    chain = _chain_diagram(8)
    plan = plan_contraction(chain)
    # Sweeping along the chain keeps intermediate tensors small: peak cost
    # n**peak_arity versus n**16 colorings for the naive sum.
    assert plan.peak_arity <= 6
    assert plan.peak_size(4) <= 4**6
    model = vl.transmission_model(4)
    # Two knots wind around the chain, so transmission gives n**2.
    assert abs(vl.partition_function(model, chain) - 16.0) < 1e-9


def test_chain_matches_naive_when_small():
    chain = _chain_diagram(4)
    model = vl.random_model(2, np.random.default_rng(25))
    ref = naive_tangle_tensor(model.entries, 2, chain)
    got = vl.partition_function(model, chain)
    assert abs(got - complex(ref)) <= 1e-10 * (1.0 + abs(complex(ref)))


def test_loop_factor_left_to_caller():
    # execute_plan excludes the n**loops factor; tangle_tensor applies it.
    g = vl.loop_diagram(2)
    plan = plan_contraction(g)
    raw = execute_plan(vl.transmission_model(3).entries, 3, g, plan)
    assert complex(raw) == 1.0 + 0.0j
    assert vl.partition_function(vl.transmission_model(3), g) == 9.0 + 0.0j


def test_plan_matches_greedy_oracle():
    rng = np.random.default_rng(31)
    seen = {"legs": 0, "self_loops": 0, "leg_to_leg": 0}
    for num_vertices in range(25):
        for _ in range(3):
            t = vl.random_tangle(
                rng, 2 * int(rng.integers(0, 4)), num_vertices, int(rng.integers(0, 2))
            )
            plan = plan_contraction(t)
            steps = [(s.left, s.right, s.contracted, s.result_arity) for s in plan.steps]
            assert steps == greedy_plan_steps(t), t
            seen["legs"] += t.arity > 0
            seen["self_loops"] += bool(plan.traced_at_init)
            seen["leg_to_leg"] += any(a[0] == b[0] == vl.LEG for a, b in t.edges)
    assert min(seen.values()) > 0, seen


def _disjoint(parts: list[vl.Tangle]) -> vl.Tangle:
    """Side-by-side union of tangles, legs kept as labelled."""
    edges, shift = [], 0
    for part in parts:
        for edge in part.edges:
            edges.append(tuple(e if e[0] == vl.LEG else (e[0] + shift, e[1]) for e in edge))
        shift += part.num_vertices
    return vl.build_tangle(shift, edges, sum(part.loop_count for part in parts))


def test_plan_matches_greedy_oracle_at_eval_sizes():
    # Closed diagrams of the sizes `vlink eval` meets, and unions of two or
    # more closed components (and at most one open one): each closed
    # component ends as an arity-0 node, and merging it is an outer product.
    # Executed tensors agree bitwise.
    rng = np.random.default_rng(51)
    entries = {n: vl.random_model(n, rng).entries for n in (2, 3)}
    pool = [
        vl.random_tangle(rng, 0, int(rng.integers(12, 25)), int(rng.integers(0, 2)))
        for _ in range(24)
    ]
    for _ in range(12):
        closed = int(rng.integers(2, 5))
        parts = [vl.random_tangle(rng, 0, int(rng.integers(1, 7))) for _ in range(closed)]
        parts.append(vl.random_tangle(rng, 2 * int(rng.integers(0, 3)), int(rng.integers(0, 5))))
        pool.append(_disjoint(parts))
    seen = {"large": 0, "legs": 0, "outer": 0, "scalar": 0}
    for t in pool:
        plan = plan_contraction(t)
        steps = [(s.left, s.right, s.contracted, s.result_arity) for s in plan.steps]
        assert steps == greedy_plan_steps(t), t
        n = 3 if t.num_vertices <= 14 else 2
        got = execute_plan(entries[n], n, t, plan)
        ref = reference_execute(entries[n], n, t, plan)
        assert got.shape == ref.shape == (n,) * t.arity, t
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), t
        seen["large"] += t.num_vertices >= 12 and not t.arity
        seen["legs"] += t.arity > 0
        seen["outer"] += any(not s.contracted for s in plan.steps)
        # A merge with an operand of no open axes: left or right arity 0.
        seen["scalar"] += any(
            fa + k == 0 or k + fb == 0 for _, _, _, _, fa, k, fb in plan.compiled.steps
        )
    assert min(seen.values()) > 0, seen


_PLAN_DIGEST = """
import hashlib
import numpy as np
import vlink as vl
rng = np.random.default_rng(61)
digest = hashlib.sha256()
for num_vertices in range(25):
    for arity in range(0, 7, 2):
        t = vl.random_tangle(rng, arity, num_vertices, int(rng.integers(0, 2)))
        plan = vl.plan_contraction(t)
        digest.update(repr(plan).encode() + repr(plan.compiled).encode())
print(digest.hexdigest())
"""


def test_plans_do_not_depend_on_hash_seed():
    path = os.pathsep.join(sys.path)  # the child imports this vlink
    digests = set()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _PLAN_DIGEST],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            check=True,
        )
        digests.add(proc.stdout)
    assert len(digests) == 1, digests


def test_execute_matches_reference_bitwise():
    # The compiled executor performs the transposes, reshapes and dots of
    # the reference's tensordot calls on the same operands in the same
    # order, so every bit of the result agrees.
    rng = np.random.default_rng(41)
    entries = {n: vl.random_model(n, rng).entries for n in (1, 2, 3, 4)}
    seen = {"self_loops": 0, "leg_to_leg": 0, "loops": 0, "empty": 0, "outer": 0}
    for num_vertices in range(25):
        for arity in range(0, 7, 2):
            t = vl.random_tangle(rng, arity, num_vertices, int(rng.integers(0, 2)))
            n = int(rng.integers(1, 5))
            plan = plan_contraction(t)
            got = execute_plan(entries[n], n, t, plan)
            ref = reference_execute(entries[n], n, t, plan)
            assert got.shape == ref.shape == (n,) * arity, t
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), t
            seen["self_loops"] += bool(plan.traced_at_init)
            seen["leg_to_leg"] += any(a[0] == b[0] == vl.LEG for a, b in t.edges)
            seen["loops"] += t.loop_count > 0
            seen["empty"] += not t.edges
            # A merge with no shared axis is an outer product: (n**fa, 1) by (1, n**fb).
            seen["outer"] += any(not step.contracted for step in plan.steps)
    assert min(seen.values()) > 0, seen


def test_execute_rejects_plan_of_another_tangle():
    t = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    plan = plan_contraction(t)
    entries = vl.random_model(2, np.random.default_rng(42)).entries
    for other in (
        vl.parse_tangle("x v1 a b a b"),
        vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f"),
    ):
        with pytest.raises(ValueError, match="cannot contract"):
            execute_plan(entries, 2, other, plan)


@pytest.fixture
def empty_plan_cache():
    """An empty plan cache, emptied again afterwards."""
    vlink.contraction._plan.cache_clear()
    yield
    vlink.contraction._plan.cache_clear()


def test_plan_cache_hits_equal_tangles_and_stays_bounded(empty_plan_cache):
    t = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    copy = vl.build_tangle(t.num_vertices, sorted(t.edges), t.loop_count)
    assert copy == t and copy is not t
    plan = plan_contraction(t)
    assert vl.plan_cache_info() == (0, 1, 1, PLAN_CACHE_BOUND)
    assert plan_contraction(copy) is plan
    assert vl.plan_cache_info() == (1, 1, 1, PLAN_CACHE_BOUND)
    # Vertexless diagrams with distinct loop counts: distinct and cheap to plan.
    flood = range(PLAN_CACHE_BOUND + 5)
    oldest = plan_contraction(vl.loop_diagram(0))
    for count in flood[1:]:
        plan_contraction(vl.loop_diagram(count))
        if count % 100 == 0:
            assert plan_contraction(t) is plan  # a hit keeps it recently used
        assert vl.plan_cache_info().size <= PLAN_CACHE_BOUND
    hits = 1 + len(flood[100::100])
    assert vl.plan_cache_info() == (hits, 1 + len(flood), PLAN_CACHE_BOUND, PLAN_CACHE_BOUND)
    assert plan_contraction(copy) is plan
    # The oldest loop diagram was evicted; it is planned again, equally.
    again = plan_contraction(vl.loop_diagram(0))
    assert again == oldest and again is not oldest
    assert vl.plan_cache_info() == (hits + 1, 2 + len(flood), PLAN_CACHE_BOUND, PLAN_CACHE_BOUND)
