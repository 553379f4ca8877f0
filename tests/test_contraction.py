import concurrent.futures
import gc
import re
import subprocess
import sys
import weakref

import numpy as np
import pytest

import vlink as vl
import vlink.cli
import vlink.contraction
from vlink.contraction import ContractionPlan, execute_plan, plan_contraction

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
    plan = plan_contraction(t, 2)
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
        got = vl.tangle_tensor(model, t)
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
    plan = plan_contraction(t, 3)
    assert any(plan.compiled.init)  # an einsum that traces the loops
    assert not plan.steps
    model = vl.random_model(3, np.random.default_rng(23))
    ref = naive_tangle_tensor(model.entries, 3, t)
    assert abs(vl.partition_function(model, t) - complex(ref)) < 1e-10


def test_leg_to_leg_edge_gives_identity():
    plan = plan_contraction(vl.strand_tangle(), 4)
    values = execute_plan(vl.random_model(4, np.random.default_rng(0)).entries, 4, vl.strand_tangle(), plan)
    assert np.array_equal(values, np.eye(4))


def test_plans_without_merges_return_fresh_writable_arrays():
    # A leg-to-leg edge gets a fresh identity, and a plan with no merges
    # returns its one node: an identity, or a copy of the vertex tensor,
    # that the caller may write to.
    entries = vl.random_model(3, np.random.default_rng(24)).entries
    for t in (vl.strand_tangle(), vl.parse_tangle("x v1 a b c d\nleg 1 a\nleg 2 b\nleg 3 c\nleg 4 d")):
        plan = plan_contraction(t, 3)
        assert not plan.steps
        first = execute_plan(entries, 3, t, plan)
        second = execute_plan(entries, 3, t, plan)
        assert first.flags.writeable and first.flags.c_contiguous
        assert not np.shares_memory(first, second) and not np.shares_memory(first, entries)
        assert first.tobytes() == reference_execute(entries, 3, t, plan).tobytes()
        first[...] = 7.0
        assert execute_plan(entries, 3, t, plan).tobytes() == second.tobytes()


def test_plans_build_their_steps_only_when_read(monkeypatch):
    # Planning and executing read only the compiled replay, so no
    # ContractionStep is built until `steps` (or `peak_arity`) is first
    # read; then one per merge, once.
    built = []
    step = vlink.contraction.ContractionStep

    def counted(*args):
        built.append(args)
        return step(*args)

    monkeypatch.setattr(vlink.contraction, "ContractionStep", counted)
    merges = 0
    for t, n, entries in _seeded_cases():
        plan = plan_contraction(t, n)
        execute_plan(entries, n, t, plan)
        plan.madds(n), plan.peak_bytes(n)
        assert not built, t
        arity, steps = plan.peak_arity, plan.steps
        assert len(built) == len(steps) == len(plan.compiled.steps), t
        assert plan.steps is steps and plan.peak_arity == arity and len(built) == len(steps), t
        merges += len(built)
        built.clear()
    assert merges > 0


def test_plan_reuse_and_determinism():
    # A tangle is planned once at n; an equal tangle built anew gets an
    # equal plan and the same value.  Callers cannot pass a plan of their own.
    t = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    plan = plan_contraction(t, 2)
    assert plan_contraction(t, 2) is plan
    assert plan_contraction(_copy(t), 2) == plan
    model = vl.random_model(2, np.random.default_rng(24))
    assert vl.partition_function(model, t) == vl.partition_function(model, _copy(t))
    with pytest.raises(TypeError):
        vl.partition_function(model, t, plan)
    with pytest.raises(TypeError):
        vl.tangle_tensor(model, t, plan=plan)


def test_chain_plan_stays_narrow():
    chain = _chain_diagram(8)
    plan = plan_contraction(chain, 4)
    # Sweeping along the chain keeps intermediate tensors small: peak cost
    # n**peak_arity versus n**16 colorings for the naive sum.
    assert plan.peak_arity <= 6
    assert plan.peak_bytes(4) <= 16 * 4**6
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
    plan = plan_contraction(g, 3)
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
            plan = plan_contraction(t, 1)
            steps = [(s.left, s.right, s.contracted, s.result_arity) for s in plan.steps]
            assert steps == greedy_plan_steps(t), t
            seen["legs"] += t.arity > 0
            seen["self_loops"] += any(plan.compiled.init)
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
        plan = plan_contraction(t, 1)
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
        plan = vl.plan_contraction(t, 1)
        digest.update(repr(plan).encode() + repr(plan.compiled).encode())
print(digest.hexdigest())
"""


#: `_PLAN_DIGEST`'s output, pinned: a change to any plan's repr, steps,
#: peak arity or compiled form changes it.
_PLAN_DIGEST_PINNED = "23fe882617029ad3664a697006f754e5a757a099bbd6125efa90227266edba5b\n"


def test_plans_do_not_depend_on_hash_seed(child_env):
    digests = set()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _PLAN_DIGEST],
            capture_output=True,
            text=True,
            env=child_env(PYTHONHASHSEED=hash_seed),
            check=True,
        )
        digests.add(proc.stdout)
    assert digests == {_PLAN_DIGEST_PINNED}, digests


def _seeded_cases():
    """(tangle, n, vertex tensor) triples with 0-24 vertices, 0-6 legs and
    n in 1..4, drawn from one seeded generator."""
    rng = np.random.default_rng(41)
    entries = {n: vl.random_model(n, rng).entries for n in (1, 2, 3, 4)}
    for num_vertices in range(25):
        for arity in range(0, 7, 2):
            t = vl.random_tangle(rng, arity, num_vertices, int(rng.integers(0, 2)))
            n = int(rng.integers(1, 5))
            yield t, n, entries[n]


def test_execute_matches_reference_bitwise():
    # The compiled executor performs the transposes, reshapes and dots of
    # the reference's tensordot calls on the same operands in the same
    # order, so every bit of the result agrees.
    seen = {"self_loops": 0, "leg_to_leg": 0, "loops": 0, "empty": 0, "outer": 0}
    for t, n, entries in _seeded_cases():
        plan = plan_contraction(t, 1)
        got = execute_plan(entries, n, t, plan)
        ref = reference_execute(entries, n, t, plan)
        assert got.shape == ref.shape == (n,) * t.arity, t
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), t
        seen["self_loops"] += any(plan.compiled.init)
        seen["leg_to_leg"] += any(a[0] == b[0] == vl.LEG for a, b in t.edges)
        seen["loops"] += t.loop_count > 0
        seen["empty"] += not t.edges
        # A merge with no shared axis is an outer product: (n**fa, 1) by (1, n**fb).
        seen["outer"] += any(not step.contracted for step in plan.steps)
    assert min(seen.values()) > 0, seen


def test_plan_costs_match_reference_tensordots(monkeypatch):
    # peak_bytes is the largest tensordot result the reference builds, and
    # madds the sum over its tensordots of n^(axes of both operands).
    built: list[tuple[int, int]] = []
    tensordot = np.tensordot

    def recording(a, b, axes):
        out = tensordot(a, b, axes)
        built.append((out.nbytes, a.size * b.size // np.prod([a.shape[x] for x in axes[0]], dtype=int)))
        return out

    monkeypatch.setattr(np, "tensordot", recording)
    searched = 0
    for t, n, entries in _seeded_cases():
        greedy = plan_contraction(t, 1)
        for plan in (greedy, plan_contraction(t, n)):
            built.clear()
            reference_execute(entries, n, t, plan)
            assert len(built) == len(plan.steps), t
            assert plan.peak_bytes(n) == max((nbytes for nbytes, _ in built), default=0), t
            assert plan.madds(n) == sum(madds for _, madds in built), t
        searched += plan_contraction(t, n) != greedy
    assert searched > 0


def _costly_cases():
    """Closed random diagrams of the sizes `vlink eval` meets whose greedy
    plan reaches the search threshold: 16-24 vertices at n=3 and 12-15 at
    n=4, as (tangle, n, vertex tensor, greedy plan).  Greedy plans with an
    intermediate above 16 MiB are left out to keep the test's memory small."""
    rng = np.random.default_rng(71)
    entries = {n: vl.random_model(n, rng).entries for n in (3, 4)}
    cases = []
    while len(cases) < 24:
        n = int(rng.integers(3, 5))
        t = vl.random_tangle(rng, 0, int(rng.integers(*{3: (16, 25), 4: (12, 16)}[n])), int(rng.integers(0, 2)))
        greedy = plan_contraction(t, 1)
        if greedy.madds(n) >= vlink.contraction._SEARCH_MADDS and greedy.peak_bytes(n) <= 16 << 20:
            cases.append((t, n, entries[n], greedy))
    return cases


def test_searched_plans_are_cheaper_and_replay_bitwise():
    # A searched plan is never costlier than greedy at n, is replaced only
    # by a strictly cheaper one, runs bit for bit like the reference on the
    # same plan, and agrees with the greedy plan's value to 1e-12 relative.
    changed = 0
    for t, n, entries, greedy in _costly_cases():
        plan = plan_contraction(t, n)
        assert plan.madds(n) <= greedy.madds(n), t
        if plan != greedy:
            changed += 1
            assert plan.madds(n) < greedy.madds(n), t
        got = execute_plan(entries, n, t, plan)
        ref = reference_execute(entries, n, t, plan)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), t
        want = complex(execute_plan(entries, n, t, greedy))
        assert abs(complex(got) - want) <= 1e-12 * abs(want), t
    assert changed >= 12, changed


def test_plans_below_the_search_threshold_are_greedy(small_corpus):
    for t in small_corpus:
        for n in (1, 2, 3, 4):
            assert plan_contraction(t, n).madds(n) < vlink.contraction._SEARCH_MADDS
            assert plan_contraction(t, n) == plan_contraction(t, 1), (t, n)


_SEARCH_DIGEST = """
import hashlib
import numpy as np
import vlink as vl
rng = np.random.default_rng(62)
digest = hashlib.sha256()
changed = 0
for _ in range(40):
    n = int(rng.integers(3, 5))
    t = vl.random_tangle(rng, 0, int(rng.integers(*{3: (16, 25), 4: (12, 16)}[n])), int(rng.integers(0, 2)))
    plan = vl.plan_contraction(t, n)
    changed += plan != vl.plan_contraction(t, 1)
    digest.update(repr(plan).encode() + repr(plan.compiled).encode())
print(changed, digest.hexdigest())
"""


#: `_SEARCH_DIGEST`'s output, pinned like `_PLAN_DIGEST_PINNED`: the
#: search changes 9 of the 40 plans.
_SEARCH_DIGEST_PINNED = "9 d4c34bfc15ebea022f5c14ba2e6b1369489c4212ba1190c5883abc40563161c7\n"


def test_searched_plans_do_not_depend_on_hash_seed(child_env):
    outputs = set()
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _SEARCH_DIGEST],
            capture_output=True,
            text=True,
            env=child_env(PYTHONHASHSEED=hash_seed),
            check=True,
        )
        outputs.add(proc.stdout)
    assert outputs == {_SEARCH_DIGEST_PINNED}, outputs


def _wide_tangle(rng: np.random.Generator, arity: int, num_vertices: int, n: int) -> vl.Tangle:
    """A random tangle whose greedy plan has a merge result, before the
    last, of at least the pool's minimum size at ``n``."""
    while True:
        t = vl.random_tangle(rng, arity, num_vertices)
        steps = plan_contraction(t, 1).compiled.steps[:-1]
        if any(n ** (fa + fb) >= vlink.contraction._POOL_MIN for _, _, _, _, fa, _, fb in steps):
            return t


def test_pooled_buffers_keep_results_apart(monkeypatch):
    # Plans A and B share pooled buffer sizes, and C's last merge leaves
    # its legs in order, so its result is the merge's own buffer.  Run A,
    # B, C, A, B, C: each result is byte-equal to the reference, and no
    # result's buffer goes back to the pool, so writing into one reaches no
    # later result, and a later run changes no earlier result.
    pool = vlink.contraction._Pool()
    monkeypatch.setattr(vlink.contraction, "_POOL", pool)
    rng = np.random.default_rng(81)
    entries = {n: vl.random_model(n, rng).entries for n in (5, 10)}
    chain = vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f")
    cases = [(_wide_tangle(rng, 6, 6, 5), 5), (_wide_tangle(rng, 6, 6, 5), 5), (chain, 10)]
    assert plan_contraction(chain, 1).compiled.transpose == (0, 1, 2, 3)
    kept = []
    for t, n in cases * 2:
        plan = plan_contraction(t, 1)
        got = execute_plan(entries[n], n, t, plan)
        assert got.tobytes() == reference_execute(entries[n], n, t, plan).tobytes(), t
        for earlier, snapshot in kept:
            assert earlier.tobytes() == snapshot, t
        got[...] = np.nan
        kept.append((got, got.tobytes()))
    assert pool.nbytes > 0


def test_real_entries_run_as_complex_through_pooled_merges():
    # Real and single-precision vertex tensors are taken as complex, so a
    # plan whose merges reach the pool gives the reference's bytes on the
    # complex tensor.
    rng = np.random.default_rng(85)
    n = 5
    t = _wide_tangle(rng, 6, 6, n)
    plan = plan_contraction(t, 1)
    real = rng.standard_normal((n,) * 4)
    for entries in (real, real.astype(np.complex64)):
        want = reference_execute(entries.astype(complex), n, t, plan)
        got = execute_plan(entries, n, t, plan)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_threads_share_the_pool(monkeypatch):
    # More threads than cores execute pooled plans at once, switching often:
    # every run returns the reference bytes, and the pool's byte count
    # still equals the bytes it holds.
    pool = vlink.contraction._Pool()
    monkeypatch.setattr(vlink.contraction, "_POOL", pool)
    rng = np.random.default_rng(84)
    n = 5
    entries = vl.random_model(n, rng).entries
    cases = []
    for _ in range(2):
        t = _wide_tangle(rng, 6, 6, n)
        plan = plan_contraction(t, 1)
        cases.append((t, plan, reference_execute(entries, n, t, plan).tobytes()))

    def run(order: int) -> bool:
        return all(
            execute_plan(entries, n, t, plan).tobytes() == want
            for _ in range(10)
            for t, plan, want in cases[order % 2 :] + cases[: order % 2]
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as threads:
            futures = [threads.submit(run, order) for order in range(4)]
            assert all(future.result(timeout=60) for future in futures)
    finally:
        sys.setswitchinterval(interval)
    assert pool.nbytes == sum(buf.nbytes for bufs in pool.free.values() for buf in bufs) > 0


def test_pool_stays_bounded_after_a_flood_of_wide_plans(monkeypatch):
    pool = vlink.contraction._Pool()
    bound = 2 << 20
    monkeypatch.setattr(vlink.contraction, "_POOL", pool)
    monkeypatch.setattr(vlink.contraction, "_POOL_BYTES", bound)
    rng = np.random.default_rng(82)
    models = {n: vl.random_model(n, rng).entries for n in (5, 6, 7)}
    sizes, most = set(), 0
    for n, arity in [(5, 6), (6, 4), (7, 4)] * 4:
        t = _wide_tangle(rng, arity, 6, n)
        plan = plan_contraction(t, 1)
        got = execute_plan(models[n], n, t, plan)
        assert got.tobytes() == reference_execute(models[n], n, t, plan).tobytes(), t
        free = [buf for bufs in pool.free.values() for buf in bufs]
        assert pool.nbytes == sum(buf.nbytes for buf in free) <= bound
        assert max(map(len, pool.free.values())) <= vlink.contraction._POOL_PER_SIZE
        sizes.update(buf.size for buf in free)
        most = max(most, pool.nbytes)
    assert len(sizes) >= 2 and most > bound // 2, (sizes, most)


def test_only_large_merge_results_take_pooled_buffers(monkeypatch):
    # The pool serves merge results of at least its minimum size, one
    # buffer each, and nothing else: operand copies are numpy's own.
    taken = []

    class CountingPool(vlink.contraction._Pool):
        def take(self, size: int) -> np.ndarray:
            taken.append(size)
            return super().take(size)

    monkeypatch.setattr(vlink.contraction, "_POOL", CountingPool())
    rng = np.random.default_rng(81)
    n = 5
    entries = vl.random_model(n, rng).entries
    large = []
    for _ in range(6):
        t = _wide_tangle(rng, 6, 6, n)
        plan = plan_contraction(t, 1)
        got = execute_plan(entries, n, t, plan)
        assert got.tobytes() == reference_execute(entries, n, t, plan).tobytes(), t
        sizes = [n ** (fa + fb) for _, _, _, _, fa, _, fb in plan.compiled.steps]
        large += [size for size in sizes if size >= vlink.contraction._POOL_MIN]
    assert large and taken == large, (taken, large)


def test_execute_rejects_plan_of_another_tangle():
    t = vl.parse_tangle("x v1 a b c d\nx v2 c d a b")
    plan = plan_contraction(t, 2)
    entries = vl.random_model(2, np.random.default_rng(42)).entries
    for other in (
        vl.parse_tangle("x v1 a b a b"),
        vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f"),
    ):
        with pytest.raises(ValueError, match="cannot contract"):
            execute_plan(entries, 2, other, plan)


def _copy(t: vl.Tangle) -> vl.Tangle:
    """An equal tangle built anew, without ``t``'s plans."""
    copy = vl.build_tangle(t.num_vertices, sorted(t.edges), t.loop_count)
    assert copy == t and copy is not t
    return copy


def test_equal_tangles_built_anew_get_equal_plans_and_bits():
    small = vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f")
    cases = [(small, 2, vl.random_model(2, np.random.default_rng(9)).entries)]
    cases += [(t, n, entries) for t, n, entries, _ in _costly_cases()[:4]]
    for t, n, entries in cases:
        plan, again = plan_contraction(t, n), plan_contraction(_copy(t), n)
        assert again == plan and again is not plan
        assert repr(again.compiled) == repr(plan.compiled)
        assert execute_plan(entries, n, t, again).tobytes() == execute_plan(entries, n, t, plan).tobytes()


def test_a_plan_lives_as_long_as_its_tangle():
    (costly, n, _, _), *_ = _costly_cases()
    # Each tangle is built inside the loop, so that only ``t`` holds it.
    for make, at in ((lambda: _chain_diagram(5), 3), (lambda: _copy(costly), n)):
        t = make()
        plan = weakref.ref(plan_contraction(t, at))
        assert plan_contraction(t, at) is plan()
        del t
        gc.collect()
        assert plan() is None


def test_a_plan_at_n_is_chosen_once(monkeypatch):
    # The greedy pass, which sums the plan's multiply-adds at n as it
    # merges, runs once per tangle and n; later calls at n return the plan
    # kept on the tangle.  Below the search threshold that plan is greedy.
    t = _chain_diagram(6)
    greedy = vlink.contraction._greedy
    calls = []

    def counted(*args):
        calls.append(args[2])
        return greedy(*args)

    monkeypatch.setattr(vlink.contraction, "_greedy", counted)
    plan = plan_contraction(t, 3)
    assert plan_contraction(t, 3) is plan
    assert calls == [3]
    assert plan.madds(3) < vlink.contraction._SEARCH_MADDS
    assert plan == plan_contraction(_copy(t), 1)


def test_a_searched_diagram_is_planned_once(monkeypatch):
    # A diagram planned at n builds its nodes once, and compiles only the
    # plan it keeps, searched or greedy.
    counts = {"nodes": 0, "compile": 0}
    nodes_of, compile_ = vlink.contraction._Nodes.of, vlink.contraction._compile

    def counted_nodes(t):
        counts["nodes"] += 1
        return nodes_of(t)

    def counted_compile(*args):
        counts["compile"] += 1
        return compile_(*args)

    monkeypatch.setattr(vlink.contraction._Nodes, "of", counted_nodes)
    monkeypatch.setattr(vlink.contraction, "_compile", counted_compile)
    searched = 0
    for t, n, _, greedy in _costly_cases()[:8]:
        counts.update(nodes=0, compile=0)
        plan = plan_contraction(_copy(t), n)
        assert counts == {"nodes": 1, "compile": 1}, t
        searched += plan != greedy
    assert searched > 0


def test_a_tangle_keeps_one_plan_per_n():
    # Each n gets a plan of its own, made by the first call at n (a miss)
    # and found on the tangle by later ones (hits).  Below the search
    # threshold the plans are equal, all greedy.  There is no plan without n.
    t = vl.parse_tangle("x v1 a b c d\nx v2 c d e f\nleg 1 a\nleg 2 b\nleg 3 e\nleg 4 f")
    hits, misses, _, _ = vl.plan_cache_info()
    plans = {n: plan_contraction(t, n) for n in (1, 2, 3, 4)}
    assert all(plan_contraction(t, n) is plan for n, plan in plans.items())
    assert vl.plan_cache_info() == (hits + 4, misses + 4, None, None)
    assert t._plans == plans and len({id(plan) for plan in plans.values()}) == 4
    assert all(plan == plans[1] for plan in plans.values())
    with pytest.raises(TypeError):
        plan_contraction(t)


def test_eval_runs_leave_no_plans_or_tangles(tmp_path, capsys):
    # Plans live on their tangles, so nothing that `vlink eval` parses or
    # plans outlives its run.
    rng = np.random.default_rng(91)
    model = tmp_path / "model.json"
    vl.save_model(vl.random_model(3, rng), str(model))
    paths = []
    for index in range(300):
        path = tmp_path / f"{index}.vld"
        vl.save_tangle(vl.random_tangle(rng, 0, int(rng.integers(12, 17)), int(rng.integers(0, 2))), str(path))
        paths.append(str(path))

    def alive() -> set[int]:
        gc.collect()
        return {id(o) for o in gc.get_objects() if isinstance(o, (ContractionPlan, vl.Tangle))}

    before = alive()
    for path in paths:
        assert vlink.cli.main(["eval", "--model", str(model), path]) == 0
    capsys.readouterr()
    assert alive() <= before


@pytest.mark.parametrize("n", [None, 0, -2, 2.0, "2", [2]])
def test_a_state_count_that_is_no_integer_of_at_least_one_is_refused(n):
    # Checked when a plan is made: a ValueError naming n, nothing counted and
    # nothing kept on the tangle, on a tangle with merges and on one without.
    for t in (vl.strand_tangle(), _chain_diagram(3)):
        misses = vl.plan_cache_info().misses
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 1, got {n!r}")):
            plan_contraction(t, n)
        assert vl.plan_cache_info().misses == misses
        assert "_plans" not in vars(t)


def test_numpy_integer_state_counts_share_the_plan_of_their_int():
    t = _chain_diagram(3)
    plan = plan_contraction(t, np.int64(2))
    assert list(t._plans) == [2] and type(next(iter(t._plans))) is int
    assert plan_contraction(t, 2) is plan and plan_contraction(t, np.int32(2)) is plan
