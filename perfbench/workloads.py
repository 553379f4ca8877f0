"""Benchmark-owned inputs, operations and correctness checks.

Every input is drawn from numpy Generators seeded by the benchmark, never
from vlink's own random helpers, so a change to vlink cannot change the
inputs.  vlink receives only .vld text, model JSON files, or arrays.  The
references that check each operation do not use vlink's contraction code:
a strand walk for strand-product models and 2^knots models, an
`np.einsum` contraction for the negative control, and the theorems'
exact values (zero kernel residual, the h^2 finite-difference bound, a
positive semidefinite Gram matrix) elsewhere.

A workload object is built from (seed, stream, workdir) and exposes
`prepare(i)` (client-side work for op i: draw its input; not timed as part
of the op), `run(job)` (the timed call into vlink), `check(job, result)`
(the correctness check) and `fixed_text` (its fixed inputs, for the
digest).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os

import numpy as np

import vlink as vl
import vlink.cli

LEG = -1

#: Seed-stream ids: measured ops and warm-up ops never share inputs.
MEASURED, WARMUP = 0, 1

#: Indices from FIXED up key the streams that are not per-op inputs:
#: models, the moves pool, move choices.
FIXED = 1 << 31

#: Ops whose inputs are hashed into the run's input digest.
DIGEST_OPS = 64


def op_rng(seed: int, workload: str, stream: int, i: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag, stream, i])


# ---------------------------------------------------------------------------
# Generators and references


def random_wiring(rng, num_vertices: int, arity: int = 0):
    """Uniform random perfect matching of all slots and legs."""
    points = [(LEG, i) for i in range(1, arity + 1)]
    points += [(v, s) for v in range(num_vertices) for s in range(4)]
    order = rng.permutation(len(points))
    return [(points[order[2 * j]], points[order[2 * j + 1]]) for j in range(len(points) // 2)]


def vld_text(num_vertices: int, edges, loops: int = 0) -> str:
    name = {}
    for j, (a, b) in enumerate(edges):
        name[a] = name[b] = f"e{j}"
    lines = [f"loops {loops}"] if loops else []
    lines += [f"x v{v} " + " ".join(name[(v, s)] for s in range(4)) for v in range(num_vertices)]
    legs = sorted(ep[1] for ep in name if ep[0] == LEG)
    lines += [f"leg {label} {name[(LEG, label)]}" for label in legs]
    return "\n".join(lines) + "\n"


def knot_passes(num_vertices: int, edges) -> list[int]:
    """Strand passes of each knot through vertices (vertexless loops excluded)."""
    partner = {}
    for a, b in edges:
        partner[a], partner[b] = b, a
    seen = set()
    passes = []
    for v in range(num_vertices):
        for strand in (0, 1):
            m, (u, s) = 0, (v, strand)
            while (u, s % 2) not in seen:
                seen.add((u, s % 2))
                m += 1
                u, s = partner[(u, (s + 2) % 4)]
            if m:
                passes.append(m)
    return passes


def symmetric_model(raw: np.ndarray) -> np.ndarray:
    """Swap-invariant tensor (R[i,j,k,l] = R[k,l,i,j] exactly)."""
    return (raw + raw.transpose(2, 3, 0, 1)) / 2.0


def random_entries(rng, n: int, real: bool = False) -> np.ndarray:
    raw = rng.standard_normal((n,) * 4)
    if not real:
        raw = raw + 1j * rng.standard_normal((n,) * 4)
    return symmetric_model(raw)


def model_json(entries: np.ndarray) -> str:
    items = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "re": float(z.real), "im": float(z.imag)}
        for (i, j, k, l), z in np.ndenumerate(entries)
    ]
    return json.dumps({"n": entries.shape[0], "entries": items})


def einsum_tangle_tensor(entries: np.ndarray, num_vertices: int, arity: int, edges):
    """Tangle tensor over legs 1..k by one `np.einsum` contraction."""
    n = entries.shape[0]
    letters = iter(itertools.chain("abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    leg_letter = {label: next(letters) for label in range(1, arity + 1)}
    slot_letter = {}
    operands, subscripts = [], []
    for a, b in edges:
        if a[0] == LEG and b[0] == LEG:
            operands.append(np.eye(n))
            subscripts.append(leg_letter[a[1]] + leg_letter[b[1]])
            continue
        if a[0] == LEG or b[0] == LEG:
            leg, slot = (a, b) if a[0] == LEG else (b, a)
            slot_letter[slot] = leg_letter[leg[1]]
        else:
            slot_letter[a] = slot_letter[b] = next(letters)
    for v in range(num_vertices):
        operands.append(entries)
        subscripts.append("".join(slot_letter[(v, s)] for s in range(4)))
    out = "".join(leg_letter[label] for label in range(1, arity + 1))
    return np.einsum(",".join(subscripts) + "->" + out, *operands, optimize="greedy")


def permutation_sign(perm) -> int:
    sign, seen = 1, [False] * len(perm)
    for i in range(len(perm)):
        length, j = 0, i
        while not seen[j]:
            seen[j], j, length = True, perm[j], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def det_pairing(tensor: np.ndarray, m: int) -> complex:
    """Sum over perms of sgn * (tensor with leg i joined to leg m + perm(i))."""
    total = 0j
    idx = "abcdefghijklmnopqrstuvwxyz"[:m]
    for perm in itertools.permutations(range(m)):
        second = [""] * m
        for i in range(m):
            second[perm[i]] = idx[i]
        total += permutation_sign(perm) * complex(np.einsum(idx + "".join(second) + "->", tensor))
    return total


def close(got: complex, ref: complex, rtol: float, corrupt: bool) -> bool:
    if corrupt:
        ref = ref * (1 + 1e-3) + 1e-3
    return abs(got - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# Workloads


class EvalLarge:
    """One in-process `vlink eval` per closed random diagram.

    Ops alternate n=3 with 16-20 vertices and n=4 with 12-15 vertices,
    under the strand-product model A (x) A with A random complex symmetric
    at spectral radius 1, so the vertex tensor is dense.  The reference is
    prod over knots of tr(A^m), times n^loops, with m the knot's strand
    passes.

    The largest intermediate is then 4^10 entries (17 MB), planned for about
    0.5% of n=4 diagrams, so every run meets it; 110,000 sampled diagrams
    planned nothing larger.  Larger sizes give the greedy planner a rare
    wide tail that made peak RSS jump between seeds: 3^14 entries (73 MiB)
    for about 0.6% of n=3 diagrams with 22-24 vertices, and now and then at
    21 vertices; 4^12 entries (256 MiB, 600 MiB peak RSS) for an n=4 diagram
    with 16 vertices.
    """

    name = "eval-large"
    SIZES = {3: (16, 20), 4: (12, 15)}
    MODELS_PER_N = 4

    def __init__(self, seed: int, stream: int, workdir: str, corrupt: bool = False):
        self.seed, self.stream, self.corrupt = seed, stream, corrupt
        rng = op_rng(seed, self.name, stream, FIXED)
        self.models = {}
        self.fixed_text = ""
        for n in (3, 4):
            for j in range(self.MODELS_PER_N):
                b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                a = (b + b.T) / 2.0
                a = a / max(abs(np.linalg.eigvals(a)))
                text = model_json(np.einsum("ik,jl->ijkl", a, a))
                path = os.path.join(workdir, f"model-{stream}-n{n}-{j}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.fixed_text += text
                power, traces = np.eye(n), []
                for _ in range(2 * self.SIZES[n][1] + 1):
                    traces.append(complex(np.trace(power)))
                    power = power @ a
                self.models[(n, j)] = (path, traces)
        self.diagram_path = os.path.join(workdir, f"diagram-{stream}.vld")

    def prepare(self, i: int):
        rng = op_rng(self.seed, self.name, self.stream, i)
        n = 3 if i % 2 == 0 else 4
        lo, hi = self.SIZES[n]
        nv = int(rng.integers(lo, hi + 1))
        loops = int(rng.integers(2))
        edges = random_wiring(rng, nv)
        j = int(rng.integers(self.MODELS_PER_N))
        path, traces = self.models[(n, j)]
        ref = complex(n) ** loops
        for m in knot_passes(nv, edges):
            ref *= traces[m]
        text = vld_text(nv, edges, loops)
        with open(self.diagram_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"argv": ["eval", "--model", path, self.diagram_path], "ref": ref, "text": f"{n} {j}\n{text}"}

    def run(self, job):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = vlink.cli.main(job["argv"])
        return code, out.getvalue()

    def check(self, job, result) -> bool:
        code, text = result
        re_part, im_part = text.split()
        return code == 0 and close(complex(float(re_part), float(im_part)), job["ref"], 1e-9, self.corrupt)


class Characterize:
    """A fixed cycle of characterization probes on fresh seeded inputs.

    kernel_residual at n in {1, 2} on 2(n+1)-tangles with 0-5 vertices; the
    negative control det(n) . t at n in {1, 2} on 2n-tangles with 0-5
    vertices; gram_psd on a real n=2 model with max_vertices=1; fd_check at
    n=2 on diagrams with 1-4 vertices.  Control tangles are redrawn until
    the einsum reference exceeds 1e-2 in magnitude: det(n) vanishes on some
    2n-tangles (those joining legs 1 and 2, say), and a control op must
    witness that det(n) is not in the kernel.
    """

    name = "characterize"
    # Shares are chosen so that p50 falls inside the control2 cluster and p95
    # inside the gram cluster; at a cluster edge, one quantile jumps between
    # clusters from run to run.
    CYCLE = ("control1", "kernel1", "control2", "kernel2", "gram") * 2 + (
        "control1",
        "kernel1",
        "control2",
        "kernel2",
        "fd",
    ) * 2
    GRAM_CLASSES = 60

    def __init__(self, seed: int, stream: int, workdir: str, corrupt: bool = False):
        self.seed, self.stream, self.corrupt = seed, stream, corrupt
        self.fixed_text = ""

    def prepare(self, i: int):
        rng = op_rng(self.seed, self.name, self.stream, i)
        kind = self.CYCLE[i % len(self.CYCLE)]
        if kind == "gram":
            entries = random_entries(rng, 2, real=True)
            return {"kind": kind, "model": vl.VertexModel(2, entries), "text": repr(entries.tolist())}
        if kind == "fd":
            model, direction = random_entries(rng, 2), random_entries(rng, 2)
            nv = int(rng.integers(1, 5))
            text = vld_text(nv, random_wiring(rng, nv))
            bound = 1e-5 * (1.0 + np.linalg.norm(model) ** 4 * np.linalg.norm(direction))
            return {
                "kind": kind,
                "model": vl.VertexModel(2, model),
                "direction": vl.VertexModel(2, direction),
                "g": vl.parse_tangle(text),
                "bound": bound,
                "text": text + repr(model.tolist()) + repr(direction.tolist()),
            }
        n = int(kind[-1])
        entries = random_entries(rng, n)
        job = {"kind": kind, "n": n, "model": vl.VertexModel(n, entries)}
        if kind.startswith("kernel"):
            nv = int(rng.integers(0, 6))
            text = vld_text(nv, random_wiring(rng, nv, 2 * (n + 1)))
            job["scale"] = 1.0 + np.linalg.norm(entries) ** nv
        else:
            while True:
                nv = int(rng.integers(0, 6))
                edges = random_wiring(rng, nv, 2 * n)
                job["ref"] = det_pairing(einsum_tangle_tensor(entries, nv, 2 * n, edges), n)
                if abs(job["ref"]) > 1e-2:
                    break
            text = vld_text(nv, edges)
        job["t"] = vl.parse_tangle(text)
        job["text"] = text + repr(entries.tolist())
        return job

    def run(self, job):
        kind = job["kind"]
        if kind.startswith("kernel"):
            return vl.kernel_residual(job["model"], job["t"])
        if kind.startswith("control"):
            combo = vl.qt_glue(vl.det_tangle(job["n"]), vl.QuantumTangle.of(job["t"]))
            return vl.qt_evaluate(job["model"], combo)
        if kind == "fd":
            return vl.fd_check(job["model"], job["g"], job["direction"])
        return vl.gram_psd(job["model"], max_vertices=1)

    def check(self, job, result) -> bool:
        kind = job["kind"]
        if kind.startswith("kernel"):
            return result <= 1e-8 * job["scale"]
        if kind.startswith("control"):
            return abs(result) > 1e-3 and close(complex(result), job["ref"], 1e-9, self.corrupt)
        if kind == "fd":
            return result <= job["bound"]
        return result.passed(1e-8) and len(result.basis) == self.GRAM_CLASSES


class Moves:
    """Chained random Reidemeister rewrites, with interleaved witness ops.

    A pool of closed random diagrams, two of each size from 4 to 10
    vertices, evolves by `random_move`; ops visit the entries in turn, and
    an entry that grows past 14 vertices is replaced by a fresh random
    diagram of its starting size.  Fixed sizes and turns, and many fresh
    starts per run, keep the seed from setting the pool's mean size, which
    sets the cost of the O(v^3) site scan.  Under transmission_model(2)
    and the 2^knots model, f before and after each move must equal 2^knots
    by the strand walk.  Every fifth op runs `find_move_witness` on a random
    real n=2 model, which fails the move conditions, and must find a move
    changing f by more than 1e-6.
    """

    name = "moves"
    SIZES = tuple(range(4, 11)) * 2
    RESET_ABOVE = 14
    WITNESS_EVERY = 5
    WITNESS_MODELS = 8

    def __init__(self, seed: int, stream: int, workdir: str, corrupt: bool = False):
        self.seed, self.stream, self.corrupt = seed, stream, corrupt
        rng = op_rng(seed, self.name, stream, FIXED)
        eye = np.eye(2)
        knot_matrix = np.array([[2.0, 1.0j], [1.0j, 0.0]])
        self.invariant_models = [
            vl.VertexModel(2, np.einsum("ik,jl->ijkl", eye, eye)),
            vl.VertexModel(2, np.einsum("ik,jl->ijkl", knot_matrix, knot_matrix)),
        ]
        witness_entries = [random_entries(rng, 2, real=True) for _ in range(self.WITNESS_MODELS)]
        self.witness_models = [vl.VertexModel(2, e) for e in witness_entries]
        self.starts = [0] * len(self.SIZES)
        texts = [self.fresh_text(slot) for slot in range(len(self.SIZES))]
        self.fixed_text = "".join(texts) + repr([e.tolist() for e in witness_entries])
        self.pool = [vl.parse_tangle(text) for text in texts]
        self.schedule = op_rng(seed, self.name, stream, FIXED + 1)
        self.move_rng = op_rng(seed, self.name, stream, FIXED + 2)

    def fresh_text(self, slot: int) -> str:
        """The next starting diagram of a pool slot."""
        index = FIXED + 3 + slot + len(self.SIZES) * self.starts[slot]
        self.starts[slot] += 1
        nv = self.SIZES[slot]
        return vld_text(nv, random_wiring(op_rng(self.seed, self.name, self.stream, index), nv))

    def prepare(self, i: int):
        slot = i % len(self.SIZES)
        if self.pool[slot].num_vertices > self.RESET_ABOVE:
            self.pool[slot] = vl.parse_tangle(self.fresh_text(slot))
        job = {"slot": slot, "g": self.pool[slot]}
        if i % self.WITNESS_EVERY == self.WITNESS_EVERY - 1:
            w = int(self.schedule.integers(self.WITNESS_MODELS))
            job["witness"] = self.witness_models[w]
            job["text"] = f"{slot} witness {w}\n"
        else:
            job["model"] = self.invariant_models[i % 2]
            job["text"] = f"{slot} model {i % 2}\n"
        return job

    def run(self, job):
        if "witness" in job:
            return vl.find_move_witness(job["witness"], [job["g"]])
        model, g = job["model"], job["g"]
        before = vl.partition_function(model, g)
        _, moved = vl.random_move(g, self.move_rng)
        return before, moved, vl.partition_function(model, moved)

    def check(self, job, result) -> bool:
        if "witness" in job:
            return result is not None and result[2] > 1e-6
        before, moved, after = result
        self.pool[job["slot"]] = moved
        return (
            abs(after - before) <= 1e-8 * (1.0 + abs(before))
            and close(before, 2.0 ** knot_count(job["g"]), 1e-9, self.corrupt)
            and close(after, 2.0 ** knot_count(moved), 1e-9, self.corrupt)
        )


def knot_count(g) -> int:
    return len(knot_passes(g.num_vertices, g.edges)) + g.loop_count


WORKLOADS = {cls.name: cls for cls in (EvalLarge, Characterize, Moves)}


def input_digest(name: str, seed: int, workdir: str) -> str:
    """sha256 over a fresh instance's fixed inputs and its first DIGEST_OPS op inputs."""
    workload = WORKLOADS[name](seed, MEASURED, workdir)
    h = hashlib.sha256(workload.fixed_text.encode())
    for i in range(DIGEST_OPS):
        h.update(workload.prepare(i)["text"].encode())
    return h.hexdigest()
