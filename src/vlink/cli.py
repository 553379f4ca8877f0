"""Command-line interface.

Subcommands: eval, check, moves test, kernel, gram, enumerate, random.
Exit codes: 0 success, 1 usage or input errors, 2 a theoretical invariant
failed at the requested tolerance.  All randomness comes from numpy's
default_rng (PCG64) seeded with --seed, so identical invocations produce
byte-identical output.  Complex numbers print as "re im" at 15 significant
digits.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .algebra import load_quantum_tangle
from .characterize import (
    enumerate_tangles,
    gram_psd,
    kernel_probe,
    random_tangle,
)
from .diagram import load_tangle, serialize_tangle
from .model import (
    load_model,
    model_to_json,
    partition_function,
    qt_evaluate,
    random_model,
    tangle_tensor,
)
from .moves import check_algebraic, random_move

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value + 0.0:.15g}"


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)} {_fmt(z.imag)}"


def build_parser() -> argparse.ArgumentParser:
    """A new parser on each call, so changing one never changes `main`."""
    parser = _Parser(
        prog="vlink",
        description="Vertex-model partition functions of virtual link diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=False, fmt=True, tol=True):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
            p.add_argument(
                "--symmetrize",
                action="store_true",
                help="project the loaded tensor onto swap-invariant models "
                "instead of validating invariance",
            )
        if fmt:
            p.add_argument(
                "--format",
                choices=("text", "csv", "json-lines"),
                default="text",
            )
        if tol:
            p.add_argument("--tol", type=float, default=1e-10, help="tolerance (default 1e-10)")

    p = sub.add_parser("eval", help="evaluate diagrams (.vld) or combinations (.qtl)")
    add_common(p, model=True, tol=False)
    p.add_argument("paths", nargs="+", help=".vld or .qtl files")

    p = sub.add_parser("check", help="algebraic move-invariance conditions")
    add_common(p, model=True)

    p = sub.add_parser("moves", help="random move applications must preserve f")
    add_common(p, model=True)
    p.add_argument("action", choices=("test",))
    p.add_argument("paths", nargs="+", help=".vld diagram files")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("kernel", help="determinant-tangle kernel residuals")
    add_common(p)
    p.add_argument("--model", help="model JSON file (default: seeded random model)")
    p.add_argument("--symmetrize", action="store_true")
    p.add_argument("--n", type=int, help="state count of the random model (default 2)")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--max-vertices", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gram", help="Gram matrix of glued tangle pairs (real model)")
    add_common(p, model=True, fmt=False)
    p.add_argument("--max-vertices", type=int, default=1)

    p = sub.add_parser("enumerate", help="list tangles up to isomorphism")
    add_common(p, tol=False)
    p.add_argument("--k", type=int, required=True, help="arity (even)")
    p.add_argument("--max-vertices", type=int, default=1)

    p = sub.add_parser("random", help="emit a seeded random model or tangle")
    add_common(p, fmt=False, tol=False)
    p.add_argument("--kind", choices=("model", "tangle"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, help="state count (model; default 2)")
    p.add_argument("--real", action="store_true", help="real entries (model)")
    p.add_argument("--k", type=int, help="arity (tangle; default 0)")
    p.add_argument("--vertices", type=int, help="vertex count (tangle; default 2)")
    p.add_argument("--loops", type=int, help="vertexless loops (tangle; default 0)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built once per process, because building one
    costs far more than parsing with it.  `parse_args` keeps no state
    between calls and looks up sys.stdout and sys.stderr when it prints."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Every figure a command prints or judges is checked to be finite,
        # and one that is not is refused by name (exit 1), so numpy's
        # overflow and invalid-value warnings would only repeat it.
        with np.errstate(all="ignore"):
            return _dispatch(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed stdout; exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"vlink: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    handler = {
        "eval": _cmd_eval,
        "check": _cmd_check,
        "moves": _cmd_moves,
        "kernel": _cmd_kernel,
        "gram": _cmd_gram,
        "enumerate": _cmd_enumerate,
        "random": _cmd_random,
    }[args.command]
    return handler(args)


def _load_model_arg(args: argparse.Namespace):
    return load_model(args.model, project=args.symmetrize)


def _refuse_unread(args: argparse.Namespace, names: tuple[str, ...], when: str) -> None:
    """A ValueError for the first flag of ``names`` given on the command
    line: each is read only ``when``.  Such a flag defaults to None, or to
    False if it takes no value."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise ValueError(f"--{name} is read only {when}")


def _emit(args: argparse.Namespace, text_line: str, record: dict) -> None:
    if args.format == "text":
        print(text_line)
    elif args.format == "csv":
        # A list (a tangle entry's leg indices) gives one field per element.
        # Fields holding a comma, a quote or a line break are quoted.
        fields = (v if isinstance(v, list) else [v] for v in record.values())
        csv.writer(sys.stdout, lineterminator="\n").writerow(x for field in fields for x in field)
    else:
        print(json.dumps(record, sort_keys=True))


def _verdict(args: argparse.Namespace, values: dict, passed: bool) -> int:
    """Print the named ``values`` and the verdict; 0 on pass, 2 on fail.

    Text prints a ``name value`` line per value, then ``pass`` or ``fail``;
    csv and json-lines print one record that also holds ``passed``.  A
    value that is not finite prints nothing: it is a ValueError naming it,
    as `vlink eval` refuses a value that overflowed.
    """
    not_finite = [name for name, value in values.items() if not math.isfinite(value)]
    if not_finite:
        raise ValueError(f"not finite: {', '.join(not_finite)} (the evaluation overflowed)")
    lines = [f"{name} {_fmt(value)}" for name, value in values.items()]
    _emit(args, "\n".join([*lines, "pass" if passed else "fail"]), {**values, "passed": passed})
    return 0 if passed else 2


def _cmd_eval(args: argparse.Namespace) -> int:
    model = _load_model_arg(args)
    for path in args.paths:
        if path.endswith(".qtl"):
            source, evaluate = load_quantum_tangle(path), qt_evaluate
        else:
            source, evaluate = load_tangle(path), tangle_tensor
        try:
            value = evaluate(model, source)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: value is not finite (the evaluation overflowed)")
        # A diagram's value is 0-d: `product` yields its one index, (), and
        # its record has no "index".
        for idx in itertools.product(*map(range, value.shape)):
            z = complex(value[idx])
            index = [i + 1 for i in idx]
            record = {"path": path, "index": index, "re": z.real + 0.0, "im": z.imag + 0.0}
            if not index:
                del record["index"]
            _emit(args, " ".join([*map(str, index), _fmt_complex(z)]), record)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    model = _load_model_arg(args)
    report = check_algebraic(model, tol=args.tol)
    residuals = {"r1": report.residual_r1, "r2": report.residual_r2, "r3": report.residual_r3}
    return _verdict(args, residuals, report.passed)


def _cmd_moves(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    model = _load_model_arg(args)
    diagrams = [load_tangle(path) for path in args.paths]
    for path, g in zip(args.paths, diagrams):
        if g.arity:
            raise ValueError(f"{path}: moves need diagrams (arity 0)")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.count):
        pick = int(rng.integers(len(diagrams)))
        g = diagrams[pick]
        try:
            f_before = partition_function(model, g)
            _, moved = random_move(g, rng)
            f_after = partition_function(model, moved)
        except ValueError as exc:
            raise ValueError(f"{args.paths[pick]}: {exc}") from exc
        try:
            scaled = abs(f_after - f_before) / (1.0 + abs(f_before))
        except OverflowError:  # the abs of a finite complex past the float range
            scaled = math.inf
        if not math.isfinite(scaled):
            raise ValueError(
                f"{args.paths[pick]}: f or its change under a move is not finite"
                " (the evaluation overflowed)"
            )
        worst = max(worst, scaled)
    return _verdict(args, {"applied": args.count, "max_scaled_delta": worst}, worst <= args.tol)


def _cmd_kernel(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.model:
        _refuse_unread(args, ("n",), "without --model")
        model = _load_model_arg(args)
    else:
        _refuse_unread(args, ("symmetrize",), "with --model")
        model = random_model(2 if args.n is None else args.n, rng)
    report = kernel_probe(model, args.samples, args.max_vertices, rng)
    values = {
        "max_scaled_residual": report.max_scaled_residual,
        "negative_control": report.negative_control,
    }
    return _verdict(args, values, report.passed(args.tol))


def _cmd_gram(args: argparse.Namespace) -> int:
    model = _load_model_arg(args)
    report = gram_psd(model, args.max_vertices)
    for row in np.asarray(report.gram.real):
        print(",".join(_fmt(x) for x in row))
    print(f"min_eigenvalue {_fmt(report.min_eigenvalue)}", file=sys.stderr)
    return 0 if report.passed(args.tol) else 2


def _cmd_enumerate(args: argparse.Namespace) -> int:
    tangles = enumerate_tangles(args.k, args.max_vertices)
    for index, t in enumerate(tangles):
        if args.format == "json-lines":
            print(
                json.dumps(
                    {
                        "index": index,
                        "num_vertices": t.num_vertices,
                        "vld": serialize_tangle(t),
                    },
                    sort_keys=True,
                )
            )
        elif args.format == "csv":
            print(f"{index},{t.num_vertices},{t.loop_count}")
        else:
            body = serialize_tangle(t).rstrip("\n")
            print(body if body else "# empty")
            print("%%")
    print(f"count {len(tangles)}", file=sys.stderr)
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "model":
        _refuse_unread(args, ("k", "vertices", "loops"), "with --kind tangle")
        model = random_model(2 if args.n is None else args.n, rng, real=args.real)
        sys.stdout.write(model_to_json(model))
    else:
        _refuse_unread(args, ("n", "real"), "with --kind model")
        t = random_tangle(
            rng,
            0 if args.k is None else args.k,
            2 if args.vertices is None else args.vertices,
            0 if args.loops is None else args.loops,
        )
        sys.stdout.write(serialize_tangle(t))
    return 0


if __name__ == "__main__":
    sys.exit(main())
