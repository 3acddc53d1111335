"""Command-line front end.

Exit codes: 0 success, 2 configuration or parse error, 3 bound hypothesis
violation, 4 numerical failure (rank deficiency or non-convergence).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._kv import floats, integer, named, read_pairs
from .bounds import gamma, lipschitz_bound, one_step_bound
from .errors import ConvergenceError, HypothesisViolationError, RankDeficientError
from .experiment import load_config, run_experiment, run_single
from .grassmann import chordal_distance, load_basis
from .predictor import PredictionContext, predict_from_subspace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="behave",
        description="Behavioral subspace prediction and perturbation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run the full perturbation sweep")
    p_exp.add_argument("--config", required=True, help="configuration file")
    p_exp.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; trials run serially"
    )

    p_single = sub.add_parser("single", help="trace a single perturbation")
    p_single.add_argument("--config", required=True)
    p_single.add_argument("--n", type=int, required=True, help="perturbation index (1-based)")

    p_dist = sub.add_parser("distance", help="chordal distance between two basis files")
    p_dist.add_argument("basis_a")
    p_dist.add_argument("basis_b")

    p_pred = sub.add_parser("predict", help="predict future outputs from a basis file")
    p_pred.add_argument("--basis", required=True)
    p_pred.add_argument("--context", required=True)

    p_bound = sub.add_parser("bound", help="evaluate a prediction-error bound")
    p_bound.add_argument("--kappa", type=float, required=True)
    p_bound.add_argument("--bnorm", type=float, required=True)
    p_bound.add_argument("--gamma", type=float)
    p_bound.add_argument("--alpha", type=float)
    p_bound.add_argument("--beta", type=float)
    p_bound.add_argument("--one-step", action="store_true")
    p_bound.add_argument("--sigma-min", type=float)
    p_bound.add_argument("--uyf1", type=float)
    return parser


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    run_experiment(config)
    out = Path(config.output_dir)
    print(out / "trials.csv")
    print(out / "summary.csv")
    return 0


def _cmd_single(args) -> int:
    config = load_config(args.config)
    _, kappa = run_single(config, args.n)
    print(f"kappa = {kappa:.12g}")
    print(Path(config.output_dir) / f"single_{args.n}.csv")
    return 0


def _cmd_distance(args) -> int:
    a = load_basis(args.basis_a)
    b = load_basis(args.basis_b)
    print(f"{chordal_distance(a, b):.12g}")
    return 0


def load_context(path) -> PredictionContext:
    """Read a context file: keys m, p, Tini, Tf and whitespace-separated
    vectors u_ini, u, y_ini of finite entries; every ValueError names the file."""
    required = ("m", "p", "Tini", "Tf", "u_ini", "u", "y_ini")
    pairs = read_pairs(Path(path).read_text(encoding="utf-8"), str(path), required)
    dims = {k: integer(pairs[k], f"{path}: {k}") for k in ("m", "p", "Tini", "Tf")}
    vectors = {k: floats(pairs[k].split(), f"{path}: {k}") for k in ("u_ini", "u", "y_ini")}
    with named(path):
        return PredictionContext(**vectors, **dims)


def _cmd_predict(args) -> int:
    basis = load_basis(args.basis)
    ctx = load_context(args.context)
    pred = predict_from_subspace(basis, ctx)
    print("step," + ",".join(f"y_{i}" for i in range(ctx.p)))
    for step, row in enumerate(pred.y_pred.reshape(ctx.Tf, ctx.p)):
        print(f"{step}," + ",".join(repr(float(v)) for v in row))
    print(f"sigma_min = {pred.sigma_min:.12g}", file=sys.stderr)
    print(f"effective_rank = {pred.effective_rank}", file=sys.stderr)
    return 0


def _cmd_bound(args) -> int:
    if args.one_step:
        if args.sigma_min is None or args.uyf1 is None:
            raise ValueError("--one-step requires --sigma-min and --uyf1")
        if (args.gamma, args.alpha, args.beta) != (None, None, None):
            raise ValueError("--one-step takes --sigma-min and --uyf1, not --gamma, --alpha or --beta")
        value = one_step_bound(args.sigma_min, args.uyf1, args.kappa, args.bnorm)
    else:
        if args.sigma_min is not None or args.uyf1 is not None:
            raise ValueError("--sigma-min and --uyf1 need --one-step")
        if args.gamma is not None:
            if args.alpha is not None or args.beta is not None:
                raise ValueError("give either --gamma or --alpha/--beta, not both")
            g = args.gamma
        elif args.alpha is not None and args.beta is not None:
            g = gamma(args.alpha, args.beta)
        else:
            raise ValueError("the full-horizon bound needs --gamma or both --alpha and --beta")
        value = lipschitz_bound(g, args.kappa, args.bnorm)
    print(f"{value:.12g}")
    return 0


_DISPATCH = {
    "experiment": _cmd_experiment,
    "single": _cmd_single,
    "distance": _cmd_distance,
    "predict": _cmd_predict,
    "bound": _cmd_bound,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RankDeficientError, ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
