"""Command-line entry point.

Subcommands map one-to-one onto the experiment runners plus ``check``,
which executes the full oracle suite and reports one line per check.
Exit codes: 0 success, 1 failed checks, 2 configuration error,
3 numerical divergence, 4 I/O error, 5 infeasible hyperparameters,
6 internal error (operand shapes that do not conform: a fault of the
program, not of the config, reported with its traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ExperimentConfig, parse_config
from .errors import (DimensionMismatchError, InfeasibleHypersError,
                     IngestError, NonFiniteError)
from .experiments import (run_bench, run_hyperclean, run_mtl, run_randsearch,
                          run_rtho, write_report)
from .verify import run_check_suite

_RUNNERS = {
    "clean": run_hyperclean,
    "mtl": run_mtl,
    "rtho": run_rtho,
    "bench": run_bench,
    "randsearch": run_randsearch,
}

_HELP = {
    "clean": "learn per-example weights to suppress corrupted labels",
    "mtl": "learn a task-interaction matrix against STL/NMTL baselines",
    "rtho": "tune (eta, mu) in real time during one training run",
    "bench": "time both engines across hyperparameter counts and horizons",
    "randsearch": "random-search baseline over (eta, mu)",
    "check": "run the full oracle/equivalence/projection suite",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypergrad",
        description="Exact hypergradients of iterative training dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("clean", "mtl", "rtho", "bench", "randsearch", "check"):
        sp = sub.add_parser(name, help=_HELP[name])
        sp.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
        sp.add_argument("--seed", type=int, help="root RNG seed")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--engine", choices=("forward", "reverse"),
                        help="hypergradient engine for batch loops")
        sp.add_argument("--delta", type=int, help="hyper-batch size")
        sp.add_argument("--radius", type=float,
                        help="constraint budget R (L1 / matrix sum)")
        sp.add_argument("--inner-steps", type=int, dest="inner_steps",
                        help="inner training steps T")
        sp.add_argument("--hyper-iters", type=int, dest="hyper_iters",
                        help="hyper-iteration budget")
        sp.add_argument("--hyper-lr", type=float, dest="hyper_lr",
                        help="outer Adam learning rate")
    return parser


_FLAG_FIELDS = {
    "seed": "seed",
    "out": "out_dir",
    "engine": "engine",
    "delta": "delta",
    "radius": "radius",
    "inner_steps": "inner_steps",
    "hyper_iters": "hyper_iters",
    "hyper_lr": "hyper_lr",
}


def resolve_config(args) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    cfg.experiment = args.command
    for flag, field_name in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, field_name, value)
    return cfg


def _summarize(report):
    metrics = report.metrics
    if report.experiment == "clean":
        return (f"test={metrics['test_accuracy']:.2f}% "
                f"baseline={metrics['baseline_accuracy']:.2f}% "
                f"oracle={metrics['oracle_accuracy']:.2f}% "
                f"F1={metrics['f1']:.4f}")
    if report.experiment == "mtl":
        parts = [f"{name}={metrics[name]['mean']:.2f}%"
                 for name in ("stl", "nmtl", "hmtl", "hmtl_s")]
        return " ".join(parts) + f" margin={metrics['margin']:.2f}"
    if report.experiment == "rtho":
        if "rtho_wins" in metrics:
            return (f"rtho wins {metrics['rtho_wins']}/{metrics['n_seeds']} "
                    f"seeds vs random search")
        return (f"val_acc={metrics['final_val_accuracy']:.2f}% "
                f"eta={metrics['final_eta']:.4f} mu={metrics['final_mu']:.4f}")
    if report.experiment == "bench":
        t = report.timings
        if "forward_ratio_100_10" in t:
            return (f"forward t(100)/t(10)={t['forward_ratio_100_10']:.2f} "
                    f"reverse={t['reverse_ratio_100_10']:.2f}")
        return "bench complete"
    if report.experiment == "randsearch":
        return (f"best score={metrics['best_score']:.6f} over "
                f"{metrics['trials']} trials")
    return json.dumps(metrics)[:200]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args).validate()
        if args.command == "check":
            results = run_check_suite(cfg.seed)
            n_fail = 0
            for res in results:
                tag = "PASS" if res.ok else "FAIL"
                detail = f"  ({res.detail})" if res.detail else ""
                print(f"{tag} {res.name}{detail}")
                n_fail += 0 if res.ok else 1
            print(f"{len(results) - n_fail}/{len(results)} checks passed")
            return 0 if n_fail == 0 else 1
        report = _RUNNERS[args.command](cfg)
        out_path = write_report(report, cfg.out_dir)
        print(f"{args.command}: {_summarize(report)}")
        print(f"wrote {out_path}")
        return 0
    # IngestError and DimensionMismatchError are ValueErrors: they must be
    # caught before the generic case
    except DimensionMismatchError as err:
        import traceback  # local: only a failing run pays for the import
        traceback.print_exc()
        print(f"internal error: {err}", file=sys.stderr)
        return 6
    except (IngestError, OSError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NonFiniteError as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return 3
    except InfeasibleHypersError as err:
        print(f"infeasible hyperparameters: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
