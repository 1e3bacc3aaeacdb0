"""Command-line front end.

Subcommands:

  run        load a pack CSV, run algorithms, emit a report
  synth      generate a synthetic stream, run algorithms, emit a report
  adversary  play the mix-loss adversary against a learner
  audit      re-check the guarantees recorded in a result JSON file

Exit codes: 0 success, 1 usage or data errors, 2 a guarantee check failed
(the guarantees hold mathematically for all valid inputs, so a failure is
the strongest possible bug signal).  Output is deterministic for fixed
inputs and seeds.
"""

from __future__ import annotations

import argparse
import re
import sys

from .games import GameSpec, max_mixable_eta
from .harness import (
    ALGORITHM_CHOICES,
    DatasetSpec,
    SyntheticConfig,
    _audit,
    _read_report,
    _report_texts,
    _where,
    emit_adversary_report,
    generate_synthetic_stream,
    load_pack_csv,
    rescale_stream,
    run_experiment,
    write_pack_csv,
)
from .mixloss import LEARNERS, NATURES, run_mixloss_game

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND_FAILED = 2


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns the exit code."""

    def error(self, message):
        raise _CliError(f"{self.prog}: error: {message}")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithms", default="all",
                   help="comma-separated subset of "
                        f"{','.join(ALGORITHM_CHOICES)}, or 'all' (default)")
    p.add_argument("--prior", default="uniform",
                   help="'uniform' or comma-separated weights, one per expert")
    p.add_argument("--every-prefix", action="store_true",
                   help="check guarantees after every trial, not just the last")
    p.add_argument("--shuffles", type=int, default=0,
                   help="also measure parallel-copies loss over this many "
                        "within-pack shuffles")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the shuffle study and, for synth, the stream")
    p.add_argument("--eta", type=float, default=None,
                   help="learning rate (default: largest safe rate)")
    p.add_argument("--c", type=float, default=1.0)
    _add_output_options(p)


_RANGE = re.compile(r"^(.*?)(\d+)\.\.(?:(.*?)(\d+))$")


def _expand_columns(raw: str):
    """Comma-separated column names, with e1..e12 range shorthand."""
    cols = []
    for part in (s.strip() for s in raw.split(",")):
        if not part:
            continue
        m = _RANGE.match(part)
        if m and (m.group(3) == "" or m.group(3) == m.group(1)):
            prefix, lo, hi = m.group(1), int(m.group(2)), int(m.group(4))
            if hi < lo:
                raise _CliError(f"bad column range {part!r}")
            cols.extend(f"{prefix}{i}" for i in range(lo, hi + 1))
        else:
            cols.append(part)
    if not cols:
        raise _CliError("no expert columns given")
    return tuple(cols)


def _parse_prior(raw: str):
    """`--prior` as floats, or None for 'uniform'; `_as_prior` checks them."""
    if raw == "uniform":
        return None
    try:
        return [float(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise _CliError(f"bad --prior {raw!r}") from None


def _game(lower: float, upper: float, args) -> GameSpec:
    """The game on [lower, upper] at `--eta` and `--c` (shared by `run` and
    `synth`), with a warning if the rate exceeds the largest known safe."""
    game = GameSpec.for_interval(lower, upper, args.eta, args.c)
    top = max_mixable_eta(lower, upper)
    if game.eta > top * (1 + 1e-12):
        print(
            f"warning: eta={game.eta:g} exceeds {top:g}, the largest rate "
            f"known safe for [{lower:g}, {upper:g}]; guarantees may fail",
            file=sys.stderr,
        )
    return game


def _emit(texts, out: str | None) -> None:
    """Write a report's texts, in order, to `out` or to stdout, each as it
    comes.  Every refusal is raised before `texts` is given here, so a
    refused report leaves `out` as it was."""
    if out is None:
        sys.stdout.writelines(texts)
    else:
        with open(out, "w") as fh:
            fh.writelines(texts)


def _run(stream, game: GameSpec, args):
    """Run the chosen algorithms on a stream (shared by `run` and `synth`)."""
    return run_experiment(
        stream, game,
        algorithms=[s.strip() for s in args.algorithms.split(",") if s.strip()],
        prior=_parse_prior(args.prior),
        shuffles=args.shuffles,
        shuffle_seed=args.seed,
        every_prefix=args.every_prefix,
    )


def _report(result, args) -> int:
    """Emit the report; the exit code says whether every guarantee held."""
    _emit(_report_texts(result, args.format), args.out)
    return EXIT_OK if result.passed else EXIT_BOUND_FAILED


def _cmd_run(args) -> int:
    expert_cols = _expand_columns(args.experts)
    spec = DatasetSpec(
        path=args.data,
        timestamp_col=args.timestamp_col,
        target_col=args.target,
        expert_cols=expert_cols,
        order_col=args.order_col,
        clip_lower=args.lower,
        clip_upper=args.upper,
        calibration_packs=args.calibration_packs,
    )
    stream, loaded = load_pack_csv(spec)
    game = _game(loaded.lower, loaded.upper, args)
    return _report(_run(stream, game, args), args)


def _cmd_synth(args) -> int:
    config = SyntheticConfig(
        num_experts=args.experts,
        num_trials=args.trials,
        pack_size_min=args.min_pack,
        pack_size_max=args.max_pack,
        drift_period=args.drift_period,
        noise=args.noise,
        seed=args.seed,
    )
    stream, _ = generate_synthetic_stream(config)
    if (args.lower, args.upper) != (0.0, 1.0):
        stream = rescale_stream(stream, args.lower, args.upper)
    game = _game(args.lower, args.upper, args)
    result = _run(stream, game, args)
    # Only a stream the run accepted is written out.
    if args.emit_data is not None:
        write_pack_csv(stream, args.emit_data)
    return _report(result, args)


def _cmd_adversary(args) -> int:
    try:
        pack_sizes = [int(s) for s in args.packs.split(",") if s.strip()]
    except ValueError:
        raise _CliError(f"bad --packs {args.packs!r}") from None
    run = run_mixloss_game(args.learner, args.nature, args.experts, pack_sizes)
    _emit([emit_adversary_report(run, args.format)], args.out)
    # Only the adversary sets out to force the bound.
    return (EXIT_BOUND_FAILED if run.nature == "adversary" and not run.forced
            else EXIT_OK)


def _cmd_audit(args) -> int:
    try:
        with open(args.result) as fh:
            result, verdicts = _read_report(fh)
    except (OSError, ValueError, RecursionError) as e:
        print(f"error: cannot read result file {args.result!r}: {e}",
              file=sys.stderr)
        return EXIT_ERROR

    # Reading re-ran every audit; only a deeper audit than the file's runs
    # again.  The stored verdicts are advisory.
    all_ok = True
    lines = []
    for alg, stored in zip(result.algorithms, verdicts):
        reports = alg.reports
        if args.every_prefix and not reports[0].every_prefix:
            reports = _audit(alg, result.game, result.prior, every_prefix=True)
        for report, said in zip(reports, stored):
            ok = report.passed
            all_ok = all_ok and ok
            lines.append(
                f"{alg.name:<18} {report.algorithm:<22} {report.metric:<8} "
                f"checks={len(report.entries):<6} "
                f"min slack={report.min_slack:>12.4e} "
                f"{'ok' if ok else 'FAIL'}  at {_where(report)}"
            )
            if said != ok:
                lines.append(
                    f"  note: stored report said "
                    f"{'ok' if said else 'FAIL'}, recomputation says "
                    f"{'ok' if ok else 'FAIL'}"
                )
    lines.append("all guarantees hold" if all_ok else "guarantee VIOLATED")
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if all_ok else EXIT_BOUND_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="packpredict",
                     description="Prediction with expert advice over packs, "
                                 "with guarantee auditing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run algorithms on a pack CSV")
    p_run.add_argument("--data", required=True, help="CSV with one row per item")
    p_run.add_argument("--timestamp-col", default="month",
                       help="column whose YYYY-MM prefix defines the pack")
    p_run.add_argument("--target", required=True, help="outcome column")
    p_run.add_argument("--experts", required=True,
                       help="expert prediction columns: comma-separated, "
                            "ranges like e1..e12 allowed")
    p_run.add_argument("--order-col", default=None,
                       help="numeric column fixing within-pack order")
    p_run.add_argument("--lower", type=float, default=None,
                       help="game interval lower end (values are clipped)")
    p_run.add_argument("--upper", type=float, default=None)
    p_run.add_argument("--calibration-packs", type=int, default=None,
                       help="derive the interval from this many leading packs")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="run algorithms on a synthetic stream")
    p_synth.add_argument("--experts", type=int, default=8)
    p_synth.add_argument("--trials", type=int, default=40)
    p_synth.add_argument("--min-pack", type=int, default=1)
    p_synth.add_argument("--max-pack", type=int, default=7)
    p_synth.add_argument("--drift-period", type=int, default=0,
                         help="rotate the sharp expert every this many items")
    p_synth.add_argument("--noise", type=float, default=0.05)
    p_synth.add_argument("--lower", type=float, default=0.0,
                         help="rescale the generated stream to this interval")
    p_synth.add_argument("--upper", type=float, default=1.0)
    p_synth.add_argument("--emit-data", default=None,
                         help="also write the generated stream to this CSV")
    _add_run_options(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_adv = sub.add_parser("adversary",
                           help="mix-loss game against the K*ln(N) adversary")
    p_adv.add_argument("--experts", type=int, default=3)
    p_adv.add_argument("--packs", default="1,2,3,4,5",
                       help="comma-separated pack sizes, one per trial")
    p_adv.add_argument("--learner", choices=tuple(LEARNERS), default="uniform")
    p_adv.add_argument("--nature", choices=tuple(NATURES), default="adversary")
    p_adv.add_argument("--format", choices=("json", "table"), default="table")
    p_adv.add_argument("--out", default=None)
    p_adv.set_defaults(func=_cmd_adversary)

    p_audit = sub.add_parser("audit",
                             help="re-check guarantees in a result JSON file")
    p_audit.add_argument("result", help="JSON file produced by run/synth")
    p_audit.add_argument("--every-prefix", action="store_true")
    p_audit.add_argument("--out", default=None)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
