"""Command line entry point: `lab run | list | plotdata`."""

from __future__ import annotations

import argparse
import io
import sys

from . import harness


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lab", description="stochastic transport laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a registered experiment")
    run_p.add_argument("experiment")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry (dotted path, JSON value); flags win",
    )
    run_p.add_argument("--out", help="output directory (overrides config out_dir)")

    sub.add_parser("list", help="list experiments and their bound checks")

    plot_p = sub.add_parser("plotdata", help="emit a two-column CSV for a series")
    plot_p.add_argument("report", help="path to a report.json")
    plot_p.add_argument("series")
    plot_p.add_argument("--out", help="write to a file instead of stdout")

    args = parser.parse_args(argv)

    if args.command == "list":
        for id_, desc, crit in harness.list_experiments():
            print(f"{id_:24s} [{crit}] {desc}")
        return 0

    if args.command == "plotdata":
        # built in memory first: an unreadable report or unknown series leaves no --out file
        buf = io.StringIO()
        try:
            harness.emit_plot_data(args.report, args.series, buf)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
        return 0

    try:
        config = harness.load_config(
            experiment=args.experiment, path=args.config, overrides=args.sets
        )
    except harness.ConfigError as exc:
        parser.error(str(exc))
    if args.out:
        config.out_dir = args.out
    report = harness.run_experiment(config)
    for row in report.rows:
        flag = "pass" if row.passed else "FAIL"
        print(f"[{flag}] {report.experiment}/{row.name}: measured={row.measured:.6g} "
              f"expected={row.expected} tol={row.tolerance}")
    print(f"report: {report.artifacts[0] if report.artifacts else '(unwritten)'}")
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
