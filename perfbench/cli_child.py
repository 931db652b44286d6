"""Run one mlechar CLI command with the per-layer tracer installed.

Usage: python3 perfbench/cli_child.py STATS_PATH SUBCOMMAND [ARGS...]

Prints what ``python -m mlechar.cli SUBCOMMAND ARGS...`` prints and exits
with its code.  At exit it writes its spans to STATS_PATH, one per line,
followed by a line ``{"stats": ...}`` holding the call counts and self times.
"""

import sys

import mlechar.cli

import tracing


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    code = 1
    try:
        code = mlechar.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
        raise
    finally:
        tracer.uninstall()
        tracer.dump_spans(stats_path, {"stats": tracer.stats(), "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
