"""Run one CLI command with the span recorder installed, then write the spans.

Usage: python3 -X importtime perfbench/cli_child.py SPANS_JSON COMMAND [OPTIONS...]

The package is imported first, exactly as the `anisokepler` entry point does,
so `-X importtime` measures the same start-up a user pays. Exits with the
command's own exit code.
"""

import sys

import anisokepler.cli as cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.task = argv[0]
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
