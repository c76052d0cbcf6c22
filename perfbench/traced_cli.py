"""Run one traced qchan CLI command in a fresh process.

Usage: python perfbench/traced_cli.py SPANS_OUT -- ARGV...

Imports qchan (so interpreter start and import stay in the op's wall
time), installs the benchmark's wrappers, runs ``qchan.cli.main(ARGV)``
as one op, writes the spans to SPANS_OUT and exits with main's code.
Standard output is exactly what ``python -m qchan ARGV`` would print.
"""

import sys

import qchan.cli

import spans


def main() -> int:
    spans_out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT -- ARGV...")
    tracer = spans.Tracer()
    spans.install(tracer)
    code = tracer.op(0, qchan.cli.main, argv)
    sys.stdout.flush()
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
