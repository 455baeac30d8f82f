"""Run ``coulomb-chain`` with the layer wrappers installed; write the spans.

Usage: python3 cli_child.py SPANS_PATH COMMAND [ARGS...]

The traced counterpart of the console script: the spans of the one call to
``cli.main`` are written as JSON to SPANS_PATH once it returns.
"""

import json
import sys

import spans
from coulomb_chain import cli


def run(spans_path: str, argv: list[str]) -> int:
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.op = 0
        try:
            code = cli.main(argv)
        finally:
            tracer.op = None
    with open(spans_path, "w") as handle:
        json.dump([spans.span_to_list(s) for s in tracer.spans], handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
