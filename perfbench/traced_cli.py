"""Run the loopbundle command line with spans recorded around the traced functions.

    python perfbench/traced_cli.py SPANS_JSON <loopbundle arguments...>

Runs `loopbundle.cli.main` on the arguments, then writes the spans and the
computed counts to SPANS_JSON and exits with the command's own exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import loopbundle.cli as cli  # every loopbundle module is loaded before the wrappers go in

    tracer = Tracer()
    with tracer:
        code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
