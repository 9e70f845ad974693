"""One ``hypergrad`` CLI run in a fresh interpreter, as a user pays for it.

    python3 perfbench/child.py RESULT.json [--setup-only] [--trace] -- CLI ARGS

Imports the package from ``src/`` and parses the config (the set-up a
CLI user pays), notes the monotonic clock, calls ``cli.main`` and writes
a JSON result: the clock at ready and at the end of ``cli.main``, its
exit code and, with ``--trace``, the per-layer metrics. The parent reads
the clock at spawn time; CLOCK_MONOTONIC is shared by all processes.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    sep = argv.index("--")
    result_path, opts, cli_argv = Path(argv[0]), argv[1:sep], argv[sep + 1:]
    sys.path.insert(0, str(ROOT / "src"))

    from hypergrad import cli
    from hypergrad.config import parse_config

    parse_config(cli_argv[cli_argv.index("--config") + 1])
    tracer = None
    if "--trace" in opts:
        from layertrace import Tracer
        tracer = Tracer().install()
    ready = time.monotonic()
    if "--setup-only" in opts:
        result = {"ready": ready}
    else:
        code = cli.main(cli_argv)
        result = {"ready": ready, "done": time.monotonic(), "exit": code}
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["spans"] = tracer.spans
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
