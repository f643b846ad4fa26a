"""Start ``repro serve`` for the ``serve`` workload, optionally traced.

    serve_boot.py [--trace-dir DIR] -- SERVE-ARGS...

Runs ``repro.cli.main(["serve", *SERVE-ARGS])`` in this process.  With
``--trace-dir`` the span wrappers from ``tracer.py`` are installed
first, and the spans are written to DIR once the server has drained --
``repro serve`` drains and returns on SIGTERM.
"""

import argparse
import sys

from tracer import Tracer, install


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv[:split])
    tracer = None
    if args.trace_dir:
        tracer = Tracer(args.trace_dir)
        install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *argv[split + 1 :]])
    if tracer is not None:
        tracer.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
