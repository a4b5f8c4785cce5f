"""Traced stand-in for ``python -m solitonlab.cli``.

    python cli_launcher.py STEM -- SUBCOMMAND ARGS...

Times the package import, installs the tracer, runs
``solitonlab.cli.main`` with the given arguments as one root span, and
writes the spans and counters to ``STEM.npz`` and ``STEM.json``. The exit
code is the CLI's own.
"""

import time

_t_import = time.perf_counter()
import solitonlab.cli  # noqa: E402  (timed: the import a cold CLI call pays)

_import_s = time.perf_counter() - _t_import

import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main(argv):
    stem, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: cli_launcher.py STEM -- SUBCOMMAND ARGS...")
    tracer = Tracer()
    tracer.count("cli.import_s", _import_s)
    tracer.install()
    try:
        with tracer.op(0):
            code = solitonlab.cli.main(cli_args)
    finally:
        tracer.uninstall()
    tracer.save(stem)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
