"""Run the zdgames CLI with tracing on.

    python3 perfbench/cli_shim.py SPAN_FILE SUBCOMMAND [ARGS...]

Records spans around the library's public functions in this process, writes
them to SPAN_FILE when the command returns, and exits with the CLI's exit
code.  The benchmark uses it for the traced half of the ``cli`` workload.
"""

import sys

from tracing import Tracer
from zdgames import cli


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
