"""Run one ``longmem`` command with spans at each layer boundary.

Usage: ``python traced_cli.py SPANS_JSON ARGS...``

Does what the ``longmem ARGS`` console script does, after replacing the
library functions ``longmem.cli`` calls with timing wrappers, and writes
the spans as JSON to SPANS_JSON when the command returns. ``t0`` in that
file is the first moment this interpreter could read the clock.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, instrument_cli  # noqa: E402


def main(spans_path: str, args: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import_numpy"):
        import numpy  # noqa: F401
    with tracer.span("cli.import_longmem"):
        import longmem.cli
    instrument_cli(longmem.cli, tracer)
    with tracer.span("cli.main"):
        code = longmem.cli.main(args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"t0": T0, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
