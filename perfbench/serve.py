"""Start the ``repro.cli`` entry point, optionally with the timing wrappers.

Usage: ``python3 perfbench/serve.py [--trace-out FILE] <repro.cli args...>``,
with ``src`` on ``PYTHONPATH``.  With ``--trace-out`` the wrappers of
:mod:`probes` are installed before the command runs (so a ``fleet serve``
times its own layers without any change under ``src/``), and every span is
written to FILE as JSON when the command returns.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro import cli

    if trace_out is None:
        return cli.main(argv)

    import probes
    from spans import Recorder

    recorder = Recorder()
    uninstall = probes.install(recorder)
    try:
        return cli.main(argv)
    finally:
        uninstall()
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(recorder.export(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
