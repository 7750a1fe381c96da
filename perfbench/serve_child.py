"""Launch ``repro-sato serve`` with the benchmark's spans installed.

``python -u perfbench/serve_child.py SPANS.json serve ARGS...`` wraps the
serve-path entry points of :data:`perfbench.layers.SERVE` at class level,
runs the unchanged ``repro.cli.main``, and writes the spans once the
server has drained and returned.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    from perfbench.layers import SERVE
    from perfbench.trace import Recorder, install

    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder, SERVE)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
