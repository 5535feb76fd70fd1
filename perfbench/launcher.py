"""Traced server launcher.

Runs exactly what ``python -m repro.cli <args>`` runs - so the engine
stack is the one the CLI builds - after wrapping every layer with the
benchmark's span recorder, and writes the spans and counter snapshots
to a ledger file when the server exits.

    python3 perfbench/launcher.py LEDGER.json -- --engine compiled serve --port 0
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv) -> int:
    ledger, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: launcher.py LEDGER -- CLI-ARGS...")
    common.require_program()
    import tracer
    from repro import cli

    tracer.install_kernel_and_engines()
    tracer.install_server()
    try:
        return cli.main(cli_args)
    finally:
        tracer.REC.dump(ledger)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
