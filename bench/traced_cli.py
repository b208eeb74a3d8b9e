"""Run one ``bayeslens`` CLI command with its layer boundaries traced.

Usage: python3 bench/traced_cli.py SPANS_JSON OP -- CLI_ARGS...

Does what ``python3 -m bayeslens.cli CLI_ARGS...`` does, and also records a
``cli.startup`` span around ``import bayeslens.cli``, a ``cli.main`` span
around ``main()``, and a span per traced call in between (see spans.py).
The spans are written to SPANS_JSON after ``main()`` returns.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main() -> int:
    spans_path, op, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON OP -- CLI_ARGS...")
    tracer = Tracer(op)
    with tracer.span("cli.startup"):
        import bayeslens.cli as cli
    tracer.install()
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
