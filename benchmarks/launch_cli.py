"""Traced `danteflow` command: python launch_cli.py SPANS_JSON ARGS...

Times the import of danteflow.cli, installs the benchmark's span wrappers
in the fresh process, runs danteflow.cli.main(ARGS) inside a span of its
own, writes the spans to SPANS_JSON and exits with main's exit code.  The
command's output is byte-for-byte that of `python -m danteflow ARGS`.

With SPANS_JSON "-" it runs the same entry untraced: the baseline of the
tracing overhead, since `python -m` itself starts some tens of ms slower.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

from spans import CLI_MAIN, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    if spans_path == "-":
        import danteflow.cli
        return danteflow.cli.main(argv)
    start = perf_counter()
    import danteflow.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(CLI_MAIN, danteflow.cli.main)(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
