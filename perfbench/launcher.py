"""Traced stand-in for `python -m zetamax.cli ARGS`.

Usage: python -X importtime perfbench/launcher.py SPAN_FILE ARGS...

Times the import of zetamax.cli, wraps the library's public functions
(spans.install), runs zetamax.cli.main(ARGS) inside a `cli.main` span and
writes the spans to SPAN_FILE at exit.  Exits with main's code.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import zetamax.cli
    import_s = time.perf_counter() - t0

    import json

    from spans import SpanStore, install

    span_file, argv = sys.argv[1], sys.argv[2:]
    store = SpanStore()
    install(store)
    code = 1
    sid = store.begin(store.name_id("cli.main"))
    try:
        code = zetamax.cli.main(argv)
    finally:
        store.finish(sid)
        sys.stdout.flush()
        store.dump(span_file)
        with open(span_file + ".import", "w", encoding="utf-8") as f:
            json.dump({"import_s": import_s, "zetamax_file": zetamax.cli.__file__}, f)
    sys.exit(code)
