"""One set-up measurement in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR COMMAND [ARGS...]

Times `import cohcert` plus one in-process call of the CLI with the given
command line, then times slices of the reference computation right after,
and prints {"setup_s": ..., "slice_s": ..., "exit": ..., "origin": ...}.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cohcert.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cohcert.cli.main(argv)
    elapsed = time.perf_counter() - t0
    import reference

    slice_s = reference.median_slice(0.1)
    print(json.dumps({"setup_s": elapsed, "slice_s": slice_s, "exit": code,
                      "origin": cohcert.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
