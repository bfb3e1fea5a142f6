"""Run one `dps` command with spans recorded, then write them out.

Usage: python3 perfbench/cli_shim.py SPANS.npz <dps arguments...>

The exit code, stdout and stderr are those of `dps` itself; the spans
are written even when the command raises.
"""

import sys
import tracemalloc

import spans


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    import dpstates.cli

    rec = spans.Recorder()
    spans.install(rec)
    try:
        code = dpstates.cli.main(argv)
    finally:
        tracemalloc.stop()
        rec.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
