"""One `anyon-circle` command in a fresh interpreter, with its set-up timed.

Usage: python3 child.py SRC TIMING_JSON SPANS_JSONL|- CLI_ARGS...

Imports the package from SRC, builds the CLI parser, and stamps the
monotonic clock: that stamp minus the parent's spawn stamp is the set-up
time.  Then it runs ``anyoncircle.cli.main(CLI_ARGS)`` and times that call.
With a spans path, the package's public functions are traced first and the
spans are written there as JSONL.  Writes the timings to TIMING_JSON and
exits with the CLI's exit code.
"""

import sys
import time


def main() -> int:
    src, timing_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    sys.path.insert(0, src)
    from anyoncircle import cli

    cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json
    import os

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the package under {src}")
    recorder = None
    absent: list[str] = []
    if spans_path != "-":
        import tracer

        recorder = tracer.Recorder()
        absent = tracer.install(recorder)
    start = time.perf_counter()
    code = cli.main(argv)
    report_s = time.perf_counter() - start
    if recorder is not None:
        recorder.write_jsonl(spans_path)
    with open(timing_path, "w") as fh:
        json.dump({"ready": ready, "report_s": report_s, "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
