"""Run the cayleyspec CLI in-process, timed on the host clock.

Usage: ``python3 bench/cli_shim.py CLOCK_OUT [--spans SPANS_OUT] ARG...``
runs ``cayleyspec ARG...`` as ``python3 -m cayleyspec`` would, with the
probes of hostclock.py running in this process from before the package is
imported until its output is flushed (but not while it writes to stdout).
It writes ``{"wall_s", "cal_s", "probe_s"}`` to CLOCK_OUT, with
``--spans`` also the span summary to SPANS_OUT, and exits with the CLI's
exit code.
"""

import json
import sys
from pathlib import Path

import hostclock

SRC = Path(__file__).resolve().parent.parent / "src"


class AlarmFreeStream:
    """A text stream whose writes and flushes hold the probe's SIGALRM
    back: CPython can drop part of a large write to a pipe when a signal
    interrupts it (a 33 MB JSON document arrived with 12-14 MB in two of
    eight runs)."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, text):
        with hostclock.alarm_blocked():
            return self._stream.write(text)

    def flush(self):
        with hostclock.alarm_blocked():
            return self._stream.flush()

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> int:
    clock_out, args = Path(sys.argv[1]), sys.argv[2:]
    spans_out = None
    if args[:1] == ["--spans"]:
        spans_out, args = Path(args[1]), args[2:]
    tracer = None
    sys.stdout = AlarmFreeStream(sys.stdout)
    with hostclock.Stopwatch() as watch:
        watch.start()
        try:
            sys.path.insert(0, str(SRC))
            from cayleyspec import cli
            if spans_out is not None:
                import spans
                tracer = spans.Tracer()
                spans.install(tracer)
            return cli.main(args)
        finally:
            sys.stdout.flush()
            wall_s, cal_s = watch.stop()
            clock_out.write_text(json.dumps(
                {"wall_s": wall_s, "cal_s": cal_s, "probe_s": watch.probe_s}), encoding="utf-8")
            if tracer is not None:
                spans_out.write_text(json.dumps(tracer.summary()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
