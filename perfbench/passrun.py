"""One pass of the intertrack CLI in a fresh process.

Usage: python3 passrun.py '<job json>'

The job names the source tree, the `track`/`refine` arguments of the pass,
the `eval` arguments that score its output, and optionally a file to write
the span trace to.  The process times, in order: set-up (import intertrack,
parse the pass arguments, build and validate the config), the pass itself
through `intertrack.cli.main`, then `eval` of the pass output.  Between
and after these phases it times the host reference of `calibrate.py`.  It
prints one JSON object as its last line.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _call(cli, argv, tracer, root):
    """Run cli.main(argv), capturing its stdout; returns (rc, seconds, stdout)."""
    buf = io.StringIO()
    sid = tracer.open(tracer.intern(root)) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.close(sid)
    return rc, elapsed, buf.getvalue()


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import intertrack.cli as cli

    cli.build_config(cli.build_parser().parse_args(job["pass_argv"]))
    setup_s = time.perf_counter() - T0
    # After set-up, so that set-up still pays for every import it needs.
    import calibrate
    after_setup = calibrate.reference_s()

    tracer = None
    if job.get("trace_out"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        pass_root, eval_root = tracing.PASS_ROOT, tracing.EVAL_ROOT
    else:
        pass_root = eval_root = None

    rc, wall_s, pass_out = _call(cli, job["pass_argv"], tracer, pass_root)
    # Children are the pool workers, reaped when the pool shut down.
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    after_pass = calibrate.reference_s()
    result = {"setup_s": setup_s, "rc": rc, "wall_s": wall_s,
              "peak_rss_mb": rss_kb / 1024.0, "pass_stdout": pass_out}
    if rc == 0:
        eval_rc, eval_s, eval_out = _call(cli, job["eval_argv"], tracer, eval_root)
        result.update(eval_rc=eval_rc, eval_s=eval_s, eval_stdout=eval_out)
        after_eval = calibrate.reference_s()
    else:
        after_eval = after_pass
    # Each timed phase is normalised by the reference runs next to it.
    result["reference_s"] = {"setup_s": after_setup,
                             "wall_s": (after_setup + after_pass) / 2,
                             "eval_s": (after_pass + after_eval) / 2}
    if tracer:
        tracer.dump(job["trace_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
