"""One benchmark process: import apclust from a source tree and call cli.main once.

Usage: child.py SRC_DIR RESULT_JSON MODE [-- CLI_ARGS...]

MODE is ``plain`` (no wrappers installed), ``traced`` (spans and counters
installed around the package's layer functions) or ``probe`` (import only,
to time set-up). The result file gets the monotonic time of the first call
into the package, the call's wall time, the exit code, the peak resident
set and, when traced, the tracer's record. Only the standard library is imported before
apclust, so set-up time is the interpreter plus the package's own imports.
"""

import json
import resource
import sys
import time


def load(src_dir: str, traced: bool):
    """Import apclust.cli from src_dir; install the tracer when traced."""
    sys.path.insert(0, src_dir)
    import apclust
    import apclust.cli

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, apclust)
    return apclust.cli, tracer


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    ru_maxrss is the fallback only: on Linux it keeps the high-water mark
    of the spawning process's memory across exec, so a child started from
    a large parent reports the parent's peak. VmHWM belongs to the new image.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src_dir, result_path, mode = sys.argv[1:4]
    cli_args = sys.argv[5:]
    cli, tracer = load(src_dir, traced=mode == "traced")
    first_call = time.monotonic()
    out = {"first_call": first_call}
    code = 0
    if mode != "probe":
        start = time.perf_counter()
        code = cli.main(cli_args)
        out["wall_s"] = time.perf_counter() - start
        out["code"] = code
    out["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        out["trace"] = tracer.record()
    with open(result_path, "w") as f:
        json.dump(out, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
