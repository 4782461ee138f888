"""Time one `tdq` CLI invocation in this fresh interpreter.

    python3 bench/child.py RECORD_PATH TRACE -- CLI_ARGS...

The CLI writes to this process's stdout (the caller points it at a file).
RECORD_PATH receives a JSON record: exit code, the monotonic time at which
`import tdq.cli` finished, wall and CPU seconds of `cli.main(argv)` up to
the flushed output, peak resident memory and, with TRACE=1, the layer
metrics from `tracing`.
"""

import json
import os
import sys
import time


def _peak_rss_mib() -> float:
    # VmHWM belongs to this process image alone; ru_maxrss would also count
    # the memory of the parent that forked it.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import tdq.cli
    setup_end = time.monotonic()

    recorder = caches = None
    if trace:
        import tracing
        recorder = tracing.Recorder()
        caches = tracing.install(recorder)
        root = recorder.open("cli")
    cpu0 = time.process_time()
    start = time.perf_counter()
    code = tdq.cli.main(argv)
    sys.stdout.flush()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    record = {"code": code, "setup_end": setup_end, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mib": _peak_rss_mib(), "tdq_file": tdq.__file__}
    if trace:
        recorder.close(root)
        output_bytes = os.fstat(sys.stdout.fileno()).st_size
        record["layers"] = tracing.layer_metrics(recorder.spans, caches, output_bytes)
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
