"""One round of a workload, run as `python3 -I round.py <spec.json>`.

The round starts in a fresh interpreter, imports biparamech and loads the
round's problem files through `cli.load_problem` (the set-up every CLI call
pays), then runs each command through `biparamech.cli.main` in a child
forked from that state.  The fork gives every command what a fresh
`biparamech ...` process has after import: empty memos in `synthesize_el`,
`synthesize_ham` and the compiled right-hand sides, since set-up only
parses.  Each command's stdout and stderr go to files.  The reference probe
runs in the round's process between commands, and in slices from a timer
signal while a command runs (see probe.py).

The last line on stdout is a JSON object with the set-up time, the round's
peak RSS and, per command, its exit code, wall time less the probe slices,
the memory it added, the probes around and during it and, in traced rounds,
its layer totals.

A forked child does not start with its parent's resident set: Linux copies
no page-table entries for read-only file mappings such as the code of
libpython and numpy, so the child faults them in again as it runs, and its
own peak says little.  What a command adds is therefore taken as its
anonymous memory at its peak (peak RSS less the file-backed pages resident
at its end, which can only have grown since the peak) less its anonymous
memory right after the fork.  The round's peak RSS is the set-up's RSS plus
the largest such growth: what a `biparamech ...` process that imported,
loaded the round's files and ran that command would hold.
"""

import os
import sys
import time


def _status_kb(*keys):
    """Sum of the named kB fields of /proc/self/status."""
    total = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            name, _, rest = line.partition(":")
            if name in keys:
                total += int(rest.split()[0])
    return total


def main():
    import json

    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [spec["src"], here]
    os.chdir(spec["cwd"])

    t0 = time.perf_counter()
    import biparamech.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.install(layers.Tracer())
    for path in spec["files"]:
        cli.load_problem(path)
    t_setup = time.perf_counter()

    import probe

    result = {"t_setup": t_setup, "import_s": import_s, "probe": probe.probe()}
    if tracer is not None:
        result["setup_layers"] = tracer.snapshot()
        result["missing"] = tracer.missing
    if not spec["commands"]:
        print(json.dumps(result))
        return

    # imported here, before the forks, like the commands' other modules
    import resource
    import traceback

    setup_kb = _status_kb("VmRSS")
    done = []
    before = result["probe"]
    for cmd in spec["commands"]:
        sys.stdout.flush()
        sys.stderr.flush()
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(rfd)
            _child(cmd, wfd, cli, tracer)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
        os.waitpid(pid, 0)
        after = probe.probe()
        rec = json.loads(data)
        rec["probes"] = [before, after]
        done.append(rec)
        before = after
    result["commands"] = done
    result["rss_kb"] = setup_kb + max(rec["grown_kb"] for rec in done)
    print(json.dumps(result))


def _child(cmd, wfd, cli, tracer):
    # already loaded by the round's process before the fork
    import json
    import resource
    import signal
    import traceback

    import probe

    try:
        for path, fd in ((cmd["stdout"], 1), (cmd["stderr"], 2)):
            out = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(out, fd)
            os.close(out)
        if tracer is not None:
            tracer.reset()
        ticks = []
        signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(probe.tick_probe()))
        signal.setitimer(signal.ITIMER_REAL, probe.TICK_S, probe.TICK_S)
        anon_kb = _status_kb("RssAnon")
        t0 = time.perf_counter()
        try:
            code = cli.main(cmd["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            # what the interpreter would print and return for an uncaught error
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0 - sum(ticks)
        peak_anon_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        - _status_kb("RssFile", "RssShmem"))
        rec = {
            "code": code,
            "s": elapsed,
            "ticks": ticks,
            "grown_kb": max(0, peak_anon_kb - anon_kb),
            "layers": tracer.snapshot() if tracer is not None else None,
        }
        with os.fdopen(wfd, "wb") as fh:
            fh.write(json.dumps(rec).encode())
    finally:
        os._exit(0)


if __name__ == "__main__":
    main()
