"""One fresh interpreter: set up, optionally run one workload command.

    python3 perfbench/child.py <src-dir> <mode> <algebra> <module|-> [command...]

mode is ``setup`` (set-up only), ``run`` (set-up, then the command) or
``trace`` (the same with the layer tracer installed).  Set-up is
``import epslie.cli`` plus catalog construction of the algebra and module;
it is timed apart from the command, and must happen in a fresh process
because the catalog memoises algebras per process.  The command runs
in-process through ``epslie.cli.main`` with its report going to a string
buffer, so the timed part does no I/O.

Set-up and command are each timed at reference host speed
(``reference.Probe``); the measured times are reported too.

Prints one JSON object on stdout.
"""

import io
import json
import os
import resource
import sys
import time
import traceback

import reference


def main(argv):
    src, mode, algebra, module = argv[:4]
    command = argv[4:]
    clock = time.perf_counter
    out = {}

    with reference.Probe(clock) as probe:
        t0 = clock()
        sys.path.insert(0, src)
        import epslie
        import epslie.catalog
        import epslie.cli

        tracer = None
        if mode == "trace":
            t_install = clock()
            import tracer as tracing

            tracer = tracing.Tracer(clock)
            tracing.install(tracer)
            t0 += clock() - t_install
        L = epslie.catalog.get_algebra(algebra)
        if module != "-":
            epslie.catalog.get_module(L, algebra, module)
        t1 = clock()
    if not os.path.abspath(epslie.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("epslie imported from %s, not from %s" % (epslie.__file__, src))
    out.update(setup_s=probe.scaled(t0, t1), setup_measured_s=t1 - t0,
               probe_s=probe.mean_s(), backend=epslie.BACKEND)

    if mode != "setup":
        buf = io.StringIO()
        with reference.Probe(clock) as probe:
            t1 = clock()
            try:
                rc = epslie.cli.main(command, stdout=buf)
            except Exception:  # reported as a failed execution, with its traceback
                rc = traceback.format_exc()
            t2 = clock()
        out.update(wall_s=probe.scaled(t1, t2), wall_measured_s=t2 - t1,
                   probe_s=probe.mean_s(), rc=rc, stdout=buf.getvalue())
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # Span times include the probes and the host's drift, like the
        # measured times; scale them the same way.
        factor = (out["setup_s"] + out["wall_s"]) / (
            out["setup_measured_s"] + out["wall_measured_s"])
        layers = tracing.summary(tracer)
        for key, value in layers.items():
            if key.endswith("_s"):
                layers[key] = value * factor
        out["layers"] = layers
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
