"""One workload pass in a fresh interpreter.

Usage: python3 pipebench/worker.py <pass.json>

``pass.json`` holds ``{"steps": [argv, ...], "trace": bool, "result": path}``.
The worker imports ``mirrorbench.cli`` (timed on its own as the set-up
sample), runs every step through ``mirrorbench.cli.main`` in this process,
and writes its timings, exit codes and peak resident set to ``result``.
It samples host speed during the import and, in an untraced pass, while the
steps run (``Sampler`` in ``reference.py``), and reports both times also in
reference units.
A fresh interpreter per pass keeps the program's lazy caches cold, as they
are for a user's CLI process, and makes ``ru_maxrss`` the peak of this pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from reference import Sampler, mixed_reference, python_reference

    with Sampler(python_reference) as setup:
        import mirrorbench.cli as cli

    tracer = None
    run = cli.main
    if spec["trace"]:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.span(ROOT_SPAN, cli.main)

    # An untraced pass samples host speed while it runs; a traced one does
    # not, so that the samples add no spans and the tracer no samples.
    sampler = Sampler(mixed_reference()) if tracer is None else None
    exit_codes = []
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        for argv in spec["steps"]:
            exit_codes.append(run(list(argv)))
    wall_s = time.perf_counter() - start

    result = {
        "module_file": os.path.abspath(cli.__file__),
        "import_s": setup.program_s,
        "import_ref": setup.program_ref,
        "wall_s": sampler.program_s if sampler else wall_s,
        "wall_ref": sampler.program_ref if sampler else None,
        "samples": len(sampler.samples) if sampler else 0,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel": getattr(sys.modules.get("mirrorbench.simulator"), "KERNEL_BACKEND", None),
        "versions": {name: getattr(sys.modules.get(name), "__version__", None)
                     for name in ("mirrorbench", "numpy", "scipy")},
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
