"""In-memory span tracer that wraps mirrorbench's public functions from outside.

The package's modules import one another's functions by name (``cli``,
``analysis``, ``simulator`` and ``__init__`` each hold their own reference),
so patching one module attribute would miss most calls.  ``Tracer.install``
instead rebinds every attribute of every loaded ``mirrorbench`` module that
*is* the target function.  A target that no longer exists is recorded as
absent and skipped, so the benchmark keeps working while the program is
refactored underneath it.

A span is ``(name, start, end, parent)``; a layer's self time is the sum of
its spans' durations minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# (module, function, span name).  Several functions may share a span name.
TARGETS = (
    ("mirrorbench.circuits", "sample_experiment", "circuits.sample"),
    ("mirrorbench.circuits", "build_mirror_circuit", "circuits.compile"),
    ("mirrorbench.circuits", "save_circuit", "circuits.io"),
    ("mirrorbench.circuits", "load_circuit", "circuits.io"),
    ("mirrorbench.simulator", "simulate_survival", "simulator.simulate"),
    ("mirrorbench.simulator", "run_stabilizer", "simulator.run_stabilizer"),
    ("mirrorbench.simulator", "compile_fault_program", "simulator.fault_program"),
    ("mirrorbench.simulator", "propagate_faults", "simulator.propagate"),
    ("mirrorbench.simulator", "run_dense", "simulator.dense"),
    ("mirrorbench.simulator", "write_dataset_csv", "simulator.io"),
    ("mirrorbench.simulator", "write_dataset_json", "simulator.io"),
    ("mirrorbench.simulator", "read_dataset_csv", "simulator.io"),
    ("mirrorbench.simulator", "read_dataset_json", "simulator.io"),
    ("mirrorbench.analysis", "fit_decay", "analysis.fit"),
    ("mirrorbench.analysis", "bootstrap_ci", "analysis.bootstrap"),
    ("mirrorbench.analysis", "frame_potential_profile", "analysis.frame_potential"),
    ("mirrorbench.analysis", "scatter_experiment", "analysis.scatter"),
    ("mirrorbench.plotting", "write_chart", "plotting.write_chart"),
)

ROOT_SPAN = "cli"


def _path_bytes(args: dict) -> int:
    path = args.get("path")
    return os.path.getsize(path) if path is not None and os.path.isfile(path) else 0


def _non_identity_prob(params, n_qubits: int) -> float:
    """Chance that a stochastic Pauli channel applies a non-identity Pauli."""
    if params is None:
        return 0.0
    if hasattr(params, "probs"):  # StochasticPauli
        return float(sum(params.probs))
    return float(params.p) * (1.0 - 4.0 ** -n_qubits)  # Depolarizing


def _stabilizer_counts(args: dict, result) -> dict:
    """Computed work of one stabilizer run, from its circuit and noise model.

    Noise sites follow the documented placement: the two-qubit channel after
    every UZZ gate (the override on the mirrored half), the single-qubit
    channel after every single-qubit Clifford.  Program ops are gates plus
    noise sites.
    """
    circuit, noise, shots = args["circuit"], args["noise"], int(args["shots"])
    sites = 0
    expected = 0.0
    for pos, gate in enumerate(circuit.gates):
        if len(getattr(gate, "qubits", ())) == 2:
            params = noise.two_qubit
            if pos >= circuit.mirror_start and noise.inverse_half_override is not None:
                params = noise.inverse_half_override
            k = 2
        else:
            params, k = noise.single_qubit, 1
        if params is not None:
            sites += 1
            expected += _non_identity_prob(params, k)
    return {
        "simulator.shots": shots,
        "simulator.shot_ops": shots * (len(circuit.gates) + sites),
        "simulator.shot_sites": shots * sites,
        "simulator.expected_faults": shots * expected,
    }


# span name -> function(bound arguments, result) -> {count name: increment}
COUNTERS = {
    "circuits.compile": lambda a, r: {"circuits.compile.gates": len(r.gates)},
    "circuits.io": lambda a, r: {"circuits.io.bytes": _path_bytes(a)},
    "simulator.io": lambda a, r: {"simulator.io.bytes": _path_bytes(a)},
    "simulator.run_stabilizer": _stabilizer_counts,
    "analysis.bootstrap": lambda a, r: {
        "analysis.bootstrap.resamples": int(a["resamples"])},
    "analysis.frame_potential": lambda a, r: {
        "analysis.frame_potential.layer_samples":
            int(a["samples"]) * max(int(x) for x in a["lengths"])},
}


class Tracer:
    """Collects spans and counts for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.absent = []
        self.counter_errors = set()
        self._stack = []

    def span(self, name: str, fn, counter=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            record = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self._count(name, counter, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            increments = counter(bound.arguments, result)
        except (KeyError, AttributeError, TypeError, ValueError):
            # The function's signature or result changed: report, don't crash.
            self.counter_errors.add(name)
            return
        for key, value in increments.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def install(self, targets=TARGETS) -> None:
        """Rebind each target, by identity, in every loaded mirrorbench module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mirrorbench" or n.startswith("mirrorbench."))]
        for module_name, attr, name in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self.span(name, original, COUNTERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def summary(self) -> dict:
        """Per-name self time, total (inclusive) time and call count."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child_time[i]
            entry["total_s"] += end - start
            entry["calls"] += 1
        root_s = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {"layers": out, "counts": dict(self.counts), "root_s": root_s,
                "absent": list(self.absent),
                "counter_errors": sorted(self.counter_errors)}
