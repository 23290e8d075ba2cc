"""Stage-timed benchmark of mirrorbench's generate -> run -> fit workflow.

Usage (from the root of a checkout):

    python3 pipebench/run.py --workload design-n10 --seed 1 --seconds 30 --trace 0
        [--report BENCH_pipeline.json]

Workloads are defined in ``workloads.py``: ``design-n10``, ``wide-n64`` and
``studies-n4``.  Every pass runs the workload's CLI steps through
``mirrorbench.cli.main`` in a fresh interpreter (``worker.py``), so lazy
caches start cold as in a user's CLI process; passes run one at a time.
The passes of a run draw their CLI seeds from ``--seed`` and their index
(``input_draw``), so a run's median covers several inputs.

``--trace 0`` reports the end-to-end metrics, each the median over the run:

- ``wall_ref``: one pass, import excluded, in units of a fixed reference
  computation timed every 50 ms during the pass (``reference.py``), so that
  the drifting speed of a shared host cancels out; the pass's wall time in
  seconds, ``wall_s``, is printed beside it but not compared;
- ``setup_s``: ``import mirrorbench.cli`` in a fresh interpreter, sampled by
  empty passes and by every measured pass.  Host speed is sampled during the
  import too, with a pure-Python reference, and the import's time in its
  units is given in nominal seconds (``PYTHON_REFERENCE_S`` each); the
  import's wall time, ``import_s``, is printed beside it but not compared;
- ``peak_rss_mb``: ``ru_maxrss`` of a pass.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: each layer's self time, inclusive time and calls (means
over traced passes), work counts and ratios, ``setup.import.*`` cumulative
import times from ``python -X importtime`` (medians), the traced wall time,
its unattributed remainder (wall minus the time inside CLI commands) and
``trace.overhead_s`` (traced minus untraced wall).  Self times plus the
unattributed remainder add up to ``trace.wall_s``.

Operations are CLI commands and correctness gates; a non-zero exit or a
failed gate is a failed operation, and ``fail_rate`` = failed / attempted.
The last line of standard output is the JSON result; the lines before it
name every metric with its unit, sample count and spread, the gates and the
provenance.  ``--report`` also writes all of it, per-pass samples included,
to a JSON file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import PYTHON_REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, Gate, cli_seeds, read_outputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = ".pipebench_work"
SETUP_PROBES = 4  # empty passes timed per run, after one uncounted warm-up
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

LAYERS = (
    "circuits.compile", "circuits.sample", "circuits.io",
    "simulator.simulate", "simulator.run_stabilizer", "simulator.fault_program",
    "simulator.propagate", "simulator.dense", "simulator.io",
    "analysis.fit", "analysis.bootstrap", "analysis.frame_potential",
    "analysis.scatter", "plotting.write_chart", "cli",
)
TOTAL_TIME_LAYERS = ("simulator.run_stabilizer", "analysis.bootstrap")
COUNTS = (
    ("circuits.compile.gates", "count"), ("circuits.io.bytes", "bytes"),
    ("simulator.io.bytes", "bytes"), ("simulator.shots", "count"),
    ("simulator.shot_ops", "count"), ("simulator.shot_sites", "count"),
    ("simulator.expected_faults", "count"),
    ("analysis.bootstrap.resamples", "count"),
    ("analysis.frame_potential.layer_samples", "count"),
)
# ratio name, unit, numerator, denominator
RATIOS = (
    ("simulator.shot_ops_per_s", "1/s", "simulator.shot_ops",
     "simulator.run_stabilizer.total_s"),
    ("simulator.fault_density", "faults/site", "simulator.expected_faults",
     "simulator.shot_sites"),
    ("analysis.bootstrap.resamples_per_s", "1/s", "analysis.bootstrap.resamples",
     "analysis.bootstrap.total_s"),
)
COMPUTED = ("circuits.io.bytes", "simulator.io.bytes", "simulator.shot_ops",
            "simulator.shot_sites", "simulator.expected_faults",
            "simulator.fault_density")
IMPORT_MODULES = (
    ("operators", "mirrorbench.operators"), ("channels", "mirrorbench.channels"),
    ("circuits", "mirrorbench.circuits"), ("simulator", "mirrorbench.simulator"),
    ("analysis", "mirrorbench.analysis"), ("scipy_optimize", "scipy.optimize"),
    ("cli", "mirrorbench.cli"),
)
TRACE_EXTRA = (("trace.wall_s", "s"), ("trace.unattributed_s", "s"),
               ("trace.overhead_s", "s"))


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        if layer in TOTAL_TIME_LAYERS:
            units[f"{layer}.total_s"] = "s"
    units.update(COUNTS)
    units.update((name, unit) for name, unit, _, _ in RATIOS)
    units.update((f"setup.import.{key}_s", "s") for key, _ in IMPORT_MODULES)
    units.update(TRACE_EXTRA)
    return units


class BenchError(Exception):
    """The benchmark cannot run here (missing program, crashed worker)."""


class Runner:
    """Runs passes of one workload in fresh interpreters below ``scratch``."""

    def __init__(self, root: str, scratch: str, deadline: float):
        self.scratch = scratch
        self.deadline = deadline
        self.src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH")) if p)
        self.env = env
        self.count = 0

    def _timeout(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 1.0:
            raise BenchError("run time limit reached")
        return left

    def run_pass(self, make_steps, trace: bool) -> dict:
        """One pass in a fresh worker; returns its result with its ``out`` dir.

        ``make_steps(out)`` gives the pass's CLI argv lists writing below ``out``.
        """
        self.count += 1
        out = os.path.join(self.scratch, f"pass{self.count:03d}")
        os.makedirs(out)
        spec_path = os.path.join(out, "pass.json")
        result_path = os.path.join(out, "result.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump({"steps": make_steps(out), "trace": trace,
                       "result": result_path}, fh)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, spec_path], env=self.env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=self._timeout())
        except subprocess.TimeoutExpired:
            raise BenchError("a pass did not finish before the run time limit") from None
        if proc.returncode != 0 or not os.path.isfile(result_path):
            raise BenchError(f"worker failed (exit {proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        module = os.path.realpath(result["module_file"])
        if not module.startswith(os.path.realpath(self.src) + os.sep):
            raise BenchError(f"imported mirrorbench from {module}, not from {self.src}")
        result["out"] = out
        result["cost_s"] = time.perf_counter() - start
        result["stderr"] = proc.stderr
        return result

    def import_times(self) -> dict:
        """Cumulative import seconds per module from ``python -X importtime``."""
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mirrorbench.cli"],
            env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError(f"importing mirrorbench.cli failed: {proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        return {key: cumulative.get(module, 0.0) for key, module in IMPORT_MODULES}


def describe(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "samples": values}


def no_steps(out: str) -> list:
    return []


def input_draw(index: int, trace: bool) -> int:
    """Which draw of CLI seeds pass ``index`` of a run uses.

    Most passes draw new inputs, so that the run's median covers several and
    one unlucky draw moves it less.  A pass that repeats the draw of the pass
    before it must write byte-identical data files: pass 1 repeats pass 0,
    and in a traced run each traced pass repeats the untraced one before it,
    which also pairs them for ``trace.overhead_s``.
    """
    return index // 2 if trace else max(index - 1, 0)


def measure(runner: Runner, workload, seed: int, seconds: float, trace: bool,
            ops: dict) -> tuple:
    """Set-up probes, then passes until ``seconds`` of passes are used."""
    runner.run_pass(no_steps, trace=False)  # warm-up: byte-compiles, fills page cache
    setup_samples, import_samples = [], []
    for _ in range(SETUP_PROBES):
        if trace:
            import_samples.append(runner.import_times())
        else:
            setup_samples.append(runner.run_pass(no_steps, trace=False))

    plain, traced = [], []
    previous = (None, None)  # draw and data files of the last pass
    start = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(plain)
        draw = input_draw(len(plain) + len(traced), trace)
        seeds = cli_seeds(seed, draw)
        result = runner.run_pass(functools.partial(workload.steps, seeds), want_trace)
        result["draw"] = draw
        check_pass(result, workload, ops)
        outputs = read_outputs(result["out"], workload) if result["ok"] else None
        if draw == previous[0]:
            same = outputs == previous[1]
            ops["gates"].append(("outputs_identical_on_repeat", same,
                                 "data files byte-identical to the pass with the same seeds"))
            ops["attempted"] += 1
            ops["failed"] += int(not same)
        previous = (draw, outputs)
        shutil.rmtree(result.pop("out"), ignore_errors=True)
        (traced if want_trace else plain).append(result)
        setup_samples.append(result)
        used = time.perf_counter() - start
        typical = statistics.median(r["cost_s"] for r in plain + traced)
        if (not trace or traced) and used + typical > seconds:
            break
    return plain, traced, setup_samples, import_samples


def check_pass(result: dict, workload, ops: dict) -> None:
    """Count the pass's commands and gates as operations."""
    codes = result["exit_codes"]
    ops["attempted"] += len(codes)
    bad = [c for c in codes if c != 0]
    ops["failed"] += len(bad)
    result["ok"] = not bad
    if bad:
        ops["errors"].append(result["stderr"].strip()[-500:])
        return
    try:
        gates = workload.gates(result["out"])
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        gates = [Gate("outputs_readable", False, repr(exc))]
    for gate in gates:
        ops["attempted"] += 1
        ops["failed"] += int(not gate.ok)
        ops["gates"].append((gate.name, gate.ok, gate.detail))


def layer_metrics(plain: list, traced: list, import_samples: list) -> tuple:
    """Per-layer metrics (means over traced passes) and the add-up check."""
    sums = {}
    absent, counter_errors = set(), set()
    for result in traced:
        summary = result["trace"]
        absent.update(summary["absent"])
        counter_errors.update(summary["counter_errors"])
        row = {"trace.wall_s": result["wall_s"],
               "trace.unattributed_s": result["wall_s"] - summary["root_s"]}
        for layer, entry in summary["layers"].items():
            row[f"{layer}.self_s"] = entry["self_s"]
            row[f"{layer}.calls"] = entry["calls"]
            row[f"{layer}.total_s"] = entry["total_s"]
        row.update(summary["counts"])
        for key, value in row.items():
            sums[key] = sums.get(key, 0.0) + value
    units = per_layer_units()
    values = {key: sums.get(key, 0) / len(traced) for key in units}
    for name, _, num, den in RATIOS:
        den_value = sums.get(den, 0.0) / len(traced)
        values[name] = values[num] / den_value if den_value > 0 else 0.0
    for key, _ in IMPORT_MODULES:
        values[f"setup.import.{key}_s"] = statistics.median(
            sample[key] for sample in import_samples)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.mean(r["wall_s"] for r in plain))
    attributed = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    check = {"self_s_sum": attributed,
             "unattributed_s": values["trace.unattributed_s"],
             "wall_s": values["trace.wall_s"],
             "adds_up": abs(attributed + values["trace.unattributed_s"]
                            - values["trace.wall_s"]) <= 1e-6 * max(values["trace.wall_s"], 1.0)}
    return values, units, check, sorted(absent), sorted(counter_errors)


def git_sha(root: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(root: str, args, workload, seeds: dict, sample: dict) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes,
        "seed": args.seed,
        "cli_seeds": seeds,  # by input draw
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": sample.get("kernel"),
        "versions": sample.get("versions"),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
    }


def print_metric(name: str, unit: str, stats: dict) -> None:
    print(f"  {name:42s} {stats['median']:14.6g} {unit:12s} n={stats['n']:<3d} "
          f"min={stats['min']:.6g} max={stats['max']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="also write the full report to this JSON file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mirrorbench", "cli.py")):
        print(f"error: no src/mirrorbench/cli.py under {root}; run from the "
              "root of a mirrorbench checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work)
    runner = Runner(root, scratch, time.perf_counter() + RUN_LIMIT_S)
    ops = {"attempted": 0, "failed": 0, "gates": [], "errors": []}
    try:
        plain, traced, setup_samples, import_samples = measure(
            runner, workload, args.seed, args.seconds, bool(args.trace), ops)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass

    sample = (plain or traced)[0]
    draws = sorted({r["draw"] for r in plain + traced})
    seeds = {draw: cli_seeds(args.seed, draw) for draw in draws}
    report = {"provenance": provenance(root, args, workload, seeds, sample),
              "steps": workload.steps(seeds[0], "<out>"), "gates": ops["gates"],
              "errors": ops["errors"]}

    print(f"pipebench {workload.name}: seed {args.seed}, {len(plain)} untraced and "
          f"{len(traced)} traced passes, kernel {sample.get('kernel')}")
    print("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    if not args.trace:
        stats = {"wall_ref": describe([r["wall_ref"] for r in plain]),
                 "setup_s": describe([r["import_ref"] * PYTHON_REFERENCE_S
                                      for r in setup_samples]),
                 "peak_rss_mb": describe([r["peak_rss_mb"] for r in plain]),
                 "wall_s": describe([r["wall_s"] for r in plain]),
                 "import_s": describe([r["import_s"] for r in setup_samples]),
                 "reference_samples": describe([r["samples"] for r in plain])}
        print("end-to-end metrics (median over the run):")
        for name, unit in END_TO_END:
            print_metric(name, unit, stats[name])
        print("  not compared, host-speed dependent:")
        print_metric("wall_s", "s", stats["wall_s"])
        print_metric("import_s", "s", stats["import_s"])
        print_metric("reference_samples", "count", stats["reference_samples"])
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in END_TO_END}
        report["end_to_end"] = stats
    else:
        values, units, check, absent, counter_errors = layer_metrics(
            plain, traced, import_samples)
        print(f"per-layer metrics (mean of {len(traced)} traced passes; "
              "imports: median cumulative of -X importtime):")
        for name, unit in units.items():
            note = " (computed)" if name in COMPUTED else ""
            print(f"  {name:42s} {values[name]:14.6g} {unit}{note}")
        for name, _, num, den in RATIOS:
            print(f"  ratio {name} = {num} / {den} = {values[num]:.6g} / "
                  f"{values[den] if den in values else 0.0:.6g}")
        print(f"  self times {check['self_s_sum']:.6f} s + unattributed "
              f"{check['unattributed_s']:.6f} s = traced wall {check['wall_s']:.6f} s: "
              f"{'ok' if check['adds_up'] else 'MISMATCH'}")
        print(f"  absent targets: {', '.join(absent) or 'none'}; counters that "
              f"failed: {', '.join(counter_errors) or 'none'}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        report.update(per_layer=values, add_up=check, absent=absent,
                      counter_errors=counter_errors,
                      untraced_wall_s=[r["wall_s"] for r in plain])
    fail_rate = ops["failed"] / ops["attempted"]
    report.update(attempted=ops["attempted"], failed=ops["failed"], fail_rate=fail_rate)
    print(f"fail_rate {ops['failed']}/{ops['attempted']} = {fail_rate:.6g} "
          "(failed / attempted operations)")
    seen = set()
    for name, ok, detail in ops["gates"]:
        if name not in seen or not ok:
            print(f"  gate {name}: {'PASS' if ok else 'FAIL'} {detail}")
            seen.add(name)
    for error in ops["errors"]:
        print(f"  command error: {error}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": ops["failed"] == 0,
                      "attempted": ops["attempted"], "failed": ops["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
