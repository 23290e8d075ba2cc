"""Benchmark workloads: the CLI steps of one pass and the gates on its outputs.

Every workload drives ``mirrorbench.cli.main`` with the defaults for each
option it does not vary (so ``--jobs`` stays 1).  The benchmark seed and a
pass's input draw only pick the CLI ``--seed`` values; the program sees
nothing but those inputs.

Each correctness gate compares an estimate with a known value in units of
the estimate's own error bar, with a fixed multiple ``Z_MAX`` that a correct
program passes under any seed.  The gates read only the files the CLI
writes, and the reference unitarity is computed here from its closed form,
so a broken estimator in the program cannot also break its own check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

Z_MAX = 5.0  # sigma multiple for a gate whose error bar is well determined
# The scatter gate's error bar is a sample standard deviation over only ten
# experiments, so its statistic follows Student's t with 9 degrees of freedom,
# whose tails are far heavier than a normal's: P(|t9| > 5) is about 7e-4 but
# P(|t9| > 10) about 4e-6.
T9_MAX = 10.0
LENGTHS = "4,8,12,16"
FP_LENGTHS = "0,2,4,6,8,10,12,14,16"


@dataclass(frozen=True)
class Gate:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    steps: Callable  # (cli seeds, out dir) -> list of argv lists
    gates: Callable  # (out dir) -> list of Gate
    outputs: tuple  # data files that must be identical on every pass of a run


def cli_seeds(seed: int, draw: int, count: int = 8) -> list:
    """The CLI ``--seed`` values of one input draw of a benchmark run."""
    rng = random.Random(f"{seed}:{draw}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


# ---------------------------------------------------------------------------
# Reference values and readers
# ---------------------------------------------------------------------------


def depolarizing_tensor_unitarity(p: float, n_pairs: int) -> float:
    """Unitarity of ``n_pairs`` independent two-qubit depolarizing channels.

    A Pauli touching ``j`` of the pairs has PTM diagonal entry ``(1-p)^j``,
    so u is the mean of ``(1-p)^(2j)`` over the ``16^N - 1`` non-identity
    Paulis, grouped by how many pairs they touch.
    """
    total = sum(math.comb(n_pairs, j) * 15 ** j * (1.0 - p) ** (2 * j)
                for j in range(1, n_pairs + 1))
    return total / (16 ** n_pairs - 1)


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def survival_by_length(path: str) -> dict:
    """{L: (mean survival, binomial SE of that mean, circuit rates)}."""
    cells = {}
    for row in _read_csv(path):
        cells.setdefault(int(row["L"]), []).append(
            (int(row["successes"]), int(row["shots"])))
    out = {}
    for length, pairs in sorted(cells.items()):
        rates = [s / n for s, n in pairs]
        p = sum(rates) / len(rates)
        total = sum(n for _, n in pairs)
        out[length] = (p, math.sqrt(max(p * (1.0 - p), 0.0) / total), rates)
    return out


def fit_sigma_u(dataset_csv: str, amplitude: float, u: float) -> float:
    """Standard error of u from the weighted least-squares fit's curvature.

    Each length's error is the larger of its binomial error and the spread
    between its circuits, so circuit-to-circuit variation is not ignored.
    """
    jtj = [[0.0, 0.0], [0.0, 0.0]]
    for length, (_, se, rates) in survival_by_length(dataset_csv).items():
        if len(rates) > 1:
            mean = sum(rates) / len(rates)
            spread = math.sqrt(sum((r - mean) ** 2 for r in rates)
                               / (len(rates) - 1) / len(rates))
            se = max(se, spread)
        se = max(se, 1e-4)
        grad = (u ** (length - 1) / se,
                amplitude * (length - 1) * u ** (length - 2) / se)
        for i in range(2):
            for j in range(2):
                jtj[i][j] += grad[i] * grad[j]
    det = jtj[0][0] * jtj[1][1] - jtj[0][1] * jtj[1][0]
    return math.sqrt(jtj[0][0] / det) if det > 0 else math.inf


def _z_gate(name: str, value: float, target: float, sigma: float,
            z_max: float = Z_MAX) -> Gate:
    z = abs(value - target) / sigma if sigma > 0 else math.inf
    return Gate(name, z <= z_max,
                f"{value:.6f} vs {target:.6f}: |z| = {z:.2f} (sigma {sigma:.2e}, max {z_max})")


# ---------------------------------------------------------------------------
# design-n10
# ---------------------------------------------------------------------------

DESIGN = {"n": 10, "lengths": LENGTHS, "circuits": 10, "noise": "depolarizing:0.01",
          "p": 0.01, "shots": 1000, "resamples": "default (1000)"}


def _design_steps(seeds: list, out: str) -> list:
    d = DESIGN
    return [
        ["generate", "--n", str(d["n"]), "--lengths", d["lengths"],
         "--circuits", str(d["circuits"]), "--seed", str(seeds[0]),
         "--out", f"{out}/gen"],
        ["run", "--circuits", f"{out}/gen", "--noise", d["noise"],
         "--shots", str(d["shots"]), "--seed", str(seeds[1]), "--out", f"{out}/run"],
        ["fit", "--data", f"{out}/run/dataset.csv", "--seed", str(seeds[2]),
         "--out", f"{out}/fit"],
    ]


def _design_gates(out: str) -> list:
    fit = _read_json(f"{out}/fit/fit.json")
    lo, hi = fit["bootstrap_ci"]  # 16th-84th percentile: about +-1 sigma
    u_true = depolarizing_tensor_unitarity(DESIGN["p"], DESIGN["n"] // 2)
    return [_z_gate("u_vs_closed_form", fit["u"], u_true, (hi - lo) / 2.0)]


# ---------------------------------------------------------------------------
# wide-n64
# ---------------------------------------------------------------------------

WIDE = {"n": 64, "lengths": LENGTHS, "circuits": 2, "noise": "depolarizing:0.001",
        "p": 0.001, "shots": 10000, "resamples": 0}


def _wide_steps(seeds: list, out: str) -> list:
    w = WIDE
    return [
        ["generate", "--n", str(w["n"]), "--lengths", w["lengths"],
         "--circuits", str(w["circuits"]), "--seed", str(seeds[0]),
         "--out", f"{out}/gen"],
        ["run", "--circuits", f"{out}/gen", "--noise", w["noise"],
         "--shots", str(w["shots"]), "--seed", str(seeds[1]), "--out", f"{out}/run"],
        ["fit", "--data", f"{out}/run/dataset.csv", "--resamples", "0",
         "--seed", str(seeds[2]), "--out", f"{out}/fit"],
    ]


def _wide_gates(out: str) -> list:
    fit = _read_json(f"{out}/fit/fit.json")
    sigma = fit_sigma_u(f"{out}/run/dataset.csv", fit["amplitude"], fit["u"])
    u_true = depolarizing_tensor_unitarity(WIDE["p"], WIDE["n"] // 2)
    return [_z_gate("u_vs_closed_form", fit["u"], u_true, sigma)]


# ---------------------------------------------------------------------------
# studies-n4
# ---------------------------------------------------------------------------

STUDIES = {"n": 4, "fp_lengths": FP_LENGTHS, "fp_samples": 10000,
           "scatter_experiments": 10, "scatter_pmax": 0.02, "scatter_shots": 100,
           "lengths": LENGTHS, "circuits": 10, "noise": "depolarizing:0.01",
           "noise_1q": "pauli:0.001,0.001,0.001", "shots": 1000, "resamples": 0}


def _studies_steps(seeds: list, out: str) -> list:
    s = STUDIES
    steps = [
        ["frame-potential", "--n", str(s["n"]), "--lengths", s["fp_lengths"],
         "--samples", str(s["fp_samples"]), "--seed", str(seeds[0]),
         "--out", f"{out}/fp"],
        ["scatter", "--n", str(s["n"]), "--experiments", str(s["scatter_experiments"]),
         "--pmax", str(s["scatter_pmax"]), "--seed", str(seeds[1]),
         "--out", f"{out}/scatter"],
        ["generate", "--n", str(s["n"]), "--lengths", s["lengths"],
         "--circuits", str(s["circuits"]), "--seed", str(seeds[2]),
         "--out", f"{out}/gen"],
    ]
    for i, backend in enumerate(("stabilizer", "dense")):
        steps.append(["run", "--circuits", f"{out}/gen", "--noise", s["noise"],
                      "--noise-1q", s["noise_1q"], "--backend", backend,
                      "--shots", str(s["shots"]), "--seed", str(seeds[3 + i]),
                      "--out", f"{out}/run_{backend}"])
        steps.append(["fit", "--data", f"{out}/run_{backend}/dataset.csv",
                      "--resamples", "0", "--seed", str(seeds[5]),
                      "--out", f"{out}/fit_{backend}"])
    return steps


def _studies_gates(out: str) -> list:
    d = 2 ** STUDIES["n"]
    phi = {int(r["L"]): (float(r["phi2"]), float(r["std_error"]))
           for r in _read_csv(f"{out}/fp/frame_potential.csv")}
    gates = [Gate("phi2_L0_exact", phi[0][0] == float(d) ** 4,
                  f"phi2(0) = {phi[0][0]!r}, want d^4 = {d ** 4}")]
    gates.append(_z_gate("phi2_L16_two_design", phi[16][0], 2.0, phi[16][1]))

    diffs = [float(r["u_est"]) - float(r["u_true"])
             for r in _read_csv(f"{out}/scatter/scatter.csv")]
    mean = sum(diffs) / len(diffs)
    std = math.sqrt(sum((x - mean) ** 2 for x in diffs) / (len(diffs) - 1))
    gates.append(_z_gate("scatter_mean_bias", mean, 0.0, std / math.sqrt(len(diffs)),
                         T9_MAX))

    stab = survival_by_length(f"{out}/run_stabilizer/dataset.csv")
    dense = survival_by_length(f"{out}/run_dense/dataset.csv")
    worst = max(
        (abs(stab[L][0] - dense[L][0]) / math.hypot(stab[L][1], dense[L][1]), L)
        for L in stab)
    gates.append(Gate("backends_agree", set(stab) == set(dense) and worst[0] <= Z_MAX,
                      f"worst per-length |z| = {worst[0]:.2f} at L={worst[1]} "
                      f"(max {Z_MAX})"))
    return gates


WORKLOADS = {
    "design-n10": Workload(
        "design-n10",
        "the paper's standard n=10 design with CLI defaults; the 1000-resample "
        "bootstrap does most of the work, so fit and bootstrap changes show",
        DESIGN, _design_steps, _design_gates,
        ("run/dataset.csv", "fit/fit.json")),
    "wide-n64": Workload(
        "wide-n64",
        "widest stabilizer register, 10k shots at low fault density and no "
        "bootstrap: compilation and propagation do the work and set the memory peak",
        WIDE, _wide_steps, _wide_gates,
        ("run/dataset.csv", "fit/fit.json")),
    "studies-n4": Workload(
        "studies-n4",
        "frame potential, scatter and a stabilizer-vs-dense design: many small "
        "calls (per-call set-up shows); the only dense, 1q-noise and frame-potential user",
        STUDIES, _studies_steps, _studies_gates,
        ("fp/frame_potential.csv", "scatter/scatter.csv",
         "run_stabilizer/dataset.csv", "run_dense/dataset.csv")),
}


def read_outputs(out: str, workload: Workload) -> dict:
    """Contents of the workload's data files (None if missing), by relative path."""
    contents = {}
    for rel in workload.outputs:
        try:
            with open(os.path.join(out, rel), "rb") as fh:
                contents[rel] = fh.read()
        except OSError:
            contents[rel] = None
    return contents
