"""Command-line interface.

Subcommands cover the full workflow: ``generate`` mirror circuits, ``run``
them under a noise model, ``fit`` the survival decay, estimate the
``frame-potential`` curve, and run a fitted-vs-true ``scatter`` study.
Every command writes a ``manifest.json`` capturing its exact parameters;
``rerun`` replays a manifest, so any output directory can be reproduced
from the manifest alone.  ``COMMANDS`` declares each command's parameters
once; the argument parser, the params a run records and rerun's check of
a manifest all come from it.

Exit codes: 0 success, 2 configuration error (bad arguments, a count below
its least value in ``_MINIMA`` such as a negative seed or no jobs, a
manifest param that is missing, of the wrong JSON type or not one of its
choices, malformed noise spec, missing inputs, incompatible backend, a
circuit file that fails its mirror check, a dataset with impossible rows
or under two lengths), 3 runtime failure (unwritable output, internal error).

Noise specs: ``none``, ``depolarizing:<p>``, ``pauli:<pX>,<pY>,<pZ>``,
``amp_damp:<gamma>``; append ``@inverse=<spec>`` to override the channel
applied to two-qubit gates in the mirrored half (``@inverse=none`` makes
those gates noiseless).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (
    CI_PERCENTILES,
    DEFAULT_RESAMPLES,
    FRAME_POTENTIAL_QUBIT_LIMIT,
    FitResult,
    fit_decay,
    frame_potential_profile,
    scatter_experiment,
    survival_points,
)
from .channels import (
    AmplitudeDamping,
    Depolarizing,
    StochasticPauli,
    depolarizing_tensor_unitarity,
    stochastic_pauli_tensor,
)
from .circuits import (
    CircuitWidthError,
    _experiment_stacks,
    _is_int,
    _stack_json,
    _write_json,
    read_circuits,
)
from .plotting import Series, write_chart
from .simulator import (
    _QUBIT_LIMITS,
    NoiseModel,
    simulate_survival,
    write_dataset_csv,
    write_dataset_json,
    read_dataset_csv,
    read_dataset_json,
)

OUTPUT_DIR_ENV = "MIRRORBENCH_OUTPUT_DIR"
MANIFEST_NAME = "manifest.json"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Invalid configuration: bad arguments, specs, or missing inputs."""


# ---------------------------------------------------------------------------
# Noise spec grammar
# ---------------------------------------------------------------------------


def _parse_floats(text: str, count: int, what: str) -> list:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ConfigError(f"{what} expects {count} comma-separated values")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def parse_channel_spec(text: str, n_qubits: int):
    """Parse one ``family:args`` channel spec for a slot of ``n_qubits``.

    Returns channel parameters, or None for ``"none"``.
    """
    text = text.strip()
    name, _, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name == "none":
            if arg:
                raise ConfigError("'none' takes no arguments")
            return None
        if name == "depolarizing":
            return Depolarizing(float(arg))
        if name == "pauli":
            px, py, pz = _parse_floats(arg, 3, "pauli")
            one = StochasticPauli((px, py, pz))
            if n_qubits == 1:
                return one
            return stochastic_pauli_tensor(one, one)
        if name == "amp_damp":
            return AmplitudeDamping(float(arg))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad noise spec {text!r}: {exc}") from None
    raise ConfigError(
        f"unknown noise family {name!r} (expected none, depolarizing, pauli, amp_damp)"
    )


def parse_noise_spec(text: str, single_qubit_spec: str = "none") -> NoiseModel:
    """Parse the full noise model: two-qubit spec with optional inverse override."""
    main, _, rest = text.partition("@")
    override = None
    if rest:
        if not rest.startswith("inverse="):
            raise ConfigError(
                f"bad noise suffix {rest!r} (expected @inverse=<spec>)")
        override = parse_channel_spec(rest[len("inverse="):], 2)
        if override is None:  # ``@inverse=none``: a noiseless mirrored half
            override = Depolarizing(0.0)
    try:
        return NoiseModel(
            two_qubit=parse_channel_spec(main, 2),
            single_qubit=parse_channel_spec(single_qubit_spec, 1),
            inverse_half_override=override,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def format_noise_model(model: NoiseModel) -> str:
    """Human-readable one-liner for logs."""
    def one(params):
        if params is None:
            return "none"
        return repr(params)
    text = f"two_qubit={one(model.two_qubit)} single_qubit={one(model.single_qubit)}"
    if model.inverse_half_override is not None:
        text += f" inverse_override={one(model.inverse_half_override)}"
    return text


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list:
    """The int-list param kind: comma-separated on the command line."""
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def resolve_output_dir(out: str, command: str) -> str:
    """Pick the output directory: ``out``, else $MIRRORBENCH_OUTPUT_DIR/<cmd>."""
    if out:
        return out
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return os.path.join(env, command)
    return os.path.join("mirrorbench_out", command)


def write_manifest(out_dir: str, command: str, params: dict) -> None:
    manifest = {
        "tool": "mirrorbench",
        "version": __version__,
        "command": command,
        "params": params,
    }
    path = os.path.join(out_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(n: int, lengths: list, circuits: int, seed: int, out: str) -> None:
    if n < 2 or n % 2:
        raise ConfigError("--n must be even and >= 2")
    if any(x < 1 for x in lengths):
        raise ConfigError("--lengths must be positive")
    circ_dir = os.path.join(out, "circuits")
    os.makedirs(circ_dir, exist_ok=True)
    # drawn, compiled and written one stack at a time, straight from its arrays
    for stack in _experiment_stacks(seed, n, lengths, circuits):
        for data in _stack_json(stack):
            name = f"circuit_L{data['L']:03d}_{data['circuit_id']:03d}.json"
            _write_json(data, os.path.join(circ_dir, name))
    print(f"wrote {len(lengths) * circuits} circuits to {circ_dir}")


def _circuits_from_dir(circuits_dir: str, backend: str) -> list:
    """The ``read_circuits`` stacks, up to ``backend``'s qubit limit, of the
    circuit files of a directory (or its circuits/ child) in name order."""
    root = circuits_dir
    if not os.path.isdir(root):
        raise ConfigError(f"circuit directory not found: {root}")
    child = os.path.join(root, "circuits")
    if os.path.isdir(child):
        root = child
    names = sorted(f for f in os.listdir(root) if f.endswith(".json")
                   and f != MANIFEST_NAME)
    if not names:
        raise ConfigError(f"no circuit .json files in {root}")
    try:
        return read_circuits([os.path.join(root, name) for name in names],
                             _QUBIT_LIMITS[backend])
    except CircuitWidthError as exc:
        raise ConfigError(f"{backend} backend {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_run(circuits: str, noise: str, noise_1q: str, shots: int, seed: int,
            backend: str, jobs: int, out: str) -> None:
    model = parse_noise_spec(noise, noise_1q)
    if backend == "stabilizer" and not model.stabilizer_compatible():
        raise ConfigError(
            "stabilizer backend requires stochastic Pauli channels; "
            "use --backend dense for amplitude-damping noise")
    stacks = _circuits_from_dir(circuits, backend)
    os.makedirs(out, exist_ok=True)
    dataset = simulate_survival(stacks, model, shots, seed, jobs, backend)
    write_dataset_csv(dataset, os.path.join(out, "dataset.csv"))
    write_dataset_json(dataset, os.path.join(out, "dataset.json"))
    lengths, p_hat, _ = survival_points(dataset)
    pairs = " ".join(f"L={int(length)}:{p:.4f}" for length, p in zip(lengths, p_hat))
    print(f"simulated {len(dataset.entries)} circuits x {shots} shots "
          f"({format_noise_model(model)})")
    print(f"survival {pairs}")
    print(f"wrote dataset to {out}")


def _load_dataset(path: str):
    if not os.path.isfile(path):
        raise ConfigError(f"dataset not found: {path}")
    try:
        if path.endswith(".json"):
            return read_dataset_json(path)
        return read_dataset_csv(path)
    except ValueError as exc:
        raise ConfigError(f"bad dataset file {path}: {exc}") from None


def fit_result_to_dict(fit: FitResult) -> dict:
    data = {
        "amplitude": fit.amplitude,
        "u": fit.u,
        "baseline": fit.baseline,
        "residual_norm": fit.residual_norm,
        "n_qubits": fit.n_qubits,
        "degenerate": fit.degenerate,
    }
    if fit.bootstrap_ci is not None:
        data["bootstrap_ci"] = list(fit.bootstrap_ci)
        data["resamples"] = fit.resamples
        data["ci_percentiles"] = list(CI_PERCENTILES)
    return data


def cmd_fit(data: str, resamples: int, seed: int, out: str) -> None:
    dataset = _load_dataset(data)
    if len(dataset.lengths()) < 2:
        raise ConfigError(f"dataset {data} needs at least two distinct lengths to fit")
    fit = fit_decay(dataset, resamples=resamples or None, rng=seed)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "fit.json"), "w", encoding="utf-8") as fh:
        json.dump(fit_result_to_dict(fit), fh, indent=2, sort_keys=True)
        fh.write("\n")
    lengths, p_hat, se = survival_points(dataset)
    grid = np.linspace(lengths.min(), lengths.max(), 64)
    write_chart(
        os.path.join(out, "decay.svg"),
        [
            Series(xs=list(lengths), ys=list(p_hat), yerr=list(se),
                   label="measured", style="points"),
            Series(xs=list(grid), ys=list(fit.predict(grid)), label="fit",
                   style="line"),
        ],
        title="Mirror survival decay",
        xlabel="sequence length L",
        ylabel="success probability",
    )
    line = (f"A = {fit.amplitude:.6f}  u = {fit.u:.6f}  "
            f"B = {fit.baseline:.6f}  residual = {fit.residual_norm:.3g}")
    if fit.bootstrap_ci is not None:
        lo, hi = fit.bootstrap_ci
        line += f"  u 68% CI [{lo:.6f}, {hi:.6f}]"
    if fit.degenerate:
        line += "  [degenerate: no resolvable decay]"
    print(line)
    print(f"wrote fit to {out}")


def cmd_frame_potential(n: int, lengths: list, samples: int, seed: int,
                        out: str) -> None:
    if n < 2 or n % 2 or n > FRAME_POTENTIAL_QUBIT_LIMIT:
        raise ConfigError(
            f"--n must be even, >= 2, and <= {FRAME_POTENTIAL_QUBIT_LIMIT}")
    if any(x < 0 for x in lengths):
        raise ConfigError("--lengths must be non-negative")
    estimates = frame_potential_profile(n, lengths, samples, rng=seed)
    os.makedirs(out, exist_ok=True)
    _write_csv(
        os.path.join(out, "frame_potential.csv"),
        ("n", "L", "samples", "phi2", "std_error"),
        [(e.n_qubits, e.length, e.samples, repr(e.phi2), repr(e.std_error))
         for e in estimates],
    )
    write_chart(
        os.path.join(out, "frame_potential.svg"),
        [
            Series(xs=[e.length for e in estimates],
                   ys=[e.phi2 for e in estimates],
                   yerr=[e.std_error for e in estimates],
                   label=f"n = {n}", style="points+line"),
            Series(xs=[min(lengths), max(lengths)], ys=[2.0, 2.0],
                   label="2-design value", style="line", color="#888888"),
        ],
        title="Frame potential vs depth",
        xlabel="layers L",
        ylabel="frame potential",
    )
    curve = " ".join(f"L={e.length}:{e.phi2:.3f}" for e in estimates)
    print(f"frame potential (n={n}, {samples} samples) {curve}")
    print(f"wrote frame potential to {out}")


def cmd_scatter(n: int, experiments: int, pmax: float, seed: int, lengths: list,
                circuits: int, shots: int, out: str) -> None:
    limit = _QUBIT_LIMITS["stabilizer"]
    if n < 2 or n % 2 or n > limit:
        raise ConfigError(f"--n must be even, >= 2, and <= {limit} (the stabilizer limit)")
    if not 0.0 <= pmax <= 1.0:
        raise ConfigError("--pmax must lie in [0, 1]")
    if any(x < 1 for x in lengths) or len(set(lengths)) < 2:
        raise ConfigError("--lengths needs two or more distinct positive lengths")
    points = scatter_experiment(
        n, experiments, pmax, rng=seed, lengths=lengths,
        circuits_per_length=circuits, shots=shots)
    os.makedirs(out, exist_ok=True)
    _write_csv(
        os.path.join(out, "scatter.csv"),
        ("p", "u_true", "u_est"),
        [(repr(pt.p), repr(pt.u_true), repr(pt.u_est)) for pt in points],
    )
    grid = np.linspace(0.0, pmax, 64)
    truth = [depolarizing_tensor_unitarity(p, n // 2) for p in grid]
    write_chart(
        os.path.join(out, "scatter.svg"),
        [
            Series(xs=[pt.p for pt in points], ys=[pt.u_est for pt in points],
                   label="fitted u", style="points"),
            Series(xs=list(grid), ys=truth, label="true u", style="line"),
        ],
        title="Fitted vs true unitarity",
        xlabel="two-qubit depolarizing rate p",
        ylabel="unitarity",
    )
    diffs = np.array([pt.u_est - pt.u_true for pt in points])
    spread = f", std = {diffs.std(ddof=1):.2e}" if experiments > 1 else ""
    print(f"scatter over {experiments} experiments: "
          f"mean(u_est - u_true) = {diffs.mean():.2e}{spread}")
    print(f"wrote scatter study to {out}")


# ---------------------------------------------------------------------------
# Command table, params and manifests
# ---------------------------------------------------------------------------

# Per command: its function, its help line and its params as (name, kind,
# CLI default, help).  A kind is int, float, str, _int_list (comma-separated
# on the command line, a list of ints in a manifest) or a tuple of choices;
# a default of None makes the flag required.
COMMANDS = {
    "generate": (cmd_generate, "sample mirror circuits to JSON files", (
        ("n", int, None, "qubit count (even)"),
        ("lengths", _int_list, "4,8,12,16", "comma-separated sequence lengths"),
        ("circuits", int, 10, "circuits per length"),
        ("seed", int, None, "sampling seed"),
    )),
    "run": (cmd_run, "simulate circuits under a noise model", (
        ("circuits", str, None, "directory of circuit .json files (a generate output)"),
        ("noise", str, None, "two-qubit noise spec, e.g. depolarizing:0.01"),
        ("noise_1q", str, "none", "single-qubit noise spec (default none)"),
        ("shots", int, 100, "shots per circuit"),
        ("seed", int, None, "simulation seed"),
        ("backend", tuple(_QUBIT_LIMITS), "stabilizer", "simulator backend"),
        ("jobs", int, 1, "worker processes"),
    )),
    "fit": (cmd_fit, "fit the survival decay of a dataset", (
        ("data", str, None, "dataset.csv or dataset.json"),
        ("resamples", int, DEFAULT_RESAMPLES,
         "bootstrap resamples for the u CI (0 disables)"),
        ("seed", int, 0, "bootstrap seed"),
    )),
    "frame-potential": (cmd_frame_potential, "estimate the frame potential curve", (
        ("n", int, None, f"qubit count (even, <= {FRAME_POTENTIAL_QUBIT_LIMIT})"),
        ("lengths", _int_list, "2,4,6,8,10,12,14,16", "comma-separated layer counts"),
        ("samples", int, 2000, "sampled circuits per layer count"),
        ("seed", int, None, "sampling seed"),
    )),
    "scatter": (cmd_scatter, "fitted vs true unitarity over random noise rates", (
        ("n", int, None, "qubit count (even)"),
        ("experiments", int, None, "experiments, each at a random noise rate"),
        ("pmax", float, None, "largest two-qubit depolarizing rate"),
        ("seed", int, None, "study seed"),
        ("lengths", _int_list, "4,8,12,16", "comma-separated sequence lengths"),
        ("circuits", int, 10, "circuits per length"),
        ("shots", int, 100, "shots per circuit"),
    )),
}
# every command also takes --out (not required: see resolve_output_dir)
_OUT = ("out", str, None, "output directory")
# added after the first manifests were written: a manifest may lack them,
# and then the command runs with the default
_ADDED_PARAMS = ("noise_1q", "jobs", "resamples")
# the least value of an int param of this name (run's --circuits is a path)
_MINIMA = {"seed": 0, "jobs": 1, "circuits": 1, "shots": 1, "experiments": 1,
           "samples": 2, "resamples": 0}


def _has_kind(value, kind) -> bool:
    """Whether a param value, as a manifest holds it, is of ``kind``."""
    if kind is int:
        return _is_int(value)
    if kind is float:
        return _is_int(value) or isinstance(value, float)
    if kind is str:
        return isinstance(value, str)
    if kind is _int_list:
        return isinstance(value, list) and bool(value) and all(map(_is_int, value))
    return value in kind


def run_command(command: str, params: dict) -> int:
    """Check ``params``, run ``command`` with them and write its manifest.

    A param missing, of the wrong type, not one of its choices or below its
    minimum raises ConfigError before anything is written.  An empty ``out``
    resolves as ``resolve_output_dir`` says.  The manifest records
    ``params`` as given, with ``out`` resolved, so one that lacks an added
    param reruns with its default and still lacks it.
    """
    func, _, table = COMMANDS[command]
    table = (*table, _OUT)
    missing = [name for name, *_ in table
               if name not in params and name not in _ADDED_PARAMS]
    if missing:
        raise ConfigError(f"params lack {', '.join(missing)}")
    args = {}
    for name, kind, default, _ in table:
        value = params.get(name, default)
        if not _has_kind(value, kind):
            raise ConfigError(f"param {name!r} has a bad value {value!r}")
        if kind is int and name in _MINIMA and value < _MINIMA[name]:
            raise ConfigError(f"--{name} must be >= {_MINIMA[name]}, got {value}")
        args[name] = value
    args["out"] = resolve_output_dir(args["out"], command)
    func(**args)
    write_manifest(args["out"], command, dict(params, out=args["out"]))
    return EXIT_OK


def cmd_rerun(manifest_path: str, out_override=None) -> int:
    if not os.path.isfile(manifest_path):
        raise ConfigError(f"manifest not found: {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError("a manifest must hold a JSON object")
    command = manifest.get("command")
    params = manifest.get("params")
    if not (isinstance(command, str) and command in COMMANDS
            and isinstance(params, dict)):
        raise ConfigError("manifest missing a known command and params")
    if out_override is not None:
        params = dict(params, out=out_override)
    return run_command(command, params)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser of every command, or only of ``command`` (a key
    of ``COMMANDS``), which parses, helps and fails on that command's
    arguments as the full parser does, but builds one subparser."""
    parser = argparse.ArgumentParser(
        prog="mirrorbench",
        description="Mirror-circuit benchmarking: generate, simulate, and fit.",
    )
    parser.add_argument("--version", action="version",
                        version=f"mirrorbench {__version__}")
    # one command's parser still names every command in its usage line
    every = None if command is None else "{%s}" % ",".join([*COMMANDS, "rerun"])
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, (_, command_help, table) in COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=command_help)
        for param, kind, default, help_text in table:
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument("--" + param.replace("_", "-"),
                           type=None if choices else kind, choices=choices,
                           default=default, required=default is None, help=help_text)
        p.add_argument("--out", default="", help=_OUT[3])

    if command is None:
        p = sub.add_parser("rerun", help="replay a previous run from its manifest")
        p.add_argument("manifest", help="path to a manifest.json")
        p.add_argument("--out", default=None, help="override the output directory")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    params = vars(args)
    command = params.pop("command")
    try:
        if command == "rerun":
            return cmd_rerun(params["manifest"], params["out"])
        return run_command(command, params)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
