"""Command-line interface.

Subcommands cover the full workflow: ``generate`` mirror circuits, ``run``
them under a noise model, ``fit`` the survival decay, estimate the
``frame-potential`` curve, and run a fitted-vs-true ``scatter`` study.
Every command writes a ``manifest.json`` capturing its exact parameters;
``rerun`` replays a manifest, so any output directory can be reproduced
from the manifest alone.

Exit codes: 0 success, 2 configuration error (bad arguments, malformed noise
spec, missing inputs, incompatible backend, a circuit file that fails its
mirror check, a dataset row with impossible counts), 3 runtime failure
(unwritable output, internal error).

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

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_RESAMPLES,
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
from .circuits import build_mirror_circuit, load_circuit, sample_experiment, save_circuit
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

_BACKENDS = ("stabilizer", "dense")

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


def _parse_int_list(text: str, what: str) -> list:
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    if not values:
        raise ConfigError(f"{what}: empty list")
    return values


def resolve_output_dir(out, command: str) -> str:
    """Pick the output directory: --out, else $MIRRORBENCH_OUTPUT_DIR/<cmd>."""
    if out:
        return str(out)
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


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(params: dict) -> int:
    n = int(params["n"])
    lengths = [int(x) for x in params["lengths"]]
    circuits = int(params["circuits"])
    seed = int(params["seed"])
    out_dir = params["out"]
    if n < 2 or n % 2:
        raise ConfigError("--n must be even and >= 2")
    if any(x < 1 for x in lengths):
        raise ConfigError("--lengths must be positive")
    if circuits < 1:
        raise ConfigError("--circuits must be positive")
    specs = sample_experiment(seed, n, lengths, circuits)
    circ_dir = os.path.join(out_dir, "circuits")
    _ensure_dir(circ_dir)
    for spec in specs:
        name = f"circuit_L{spec.length:03d}_{spec.circuit_id:03d}.json"
        save_circuit(build_mirror_circuit(spec), os.path.join(circ_dir, name))
    write_manifest(out_dir, "generate", params)
    print(f"wrote {len(specs)} circuits to {circ_dir}")
    return EXIT_OK


def _load_circuits(circuits_dir: str):
    """Load circuit JSON files from a directory (or its circuits/ child)."""
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
    out = []
    for name in names:
        try:
            out.append(load_circuit(os.path.join(root, name)))
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad circuit file {name}: {exc}") from None
    n = out[0].n_qubits
    if any(c.n_qubits != n for c in out):
        raise ConfigError("circuit files mix different qubit counts")
    return out


def cmd_run(params: dict) -> int:
    circuits = _load_circuits(params["circuits"])
    noise = parse_noise_spec(params["noise"], params.get("noise_1q", "none"))
    backend = params["backend"]
    shots = int(params["shots"])
    seed = int(params["seed"])
    jobs = int(params.get("jobs", 1))
    out_dir = params["out"]
    if shots < 1:
        raise ConfigError("--shots must be positive")
    if backend not in _BACKENDS:
        raise ConfigError(f"unknown backend {backend!r} (expected {', '.join(_BACKENDS)})")
    if circuits[0].n_qubits > _QUBIT_LIMITS[backend]:
        raise ConfigError(f"{backend} backend limited to {_QUBIT_LIMITS[backend]} qubits, "
                          f"got {circuits[0].n_qubits}-qubit circuits")
    if backend == "stabilizer" and not noise.stabilizer_compatible():
        raise ConfigError(
            "stabilizer backend requires stochastic Pauli channels; "
            "use --backend dense for coherent or amplitude-damping noise")
    _ensure_dir(out_dir)
    dataset = simulate_survival(circuits, noise, shots, rng=seed, jobs=jobs,
                                backend=backend)
    write_dataset_csv(dataset, os.path.join(out_dir, "dataset.csv"))
    write_dataset_json(dataset, os.path.join(out_dir, "dataset.json"))
    write_manifest(out_dir, "run", params)
    lengths, p_hat, _ = survival_points(dataset)
    pairs = " ".join(f"L={int(length)}:{p:.4f}" for length, p in zip(lengths, p_hat))
    print(f"simulated {len(circuits)} circuits x {shots} shots "
          f"({format_noise_model(noise)})")
    print(f"survival {pairs}")
    print(f"wrote dataset to {out_dir}")
    return EXIT_OK


def _load_dataset(path: str):
    if not os.path.isfile(path):
        raise ConfigError(f"dataset not found: {path}")
    try:
        if path.endswith(".json"):
            return read_dataset_json(path)
        return read_dataset_csv(path)
    except (ValueError, KeyError) as exc:
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
        data["ci_percentiles"] = list(fit.ci_percentiles)
    return data


def cmd_fit(params: dict) -> int:
    dataset = _load_dataset(params["data"])
    resamples = int(params.get("resamples", DEFAULT_RESAMPLES))
    seed = int(params["seed"])
    out_dir = params["out"]
    if resamples < 0:
        raise ConfigError("--resamples must be >= 0 (0 disables the bootstrap)")
    fit = fit_decay(dataset, resamples=resamples or None, rng=seed)
    _ensure_dir(out_dir)
    with open(os.path.join(out_dir, "fit.json"), "w", encoding="utf-8") as fh:
        json.dump(fit_result_to_dict(fit), fh, indent=2, sort_keys=True)
        fh.write("\n")
    lengths, p_hat, se = survival_points(dataset)
    grid = np.linspace(lengths.min(), lengths.max(), 64)
    write_chart(
        os.path.join(out_dir, "decay.svg"),
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
    write_manifest(out_dir, "fit", params)
    line = (f"A = {fit.amplitude:.6f}  u = {fit.u:.6f}  "
            f"B = {fit.baseline:.6f}  residual = {fit.residual_norm:.3g}")
    if fit.bootstrap_ci is not None:
        lo, hi = fit.bootstrap_ci
        line += f"  u 68% CI [{lo:.6f}, {hi:.6f}]"
    if fit.degenerate:
        line += "  [degenerate: no resolvable decay]"
    print(line)
    print(f"wrote fit to {out_dir}")
    return EXIT_OK


def cmd_frame_potential(params: dict) -> int:
    n = int(params["n"])
    lengths = [int(x) for x in params["lengths"]]
    samples = int(params["samples"])
    seed = int(params["seed"])
    out_dir = params["out"]
    if n < 2 or n % 2 or n > 8:
        raise ConfigError("--n must be even, >= 2, and <= 8")
    if any(x < 0 for x in lengths):
        raise ConfigError("--lengths must be non-negative")
    if samples < 2:
        raise ConfigError("--samples must be >= 2")
    estimates = frame_potential_profile(n, lengths, samples, rng=seed)
    _ensure_dir(out_dir)
    _write_csv(
        os.path.join(out_dir, "frame_potential.csv"),
        ("n", "L", "samples", "phi2", "std_error"),
        [(e.n_qubits, e.length, e.samples, repr(e.phi2), repr(e.std_error))
         for e in estimates],
    )
    write_chart(
        os.path.join(out_dir, "frame_potential.svg"),
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
    write_manifest(out_dir, "frame-potential", params)
    curve = " ".join(f"L={e.length}:{e.phi2:.3f}" for e in estimates)
    print(f"frame potential (n={n}, {samples} samples) {curve}")
    print(f"wrote frame potential to {out_dir}")
    return EXIT_OK


def cmd_scatter(params: dict) -> int:
    n = int(params["n"])
    experiments = int(params["experiments"])
    p_max = float(params["pmax"])
    seed = int(params["seed"])
    lengths = [int(x) for x in params["lengths"]]
    circuits = int(params["circuits"])
    shots = int(params["shots"])
    jobs = int(params.get("jobs", 1))
    out_dir = params["out"]
    if n < 2 or n % 2:
        raise ConfigError("--n must be even and >= 2")
    if experiments < 1:
        raise ConfigError("--experiments must be positive")
    if not 0.0 <= p_max <= 1.0:
        raise ConfigError("--pmax must lie in [0, 1]")
    if any(x < 1 for x in lengths) or len(set(lengths)) < 2:
        raise ConfigError("--lengths needs two or more distinct positive lengths")
    if circuits < 1 or shots < 1:
        raise ConfigError("--circuits and --shots must be positive")
    points = scatter_experiment(
        n, experiments, p_max, rng=seed, lengths=lengths,
        circuits_per_length=circuits, shots=shots, jobs=jobs)
    _ensure_dir(out_dir)
    _write_csv(
        os.path.join(out_dir, "scatter.csv"),
        ("p", "u_true", "u_est"),
        [(repr(pt.p), repr(pt.u_true), repr(pt.u_est)) for pt in points],
    )
    grid = np.linspace(0.0, p_max, 64)
    truth = [depolarizing_tensor_unitarity(p, n // 2) for p in grid]
    write_chart(
        os.path.join(out_dir, "scatter.svg"),
        [
            Series(xs=[pt.p for pt in points], ys=[pt.u_est for pt in points],
                   label="fitted u", style="points"),
            Series(xs=list(grid), ys=truth, label="true u", style="line"),
        ],
        title="Fitted vs true unitarity",
        xlabel="two-qubit depolarizing rate p",
        ylabel="unitarity",
    )
    write_manifest(out_dir, "scatter", params)
    diffs = np.array([pt.u_est - pt.u_true for pt in points])
    spread = f", std = {diffs.std(ddof=1):.2e}" if experiments > 1 else ""
    print(f"scatter over {experiments} experiments: "
          f"mean(u_est - u_true) = {diffs.mean():.2e}{spread}")
    print(f"wrote scatter study to {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "run": cmd_run,
    "fit": cmd_fit,
    "frame-potential": cmd_frame_potential,
    "scatter": cmd_scatter,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and bool(value) and all(map(_is_int, value))


# per command: the params a manifest must hold, with a check of each value's
# type; the values themselves are checked by the command
_REQUIRED_PARAMS = {
    "generate": {"n": _is_int, "lengths": _is_int_list, "circuits": _is_int,
                 "seed": _is_int},
    "run": {"circuits": _is_str, "noise": _is_str, "shots": _is_int,
            "seed": _is_int, "backend": _is_str},
    "fit": {"data": _is_str, "seed": _is_int},
    "frame-potential": {"n": _is_int, "lengths": _is_int_list,
                        "samples": _is_int, "seed": _is_int},
    "scatter": {"n": _is_int, "experiments": _is_int, "pmax": _is_number,
                "seed": _is_int, "lengths": _is_int_list, "circuits": _is_int,
                "shots": _is_int},
}
_OPTIONAL_PARAMS = {"noise_1q": _is_str, "jobs": _is_int, "resamples": _is_int}


def _check_manifest_params(command: str, params: dict) -> None:
    """Raise ConfigError for a missing or ill-typed manifest param."""
    required = dict(_REQUIRED_PARAMS[command], out=_is_str)
    missing = [key for key in required if key not in params]
    if missing:
        raise ConfigError(f"manifest params lack {', '.join(missing)}")
    for key, ok in {**required, **_OPTIONAL_PARAMS}.items():
        if key in params and not ok(params[key]):
            raise ConfigError(f"manifest param {key!r} has a bad value {params[key]!r}")


def cmd_rerun(manifest_path: str, out_override=None) -> int:
    if not os.path.isfile(manifest_path):
        raise ConfigError(f"manifest not found: {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad manifest: {exc}") from None
    command = manifest.get("command")
    params = manifest.get("params")
    if command not in _COMMANDS or not isinstance(params, dict):
        raise ConfigError("manifest missing a known command and params")
    params = dict(params)
    if out_override:
        params["out"] = str(out_override)
    _check_manifest_params(command, params)
    return _COMMANDS[command](params)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorbench",
        description="Mirror-circuit benchmarking: generate, simulate, and fit.",
    )
    parser.add_argument("--version", action="version",
                        version=f"mirrorbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample mirror circuits to JSON files")
    p.add_argument("--n", type=int, required=True, help="qubit count (even)")
    p.add_argument("--lengths", default="4,8,12,16",
                   help="comma-separated sequence lengths")
    p.add_argument("--circuits", type=int, default=10, help="circuits per length")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("run", help="simulate circuits under a noise model")
    p.add_argument("--circuits", required=True,
                   help="directory of circuit .json files (a generate output)")
    p.add_argument("--noise", required=True,
                   help="two-qubit noise spec, e.g. depolarizing:0.01")
    p.add_argument("--noise-1q", default="none", dest="noise_1q",
                   help="single-qubit noise spec (default none)")
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--backend", choices=_BACKENDS,
                   default="stabilizer")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", default=None)

    p = sub.add_parser("fit", help="fit the survival decay of a dataset")
    p.add_argument("--data", required=True, help="dataset.csv or dataset.json")
    p.add_argument("--resamples", type=int, default=DEFAULT_RESAMPLES,
                   help="bootstrap resamples for the u CI (0 disables)")
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    p.add_argument("--out", default=None)

    p = sub.add_parser("frame-potential",
                       help="estimate the frame potential curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lengths", default="2,4,6,8,10,12,14,16")
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("scatter",
                       help="fitted vs true unitarity over random noise rates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--experiments", type=int, required=True)
    p.add_argument("--pmax", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lengths", default="4,8,12,16")
    p.add_argument("--circuits", type=int, default=10)
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("rerun", help="replay a previous run from its manifest")
    p.add_argument("manifest", help="path to a manifest.json")
    p.add_argument("--out", default=None, help="override the output directory")

    return parser


def _params_from_args(args: argparse.Namespace) -> dict:
    if args.command == "generate":
        return {
            "n": args.n,
            "lengths": _parse_int_list(args.lengths, "--lengths"),
            "circuits": args.circuits,
            "seed": args.seed,
            "out": resolve_output_dir(args.out, "generate"),
        }
    if args.command == "run":
        return {
            "circuits": args.circuits,
            "noise": args.noise,
            "noise_1q": args.noise_1q,
            "shots": args.shots,
            "seed": args.seed,
            "backend": args.backend,
            "jobs": args.jobs,
            "out": resolve_output_dir(args.out, "run"),
        }
    if args.command == "fit":
        return {
            "data": args.data,
            "resamples": args.resamples,
            "seed": args.seed,
            "out": resolve_output_dir(args.out, "fit"),
        }
    if args.command == "frame-potential":
        return {
            "n": args.n,
            "lengths": _parse_int_list(args.lengths, "--lengths"),
            "samples": args.samples,
            "seed": args.seed,
            "out": resolve_output_dir(args.out, "frame-potential"),
        }
    if args.command == "scatter":
        return {
            "n": args.n,
            "experiments": args.experiments,
            "pmax": args.pmax,
            "seed": args.seed,
            "lengths": _parse_int_list(args.lengths, "--lengths"),
            "circuits": args.circuits,
            "shots": args.shots,
            "jobs": args.jobs,
            "out": resolve_output_dir(args.out, "scatter"),
        }
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "rerun":
            return cmd_rerun(args.manifest, args.out)
        return _COMMANDS[args.command](_params_from_args(args))
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
