"""End-to-end command-line workflows: determinism, manifests, exit codes."""

import csv
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import mirrorbench
from mirrorbench.channels import AmplitudeDamping, Depolarizing
from mirrorbench.cli import (
    ConfigError,
    main,
    parse_channel_spec,
    parse_noise_spec,
)
from mirrorbench.operators import SingleQubitClifford, clifford_named


def run_cli(*argv):
    return main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Noise spec grammar
# ---------------------------------------------------------------------------


def test_parse_channel_specs():
    assert parse_channel_spec("none", 2) is None
    dep = parse_channel_spec("depolarizing:0.02", 2)
    assert isinstance(dep, Depolarizing) and dep.p == 0.02
    damp = parse_channel_spec("amp_damp:0.1", 2)
    assert isinstance(damp, AmplitudeDamping) and damp.gamma == 0.1
    pauli2 = parse_channel_spec("pauli:0.01,0.02,0.03", 2)
    assert pauli2.n_qubits == 2
    pauli1 = parse_channel_spec("pauli:0.01,0.02,0.03", 1)
    assert pauli1.probs == (0.01, 0.02, 0.03)


def test_parse_noise_spec_with_override():
    model = parse_noise_spec("depolarizing:0.05@inverse=depolarizing:0.0")
    assert isinstance(model.two_qubit, Depolarizing)
    assert model.inverse_half_override == Depolarizing(0.0)
    plain = parse_noise_spec("none")
    assert plain.two_qubit is None and plain.inverse_half_override is None


def test_parse_noise_spec_rejects_garbage():
    for bad in ("boing:0.1", "depolarizing:x", "pauli:0.1,0.2",
                "depolarizing:0.1@backward=none", "depolarizing:2.0",
                "none:0.1"):
        with pytest.raises(ConfigError):
            parse_noise_spec(bad)


# ---------------------------------------------------------------------------
# Workflows
# ---------------------------------------------------------------------------


def _generate(tmp_path, n="2", lengths="2,3", circuits="2", seed="5"):
    out = tmp_path / "gen"
    code = run_cli("generate", "--n", n, "--lengths", lengths,
                   "--circuits", circuits, "--seed", seed, "--out", str(out))
    assert code == 0
    return out


def test_generate_writes_circuits_and_manifest(tmp_path):
    out = _generate(tmp_path)
    files = sorted(os.listdir(out / "circuits"))
    assert len(files) == 4
    assert files[0].startswith("circuit_L002_")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["tool"] == "mirrorbench"
    assert manifest["params"]["seed"] == 5


def test_generate_is_deterministic_per_file(tmp_path):
    a = _generate(tmp_path / "a")
    b = _generate(tmp_path / "b")
    for name in os.listdir(a / "circuits"):
        assert read_bytes(a / "circuits" / name) == read_bytes(b / "circuits" / name)


def test_generate_rejects_odd_qubits(tmp_path):
    code = run_cli("generate", "--n", "3", "--lengths", "2", "--circuits", "1",
                   "--seed", "1", "--out", str(tmp_path / "x"))
    assert code == 2


def _run(tmp_path, gen_out, noise="depolarizing:0.05", seed="7", backend="stabilizer",
         shots="200", extra=()):
    out = tmp_path / "run"
    code = run_cli("run", "--circuits", str(gen_out), "--noise", noise,
                   "--shots", shots, "--seed", seed, "--backend", backend,
                   "--out", str(out), *extra)
    return code, out


def test_run_and_fit_pipeline(tmp_path):
    gen = _generate(tmp_path)
    code, run_out = _run(tmp_path, gen)
    assert code == 0
    assert (run_out / "dataset.csv").exists()
    assert (run_out / "dataset.json").exists()
    fit_out = tmp_path / "fit"
    code = run_cli("fit", "--data", str(run_out / "dataset.csv"),
                   "--resamples", "50", "--seed", "3", "--out", str(fit_out))
    assert code == 0
    fit = json.loads((fit_out / "fit.json").read_text())
    assert set(fit) >= {"amplitude", "u", "baseline", "degenerate", "bootstrap_ci"}
    assert (fit_out / "decay.svg").read_text().startswith("<svg ")


def test_pipeline_outputs_are_byte_identical(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        gen = _generate(base)
        _, run_out = _run(base, gen)
        fit_out = base / "fit"
        assert run_cli("fit", "--data", str(run_out / "dataset.csv"),
                       "--resamples", "40", "--seed", "3",
                       "--out", str(fit_out)) == 0
        outputs.append((read_bytes(run_out / "dataset.csv"),
                        read_bytes(run_out / "dataset.json"),
                        read_bytes(fit_out / "fit.json"),
                        read_bytes(fit_out / "decay.svg")))
    assert outputs[0] == outputs[1]


def test_zero_noise_run_fits_degenerate(tmp_path):
    gen = _generate(tmp_path)
    code, run_out = _run(tmp_path, gen, noise="depolarizing:0.0")
    assert code == 0
    fit_out = tmp_path / "fit"
    assert run_cli("fit", "--data", str(run_out / "dataset.json"),
                   "--resamples", "0", "--seed", "0", "--out", str(fit_out)) == 0
    fit = json.loads((fit_out / "fit.json").read_text())
    assert fit["degenerate"] is True
    # survival is exactly one at every length
    with open(run_out / "dataset.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(int(r["successes"]) == int(r["shots"]) for r in rows)


def test_rerun_reproduces_outputs(tmp_path):
    gen = _generate(tmp_path)
    code, run_out = _run(tmp_path, gen)
    assert code == 0
    redo = tmp_path / "redo"
    code = run_cli("rerun", str(run_out / "manifest.json"), "--out", str(redo))
    assert code == 0
    assert read_bytes(redo / "dataset.csv") == read_bytes(run_out / "dataset.csv")
    assert read_bytes(redo / "dataset.json") == read_bytes(run_out / "dataset.json")


def test_run_amp_damp_requires_dense(tmp_path):
    gen = _generate(tmp_path)
    code, _ = _run(tmp_path, gen, noise="amp_damp:0.1")
    assert code == 2
    code, run_out = _run(tmp_path, gen, noise="amp_damp:0.1", backend="dense")
    assert code == 0
    assert (run_out / "dataset.csv").exists()


def test_run_with_inverse_override_and_1q_noise(tmp_path):
    gen = _generate(tmp_path)
    code, _ = _run(tmp_path, gen, noise="depolarizing:0.1@inverse=depolarizing:0.0",
                   extra=("--noise-1q", "pauli:0.01,0.0,0.02"))
    assert code == 0


def test_inverse_none_makes_the_mirrored_half_noiseless(tmp_path):
    gen = _generate(tmp_path, n="2", lengths="3,5", circuits="3")
    datasets = []
    for i, noise in enumerate(("depolarizing:0.3@inverse=none",
                               "depolarizing:0.3@inverse=depolarizing:0.0",
                               "depolarizing:0.3")):
        code, out = _run(tmp_path / str(i), gen, noise=noise, shots="2000")
        assert code == 0
        datasets.append(read_bytes(out / "dataset.csv"))
    assert datasets[0] == datasets[1]
    assert datasets[0] != datasets[2]


def test_run_bad_noise_spec_exits_2(tmp_path):
    gen = _generate(tmp_path)
    code, _ = _run(tmp_path, gen, noise="warp:0.1")
    assert code == 2


def test_run_missing_circuit_dir_exits_2(tmp_path):
    code, _ = _run(tmp_path, tmp_path / "nope")
    assert code == 2


def test_unwritable_output_exits_3(tmp_path):
    gen = _generate(tmp_path)
    code = run_cli("run", "--circuits", str(gen), "--noise", "none",
                   "--shots", "10", "--seed", "1",
                   "--out", "/proc/definitely/not/writable")
    assert code == 3


def test_fit_missing_dataset_exits_2(tmp_path):
    code = run_cli("fit", "--data", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "fit"))
    assert code == 2


def test_run_rejects_edited_circuit_exits_2(tmp_path):
    gen = _generate(tmp_path)
    path = sorted((gen / "circuits").glob("*.json"))[0]
    data = json.loads(path.read_text())
    gate = next(g for g in data["gates"] if g["gate"] == "c1")
    gate["index"] = clifford_named("H").compose(SingleQubitClifford(gate["index"])).index
    path.write_text(json.dumps(data))
    code, _ = _run(tmp_path, gen, noise="none")
    assert code == 2


def test_run_rejects_edited_mirror_start_exits_2(tmp_path):
    gen = _generate(tmp_path)
    path = sorted((gen / "circuits").glob("*.json"))[0]
    data = json.loads(path.read_text())
    data["mirror_start"] = 0
    path.write_text(json.dumps(data))
    code, _ = _run(tmp_path, gen, noise="depolarizing:0.3@inverse=none")
    assert code == 2


@pytest.mark.parametrize("params", [
    {},
    {"out": "fit"},
    {"seed": "3", "out": "fit"},
    {"seed": 3, "resamples": 2.5, "out": "fit"},
])
def test_rerun_with_incomplete_params_exits_2(tmp_path, params):
    data = tmp_path / "dataset.csv"
    data.write_text("n,L,circuit_id,shots,successes,seed\n"
                    "2,2,0,100,80,0\n"
                    "2,4,1,100,60,0\n")
    if params:
        params = dict(params, data=str(data), out=str(tmp_path / params["out"]))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "fit", "params": params}))
    assert run_cli("rerun", str(manifest)) == 2


def test_rerun_with_unknown_backend_exits_2(tmp_path):
    gen = _generate(tmp_path)
    code, run_out = _run(tmp_path, gen)
    assert code == 0
    manifest = json.loads((run_out / "manifest.json").read_text())
    manifest["params"]["backend"] = "tensor"
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("rerun", str(path), "--out", str(tmp_path / "redo")) == 2


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(mirrorbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, mirrorbench.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("shots,successes", [(0, 0), (10, 20), (10, -1)])
def test_fit_rejects_impossible_counts_exits_2(tmp_path, shots, successes):
    data = tmp_path / "dataset.csv"
    data.write_text("n,L,circuit_id,shots,successes,seed\n"
                    "2,2,0,100,80,0\n"
                    f"2,4,1,{shots},{successes},0\n")
    code = run_cli("fit", "--data", str(data), "--resamples", "0",
                   "--out", str(tmp_path / "fit"))
    assert code == 2


@settings(max_examples=25, deadline=None)
@given(shots=st.integers(-2, 60), successes=st.integers(-2, 70))
def test_fit_exit_code_follows_the_row_check(shots, successes):
    possible = shots >= 1 and 0 <= successes <= shots
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "dataset.csv")
        with open(data, "w") as fh:
            fh.write("n,L,circuit_id,shots,successes,seed\n"
                     "2,2,0,100,80,0\n"
                     f"2,4,1,{shots},{successes},0\n")
        code = run_cli("fit", "--data", data, "--resamples", "0",
                       "--out", os.path.join(tmp, "fit"))
    assert code == (0 if possible else 2)


@pytest.mark.parametrize("command,args", [
    ("run", ("6", "--backend", "dense")),  # dense holds n <= 4
    ("run", ("66", "--backend", "stabilizer")),  # stabilizer holds n <= 64
    ("fit", ("--resamples", "-5")),
    ("frame-potential", ("--samples", "1")),
    ("scatter", ("--shots", "0")),
    ("scatter", ("--circuits", "0")),
    ("scatter", ("--lengths", "0,2")),
    ("scatter", ("--lengths", "4,4")),
], ids=["dense-n6", "stabilizer-n66", "fit-resamples", "fp-samples", "scatter-shots",
        "scatter-circuits", "scatter-lengths", "scatter-one-length"])
def test_config_errors_exit_2(tmp_path, command, args):
    if command == "run":
        n, *args = args
        gen = _generate(tmp_path, n=n, lengths="1,2", circuits="1")
        base = ("--circuits", str(gen), "--noise", "none", "--seed", "1")
    elif command == "fit":
        data = tmp_path / "dataset.csv"
        data.write_text("n,L,circuit_id,shots,successes,seed\n"
                        "2,2,0,100,80,0\n"
                        "2,4,1,100,60,0\n")
        base = ("--data", str(data))
    elif command == "frame-potential":
        base = ("--n", "2", "--lengths", "0,1", "--seed", "1")
    else:
        base = ("--n", "2", "--experiments", "1", "--pmax", "0.05", "--seed", "1",
                "--lengths", "2,4", "--circuits", "1", "--shots", "10")
    assert run_cli(command, *base, *args, "--out", str(tmp_path / "out")) == 2


def test_frame_potential_command(tmp_path):
    out = tmp_path / "fp"
    code = run_cli("frame-potential", "--n", "2", "--lengths", "0,1,2",
                   "--samples", "64", "--seed", "9", "--out", str(out))
    assert code == 0
    with open(out / "frame_potential.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["L"]) for r in rows] == [0, 1, 2]
    assert float(rows[0]["phi2"]) == 256.0
    assert float(rows[0]["std_error"]) == 0.0
    assert (out / "frame_potential.svg").exists()
    assert (out / "manifest.json").exists()


def test_scatter_command(tmp_path):
    out = tmp_path / "sc"
    code = run_cli("scatter", "--n", "2", "--experiments", "2", "--pmax", "0.05",
                   "--seed", "4", "--lengths", "2,4", "--circuits", "2",
                   "--shots", "40", "--out", str(out))
    assert code == 0
    with open(out / "scatter.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {"p", "u_true", "u_est"}
    assert (out / "scatter.svg").exists()


def test_scatter_single_experiment_prints_no_spread(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("scatter", "--n", "2", "--experiments", "1", "--pmax", "0.05",
                       "--seed", "1", "--lengths", "2,4", "--circuits", "1",
                       "--shots", "10", "--out", str(tmp_path / "sc"))
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean(u_est - u_true)" in printed
    assert "std" not in printed and "nan" not in printed


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRRORBENCH_OUTPUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code = run_cli("generate", "--n", "2", "--lengths", "2", "--circuits", "1",
                   "--seed", "1")
    assert code == 0
    assert (tmp_path / "envout" / "generate" / "manifest.json").exists()


def test_version_flag():
    assert run_cli("--version") == 0


def test_usage_error_exits_2():
    assert run_cli("generate", "--n", "2") == 2  # missing required --seed
