"""End-to-end command-line workflows: determinism, manifests, exit codes."""

import csv
import json
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import mirrorbench
from mirrorbench.channels import AmplitudeDamping, Depolarizing
from mirrorbench.cli import (
    COMMANDS,
    ConfigError,
    build_parser,
    main,
    parse_channel_spec,
    parse_noise_spec,
)

from pauli_reference import after_hadamard


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


def test_run_with_two_jobs_writes_the_serial_dataset(tmp_path):
    # five circuits of one length load as one stack, which two workers run
    # as tasks of three and two circuits
    gen = _generate(tmp_path, lengths="3", circuits="5")
    datasets = []
    for jobs in ("1", "2"):
        code, out = _run(tmp_path / jobs, gen, extra=("--jobs", jobs))
        assert code == 0
        datasets.append((read_bytes(out / "dataset.csv"), read_bytes(out / "dataset.json")))
    assert datasets[0] == datasets[1]


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


def test_run_amp_damp_requires_dense(tmp_path):
    gen = _generate(tmp_path)
    code, _ = _run(tmp_path, gen, noise="amp_damp:0.1")
    assert code == 2
    code, run_out = _run(tmp_path, gen, noise="amp_damp:0.1", backend="dense")
    assert code == 0
    assert (run_out / "dataset.csv").exists()


@pytest.mark.parametrize("n", ["6", "8"])
def test_run_dense_above_four_qubits(tmp_path, n):
    gen = _generate(tmp_path, n=n, lengths="1,2", circuits="1")
    code, run_out = _run(tmp_path, gen, noise="amp_damp:0.05", backend="dense")
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


@pytest.mark.parametrize("backend", ["stabilizer", "dense"])
@pytest.mark.parametrize("noise,noise_1q", [
    ("pauli:nan,0,0", "none"),
    ("pauli:0,0,nan", "none"),
    ("depolarizing:0.01@inverse=pauli:0,nan,0", "none"),
    ("depolarizing:0.01", "pauli:nan,0,0"),
])
def test_run_nan_pauli_probability_exits_2(tmp_path, capsys, backend, noise, noise_1q):
    # a NaN probability is a configuration error on both backends, caught
    # before the output directory is made, not a channel that draws no fault
    gen = _generate(tmp_path)
    capsys.readouterr()
    code, out = _run(tmp_path, gen, noise=noise, backend=backend,
                     extra=("--noise-1q", noise_1q))
    assert code == 2
    assert "[0, 1]" in capsys.readouterr().err
    assert not out.exists()


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
    _extra_h_in_round_0(data)
    path.write_text(json.dumps(data))
    code, _ = _run(tmp_path, gen, noise="none")
    assert code == 2


def _extra_h_in_round_0(data):
    data["rounds"][0] = after_hadamard(data["rounds"][0])


def _flip_outcome_bit_0(data):
    data["expected_outcome"][0] ^= 1


@pytest.mark.parametrize("lengths,edited", [("3", 2), ("2,3", 7)])
@pytest.mark.parametrize("edit", [_extra_h_in_round_0, _flip_outcome_bit_0])
def test_run_names_the_edited_file_of_a_batch(tmp_path, capsys, edit, lengths, edited):
    # the files of one length are checked as one batch; an edit to one
    # integer of one file (the third of its batch) fails the run and names
    # that file alone
    gen = _generate(tmp_path, n="4", lengths=lengths, circuits="5")
    paths = sorted((gen / "circuits").glob("*.json"))
    data = json.loads(paths[edited].read_text())
    edit(data)
    paths[edited].write_text(json.dumps(data))
    capsys.readouterr()
    code, _ = _run(tmp_path, gen, noise="none")
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad circuit file {paths[edited].name}" in err
    assert not any(path.name in err for i, path in enumerate(paths) if i != edited)


def _bool_clifford(data):
    data["cliffords"][0] = bool(data["cliffords"][0])


FIELD_ERROR = "field 'cliffords' must hold only integers"
CHECK_ERROR = "circuit does not map each Z_q to +/-Z_q"


@pytest.mark.parametrize("first,second,renamed,named,message", [
    (_bool_clifford, _bool_clifford, True, 0, FIELD_ERROR),
    (_extra_h_in_round_0, _extra_h_in_round_0, False, 0, CHECK_ERROR),
    (_bool_clifford, _extra_h_in_round_0, True, 0, FIELD_ERROR),
    # a field error anywhere comes before any mirror check
    (_extra_h_in_round_0, _bool_clifford, True, 1, FIELD_ERROR),
    # the mirror checks run stack by stack in name order, so the first bad
    # file in name order is named
    (_extra_h_in_round_0, _extra_h_in_round_0, True, 0, CHECK_ERROR),
], ids=["fields", "checks", "field-then-check", "check-then-field", "checks-by-stack"])
def test_run_names_the_earlier_edited_file_of_two_stacks(tmp_path, capsys, first, second,
                                                         renamed, named, message):
    # two files edited, one of the L = 2 and one of the L = 3 stack; when
    # the first L = 3 file is renamed to sort first, it is a stack of its
    # own, read first, and the edited L = 3 file is in the last stack
    gen = _generate(tmp_path, n="4", lengths="2,3", circuits="3")
    circuits = gen / "circuits"
    if renamed:
        (circuits / "circuit_L003_003.json").rename(circuits / "a_circuit.json")
    edited = ["circuit_L002_001.json", "circuit_L003_004.json"]
    for name, edit in zip(edited, (first, second)):
        data = json.loads((circuits / name).read_text())
        edit(data)
        (circuits / name).write_text(json.dumps(data))
    capsys.readouterr()
    code, _ = _run(tmp_path, gen, noise="none")
    assert code == 2
    assert capsys.readouterr().err == f"error: bad circuit file {edited[named]}: {message}\n"


@pytest.mark.parametrize("first,second,renamed", [
    (_bool_clifford, _bool_clifford, True),
    (_extra_h_in_round_0, _extra_h_in_round_0, False),
    (_bool_clifford, _extra_h_in_round_0, True),
    (_extra_h_in_round_0, _bool_clifford, True),
    (_extra_h_in_round_0, _extra_h_in_round_0, True),
], ids=["fields", "checks", "field-then-check", "check-then-field", "checks-by-stack"])
def test_read_circuits_raises_the_error_run_prints(tmp_path, capsys, first, second, renamed):
    # run and the library share one reader: over the file sets of the test
    # above, read_circuits of the files in name order raises what run prints
    from mirrorbench.circuits import read_circuits
    gen = _generate(tmp_path, n="4", lengths="2,3", circuits="3")
    circuits = gen / "circuits"
    if renamed:
        (circuits / "circuit_L003_003.json").rename(circuits / "a_circuit.json")
    for name, edit in zip(["circuit_L002_001.json", "circuit_L003_004.json"], (first, second)):
        data = json.loads((circuits / name).read_text())
        edit(data)
        (circuits / name).write_text(json.dumps(data))
    with pytest.raises(ValueError) as info:
        read_circuits(sorted(circuits.glob("*.json")))
    capsys.readouterr()
    code, _ = _run(tmp_path, gen, noise="none")
    assert code == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("backend", ["stabilizer", "dense"])
def test_run_of_interleaved_lengths_is_simulate_survival_in_name_order(tmp_path, backend, jobs):
    # one L = 3 file renamed to sort first, so the names interleave lengths
    # (stacks L = 3, 2, 3): run's dataset is simulate_survival of each
    # file's read_circuit stack, in name order
    from mirrorbench.circuits import read_circuit
    from mirrorbench.simulator import read_dataset_json, simulate_survival
    gen = _generate(tmp_path, n="4", lengths="2,3", circuits="3")
    circuits = gen / "circuits"
    (circuits / "circuit_L003_004.json").rename(circuits / "a_circuit.json")
    code, out = _run(tmp_path, gen, backend=backend, extra=("--jobs", jobs))
    assert code == 0
    stacks = [read_circuit(path) for path in sorted(circuits.glob("*.json"))]
    expected = simulate_survival(stacks, parse_noise_spec("depolarizing:0.05"), 200, 7,
                                 backend=backend)
    assert read_dataset_json(out / "dataset.json") == expected
    assert [e.circuit_id for e in expected.entries] == [4, 0, 1, 2, 3, 5]


def test_generated_lengths_read_back_as_one_stack_each(tmp_path):
    # circuit_L1000_* sorts between circuit_L008_* and circuit_L100_*, yet
    # each length's files stay consecutive in name order
    from mirrorbench.circuits import read_circuits
    gen = _generate(tmp_path, n="2", lengths="8,100,1000", circuits="2")
    stacks = read_circuits(sorted((gen / "circuits").glob("*.json")))
    assert [(stack.length, stack.circuit_ids) for stack in stacks] == [
        (8, (0, 1)), (1000, (4, 5)), (100, (2, 3))]


DATA = os.path.join(os.path.dirname(__file__), "data")
V1_N4 = os.path.join(DATA, "v1_n4")


def test_version_1_circuits_reproduce_their_dataset(tmp_path):
    # circuits and dataset.csv written by the version-1 code (gate lists);
    # the fault sites, their order and the RNG stream of run are unchanged
    golden = os.path.join(DATA, "v1_n4")
    code, out = _run(tmp_path, golden, seed="5", shots="2000",
                     noise="pauli:0.01,0.002,0.005@inverse=depolarizing:0.02",
                     extra=("--noise-1q", "pauli:0.001,0.002,0.003"))
    assert code == 0
    assert read_bytes(out / "dataset.csv") == read_bytes(os.path.join(golden, "dataset.csv"))


def test_more_than_64_qubits_generate_and_load(tmp_path, capsys):
    from mirrorbench.circuits import circuit_to_json, read_circuit
    gen = _generate(tmp_path, n="66", lengths="1,2", circuits="1")
    paths = sorted((gen / "circuits").glob("*.json"))
    for path in paths:
        assert circuit_to_json(read_circuit(path)) == json.loads(path.read_text())
    paths[-1].write_text("{")  # never read: loading stops at the first wide file
    code, _ = _run(tmp_path, gen, noise="none", backend="stabilizer")
    assert code == 2  # the stabilizer backend holds n <= 64
    assert "limited to 64 qubits" in capsys.readouterr().err


def _v1_circuit():
    with open(os.path.join(DATA, "v1_n4", "circuits", "circuit_L002_000.json")) as fh:
        return json.load(fh)


def _set(key, value):
    def edit(data):
        data[key] = value
        return data
    return edit


def _set_clifford_index(value):
    def edit(data):
        next(g for g in data["gates"] if g["gate"] == "c1")["index"] = value
        return data
    return edit


def _set_entry(key, value):
    def edit(data):
        data["entries"][0][key] = value
        return data
    return edit


@pytest.mark.parametrize("kind,edit", [
    ("circuit", _set("n", None)),
    ("circuit", _set("gates", 5)),
    ("circuit", _set("layers", "x")),
    ("circuit", lambda data: [data]),
    ("circuit", _set_clifford_index(1.5)),
    ("circuit", _set_clifford_index(True)),
    ("circuit", _set("version", 2)),  # a version-1 body under version 2
    ("circuit", lambda data: dict(data, layers=[  # layer 0 pairs [0, 1], [2, 3]
        dict(data["layers"][0], matching=[[0, 1, 2], [3]])] + data["layers"][1:])),
    ("circuit-v2", _set("rounds", 5)),
    ("circuit-v2", _set("L", "2")),
    ("circuit-v2", lambda data: dict(data, paulis=data["paulis"][:-1] + [2.0])),
    ("circuit-v2", lambda data: dict(  # true == 1 and false == 0 as numbers
        data, expected_outcome=[bool(data["expected_outcome"][0])]
        + data["expected_outcome"][1:])),
    ("dataset", _set("entries", 5)),
    ("dataset", _set_entry("L", None)),
    ("dataset", _set_entry("shots", 2.5)),
    ("dataset", _set("n", [1])),
    ("dataset", lambda data: [data]),
], ids=["n-null", "gates-int", "layers-str", "circuit-list", "index-float",
        "index-bool", "version-mismatch", "pair-of-three", "rounds-int", "L-str", "pauli-float", "outcome-bool",
        "entries-int", "entry-L-null", "entry-shots-float", "n-list", "dataset-list"])
def test_wrong_json_types_exit_2(tmp_path, kind, edit):
    gen = tmp_path / "gen" / "circuits"
    gen.mkdir(parents=True)
    if kind == "dataset":
        data = {"version": 1, "n": 2, "entries": [
            {"L": 2, "circuit_id": 0, "shots": 100, "successes": 80, "seed": 0},
            {"L": 4, "circuit_id": 1, "shots": 100, "successes": 60, "seed": 0}]}
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(edit(data)))
        code = run_cli("fit", "--data", str(path), "--resamples", "0",
                       "--out", str(tmp_path / "fit"))
    else:
        if kind == "circuit":
            data = _v1_circuit()
        else:
            assert run_cli("generate", "--n", "2", "--lengths", "2", "--circuits", "1",
                           "--seed", "1", "--out", str(tmp_path / "gen")) == 0
            path = next(gen.glob("*.json"))
            data = json.loads(path.read_text())
            path.unlink()
        (gen / "circuit.json").write_text(json.dumps(edit(data)))
        code, _ = _run(tmp_path, tmp_path / "gen", noise="none")
    assert code == 2


def test_run_rejects_edited_mirror_start_exits_2(tmp_path):
    gen = _generate(tmp_path)
    path = sorted((gen / "circuits").glob("*.json"))[0]
    data = json.loads(path.read_text())
    data["mirror_start"] = 0
    path.write_text(json.dumps(data))
    code, _ = _run(tmp_path, gen, noise="depolarizing:0.3@inverse=none")
    assert code == 2


def data_files(root):
    """Every file under ``root`` but the manifest, by relative path."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


@pytest.mark.parametrize("argv", [
    ("generate", "--n", "2", "--lengths", "2,3", "--circuits", "2", "--seed", "5"),
    ("run", "--circuits", V1_N4, "--noise", "depolarizing:0.05", "--shots", "200",
     "--seed", "7", "--noise-1q", "pauli:0.01,0.0,0.02"),
    ("fit", "--data", os.path.join(V1_N4, "dataset.csv"), "--resamples", "50",
     "--seed", "3"),
    ("frame-potential", "--n", "2", "--lengths", "0,1,2", "--samples", "64",
     "--seed", "9"),
    ("scatter", "--n", "2", "--experiments", "2", "--pmax", "0.05", "--seed", "4",
     "--lengths", "2,4", "--circuits", "2", "--shots", "40"),
], ids=lambda argv: argv[0])
def test_rerun_reproduces_outputs(tmp_path, argv):
    first, redo = tmp_path / "first", tmp_path / "redo"
    assert run_cli(*argv, "--out", str(first)) == 0
    assert run_cli("rerun", str(first / "manifest.json"), "--out", str(redo)) == 0
    files = data_files(first)
    assert len(files) >= 2 and data_files(redo) == files
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["params"]["out"] = str(redo)
    assert json.loads((redo / "manifest.json").read_text()) == manifest


@pytest.mark.parametrize("argv,added", [
    (("run", "--circuits", V1_N4, "--noise", "depolarizing:0.05", "--shots", "200",
      "--seed", "7"), ("noise_1q", "jobs")),
    (("fit", "--data", os.path.join(V1_N4, "dataset.csv"), "--seed", "3"),
     ("resamples",)),
], ids=["run", "fit"])
def test_rerun_of_a_manifest_without_added_params(tmp_path, argv, added):
    # manifests written before --noise-1q, --jobs and --resamples existed
    # rerun with the defaults, and the manifest they write still lacks them
    fresh, redo = tmp_path / "fresh", tmp_path / "redo"
    assert run_cli(*argv, "--out", str(fresh)) == 0
    manifest = json.loads((fresh / "manifest.json").read_text())
    for key in added:
        del manifest["params"][key]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    assert run_cli("rerun", str(old), "--out", str(redo)) == 0
    assert data_files(redo) == data_files(fresh)
    manifest["params"]["out"] = str(redo)
    assert json.loads((redo / "manifest.json").read_text()) == manifest


def test_rerun_of_a_scatter_manifest_that_records_jobs(tmp_path):
    # written when scatter still took --jobs 2: the param is ignored, and
    # the study is the same to the byte
    old = os.path.join(DATA, "scatter_jobs")
    with open(os.path.join(old, "manifest.json")) as fh:
        assert json.load(fh)["params"]["jobs"] == 2
    assert run_cli("rerun", os.path.join(old, "manifest.json"),
                   "--out", str(tmp_path / "redo")) == 0
    assert (read_bytes(tmp_path / "redo" / "scatter.csv")
            == read_bytes(os.path.join(old, "scatter.csv")))


def valid_params(command, out):
    """A params dict from the command table: each flag's default, else "1"."""
    argv = [command, "--out", out]
    for name, _, default, _ in COMMANDS[command][2]:
        if default is None:
            argv += ["--" + name.replace("_", "-"), "1"]
    params = vars(build_parser().parse_args(argv))
    del params["command"]
    return params


# per kind of param, values of another JSON type (or no choice)
BAD_VALUES = {
    int: [True, 2.5, "2", None, [2], []],
    float: [True, "0.5", None, [0.5], []],
    str: [True, 2, 2.5, None, ["x"], []],
    "int list": [True, 2, 2.5, "2,4", None, [], [2.5], [True], [None]],
    "choices": [True, 2, None, ["stabilizer"], [], "tensor"],
}


def bad_edits(command, params):
    kinds = {name: kind for name, kind, *_ in COMMANDS[command][2]}
    kinds["out"] = str
    edits = [(name, "drop") for name in params
             if name not in ("noise_1q", "jobs", "resamples")]
    for name, kind in kinds.items():
        key = (kind if kind in (int, float, str)
               else "choices" if isinstance(kind, tuple) else "int list")
        edits += [(name, value) for value in BAD_VALUES[key]]
    edits += [("seed", -1), ("seed", -2 ** 40)]
    if "jobs" in params:
        edits += [("jobs", 0), ("jobs", -3)]
    below = {"circuits": 0, "shots": 0, "experiments": 0, "samples": 1, "resamples": -1}
    edits += [(name, value) for name, value in below.items() if kinds.get(name) is int]
    return edits


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_rerun_rejects_a_bad_manifest_param(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    calls = []

    def record(out, **params):
        calls.append(params)
        os.makedirs(out)

    _, help_text, table = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(COMMANDS, {command: (record, help_text, table)}):
        params = valid_params(command, os.path.join(tmp, "out"))
        manifest = os.path.join(tmp, "manifest.json")
        with open(manifest, "w") as fh:
            json.dump({"command": command, "params": params}, fh)
        assert run_cli("rerun", manifest, "--out", os.path.join(tmp, "ok")) == 0
        assert len(calls) == 1

        name, value = data.draw(st.sampled_from(bad_edits(command, params)))
        if value == "drop":
            del params[name]
        else:
            params[name] = value
        with open(manifest, "w") as fh:
            json.dump({"command": command, "params": params}, fh)
        assert run_cli("rerun", manifest) == 2
        assert len(calls) == 1
        assert sorted(os.listdir(tmp)) == ["manifest.json", "ok"]


@pytest.mark.parametrize("manifest", [
    [{"command": "fit", "params": {}}],
    {"command": ["fit"], "params": {}},
    {"command": "rerun", "params": {}},
    {"command": "fit", "params": []},
], ids=["list", "command-list", "command-rerun", "params-list"])
def test_rerun_of_a_malformed_manifest_exits_2(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert run_cli("rerun", str(path)) == 2


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


def _imported_by_cli(modules):
    """Which of ``modules`` a fresh ``import mirrorbench.cli`` loads."""
    src = os.path.dirname(os.path.dirname(mirrorbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, mirrorbench.cli; "
             f"print([m for m in {list(modules)!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert _imported_by_cli(["scipy"]) == "[]"


def test_cli_import_leaves_the_process_pool_out():
    # only simulate_survival's jobs > 1 branch needs them
    assert _imported_by_cli(["concurrent.futures", "multiprocessing"]) == "[]"


@pytest.mark.parametrize("rows", [
    ["2,2,0,100,80,0", "2,4,1,0,0,0"],
    ["2,2,0,100,80,0", "2,4,1,10,20,0"],
    ["2,2,0,100,80,0", "2,4,1,10,-1,0"],
    ["2,2,0,100,80,0", "2,0,1,100,80,0", "2,-2,2,100,80,0"],
    ["-2,2,0,100,80,0", "-2,4,1,100,60,0"],
    ["2,4,0,100,80,0", "2,4,1,100,60,0"],
], ids=["0-0", "10-20", "10--1", "L-below-1", "n-below-1", "one-length"])
def test_fit_rejects_impossible_counts_exits_2(tmp_path, rows):
    # rows of n, L, circuit_id, shots, successes, seed: in CSV and in JSON,
    # fit exits 2 before it writes anything
    columns = ("n", "L", "circuit_id", "shots", "successes", "seed")
    values = [[int(v) for v in row.split(",")] for row in rows]
    csv_data = tmp_path / "dataset.csv"
    csv_data.write_text("\n".join([",".join(columns)] + rows) + "\n")
    json_data = tmp_path / "dataset.json"
    json_data.write_text(json.dumps({
        "version": 1, "n": values[0][0],
        "entries": [dict(zip(columns[1:], row[1:])) for row in values]}))
    for data in (csv_data, json_data):
        out = tmp_path / f"fit_{data.suffix[1:]}"
        code = run_cli("fit", "--data", str(data), "--resamples", "0", "--out", str(out))
        assert code == 2
        assert not out.exists()


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
    ("run", ("10", "--backend", "dense")),  # dense holds n <= 8
    ("run", ("66", "--backend", "stabilizer")),  # stabilizer holds n <= 64
    ("fit", ("--resamples", "-5")),
    ("frame-potential", ("--samples", "1")),
    ("scatter", ("--shots", "0")),
    ("scatter", ("--circuits", "0")),
    ("scatter", ("--lengths", "0,2")),
    ("scatter", ("--lengths", "4,4")),
    ("generate", ("--seed", "-1")),
    ("run", ("2", "--seed", "-1")),
    ("fit", ("--seed", "-1")),
    ("frame-potential", ("--seed", "-1")),
    ("scatter", ("--seed", "-1")),
    ("run", ("2", "--jobs", "0")),
    ("run", ("2", "--jobs", "-3")),
    ("scatter", ("--n", "66")),  # scatter runs the stabilizer backend
], ids=["dense-n10", "stabilizer-n66", "fit-resamples", "fp-samples", "scatter-shots",
        "scatter-circuits", "scatter-lengths", "scatter-one-length", "generate-seed",
        "run-seed", "fit-seed", "fp-seed", "scatter-seed", "run-jobs-0", "run-jobs-neg",
        "scatter-n66"])
def test_config_errors_exit_2(tmp_path, command, args):
    # a later flag overrides the same flag in the base arguments
    if command == "generate":
        base = ("--n", "2", "--lengths", "1", "--circuits", "1")
    elif command == "run":
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
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("n_qubits,samples", [(4, 10000), (6, 2000)])
def test_frame_potential_csv_matches_golden_file(tmp_path, n_qubits, samples):
    # the stored rows and chart of these arguments, byte for byte; CI
    # compares the same files without the test extras
    out = tmp_path / "fp"
    assert run_cli("frame-potential", "--n", str(n_qubits), "--lengths",
                   "0,2,4,6,8,10,12,14,16", "--samples", str(samples), "--seed", "11",
                   "--out", str(out)) == 0
    golden = os.path.join(DATA, f"frame_potential_n{n_qubits}.csv")
    assert read_bytes(out / "frame_potential.csv") == read_bytes(golden)
    golden_svg = os.path.join(DATA, f"frame_potential_n{n_qubits}.svg")
    assert read_bytes(out / "frame_potential.svg") == read_bytes(golden_svg)


def test_fit_of_ten_lengths_matches_golden_files(tmp_path):
    # ten lengths, so numpy sums each fit's rows pairwise, and 1,100
    # resamples: two fit blocks, the second ending in a short grid chunk
    # (76 = 64 + 12 rows); CI compares the same files without the test
    # extras
    golden = os.path.join(DATA, "fit_l10")
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", os.path.join(golden, "dataset.csv"), "--resamples", "1100",
                   "--seed", "23", "--out", str(out)) == 0
    for name in ("fit.json", "decay.svg"):
        assert read_bytes(out / name) == read_bytes(os.path.join(golden, name))


def test_scatter_of_the_default_design_matches_golden_file(tmp_path):
    # n = 4, ten experiments of the default design: the L = 16 stack of 100
    # circuits spans two 64-circuit fault-table slices; CI compares the same
    # file without the test extras
    golden = os.path.join(DATA, "scatter_n4")
    assert run_cli("rerun", os.path.join(golden, "manifest.json"),
                   "--out", str(tmp_path / "redo")) == 0
    assert (read_bytes(tmp_path / "redo" / "scatter.csv")
            == read_bytes(os.path.join(golden, "scatter.csv")))
    assert (read_bytes(tmp_path / "redo" / "scatter.svg")
            == read_bytes(os.path.join(golden, "scatter.svg")))


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


@pytest.mark.parametrize("manifest_out,override", [("", None), ("elsewhere", "")],
                         ids=["manifest", "rerun-flag"])
def test_rerun_resolves_an_empty_out_like_the_flag(tmp_path, monkeypatch,
                                                  manifest_out, override):
    env, work = tmp_path / "env", tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("MIRRORBENCH_OUTPUT_DIR", str(env))
    monkeypatch.chdir(work)
    params = {"n": 2, "lengths": [2], "circuits": 1, "seed": 1, "out": manifest_out}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "generate", "params": params}))
    flags = () if override is None else ("--out", override)
    assert run_cli("rerun", str(manifest), *flags) == 0
    assert os.listdir(work) == []
    written = json.loads((env / "generate" / "manifest.json").read_text())
    assert written["params"]["out"] == str(env / "generate")


def test_version_flag():
    assert run_cli("--version") == 0


def test_usage_error_exits_2():
    assert run_cli("generate", "--n", "2") == 2  # missing required --seed


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_commands_parser_helps_and_fails_as_the_full_parser(command, capsys, monkeypatch):
    # main builds only the subparser of the command it is given, whose help,
    # errors and exit codes must read as the full parser's, usage line too
    def parsed(parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        return exc.value.code, capsys.readouterr()

    for argv in ([command, "--help"], [command, "--no-such-option", "1"],
                 [command, "--version"], [command]):
        assert parsed(build_parser(command), argv) == parsed(build_parser(), argv)
    built = []
    monkeypatch.setattr("mirrorbench.cli.build_parser",
                        lambda name=None: built.append(name) or build_parser(name))
    for argv in ([command, "--help"], ["--help"], ["rerun", "--help"], ["bogus"], []):
        main(argv)
    assert built == [command, None, None, None, None]
