"""Golden pins: the counter-RNG stream, the default-config CSV bytes and
the names of the checks each default-config run makes.

Rerun equality (criterion 14) cannot see a change that moves every run the
same way; these pins can.  A change that moves a value here must update it
and say why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracstoch
from fracstoch.config import EXPERIMENTS, parse_config
from fracstoch.experiments import run
from fracstoch.fields import PeriodicGrid, lacunary_field
from fracstoch.rng import (
    LABEL_CELL_MULTIPLIER,
    LABEL_FORCING,
    LABEL_WHITE_NOISE,
    standard_normals,
)
from fracstoch.turbulence import synth_velocity

GOLDEN_DIR = Path(__file__).parent / "golden"
CSV_SHA256 = json.loads((GOLDEN_DIR / "csv_sha256.json").read_text())
CHECK_NAMES = json.loads((GOLDEN_DIR / "check_names.json").read_text())
BURGERS_2048_SHA256 = "b781f0479d8fe40b1b521985bff15ba35cf7b65ae3a02c81212014676ffb55b5"


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize(
    "call,expected",
    [
        # scalars
        (lambda: standard_normals(42, LABEL_CELL_MULTIPLIER, 0, 0), ["-0x1.108d91e8ce64bp-1"]),
        (lambda: standard_normals(42, LABEL_WHITE_NOISE, 3, 700), ["-0x1.c6fc37499c499p+0"]),
        # broadcast (replicate column) x (cell row), as the mollifier draws it
        (
            lambda: standard_normals(
                7, LABEL_WHITE_NOISE, np.arange(2)[:, None], np.arange(3)[None, :]
            ),
            [
                "-0x1.06f5f95d30493p+0",
                "0x1.2f113f024bb3ap+0",
                "0x1.4fa72193e33bcp+0",
                "-0x1.6fd8e8e6fc4fep-1",
                "0x1.461b666e0916bp+0",
                "-0x1.a38d03b996ff2p-2",
            ],
        ),
        # negative seeds and keys (two's-complement words)
        (lambda: standard_normals(-1, LABEL_CELL_MULTIPLIER, 5, -3), ["0x1.96e7185a39c20p-1"]),
        (lambda: standard_normals(-(2**40), LABEL_WHITE_NOISE, 0, 1), ["-0x1.08c0fde516920p+0"]),
        # one step of the burgers forcing: four modes, cosine lane
        (
            lambda: standard_normals(42, LABEL_FORCING, 17, np.arange(1, 5), 0),
            [
                "0x1.9f591379659e4p-3",
                "-0x1.09c9c66c32d55p+0",
                "-0x1.cbc1fa60d911fp-4",
                "-0x1.f7c3ce250c6f9p-2",
            ],
        ),
        # synth_velocity's coefficients, (0, k, lane) under LABEL_SYNTHETIC
        pytest.param(
            lambda: synth_velocity(PeriodicGrid(2.0 * np.pi, 8), 4.0, 2, 42).values,
            [
                "0x1.45559ecaaf89cp-2",
                "-0x1.7c403a341a7e8p+0",
                "-0x1.fdd669ea7f0b9p+0",
                "-0x1.fb625d3bdbabep-1",
                "0x1.4e7c4ee2994acp-3",
                "0x1.c37d8a43a3e0ep-1",
                "0x1.82b1785b7fffbp+0",
                "0x1.9832a3b036640p+0",
            ],
            id="synth_velocity",
        ),
        # lacunary_field's phases, the angles of the pairs (1, j) under LABEL_SYNTHETIC
        pytest.param(
            lambda: lacunary_field(0.5, seed=42)(1.0), ["-0x1.b28a9f82b5026p-3"], id="lacunary_field"
        ),
    ],
)
def test_standard_normals_golden_values(call, expected):
    assert _hex(call()) == expected


@pytest.mark.parametrize(
    "call,expected",
    [
        # replicate column x window row, as stochastic_samples_at draws it: 41 row blocks
        pytest.param(
            lambda: standard_normals(
                11, LABEL_WHITE_NOISE, np.arange(4096)[:, None], np.arange(327)[None, :]
            ),
            "05b21802ef2fb1c8543c4b6bc20b755a4e7747b3e1e43946c011cf2e24c0b10d",
            id="window_rows",
        ),
        # 488 replicate rows x 4096 cells with negative keys: 61 row blocks
        pytest.param(
            lambda: standard_normals(
                42, LABEL_CELL_MULTIPLIER, np.arange(488)[:, None], np.arange(-2048, 2048)
            ),
            "0963da3ce008eb6e67a4ee794808c47b3c0ba4120b2cf92c81de54fbf69f23df",
            id="noise_chunk",
        ),
    ],
)
def test_standard_normals_block_spanning_digests(call, expected):
    assert hashlib.sha256(call().tobytes()).hexdigest() == expected


def test_golden_digests_cover_every_experiment():
    assert sorted(CSV_SHA256) == sorted(EXPERIMENTS)
    assert sorted(CHECK_NAMES) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_default_config_csv_digest(name, tmp_path):
    report = run(parse_config(flags={"experiment": name, "out_dir": str(tmp_path)}))
    digest = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
    assert digest == CSV_SHA256[name]
    # the same run pins the check names and requires every check to pass
    assert sorted(c.name for c in report.checks) == CHECK_NAMES[name]
    assert [f"{c.name}: {c.detail}" for c in report.checks if not c.passed] == []


def test_burgers_csv_digest_across_block_boundaries(tmp_path):
    # the default runs stay inside one 512-step memory block; 2048 steps go
    # through three far-memory FFT convolutions.  Kept out of csv_sha256.json,
    # whose keys are the experiments' default configs.
    run(parse_config(flags={"experiment": "burgers", "steps": 2048, "out_dir": str(tmp_path)}))
    digest = hashlib.sha256((tmp_path / "burgers.csv").read_bytes()).hexdigest()
    assert digest == BURGERS_2048_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_burgers_digests_at_blas_thread_count(threads, tmp_path):
    # OpenBLAS reads its thread count once, at load, so each count needs a
    # fresh process; the pins above must hold at both
    runs = {"default": {}, "2048": {"steps": 2048}}
    flags = [dict(extra, experiment="burgers", out_dir=str(tmp_path / k)) for k, extra in runs.items()]
    src = str(Path(fracstoch.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = (
        "import json, sys\n"
        "from fracstoch.config import parse_config\n"
        "from fracstoch.experiments import run\n"
        "for flags in json.loads(sys.argv[1]):\n"
        "    run(parse_config(flags=flags))\n"
    )
    subprocess.run([sys.executable, "-c", child, json.dumps(flags)], env=env, check=True)
    digests = [hashlib.sha256((tmp_path / k / "burgers.csv").read_bytes()).hexdigest() for k in runs]
    assert digests == [CSV_SHA256["burgers"], BURGERS_2048_SHA256]


@pytest.mark.parametrize(
    "flags,expected",
    [
        pytest.param(
            {"experiment": "mollifier_rates", "n_list": "8,16,32,64,128", "points": 16384},
            "23313403631f0660523edced62be4b483517673554ea0d99ea75eee87c0693d4",
            id="mollifier_rates",
        ),
        pytest.param(
            {
                "experiment": "variance_scaling",
                "replicates": 20000,
                "n_list": "4,8,16,32",
                "seed": 11,
            },
            "897551d573ef0364a860187a1a5ace548f7cff56fe34de697cc8e5c676d48568",
            id="variance_scaling",
        ),
        pytest.param(
            {"experiment": "mse", "replicates": 5000, "seed": 11},
            "5c82daec4ae686e9bc30254a93a2893a02f1d703b8fb201aa8c916982434c867",
            id="mse",
        ),
    ],
)
def test_benchmark_config_csv_digest(flags, expected, tmp_path):
    # the scaled-up configs the benchmark workloads run; like the burgers pin
    # above, kept out of csv_sha256.json
    run(parse_config(flags=dict(flags, out_dir=str(tmp_path))))
    digest = hashlib.sha256((tmp_path / f"{flags['experiment']}.csv").read_bytes()).hexdigest()
    assert digest == expected
