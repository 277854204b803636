"""Golden outputs of the seed-7 demo, compared byte for byte.

The test regenerates the demo under a temporary directory with the CLI
the README documents (``synthdata --out demo --rows 2000``, ``run-grid``,
``report``, ``augment`` for each group of synth3 at pct 0.2) and compares
every output with ``tests/golden/``: results.csv, a sha256 manifest of
the prediction files, the report bundle, the run log without its
``seconds`` fields, and the three augmented CSVs. A change that moves a
number fails it, and the message lists the cells whose F1 moved.

The bytes depend on float64 ``exp``, which NumPy may compute differently
in the last bit on another CPU class, so ``platform.json`` records the
NumPy version and enabled CPU dispatch the files were made with, and a
failure prints both next to the current ones. A second test reruns the
demo's run-grid in a child process with the AVX-512 and AVX2 dispatch
disabled and compares results.csv and the prediction manifest, so the
outputs cannot come to depend on the dispatch level unseen.

A change that moves the outputs on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and states the per-cell deltas.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from augbench import cli, synthdata

GOLDEN = Path(__file__).parent / "golden"
GROUPS = ("EDA", "Syn", "BT")


def platform() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "cpu_dispatch": [t for t in umath.__cpu_dispatch__ if features.get(t)],
    }


def demo_outputs(workdir: Path) -> dict[str, bytes]:
    """Run the demo in ``workdir`` and return each golden file's bytes by
    its path under ``tests/golden/``. The config's paths are relative,
    so every command runs from ``workdir``."""
    os.chdir(workdir)
    synthdata.main(["--out", "demo", "--rows", "2000"])
    config = ["--config", "demo/config.json"]
    for argv in (
        ["run-grid", *config, "--out", "out"],
        ["report", "--results", "out/results.csv", "--out", "out/report"],
        *(["augment", *config, "--dataset", "synth3", "--group", group,
           "--pct", "0.2", "--out", "out/augment"] for group in GROUPS),
    ):
        assert cli.main(argv) == 0, argv
    out = workdir / "out"
    files = grid_outputs(out)
    for folder in ("report", "augment"):
        for path in sorted((out / folder).iterdir()):
            files[f"{folder}/{path.name}"] = path.read_bytes()
    records = [json.loads(line) for line in
               (out / "run_log.jsonl").read_text(encoding="utf-8").splitlines()]
    files["run_log.jsonl"] = "".join(
        json.dumps({k: v for k, v in r.items() if k != "seconds"},
                   ensure_ascii=False, sort_keys=True) + "\n"
        for r in records
    ).encode("utf-8")
    return files


def grid_outputs(out: Path) -> dict[str, bytes]:
    """results.csv and the sha256 manifest of the prediction files that
    ``run-grid --out out`` wrote."""
    return {
        "results.csv": (out / "results.csv").read_bytes(),
        "predictions.sha256": "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
            for path in sorted((out / "predictions").iterdir())
        ).encode(),
    }


def f1_by_cell(data: bytes) -> dict[tuple, str]:
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return {(r["dataset"], r["group"], r["subset_size"], r["aug_pct"],
             r["round"]): r["f1"] for r in rows}


def mismatch_message(got: dict[str, bytes], want: dict[str, bytes]) -> str:
    names = sorted(set(got) | set(want))
    lines = ["outputs differ from tests/golden/: "
             + ", ".join(n for n in names if got.get(n) != want.get(n))]
    if "results.csv" in want and got.get("results.csv") != want["results.csv"]:
        old, new = f1_by_cell(want["results.csv"]), f1_by_cell(got["results.csv"])
        for cell in sorted(set(old) | set(new)):
            if old.get(cell) != new.get(cell):
                lines.append(f"  f1 {'/'.join(cell)}: "
                             f"{old.get(cell)} -> {new.get(cell)}")
    recorded = json.loads((GOLDEN / "platform.json").read_text())
    lines.append(f"golden files made with {recorded}; this run: {platform()}")
    return "\n".join(lines)


def read_golden() -> dict[str, bytes]:
    return {str(p.relative_to(GOLDEN)): p.read_bytes()
            for p in sorted(GOLDEN.rglob("*"))
            if p.is_file() and p.name != "platform.json"}


def test_demo_outputs_equal_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # restores the working directory
    got = demo_outputs(tmp_path)
    capsys.readouterr()
    want = read_golden()
    assert len(want) == 15  # results, manifest, run log, 9 report files, 3 CSVs
    if got != want:
        pytest.fail(mismatch_message(got, want), pytrace=False)


# NumPy's AVX-512 and AVX2 dispatch targets; with them off, np.exp runs
# its baseline loops, which round some values differently.
OFF = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
# Run in a child process with NPY_DISABLE_CPU_FEATURES=OFF: exit 3 unless
# X86_V3 and X86_V4 are disabled, else the demo's run-grid in argv[2].
CHILD = """
import os, sys
sys.path.insert(0, sys.argv[1])
from test_golden import platform
from augbench import cli, synthdata
enabled = platform()["cpu_dispatch"]
if {"X86_V3", "X86_V4"} & set(enabled):
    print(f"X86_V3 or X86_V4 still enabled: {enabled}", file=sys.stderr)
    sys.exit(3)
os.chdir(sys.argv[2])
synthdata.main(["--out", "demo", "--rows", "2000"])
sys.exit(cli.main(["run-grid", "--config", "demo/config.json", "--out", "out"]))
"""


def test_grid_outputs_equal_golden_without_avx2_or_avx512(tmp_path):
    # The golden files were made with the dispatch that platform.json
    # records; the demo's run-grid gives the same bytes at the baseline
    # level too (about 1.5 s). The variable is set for the child alone.
    if "X86_V3" not in platform()["cpu_dispatch"]:
        pytest.skip("NumPy never enabled X86_V3 here, so disabling it and "
                    "X86_V4 leaves the dispatch the golden test runs at")
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": OFF,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    want = {name: data for name, data in read_golden().items()
            if name in ("results.csv", "predictions.sha256")}
    got = grid_outputs(tmp_path / "out")
    if got != want:
        pytest.fail(mismatch_message(got, want) + "\nthe child ran with "
                    f"NPY_DISABLE_CPU_FEATURES={OFF!r}", pytrace=False)


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        try:
            files = demo_outputs(Path(tmp))
        finally:
            os.chdir(cwd)
    for name, data in files.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (GOLDEN / "platform.json").write_text(json.dumps(platform(), indent=2) + "\n")


if __name__ == "__main__":
    write_golden()
