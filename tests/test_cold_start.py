"""Cold start: PyYAML loads only where a config is read or echoed.

Every command and API call without a config skips the YAML library's import.
Each case runs in a fresh interpreter, so no module imported by another test
can hide an import; the benchmark's workload module is loaded from bench/
the way `test_bench_tracing` loads it, without changing it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_LOAD_WORKLOADS = f"""
import importlib.util
from pathlib import Path
spec = importlib.util.spec_from_file_location(
    "bench_workloads", {str(ROOT / "bench" / "workloads.py")!r})
workloads = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = workloads
spec.loader.exec_module(workloads)
"""

_CONFIG = """\
grid: {n: 16}
physics: {nu1: 0.01}
solver: {dt: 0.001, t_end: 0.01}
"""


def yaml_after(code: str, cwd: Path) -> list[bool]:
    """Whether yaml is in sys.modules at each `report()` of code, run in a fresh interpreter."""
    prelude = "import sys\ndef report():\n    print('yaml' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return [line == "True" for line in result.stdout.split()]


def test_importing_the_package_and_cli_skips_yaml(tmp_path):
    assert yaml_after("import ns2dsens, ns2dsens.cli\nreport()", tmp_path) == [False]


def test_a_workload_without_a_config_skips_yaml(tmp_path):
    code = _LOAD_WORKLOADS + "report()\nworkloads.SensFlow(1, Path('w'))\nreport()"
    assert yaml_after(code, tmp_path) == [False, False]


@pytest.mark.parametrize("first", ["load_config", "echo"])
def test_reading_or_echoing_a_config_loads_yaml(tmp_path, first):
    # load_config_data validates a parsed mapping without YAML; the file
    # read and the echo each import it on their own.
    (tmp_path / "run.yaml").write_text(_CONFIG, encoding="utf-8")
    code = (
        "from ns2dsens.runconfig import load_config, load_config_data\n"
        "cfg = load_config_data({'grid': {'n': 16}, 'physics': {'nu1': 0.01},"
        " 'solver': {'dt': 0.001, 't_end': 0.01}})\n"
        "report()\n"
        + ("load_config('run.yaml')\n" if first == "load_config" else "cfg.echo()\n")
        + "report()"
    )
    assert yaml_after(code, tmp_path) == [False, True]
