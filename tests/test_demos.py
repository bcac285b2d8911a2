"""Every narrated tour under demos/ runs to completion against src/ and prints
its pinned text, and README's example config and quick start run."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from evogrid.cli import main

from conftest import one_thread_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 prefixes of each tour's stdout at one BLAS thread, the only count
# at which the conjugated values a tour prints are pinned
DEMO_STDOUT_SHA256 = {
    "01_algebra_tour.py": "527f9179d21e2b46",
    "02_measure_tour.py": "b764248a2d8c2de6",
    "03_dynamics_tour.py": "96005a5cc5a07679",
}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=one_thread_env(), capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest()[:16] == DEMO_STDOUT_SHA256[demo.name]


def _readme_block(heading: str, language: str) -> str:
    """The first `language` code block under README's `heading`."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


def test_readme_examples_run(tmp_path, capsys):
    config = tmp_path / "example.json"
    config.write_text(_readme_block("## Scenario configs", "json"), encoding="utf-8")
    assert main(["verify", str(config)]) == 0
    exec(_readme_block("## Library quick start", "python"), {})
    assert capsys.readouterr().out
