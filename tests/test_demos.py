"""The narrative demo scripts and the README quick start must stay
runnable."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs_clean(script, tmp_path):
    # a demo's scratch files go to the system temp dir, and are removed
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, TMPDIR=str(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "demo should narrate something"
    assert list(tmp_path.iterdir()) == []


def test_readme_quick_start_prints_effects_summing_to_100():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    percent = ast.literal_eval(proc.stdout.strip())
    assert percent.pop("total") == 100.0
    assert set(percent) == {"area_effect", "price_effect", "yield_effect",
                            "diversification_effect", "interaction_effect"}
    assert sum(percent.values()) == pytest.approx(100.0, abs=1e-9)
