"""The narrative demo scripts and the README quick start must stay
runnable."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agrodiag.config import load_run_config
from agrodiag.errors import SchemaError
from agrodiag.tree import COMPARATORS

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


def test_readme_run_config_loads_and_every_key_is_read(tmp_path):
    """The README's run-config example loads, and a bad value at any key
    it shows is refused naming that key, so no key it documents goes
    unread by ``load_run_config``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Run config", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(example))
    assert load_run_config(path).crop_panel == tmp_path / "crops.csv"

    def leaves(obj, prefix=""):
        for key, value in obj.items():
            if isinstance(value, dict):
                yield from leaves(value, f"{prefix}{key}.")
            else:
                yield f"{prefix}{key}"

    keys = list(leaves(example))
    assert "methods.tfp_base_year" in keys and "periods.overall" in keys
    for key in keys:
        config = json.loads(json.dumps(example))
        *owners, leaf = key.split(".")
        target = config
        for owner in owners:
            target = target[owner]
        target[leaf] = {}  # no leaf of a run config is an object
        path.write_text(json.dumps(config))
        with pytest.raises(SchemaError) as info:
            load_run_config(path)
        assert str(info.value).startswith(f"config {path}: {key} ")


def test_readme_lists_every_comparator_in_order():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Diagnostic tree schema", 1)[1]
    bullet = section.split("\n* Comparators: `", 1)[1]
    assert tuple(bullet.split("`", 1)[0].split()) == COMPARATORS
