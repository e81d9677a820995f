"""End-to-end: synthesize an input bundle, run the report pipeline, and
poke at the artifacts it writes.

Equivalent to:

    python -m agrodiag report -c <dir>/config.json
"""
import json
import tempfile
from pathlib import Path

from agrodiag.config import load_run_config
from agrodiag.fixtures import write_synthetic_inputs
from agrodiag.pipeline import Run
from agrodiag.serialize import write_artifacts

with tempfile.TemporaryDirectory(prefix="agrodiag_demo_") as workdir:
    config_path = write_synthetic_inputs(Path(workdir))
    print(f"inputs written to {workdir}")

    config = load_run_config(config_path)
    run = Run(config)
    write_artifacts(config.output_dir, run.report())
    print(run.diagnosis.to_text())

    out = config.output_dir
    print(f"artifacts in {out}:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name:<22s} {path.stat().st_size:6d} bytes")

    diagnosis = json.loads((out / "diagnosis.json").read_text())
    print("\nbinding constraints, ranked by severity:")
    for label in diagnosis["binding_constraints"]:
        print(f"  {label}  (severity {diagnosis['severity'][label]:.2f})")

    rates = json.loads((out / "growth_rates.json").read_text())
    print(f"\nTFP growth by period ({rates['method']}):")
    for label, rate in rates["periods"].items():
        print(f"  {label:<16s} {rate:5.2f} %/yr")
