"""Pinned output bits: a fixed set of CLI runs and the sha256 of every file they write.

The runs execute in one subprocess under a fixed numerical profile: one
OpenBLAS thread, OpenBLAS's Haswell kernels and numpy's AVX2 dispatch level.
The band factor and solve, and some numpy reductions, give different bits
under other kernels, SIMD levels and library versions, so the table holds
for this profile and the numpy and scipy versions it names only. Every
file but `resolved_config.txt`, which names the output directory, is
hashed. `tests/test_pinned_bits.py` compares a fresh set of hashes with
the committed table `tests/pinned_bits.json`.

Re-record the table (after a change that is meant to move output bits):

    PYTHONPATH=src python tests/pinned_bits.py

The runs:
- the six modes of `configs/tracking.cfg` (n = 8, band path, kappa <= 1);
- `configs/boundary-control.cfg` and `configs/distributed-control.cfg` in
  optimize mode;
- `tracking.cfg` in report mode at grid.n = 12, where no quadrature weight
  is a power of two, and at grid.n = 16, in the chord regime on the band
  factor;
- `tracking.cfg` in solve mode at grid.n = 104 and time.m = 2, on SuperLU.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

import acopt
from acopt.cli_io import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_suffix(".json")

PROFILE = {
    "OPENBLAS_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

TRACKING_MODES = ("solve", "optimize", "report", "verify-gradient", "verify-taylor", "verify-curvature")

# (name, config under configs/, mode, config lines replaced)
RUNS = (
    *((f"tracking-{mode}", "tracking.cfg", mode, {}) for mode in TRACKING_MODES),
    ("boundary-control-optimize", "boundary-control.cfg", "optimize", {}),
    ("distributed-control-optimize", "distributed-control.cfg", "optimize", {}),
    ("tracking-report-n12", "tracking.cfg", "report", {"grid.n": "12"}),
    ("tracking-report-n16", "tracking.cfg", "report", {"grid.n": "16"}),
    ("tracking-solve-n104", "tracking.cfg", "solve", {"grid.n": "104", "time.m": "2"}),
)


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def unsupported(recorded):
    """Why this host cannot run the profile the table was recorded under, or None where it can."""
    if platform.machine() not in ("x86_64", "AMD64"):
        return f"the pinned profile needs x86-64 OpenBLAS kernels, not {platform.machine()}"
    from numpy._core._multiarray_umath import __cpu_features__

    missing = [name for name in ("AVX2", "FMA3") if not __cpu_features__.get(name)]
    if missing:
        return f"the pinned profile needs Haswell's {' and '.join(missing)}, which this CPU lacks"
    if versions() != recorded:
        return f"the table was recorded under {recorded}, this host runs {versions()}"
    return None


def _config(name, path, replaced, workdir):
    """The config at path with each `key = value` line of replaced swapped in; its path."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for key, value in replaced.items():
        hits = [k for k, line in enumerate(lines) if line.split("=")[0].strip() == key]
        assert len(hits) == 1, f"{path.name} sets {key} {len(hits)} times"
        lines[hits[0]] = f"{key} = {value}"
    out = Path(workdir, f"{name}.cfg")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def _run_all(outdir):
    """Run every configured run in this process into outdir/<name>; exits 1 if one fails."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, config, mode, replaced in RUNS:
            path = _config(name, ROOT / "configs" / config, replaced, workdir)
            with contextlib.redirect_stdout(io.StringIO()):
                status = main([str(path), "--mode", mode, "--output-dir", str(Path(outdir, name))])
            if status != 0:
                sys.exit(f"{name}: exit status {status}")


def hashes(outdir):
    """Run the set in a subprocess under the profile; {run/file: sha256} of what it wrote."""
    src = str(Path(acopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **PROFILE)
    done = subprocess.run(
        [sys.executable, __file__, "--run", str(outdir)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return {
        file.relative_to(outdir).as_posix(): hashlib.sha256(file.read_bytes()).hexdigest()
        for file in sorted(Path(outdir).rglob("*"))
        if file.is_file() and file.name != "resolved_config.txt"
    }


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        _run_all(sys.argv[2])
    else:
        reason = unsupported(versions())
        if reason:
            sys.exit(reason)
        with tempfile.TemporaryDirectory() as tmp:
            files = hashes(tmp)
        table = {"versions": versions(), "files": files}
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(files)} files in {TABLE}")
