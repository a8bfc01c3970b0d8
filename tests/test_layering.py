"""Layering guards: the CI formulas and Table 2 need no Spark, and the
scan engine holds the only round loop.

Every ``repro.core`` module, and the Table 2 harness built on them, must
import in an interpreter where ``pyspark`` cannot be imported. Spark
stays in charge of data generation, the scramble, the catalog and
ground truth; a Catalyst copy of the interval formulas in ``repro.core``
would fail here.
"""
from __future__ import annotations

import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import repro
import repro.core
import repro.fastframe


def test_core_imports_without_pyspark():
    modules = [
        f"repro.core.{m.name}" for m in pkgutil.iter_modules(repro.core.__path__)
    ]
    assert len(modules) > 5
    modules.append("repro.experiments.table2")
    code = "\n".join(
        ["import sys", "sys.modules['pyspark'] = None"]
        + [f"import {name}" for name in modules]
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_one_round_loop_in_fastframe():
    """Only ``engine.py`` runs an OptStop round loop: no other fastframe
    module may use the round schedule, the running intersection or the
    engine's pick-and-fold primitives."""
    loop_names = re.compile(r"\b(round_delta|RunningIntersection|_Scan)\b")
    pkg = pathlib.Path(repro.fastframe.__file__).parent
    users = {p.name for p in pkg.glob("*.py") if loop_names.search(p.read_text())}
    assert users == {"engine.py"}
