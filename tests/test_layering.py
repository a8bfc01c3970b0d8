"""Layering guards: the CI formulas, the data generator, the scramble,
the engine and Table 2 need no Spark, the scan engine holds the only
round loop, every module has a caller outside the tests, and every name
the benchmark's tracer wraps is bound on its owner.

Every ``repro.core`` and ``repro.fastframe`` module (the scramble and
its column store, the catalog, the bitmaps, the queries, the engine and
its COUNT/SUM wrapper), the generator and the Table 2 harness must
import in an interpreter where ``pyspark`` cannot be imported. Spark
stays in charge of collecting the source rows (``build_scramble``), the
generator's DataFrame (``flights``) and the exact Spark baselines, which
import it where they run; a Catalyst copy of the interval formulas, or
a module-level pyspark import on the query path, would fail here.
"""
from __future__ import annotations

import ast
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
    modules = ["repro.synth_data", "repro.experiments.table2"]
    for pkg in (repro.core, repro.fastframe):
        modules += [m.name for m in pkgutil.iter_modules(pkg.__path__, f"{pkg.__name__}.")]
    assert {"repro.core.vectorized", "repro.fastframe.scramble"} < set(modules)
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


def test_every_module_has_a_caller_outside_tests():
    """Each ``repro`` module is imported by ``src/``, ``jobs/`` or
    ``perfbench/``; test files do not count. ``repro.oracle`` is exempt:
    it is the tests' DuckDB reference."""
    root = pathlib.Path(repro.__file__).parents[2]
    imported = set()
    for top in ("src", "jobs", "perfbench"):
        for path in (root / top).rglob("*.py"):
            if "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.add(node.module)
                    imported.update(f"{node.module}.{a.name}" for a in node.names)
    modules = {
        m.name
        for m in pkgutil.walk_packages(repro.__path__, "repro.")
        if not m.ispkg
    }
    assert "repro.core.vectorized" in modules
    assert modules - imported == {"repro.oracle"}


def test_traced_names_are_bound_on_their_owners():
    """The benchmark's tracer replaces each ``(owner, attr)`` it wraps
    through ``vars(owner)``: every name must be bound on the owner itself,
    not inherited and not dropped as unused. No Spark is started."""
    from perfbench import spark_workloads

    pairs = spark_workloads.layer_wrappers() + spark_workloads.bounder_wrappers()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in pairs
        if attr not in vars(owner)
    ]
    assert not missing, missing
