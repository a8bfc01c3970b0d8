"""The Spark workloads: ``cold_query``, ``cold_count_sum`` and ``warm_grid``.

Set-up builds the offline artifacts through the public API, the same way
``jobs/`` does: FLIGHTS data (``synth_data.flights``), the scramble and
its catalog (``fastframe.scramble.build_scramble``) and the column
bitmaps (``fastframe.bitmap.get_column_bitmap``); ``warm_grid`` also runs
``engine.prepare`` for every query. Set-up runs ``SETUP_REPS`` times in
one Spark session, and ``setup_s`` is the session start plus the median
repetition; the requests then run on the last repetition's artifacts.
Every repetition builds the same data, so the DuckDB ground truth
(``experiments.ground_truth``) is computed once, untimed.

``cold_query`` sends the nine F-queries at paper defaults and
``cold_count_sum`` sends COUNT and SUM on each F-query's view (its
predicate and measure, without its GROUP BY); both empty the per-query
prep cache before each request, so a request pays ``prepare`` and the
round loop. ``warm_grid`` sends the Table-5 grid, the Table-6 extra
strategies and four COUNT/SUM requests with all prep cached, so only the
round loops run. It is not declared in BENCHMARK.json: its latency is
single-threaded Python, whose speed drifted by up to 2x over minutes on
a shared 4-vCPU host, so its run-to-run spread exceeded the bounds. One
untimed pass of the requests runs before the measured ones. Every answer
is checked against the ground truth outside the timed region.

Right after each request, untimed as a request, a plain Spark query
computes the same aggregate exactly (``exact_seconds``) on a cached copy
of the scramble's rows that the benchmark lays out itself, so the
program cannot change how fast it runs. Its time is the request's
*exact baseline*. On a shared 4-vCPU host the speed of the whole machine
drifted by up to 2x over minutes, and both times drift together, so
latency relative to that baseline is the end-to-end time metric gated on.

After their requests, ``cold_count_sum`` and ``warm_grid`` make one
``run_table2()`` call, which feeds values one at a time through the
scalar bounders of
``core.bounders``, ``core.range_trim`` and ``core.stats``: the CI
formulas the engine evaluates vectorised per round. That call is not a
request: it is checked (every row must match the paper) and, in the
traced run, gives the scalar path's per-layer times.
"""
from __future__ import annotations

import dataclasses
import os
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import duckdb
import numpy as np

from perfbench.report import ClosedLoop, Outcome, Sample
from perfbench.spans import LayerTotals, Tracer
from repro import synth_data
from repro.core import bounders, optstop, stopping, vectorized
from repro.core.range_trim import RangeTrim
from repro.experiments import ground_truth, table2
from repro.experiments.table5 import BOUNDER_CONFIGS
from repro.experiments.table6 import TABLE6_QUERIES
from repro.fastframe import bitmap, count_sum_query, engine
from repro.fastframe import scramble as scramble_mod
from repro.fastframe.engine import EngineConfig
from repro.fastframe.queries import ALL_QUERIES

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
#: As the repository's own sessions (conftest.py, jobs/_session.py) set it.
SHUFFLE_PARTITIONS = 64
SETUP_REPS = 2
#: Partitions of the exact baseline's copy of the scramble. The program's
#: prep jobs run mostly one task each, and a one-partition baseline slows
#: as they do when the host does: with two CPU-bound processes beside a
#: cold_query run, speedup_vs_exact moved +0.3% with one partition and
#: +14% with four.
EXACT_PARTITIONS = 1
BITMAP_COLUMNS = ("Origin", "Airline", "DayOfWeek")
#: The COUNT/SUM requests of warm_grid aggregate this query's view.
COUNT_SUM_QUERY = "F-q1"
COUNT_SUM_REL_EPS = 0.05

#: Set-up layers: (metric, span, use self time rather than inclusive).
#: The scramble build calls the catalog build, so it reports self time.
SETUP_LAYERS = [
    ("synth_data.flights_s", "synth_data.flights", False),
    ("catalog.build_s", "catalog.build", False),
    ("scramble.build_s", "scramble.build", True),
    ("bitmap.column_build_s", "bitmap.column_build", False),
    ("engine.prepare_warm_s", "engine.prepare_warm", False),
]


def layer_wrappers():
    """(owner, attribute, span name) of each call the traced run records.

    Each function is wrapped where its caller looks it up: ``engine`` and
    ``count_sum_query`` imported ``prepare`` and ``n_plus`` by name, so
    both modules' bindings are wrapped.
    """
    wrappers = [
        (synth_data, "flights", "synth_data.flights"),
        (scramble_mod, "build_scramble", "scramble.build"),
        (scramble_mod, "build_catalog", "catalog.build"),
        (bitmap, "build_column_bitmap", "bitmap.column_build"),
        (engine, "group_bitmap_matrix", "bitmap.group_matrix"),
        (engine, "prepare", "engine.prepare"),
        (count_sum_query, "prepare", "engine.prepare"),
        (engine, "run_query", "engine.run_query"),
        (vectorized, "ci", "vectorized.ci"),
        (engine, "n_plus", "count_sum.n_plus"),
        (count_sum_query, "n_plus", "count_sum.n_plus"),
        (optstop.RunningIntersection, "update", "optstop.intersection"),
        (count_sum_query, "run_count_sum", "count_sum_query.run"),
    ]
    for obj in vars(stopping).values():
        if (
            isinstance(obj, type)
            and issubclass(obj, stopping.StoppingCondition)
            and "evaluate" in vars(obj)
        ):
            wrappers.append((obj, "evaluate", "stopping.evaluate"))
    return wrappers


def bounder_wrappers():
    """(owner, attribute, span name) of the scalar bounder calls recorded."""
    wrappers = []
    for cls in (
        bounders.HoeffdingSerfling,
        bounders.EmpiricalBernsteinSerfling,
        bounders.AndersonDKW,
        RangeTrim,
    ):
        layer = "range_trim" if cls is RangeTrim else "bounders"
        wrappers.append((cls, "update_state", f"{layer}.update"))
        wrappers += [(cls, side, f"{layer}.bound") for side in ("lbound", "rbound")]
    return wrappers


def check_table2(trace: bool) -> Tuple[Optional[str], Dict[str, float]]:
    """Run run_table2(): its error (None if every row matches the paper)
    and, if ``trace``, the self times of the scalar bounder layers."""
    tracer = Tracer()
    if trace:
        for owner, attr, name in bounder_wrappers():
            tracer.wrap(owner, attr, name)
    try:
        df = table2.run_table2()
    except Exception as exc:  # a failed check is counted, not fatal
        return f"run_table2: {type(exc).__name__}: {exc}", {}
    finally:
        tracer.unwrap_all()
    bad = df.loc[~df["matches_paper"], "bounder"].tolist()
    error = f"run_table2: rows not matching the paper: {bad}" if bad else None
    if not trace:
        return error, {}
    layers = tracer.drain()[0]
    return error, {
        "bounders.update_s": layers["bounders.update"].own,
        "bounders.update_calls": layers["bounders.update"].calls,
        "bounders.bound_s": layers["bounders.bound"].own,
        "range_trim.update_s": layers["range_trim.update"].own,
        "range_trim.bound_s": layers["range_trim.bound"].own,
    }


def start_session(tmp: str):
    """Start Spark on ``MASTER``, keeping its scratch files under ``tmp``."""
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    # Every JVM, the launcher spark-submit runs first included.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER}",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None


def count_sum_views() -> Dict[str, object]:
    """Each F-query's view, without its GROUP BY, once per distinct view."""
    views: Dict[str, object] = {}
    for name, make in ALL_QUERIES.items():
        spec = dataclasses.replace(make(), group_cols=())
        if all(v.signature() != spec.signature() for v in views.values()):
            views[name] = spec
    return views


@dataclass
class Truth:
    """Exact answers: each F-query's decision, and COUNT/SUM of each view."""

    decisions: Dict[str, object]
    count_sum: Dict[Tuple[str, str], float]  # (view, agg) -> exact value


def ground_truths(sc) -> Truth:
    """Exact answers over the scramble's rows, in DuckDB."""
    flights = ground_truth.flights_pandas(sc)
    decisions = {
        name: ground_truth.exact_decision(make(), flights)
        for name, make in ALL_QUERIES.items()
    }
    count_sum = {}
    con = duckdb.connect()
    try:
        con.register("flights", flights)
        for name, spec in count_sum_views().items():
            c, s = con.execute(
                f"SELECT COUNT({spec.agg_col}), SUM({spec.agg_col}) "
                f"FROM flights{spec.predicate_sql()}"
            ).fetchone()
            count_sum[name, "COUNT"], count_sum[name, "SUM"] = float(c), float(s or 0.0)
    finally:
        con.close()
    return Truth(decisions, count_sum)


def build_artifacts(spark, sf: float, seed: int, warm: bool, tracer: Tracer):
    """One set-up: data, scramble, catalog, bitmaps (and prep if ``warm``)."""
    df = synth_data.flights(spark, sf=sf, seed=seed)
    sc = scramble_mod.build_scramble(df, seed=seed + 1)
    for col in BITMAP_COLUMNS:
        bitmap.get_column_bitmap(sc, col)
    if warm:
        with tracer.span("engine.prepare_warm"):
            for make in ALL_QUERIES.values():
                engine.prepare(sc, make())
    return sc


def clear_query_cache(sc) -> None:
    """Forget per-query prep, keeping the column bitmaps (offline artifacts)."""
    cache = getattr(sc, "prep_cache", {})
    for key in [k for k in cache if k[0] != "bitmap"]:
        del cache[key]


@dataclass
class Request:
    """One engine query (``config`` set) or one COUNT/SUM query (``agg`` set)."""

    name: str
    spec: object
    truth: object
    config: Optional[EngineConfig] = None
    agg: Optional[str] = None
    rel_eps: Optional[float] = None

    @property
    def label(self) -> str:
        if self.agg is not None:
            return f"{self.name} {self.agg} rel_eps={self.rel_eps}"
        return f"{self.name} {self.config.label()} {self.config.strategy}"


def cold_requests(n_blocks: int, truth: Truth, rng: np.random.Generator) -> List[Request]:
    """The nine F-queries at paper defaults (Bernstein+RT, active_peek)."""
    return [
        Request(
            name,
            make(),
            truth.decisions[name],
            config=EngineConfig(
                bounder="bernstein",
                range_trim=True,
                strategy="active_peek",
                delta=1e-15,
                start_block=int(rng.integers(n_blocks)),
            ),
        )
        for name, make in ALL_QUERIES.items()
    ]


def count_sum_requests(n_blocks: int, truth: Truth, rng: np.random.Generator) -> List[Request]:
    """COUNT and SUM on each F-query's view, to a relative width of 5%."""
    return [
        Request(name, spec, truth.count_sum[name, agg], agg=agg, rel_eps=COUNT_SUM_REL_EPS)
        for name, spec in count_sum_views().items()
        for agg in ("COUNT", "SUM")
    ]


def warm_requests(n_blocks: int, truth: Truth, rng: np.random.Generator) -> List[Request]:
    """Table-5 grid, Table-6 extra strategies, and COUNT/SUM on F-q1's view."""
    reqs = []

    def add(name, bounder, rt, strategy):
        cfg = EngineConfig(
            bounder=bounder,
            range_trim=rt,
            strategy=strategy,
            delta=1e-15,
            start_block=int(rng.integers(n_blocks)),
        )
        reqs.append(Request(name, ALL_QUERIES[name](), truth.decisions[name], config=cfg))

    for name in ALL_QUERIES:
        add(name, "exact", False, "scan")
        for _, bounder, rt in BOUNDER_CONFIGS:
            add(name, bounder, rt, "active_peek")
    for name in TABLE6_QUERIES:
        for strategy in ("scan", "active_sync"):
            add(name, "bernstein", True, strategy)
    for agg in ("COUNT", "SUM"):
        for rel_eps in (COUNT_SUM_REL_EPS, None):
            reqs.append(
                Request(
                    COUNT_SUM_QUERY,
                    ALL_QUERIES[COUNT_SUM_QUERY](),
                    truth.count_sum[COUNT_SUM_QUERY, agg],
                    agg=agg,
                    rel_eps=rel_eps,
                )
            )
    return reqs


def execute(sc, req: Request):
    if req.agg is None:
        return engine.run_query(sc, req.spec, req.config)
    return count_sum_query.run_count_sum(sc, req.spec, req.agg, rel_eps=req.rel_eps)


def check(req: Request, res) -> Optional[str]:
    """None if the answer is right, else what is wrong with it."""
    if req.agg is None:
        if ground_truth.decision_correct(req.spec, res, req.truth):
            return None
        return f"{req.label}: decision {res.decision!r} != {req.truth!r}"
    tol = 1e-9 * max(1.0, abs(req.truth))
    if res.lo - tol <= req.truth <= res.hi + tol:
        return None
    return f"{req.label}: [{res.lo}, {res.hi}] misses {req.truth}"


def exact_copy(sc):
    """The scramble's rows, cached in ``EXACT_PARTITIONS`` partitions."""
    ref = sc.df.repartition(EXACT_PARTITIONS).cache()
    ref.count()
    return ref


def exact_seconds(ref, req: Request) -> float:
    """A plain Spark query computing ``req``'s aggregate exactly on ``ref``:
    a groupBy/agg of the AVGs, or the COUNT or SUM of the view."""
    from pyspark.sql import functions as F

    spec = req.spec
    t0 = time.perf_counter()
    df = ref
    pred = spec.predicate_spark()
    if pred is not None:
        df = df.filter(pred)
    if req.agg is None:
        df.groupBy(*spec.group_cols).agg(F.avg(spec.agg_col)).collect()
    else:
        df.agg((F.count if req.agg == "COUNT" else F.sum)(spec.agg_col)).collect()
    return time.perf_counter() - t0


class _Run:
    """State of one workload run: requests sent and what tracing saw."""

    def __init__(self, spark, sc, ref, requests, cold: bool, trace: bool):
        self.spark = spark
        self.sc = sc
        self.ref = ref
        self.requests = requests
        self.cold = cold
        self.trace = trace
        self.tracer = Tracer()
        self.samples: List[Sample] = []
        self.layers: Dict[str, LayerTotals] = {}
        self.children: Dict[tuple, float] = {}
        self.traced_results: List[tuple] = []  # (request, result)
        self.prepare_per_request: List[float] = []
        self.jobs = 0
        self.tasks = 0

    def run_pass(self, traced: bool) -> None:
        if traced:
            for owner, attr, name in layer_wrappers():
                self.tracer.wrap(owner, attr, name)
        try:
            for position, req in enumerate(self.requests):
                self._request(position, req, traced)
        finally:
            self.tracer.unwrap_all()

    def _request(self, position: int, req: Request, traced: bool) -> None:
        ctx = self.spark.sparkContext
        if self.cold:
            clear_query_cache(self.sc)
        group = f"perfbench-{len(self.samples)}"
        if traced:
            ctx.setJobGroup(group, req.label)
        res, latency = None, None
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("request"):
                    res = execute(self.sc, req)
            else:
                res = execute(self.sc, req)
            latency = time.perf_counter() - t0
            error = check(req, res)
        except Exception as exc:  # a failed request is counted, not fatal
            latency = latency or time.perf_counter() - t0
            error = f"{req.label}: {type(exc).__name__}: {exc}"
        if traced:
            self._account(group, req, res)
        self.samples.append(
            Sample(
                position,
                latency,
                exact_seconds(self.ref, req),
                res.rows_scanned if res is not None else 0,
                res.blocks_fetched if res is not None else 0,
                traced,
                error,
            )
        )

    def _account(self, group: str, req: Request, res) -> None:
        ctx = self.spark.sparkContext
        ctx.setLocalProperty("spark.jobGroup.id", None)
        status = ctx.statusTracker()
        for job in status.getJobIdsForGroup(group):
            self.jobs += 1
            info = status.getJobInfo(job)
            for stage in info.stageIds if info else ():
                sinfo = status.getStageInfo(stage)
                self.tasks += sinfo.numTasks if sinfo else 0
        layers, children = self.tracer.drain()
        for name, tot in layers.items():
            self.layers.setdefault(name, LayerTotals()).add(tot)
        for key, secs in children.items():
            self.children[key] = self.children.get(key, 0.0) + secs
        if self.cold:
            self.prepare_per_request.append(
                layers.get("engine.prepare", LayerTotals()).total
            )
        if res is not None:
            self.traced_results.append((req, res))


def run(opts) -> Outcome:
    """Run ``opts.workload``; see the module doc."""
    warm = opts.workload == "warm_grid"
    cold = not warm
    seed, trace = opts.seed, opts.trace
    out = Outcome()
    t0 = time.perf_counter()
    spark = start_session(opts.tmp)
    session_s = time.perf_counter() - t0
    try:
        setup_tracer = Tracer()
        reps, rep_layers, sc = [], [], None
        for _ in range(SETUP_REPS):
            if sc is not None:
                sc.df.unpersist(blocking=True)
            if trace:
                for owner, attr, name in layer_wrappers():
                    setup_tracer.wrap(owner, attr, name)
            try:
                t = time.perf_counter()
                sc = build_artifacts(spark, opts.sf, seed, warm, setup_tracer)
                reps.append(time.perf_counter() - t)
            finally:
                setup_tracer.unwrap_all()
            rep_layers.append(setup_tracer.drain()[0])
        out.setup_s = session_s + statistics.median(reps)
        t = time.perf_counter()
        truth = ground_truths(sc)
        truth_s = time.perf_counter() - t
        t = time.perf_counter()
        ref = exact_copy(sc)
        exact_copy_s = time.perf_counter() - t

        make_requests = {
            "cold_query": cold_requests,
            "cold_count_sum": count_sum_requests,
            "warm_grid": warm_requests,
        }[opts.workload]
        requests = make_requests(sc.n_blocks, truth, np.random.default_rng(seed))
        # An untimed pass first: Spark compiles each query's plan on its
        # first run, and a run's first pass would otherwise pay for it.
        _Run(spark, sc, ref, requests, cold, trace=False).run_pass(False)
        state = _Run(spark, sc, ref, requests, cold, trace)
        loop = ClosedLoop(state.run_pass, trace)
        loop.run(opts.seconds)
        out.samples = state.samples
        scalar = opts.workload != "cold_query"
        if scalar:
            error, bounder_layers = check_table2(trace)
            out.checks.append(error)
        out.record.update(
            master=MASTER,
            driver_memory=DRIVER_MEMORY,
            shuffle_partitions=SHUFFLE_PARTITIONS,
            n_blocks=sc.n_blocks,
            n_rows=sc.n_rows,
            requests_per_pass=len(requests),
            passes=loop.passes,
            session_start_s=session_s,
            setup_reps_s=reps,
            exact_copy_s=exact_copy_s,
        )
        if trace:
            exact_blocks = {
                name: engine.run_query(
                    sc, make(), EngineConfig(bounder="exact", strategy="scan")
                ).blocks_fetched
                for name, make in ALL_QUERIES.items()
            }
            out.per_layer = _per_layer(state, session_s, rep_layers, sc, exact_blocks)
            out.per_layer["ground_truth.truth_s"] = truth_s
            if scalar:
                out.per_layer.update(bounder_layers)
            n_traced = sum(s.traced for s in state.samples)
            out.record.update(
                run_query_children_s={
                    child: secs / n_traced
                    for (parent, child), secs in state.children.items()
                    if parent == "engine.run_query"
                },
                prepare_s_per_request=state.prepare_per_request,
                exact_blocks=exact_blocks,
            )
    finally:
        stop_session(spark)
    return out


def _per_layer(state: _Run, session_s, rep_layers, sc, exact_blocks) -> Dict[str, float]:
    """Per-layer metrics of the traced passes.

    Set-up layers are medians over the set-up repetitions. Span times and
    call counts are per traced request; ``engine.*`` counts are per engine
    query and ``count_sum_query.*`` per COUNT/SUM query. The baseline
    speedups divide the exact baseline's time by the untraced latency
    (end to end) and by the traced round-loop time, the request minus
    ``prepare``.
    """
    traced = [s for s in state.samples if s.traced]
    untraced = [s for s in state.samples if not s.traced]
    n = len(traced)
    lat_traced = sum(s.latency for s in traced)

    def layer(name) -> LayerTotals:
        return state.layers.get(name, LayerTotals())

    m: Dict[str, float] = {"session.start_s": session_s}
    for metric, span, own in SETUP_LAYERS:
        vals = [
            getattr(rep.get(span, LayerTotals()), "own" if own else "total")
            for rep in rep_layers
        ]
        m[metric] = statistics.median(vals)
    m["scramble.partitions"] = sc.df.rdd.getNumPartitions()
    m["spark.jobs_per_query"] = state.jobs / n
    m["spark.tasks_per_job"] = state.tasks / max(1, state.jobs)

    prep = layer("engine.prepare")
    m["engine.prepare_s"] = prep.total / n
    m["engine.prepare_self_s"] = prep.own / n
    m["bitmap.group_matrix_s"] = layer("bitmap.group_matrix").total / n
    m["engine.prepare_share"] = prep.total / lat_traced
    m["engine.run_query_s"] = layer("engine.run_query").total / n
    m["engine.loop_self_s"] = layer("engine.run_query").own / n
    m["vectorized.ci_s"] = layer("vectorized.ci").total / n
    m["vectorized.ci_calls"] = layer("vectorized.ci").calls / n
    m["count_sum.n_plus_s"] = layer("count_sum.n_plus").total / n
    m["optstop.intersection_s"] = layer("optstop.intersection").total / n
    m["stopping.evaluate_s"] = layer("stopping.evaluate").total / n
    m["stopping.evaluate_calls"] = layer("stopping.evaluate").calls / n

    eng = [(q, r) for q, r in state.traced_results if q.agg is None]
    if eng:
        blocks = sum(r.blocks_fetched for _, r in eng)
        m["engine.rounds"] = sum(r.rounds for _, r in eng) / len(eng)
        m["engine.blocks_fetched"] = blocks / len(eng)
        m["engine.rows_scanned"] = sum(r.rows_scanned for _, r in eng) / len(eng)
        m["engine.index_probes"] = sum(r.index_probes for _, r in eng) / len(eng)
        m["engine.probes_per_block"] = m["engine.index_probes"] * len(eng) / max(1, blocks)
        approx = [(q, r) for q, r in eng if q.config.bounder != "exact"]
        m["engine.blocks_vs_exact"] = sum(r.blocks_fetched for _, r in approx) / max(
            1, sum(exact_blocks[q.name] for q, _ in approx)
        )
    cs = [(q, r) for q, r in state.traced_results if q.agg is not None]
    if cs:
        m["count_sum_query.run_s"] = layer("count_sum_query.run").total / len(cs)
        m["count_sum_query.blocks_fetched"] = sum(r.blocks_fetched for _, r in cs) / len(cs)

    exact_traced = sum(s.exact for s in traced)
    m["baseline.spark_exact_s"] = exact_traced / n
    m["baseline.speedup_e2e"] = sum(s.exact for s in untraced) / sum(
        s.latency for s in untraced
    )
    m["baseline.speedup_loop"] = exact_traced / (layer("request").total - prep.total)
    return m
