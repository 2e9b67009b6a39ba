"""The traced run: per-layer metrics from spans around qcat's public calls.

A traced job replays its subcommands as the library calls ``qcat.cli``
makes, in the same order, with a span around each call into a layer
(``quantale``, ``category``, ``causal``, ``modules``). Job time that no
span covers is the CLI's own: argument parsing, file reads and writes and
the payload dump. Two calls are split further in an untimed second pass
over the same input (a *probe*): ``toposort`` inside ``from-dag``, and the
validation, grid, enumeration and decisions inside ``complete``.

A traced run replays one round of every workload, so that every layer
metric exists in every traced run; each metric is read from the jobs of
the workload it is attributed to (``METRICS``). The quantale scalar rates
and ``cli.self_s`` come from ``--workload`` itself, whose jobs also run
untraced, each back to back with its traced replay, to give the tracing
overhead. Spans stay in memory and are written to ``.work/`` when the run
ends.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from qcat import cli
from qcat.category import (
    category_from_json,
    category_to_json,
    classify_endohoms,
    preorder_dot,
    underlying_preorder,
    validate_category,
)
from qcat.causal import CycleError, causal_space_from_dag, dag_from_text, minkowski_sample, toposort
from qcat.modules import (
    canonical_right_adjoint,
    cauchy_completeness_report,
    check_adjunction,
    compose,
    default_module_grid,
    enumerate_modules_into,
    module_from_json,
    module_to_json,
)
from qcat.quantale import (
    Kind,
    format_value,
    join,
    leq,
    meet,
    parse_value,
    qval_sort_key,
    residual,
    split_top_level,
    tensor,
)

import workloads
from workloads import canonical_json

# metric -> (span, workload whose jobs it is read from, statistic)
#   "job": median over jobs of the time spent in the span per job
#   "rate": total work / total time; "per_work": total time / total work
METRICS = {
    "category.from_json_s": ("category.from_json", "ingest", "job"),
    "category.to_json_s": ("category.to_json", "ingest", "job"),
    "category.validate_s": ("category.validate", "exact", "job"),
    "category.validate_triples_per_s": ("category.validate", "exact", "rate"),
    "category.classify_endohoms_s": ("category.classify_endohoms", "sprinkle", "job"),
    "category.underlying_preorder_s": ("category.underlying_preorder", "ingest", "job"),
    "causal.minkowski_sample_s": ("causal.minkowski_sample", "sprinkle", "job"),
    "causal.dag_from_text_s": ("causal.dag_from_text", "ingest", "job"),
    "causal.toposort_s": ("causal.toposort", "ingest", "job"),
    "causal.from_dag_s": ("causal.from_dag", "ingest", "job"),
    "causal.hom_entries_per_s": ("causal.from_dag", "ingest", "rate"),
    "modules.from_json_s": ("modules.from_json", "exact", "job"),
    "modules.compose_s": ("modules.compose", "exact", "job"),
    "modules.compose_terms_per_s": ("modules.compose", "exact", "rate"),
    "modules.report_s": ("modules.report", "cauchy", "job"),
    "modules.default_grid_s": ("modules.default_grid", "cauchy", "job"),
    "modules.enumerate_s": ("modules.enumerate", "cauchy", "job"),
    "modules.decide_s_per_module": ("modules.decide", "cauchy", "per_work"),
    "modules.modules_per_s": ("modules.report", "cauchy", "rate"),
}
QUANTALE_PAIRS = 2000
QUANTALE_MIN_SECONDS = 0.2


class Span:
    __slots__ = ("name", "job", "parent", "probe", "start", "end", "work")

    def __init__(self, rec: "Recorder", name: str, work: int):
        self.name, self.work = name, work
        self.job, self.probe = rec.job, rec.probe
        self.parent = rec.stack[-1].name if rec.stack else None
        self.start = self.end = 0


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: str | None = None
        self.probe = False

    def span(self, name: str, work: int = 0) -> "_Open":
        return _Open(self, Span(self, name, work))


class _Open:
    __slots__ = ("rec", "span")

    def __init__(self, rec: Recorder, span: Span):
        self.rec, self.span = rec, span

    def __enter__(self) -> Span:
        self.rec.stack.append(self.span)
        self.span.start = perf_counter_ns()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = perf_counter_ns()
        self.rec.stack.pop()
        self.rec.spans.append(self.span)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _grid(text: str | None):
    return [parse_value(p.strip()) for p in split_top_level(text)] if text else None


def replay(rec: Recorder, argv: list[str]) -> int:
    """Run one subcommand as the calls ``qcat.cli`` makes; returns the exit
    code the CLI would give. Covers the subcommands the workloads use."""
    args = cli.build_parser().parse_args(argv)
    cmd = argv[0]
    if cmd == "validate":
        text = _read(args.category)
        with rec.span("category.from_json"):
            cat = category_from_json(json.loads(text), where=args.category)
        with rec.span("category.validate", work=len(cat) ** 3):
            report = validate_category(cat)
        payload = {"objects": list(cat.objects), "report": report.to_json()}
        ok = report.ok
        if cat.quantale.kind is Kind.RBOT:
            with rec.span("category.classify_endohoms"):
                endo = classify_endohoms(cat)
            payload["endohoms"] = endo.to_json()
            ok = ok and endo.ok
        canonical_json({"status": "ok" if ok else "violations", **payload})
        return 0 if ok else 1
    if cmd == "compose":
        mods = []
        for path in (args.first, args.second):
            text = _read(path)
            with rec.span("modules.from_json"):
                mods.append(module_from_json(json.loads(text), where=path))
        m, n = mods
        with rec.span("modules.compose", work=len(m.target) * len(n.source) * len(m.source)):
            out = compose(m, n)
        with rec.span("modules.to_json"):
            text = canonical_json(module_to_json(out))
        Path(args.output).write_text(text, encoding="utf-8")
        shape = [len(out.target), len(out.source)]
        canonical_json({"status": "ok", "output": args.output, "shape": shape})
        return 0
    if cmd == "minkowski":
        bounds = tuple(float(p) for p in args.bounds.split(","))
        with rec.span("causal.minkowski_sample", work=args.n**2):
            cat, events = minkowski_sample(args.n, args.seed, bounds)
        with rec.span("category.to_json"):
            text = canonical_json(category_to_json(cat))
        Path(args.output).write_text(text, encoding="utf-8")
        events = [[e.t, e.x] for e in events]
        canonical_json({"status": "ok", "output": args.output, "events": events, "seed": args.seed})
        return 0
    if cmd == "from-dag":
        text = _read(args.edges)
        with rec.span("causal.dag_from_text"):
            dag = dag_from_text(text)
        try:
            with rec.span("causal.from_dag", work=len(dag.vertices) ** 2):
                cat = causal_space_from_dag(dag)
        except CycleError as exc:
            canonical_json({"status": "error", "error": f"{args.edges}: {exc}"})
            return 2
        with rec.span("category.to_json"):
            text = canonical_json(category_to_json(cat))
        Path(args.output).write_text(text, encoding="utf-8")
        canonical_json({"status": "ok", "output": args.output, "objects": list(cat.objects)})
        return 0
    if cmd == "underlying":
        text = _read(args.category)
        with rec.span("category.from_json"):
            cat = category_from_json(json.loads(text), where=args.category)
        with rec.span("category.underlying_preorder", work=len(cat) ** 2):
            edges = underlying_preorder(cat)
        if args.dot:
            with rec.span("category.preorder_dot"):
                dot = preorder_dot(cat.objects, edges)
            Path(args.dot).write_text(dot, encoding="utf-8")
        canonical_json({"status": "ok", "edges": sorted([list(e) for e in edges]), "dot": args.dot})
        return 0
    if cmd == "complete":
        text = _read(args.category)
        with rec.span("category.from_json"):
            cat = category_from_json(json.loads(text), where=args.category)
        grid = _grid(args.grid)
        with rec.span("modules.report") as s:
            report = cauchy_completeness_report(cat, grid)
        s.work = report.modules_checked
        canonical_json({"status": "ok" if report.complete else "violations", **report.to_json()})
        return 0 if report.complete else 1
    raise ValueError(f"the traced replay does not cover qcat {cmd}")


def probe(rec: Recorder, argv: list[str]) -> None:
    """Untimed second pass that splits a call the replay timed as one span."""
    args = cli.build_parser().parse_args(argv)
    if argv[0] == "from-dag":
        dag = dag_from_text(_read(args.edges))
        with rec.span("causal.toposort", work=len(dag.vertices)):
            toposort(dag)
    elif argv[0] == "complete":
        cat = category_from_json(json.loads(_read(args.category)))
        grid = _grid(args.grid)
        with rec.span("modules.report_validate"):
            validate_category(cat)
        if grid is None:
            with rec.span("modules.default_grid"):
                grid = default_module_grid(cat)
        grid = tuple(sorted(set(grid), key=qval_sort_key))
        with rec.span("modules.enumerate"):
            found = list(enumerate_modules_into(cat, grid))
        with rec.span("modules.decide", work=len(found)):
            for m in found:
                check_adjunction(m, canonical_right_adjoint(m))


def traced_job(rec: Recorder, workload: str, job, tag: str) -> tuple[str, float]:
    """Replay a job with spans; returns (outcome, job seconds)."""
    gc.collect()
    rec.job, rec.probe = f"{workload}/{job.label}/{tag}", False
    t0 = perf_counter()
    try:
        codes = [replay(rec, argv) for argv in job.steps]
    except Exception as exc:  # a traceback out of qcat: the operation failed
        print(f"traced {job.label}: failed: {type(exc).__name__}", file=sys.stderr)
        return "failed", perf_counter() - t0
    seconds = perf_counter() - t0
    rec.probe = True
    for argv in job.steps:
        probe(rec, argv)
    if codes != job.codes:
        print(f"traced {job.label}: exit codes {codes}, expected {job.codes}", file=sys.stderr)
        return "wrong", seconds
    return "ok", seconds


def layer_metrics(rec: Recorder, passed: set[str]) -> dict[str, float]:
    """The ``METRICS`` from the spans of jobs that passed."""
    out = {}
    for metric, (span, workload, stat) in METRICS.items():
        mine = [
            s for s in rec.spans
            if s.name == span and s.job in passed and s.job.startswith(workload + "/")
        ]
        per_job: dict[str, float] = {}
        for s in mine:
            per_job[s.job] = per_job.get(s.job, 0.0) + (s.end - s.start) / 1e9
        seconds, work = sum(per_job.values()), sum(s.work for s in mine)
        if stat == "job":
            out[metric] = statistics.median(per_job.values())
        elif stat == "rate":
            out[metric] = work / seconds
        else:
            out[metric] = seconds / work
    return out


def cli_self(rec: Recorder, job_seconds: dict[str, float]) -> float:
    """Median over jobs of the job time that no top-level span covers."""
    covered = dict.fromkeys(job_seconds, 0.0)
    for s in rec.spans:
        if s.job in covered and s.parent is None and not s.probe:
            covered[s.job] += (s.end - s.start) / 1e9
    return statistics.median(job_seconds[j] - covered[j] for j in job_seconds)


def quantale_rates(files: list[Path], seed: int) -> dict[str, float]:
    """Scalar operations per second on operand pairs drawn from the hom
    values of the workload's own files."""
    rng = random.Random(f"quantale:{seed}")
    cats = []
    for path in files:
        data = json.loads(path.read_text(encoding="utf-8"))
        raw = [v for row in data["hom"] for v in row]
        cats.append((category_from_json(data), raw))
    pairs, strings = [], []
    for _ in range(QUANTALE_PAIRS):
        cat, raw = rng.choice(cats)
        n = len(cat)
        i, j, k, l = (rng.randrange(n) for _ in range(4))
        pairs.append((cat.quantale, cat.hom[i][j], cat.hom[k][l]))
        strings.append(raw[i * n + j])
    ops = {
        "leq": lambda: [leq(q, a, b) for q, a, b in pairs],
        "tensor": lambda: [tensor(q, a, b) for q, a, b in pairs],
        "join": lambda: [join(q, (a, b)) for q, a, b in pairs],
        "meet": lambda: [meet(q, (a, b)) for q, a, b in pairs],
        "residual": lambda: [residual(q, a, b) for q, a, b in pairs],
        "parse_value": lambda: [parse_value(s) for s in strings],
        "format_value": lambda: [format_value(a) for _, a, _ in pairs],
    }
    rates = {}
    for name, op in ops.items():
        count, t0 = 0, perf_counter()
        while perf_counter() - t0 < QUANTALE_MIN_SECONDS:
            op()
            count += QUANTALE_PAIRS
        rates[f"quantale.{name}_per_s"] = count / (perf_counter() - t0)
    return rates


def traced_run(workload: str, seed: int, seconds: float, work: Path, spans_path: Path) -> dict:
    """Whole rounds of traced replays of every workload until ``seconds`` of
    traced job time; returns the result object with the per-layer metrics."""
    rounds = {}
    for w in workloads.WORKLOADS:
        (work / w).mkdir()
        rounds[w] = workloads.ROUNDS[w](seed, work / w)
    own = rounds[workload]
    workloads.run_job(own[0])  # untimed warm-up
    rec = Recorder()
    outcomes: list[str] = []
    plain: list[float] = []
    traced: dict[str, float] = {}

    def trace(w: str, job, tag: str) -> float:
        outcome, t = traced_job(rec, w, job, tag)
        outcomes.append(outcome)
        if outcome == "ok":
            traced[rec.job] = t
        return t

    elapsed, n = 0.0, 0
    while elapsed < seconds:
        for job in own:  # untraced and traced back to back, for the overhead
            outcome, t = workloads.run_job(job)
            outcomes.append(outcome)
            if outcome == "ok":
                plain.append(t)
            elapsed += trace(workload, job, f"r{n}")
        for w in workloads.WORKLOADS:
            if w != workload:
                elapsed += sum(trace(w, job, f"r{n}") for job in rounds[w])
        n += 1
    passed = set(traced)
    metrics = layer_metrics(rec, passed)
    own_traced = {j: t for j, t in traced.items() if j.startswith(workload + "/")}
    metrics["cli.self_s"] = cli_self(rec, own_traced)
    metrics.update(quantale_rates([f for job in own for f in job.value_files], seed))
    t_plain, t_traced = statistics.median(plain), statistics.median(own_traced.values())
    print(
        f"trace overhead on {workload}: job p50 {t_traced:.4f} s traced, {t_plain:.4f} s "
        f"untraced, {t_traced - t_plain:+.4f} s ({(t_traced / t_plain - 1) * 100:+.1f} %)"
    )
    spans_path.write_text(
        json.dumps([{k: getattr(s, k) for k in Span.__slots__} for s in rec.spans]) + "\n",
        encoding="utf-8",
    )
    units = {name: "1/s" if name.endswith("per_s") else "s" for name in metrics}
    return {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": outcomes.count("failed"),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
