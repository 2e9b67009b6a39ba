"""Seeded inputs, jobs and output checks of the four workloads.

A job is what a user types: one or two ``qcat`` subcommands, run in-process
through ``qcat.cli.main``. Every workload builds one *round* of jobs from
``--seed``; a run repeats whole rounds, so each run attempts the same mix.
Sizes are fixed per job slot and the seed only draws the structure, so the
cost of a round moves little from seed to seed. Each job carries a check
that compares qcat's outputs with an independent computation (``checks``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
from qcat import cli

import calibrate
import checks
from checks import require

WORKLOADS = ("sprinkle", "exact", "ingest", "cauchy")


@dataclass
class StepResult:
    code: int
    out: str


@dataclass
class Job:
    label: str
    steps: list[list[str]]
    codes: list[int]  # the exit code each step must end with
    check: Callable[[list[StepResult]], None]
    # hom files whose values feed the traced run's scalar microbenchmark
    value_files: list[Path] = field(default_factory=list)


def invoke(argv: list[str]) -> StepResult:
    """Run ``qcat <argv>`` in this process; any exception but SystemExit
    propagates, since the CLI promises exit codes, not tracebacks."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["qcat", *argv]
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.argv = saved
    require(isinstance(code, int), f"qcat {argv[0]} ended without an exit code")
    return StepResult(code, out.getvalue())


def run_job(job, calibrated: bool = False) -> tuple[str, float]:
    """Run a job's steps in-process, timed, then check them untimed.

    Returns ("ok" | "wrong" | "failed", seconds); "failed" means a step
    raised instead of ending with an exit code. With ``calibrated`` each
    step is bracketed by untimed host-speed probes and the seconds are
    those of the reference host (``calibrate``); otherwise wall time.
    """
    gc.collect()
    results = []
    seconds = 0.0
    before = calibrate.probe() if calibrated else 0.0
    for argv in job.steps:
        t0 = perf_counter()
        try:
            results.append(invoke(argv))
            error = None
        except Exception as exc:  # a traceback out of qcat: the operation failed
            error = exc
        t = perf_counter() - t0
        if calibrated:
            after = calibrate.probe()
            t, before = calibrate.scale(t, before, after), after
        seconds += t
        if error is not None:
            print(f"{job.label}: failed: {type(error).__name__}: {str(error)[:200]}",
                  file=sys.stderr)
            return "failed", seconds
    try:
        job.check(results)
    except Exception:  # any mismatch or malformed output fails the check
        print(f"{job.label}: wrong output:\n{traceback.format_exc(limit=3)}", file=sys.stderr)
        return "wrong", seconds
    return "ok", seconds


def _payload(r: StepResult, code: int) -> dict:
    require(r.code == code, f"exit code {r.code}, expected {code}: {r.out[:200]}")
    return json.loads(r.out)


def canonical_json(data: object) -> str:
    """JSON as the qcat CLI writes it: sorted keys, indent 2, final newline."""
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _write_json(path: Path, data: object) -> None:
    path.write_text(canonical_json(data), encoding="utf-8")


def _category(quantale, objects, hom) -> dict:
    return {"quantale": quantale, "tolerance": 0, "objects": objects, "hom": hom}


# ---------------------------------------------------------------------------
# sprinkle: minkowski --n 200, then validate (float path, tolerance 1e-9).

SPRINKLE_N = 200
SPRINKLE_JOBS = 4
SPRINKLE_FAULTY = (3,)  # job slots that validate a copy with a planted fault


def _sprinkle_check(
    sample: Path, expected: set | None, results: list[StepResult]
) -> None:
    mk, val = results
    payload = _payload(mk, 0)
    require(payload["status"] == "ok", "minkowski status")
    events = np.array(payload["events"], dtype=np.float64)
    require(events.shape == (SPRINKLE_N, 2), "minkowski event count")
    data = json.loads(sample.read_text(encoding="utf-8"))
    require(data["quantale"] == "rbot" and data["tolerance"] == 1e-9, "sprinkle base")
    require(data["objects"] == [f"p{i}" for i in range(SPRINKLE_N)], "sprinkle labels")
    hom = checks.rbot_matrix(data["hom"])
    want = checks.proper_times(events)
    bot = want == checks.BOT
    require(np.array_equal(hom == checks.BOT, bot), "causal pairs differ from dt >= |dx|")
    require(np.allclose(hom[~bot], want[~bot], rtol=0, atol=1e-12), "proper times differ")
    report = _payload(val, 0 if expected is None else 1)
    endo = report["endohoms"]
    require(endo["ok"] and not endo["violations"], "endohom violations")
    require(set(endo["classes"].values()) == {"regular"}, "a sprinkled event is not regular")
    require(not report["report"]["unit_violations"], "unit violations")
    got = {tuple(int(o[1:]) for o in v["via"]) for v in report["report"]["composition_violations"]}
    if expected is None:
        require(report["status"] == "ok" and not got, "a valid sprinkle has violations")
    else:
        require(report["status"] == "violations", "planted fault not reported")
        require(got == expected, f"violations differ: {len(got)} found, {len(expected)} expected")


def sprinkle(seed: int, work: Path) -> list[Job]:
    rng = random.Random(f"sprinkle:{seed}")
    jobs = []
    for slot in range(SPRINKLE_JOBS):
        s = rng.randrange(1, 2**31)
        sample = work / f"sprinkle{slot}.json"
        mk = ["minkowski", "--n", str(SPRINKLE_N), "--seed", str(s), "-o", str(sample)]
        target, expected = sample, None
        if slot in SPRINKLE_FAULTY:
            target, expected = _plant_sprinkle_fault(mk, sample, work / f"faulty{slot}.json")
        jobs.append(
            Job(
                f"sprinkle{slot}",
                [mk, ["validate", str(target)]],
                [0, 0 if expected is None else 1],
                partial(_sprinkle_check, sample, expected),
                [target],
            )
        )
    return jobs


def _plant_sprinkle_fault(mk: list[str], sample: Path, faulty: Path):
    """Halve the largest off-diagonal proper time, far beyond the tolerance,
    and list the triples the numpy check finds on the faulty copy."""
    invoke(mk)
    data = json.loads(sample.read_text(encoding="utf-8"))
    a = checks.rbot_matrix(data["hom"])
    off = np.where(np.eye(len(a), dtype=bool), checks.BOT, a)
    i, k = np.unravel_index(int(np.argmax(off)), off.shape)
    data["hom"][i][k] = str(Fraction(data["hom"][i][k]) / 2)
    a[i, k] /= 2
    _write_json(faulty, data)
    return faulty, checks.float_violations(a, data["tolerance"])


# ---------------------------------------------------------------------------
# exact: validate and compose m.json m.json at tolerance 0.

EXACT_SLOTS = (  # (base, objects, planted fault)
    ("rbot", 60, False),
    ("rbot", 60, True),
    ("lawvere", 40, False),
    ("lawvere", 40, True),
    ("product", 30, False),
    ("product", 30, True),
)
DAG_EDGE_P = 0.08  # causal sets: edge probability between ordered vertices
METRIC_EXTRA_EDGES = 2  # metrics: random arcs per point beside a ring
METRIC_MAX_WEIGHT = 9


def _random_causal_set(n: int, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < DAG_EDGE_P]
    dist = checks.longest_paths(n, edges)
    return np.maximum(dist, 0), dist >= 0


def _random_metric(n: int, rng: random.Random) -> np.ndarray:
    big = 10**9
    d = np.full((n, n), big, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i in range(n):
        arcs = [(i + 1) % n] + [rng.randrange(n) for _ in range(METRIC_EXTRA_EDGES)]
        for j in arcs:
            if j != i:
                d[i, j] = min(d[i, j], rng.randint(1, METRIC_MAX_WEIGHT))
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def _exact_check(
    cat: dict, want_square: list[list[str]], expected: set, out: Path, results: list[StepResult]
) -> None:
    val, comp = results
    n = len(cat["objects"])
    report = _payload(val, 1 if expected else 0)
    require(not report["report"]["unit_violations"], "unit violations")
    index = {o: i for i, o in enumerate(cat["objects"])}
    got = {tuple(index[o] for o in v["via"]) for v in report["report"]["composition_violations"]}
    require(got == expected, f"violations differ: {len(got)} reported, {len(expected)} expected")
    require(report["status"] == ("violations" if expected else "ok"), "validate status")
    if cat["quantale"] == "rbot":
        endo = report["endohoms"]
        require(endo["ok"] and set(endo["classes"].values()) == {"regular"}, "endohoms")
    require(_payload(comp, 0)["shape"] == [n, n], "compose shape")
    module = json.loads(out.read_text(encoding="utf-8"))
    require(module["mat"] == want_square, "composite differs from the numpy product")
    for end in ("source", "target"):
        require(module[end]["objects"] == cat["objects"], f"compose {end} objects")
        require(module[end]["hom"] == cat["hom"], f"compose {end} homs")
    if not expected:
        require(module["mat"] == cat["hom"], "hom . hom differs from hom on a valid category")


def exact(seed: int, work: Path) -> list[Job]:
    rng = random.Random(f"exact:{seed}")
    jobs = []
    for slot, (base, n, faulty) in enumerate(EXACT_SLOTS):
        objects = [f"v{i}" for i in range(n)]
        viol: set = set()
        if base in ("rbot", "product"):
            a, fin = _random_causal_set(n, rng)
            if faulty:  # shorten one longest path of length >= 2
                cands = np.argwhere(fin & (a >= 2))
                i, k = cands[rng.randrange(len(cands))]
                a[i, k] -= 1
            viol |= checks.rbot_int_violations(a, fin)
            sq, sqfin = checks.rbot_int_square(a, fin)
            hom_r, square_r = checks.rbot_strings(a, fin), checks.rbot_strings(sq, sqfin)
        if base in ("lawvere", "product"):
            d = _random_metric(n, rng)
            if faulty and base == "lawvere":  # lengthen a distance some detour attains
                cands = np.argwhere(checks.detour_attained(d))
                i, k = cands[rng.randrange(len(cands))]
                d[i, k] += 5
            viol |= checks.lawvere_int_violations(d)
            hom_l = checks.int_strings(d)
            square_l = checks.int_strings(checks.lawvere_int_square(d))
        if base == "rbot":
            quantale, hom, square = "rbot", hom_r, square_r
        elif base == "lawvere":
            quantale, hom, square = "lawvere", hom_l, square_l
        else:
            quantale = ["rbot", "lawvere"]
            hom = checks.pair_strings(hom_r, hom_l)
            square = checks.pair_strings(square_r, square_l)
        require(bool(viol) == faulty, f"exact slot {slot}: planted fault count")
        cat = _category(quantale, objects, hom)
        cpath, mpath, out = (work / f"exact{slot}{s}.json" for s in ("", "_m", "_mm"))
        _write_json(cpath, cat)
        _write_json(mpath, {"source": cat, "target": cat, "mat": hom})
        jobs.append(
            Job(
                f"exact{slot}-{base}",
                [["validate", str(cpath)], ["compose", str(mpath), str(mpath), "-o", str(out)]],
                [1 if faulty else 0, 0],
                partial(_exact_check, cat, square, viol, out),
                [cpath],
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# ingest: from-dag, then underlying --dot on the written file.

# (kind, vertices, out-degree), sized so that the three jobs cost about
# the same and job_p50_s is a median over all of them, not one slot
INGEST_SLOTS = (
    ("random", 540, 2),
    ("random", 500, 3),
    ("chain", 360, 1),
)
CYCLE_LENGTH = 1200  # longer than the default recursion limit; not seeded


def _ingest_check(
    labels: list[str], dist: np.ndarray, out: Path, dot: Path, results: list[StepResult]
) -> None:
    fd, und = results
    require(_payload(fd, 0)["objects"] == labels, "from-dag object order")
    raw = out.read_text(encoding="utf-8")
    data = json.loads(raw)
    require(canonical_json(data) == raw, "re-dumping the written file changes its bytes")
    require(data["quantale"] == "rbot" and data["objects"] == labels, "from-dag header")
    want = [[str(int(v)) if v >= 0 else "bot" for v in row] for row in dist]
    require(data["hom"] == want, "homs differ from the longest-path lengths")
    pairs = np.argwhere(dist >= 0)
    edges = _payload(und, 0)["edges"]
    want_edges = sorted([labels[i], labels[j]] for i, j in pairs)
    require(edges == want_edges, "underlying edges differ from the reachability closure")
    arrows = sum(1 for line in dot.read_text(encoding="utf-8").splitlines() if " -> " in line)
    require(arrows == len(pairs) - len(labels), "DOT arrow count")


def _cycle_check(edges: set, results: list[StepResult]) -> None:
    (fd,) = results
    payload = _payload(fd, 2)
    msg = payload.get("error", "")
    require("cycle: " in msg, f"no cycle witness in {msg[:120]!r}")
    cycle = msg.split("cycle: ", 1)[1].split(" -> ")
    require(checks.cycle_in_edges(cycle, edges), "the reported cycle is not in the input")


def ingest(seed: int, work: Path) -> list[Job]:
    rng = random.Random(f"ingest:{seed}")
    jobs = []
    for slot, (kind, n, degree) in enumerate(INGEST_SLOTS):
        if kind == "chain":
            edges = [(i, i + 1) for i in range(n - 1)]
        else:
            edges = []
            for i in range(n - 1):
                targets = {rng.randrange(i + 1, n) for _ in range(degree)}
                edges.extend((i, j) for j in sorted(targets))
        names = [f"{kind[0]}{v}" for v in rng.sample(range(10 * n), n)]
        # vertices appear in first-use order; isolated ones never do
        order: dict[int, None] = {}
        for a, b in edges:
            order.setdefault(a)
            order.setdefault(b)
        used = list(order)
        pos = {v: i for i, v in enumerate(sorted(used))}
        dist_topo = checks.longest_paths(len(used), [(pos[a], pos[b]) for a, b in edges])
        idx = [pos[v] for v in used]
        dist = dist_topo[np.ix_(idx, idx)]
        text = "".join(f"{names[a]} {names[b]}\n" for a, b in edges)
        src, out, dot = (work / f"dag{slot}{s}" for s in (".txt", ".json", ".dot"))
        src.write_text(text, encoding="utf-8")
        jobs.append(
            Job(
                f"ingest{slot}-{kind}{n}",
                [
                    ["from-dag", str(src), "-o", str(out)],
                    ["underlying", str(out), "--dot", str(dot)],
                ],
                [0, 0],
                partial(_ingest_check, [names[v] for v in used], dist, out, dot),
                [out],
            )
        )
    cyc = [f"k{i}" for i in range(CYCLE_LENGTH)]
    cyc_edges = {(cyc[i], cyc[(i + 1) % CYCLE_LENGTH]) for i in range(CYCLE_LENGTH)}
    src = work / "cycle.txt"
    src.write_text("".join(f"{a} {b}\n" for a, b in sorted(cyc_edges)), encoding="utf-8")
    jobs.append(
        Job(
            f"ingest-cycle{CYCLE_LENGTH}",
            [["from-dag", str(src), "-o", str(work / "cycle.json")]],
            [2],
            partial(_cycle_check, cyc_edges),
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# cauchy: complete on small rbot categories (fixed grid) and on bool,bool
# categories made of two random preorders (default grid).

CAUCHY_GRID = ("bot", "0", "1", "2", "3", "4", "5", "6", "inf")
# (base, objects, modules_checked range, candidate prefixes range, jobs).
# Random categories of one size differ a hundredfold in work, so each job's
# category is drawn until both counts fall in range: modules_checked pins
# the decisions, candidate prefixes (grid values tried while enumerating)
# pin the enumeration. Many small jobs average out what the ranges leave.
CAUCHY_SLOTS = (
    ("rbot", 5, (300, 360), (2500, 3200), 8),
    ("bool", 4, (120, 160), (0, 10**9), 4),
    ("bool", 5, (60, 80), (0, 10**9), 4),
)
RBOT_EDGE_P, RBOT_IRREGULAR_P, RBOT_MAX_WEIGHT = 0.45, 0.2, 3
BOOL_EDGE_P = 0.2
MAX_DRAWS = 5000


def _causal_with_irregular(n: int, rng: random.Random) -> np.ndarray:
    """A valid causal-base matrix: max-plus closure of random forward arcs,
    where irregular events (endohom inf) turn every path through them to inf."""
    w = np.full((n, n), checks.BOT)
    np.fill_diagonal(w, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < RBOT_EDGE_P:
                w[i, j] = rng.randint(0, RBOT_MAX_WEIGHT)
    for x in range(n):
        if rng.random() < RBOT_IRREGULAR_P:
            w[x, x] = np.inf
    for k in range(n):
        via = checks.otimes(checks.otimes(w[:, k : k + 1], w[k, k]), w[k : k + 1, :])
        w = np.maximum(w, via)
    return w


def _random_preorder(n: int, rng: random.Random) -> np.ndarray:
    r = np.array([[i == j or rng.random() < BOOL_EDGE_P for j in range(n)] for i in range(n)])
    return checks.transitive_closure(r)


def _rbot_string(v: float) -> str:
    return "bot" if v == checks.BOT else "inf" if v == np.inf else str(int(v))


def _truth(v) -> str:
    return "true" if v else "false"


def _principal_pairs(a: np.ndarray, b: np.ndarray) -> tuple[set, set, set]:
    """Distinct principal down-sets (hom columns) of each preorder, and the
    column pairs that single objects represent."""
    n = a.shape[0]
    cols_a = {tuple(a[:, z]) for z in range(n)}
    cols_b = {tuple(b[:, z]) for z in range(n)}
    return cols_a, cols_b, {(tuple(a[:, z]), tuple(b[:, z])) for z in range(n)}


def _cauchy_rbot_check(hom: list[list[str]], count: int, results: list[StepResult]) -> None:
    (r,) = results
    rep = _payload(r, 0)
    require(rep["complete"] and not rep["counterexamples"], "a causal space is incomplete")
    require(rep["grid"] == list(CAUCHY_GRID), "grid echo")
    require(rep["modules_checked"] == count, "modules_checked differs from the brute-force count")
    n = len(hom)
    columns = {tuple(hom[y][z] for y in range(n)) for z in range(n)}
    want = {c for c in columns if set(c) <= set(CAUCHY_GRID)}
    got = [tuple(f["column"]) for f in rep["cauchy"]]
    require(rep["cauchy_count"] == len(got) and set(got) == want and len(got) == len(want),
            "Cauchy modules differ from the grid-valued hom columns")
    for f in rep["cauchy"]:
        for role in ("representing", "witness"):
            z = f[role]
            require(z is not None, f"Cauchy module without {role}")
            zi = int(z[1:])
            require(tuple(hom[y][zi] for y in range(n)) == tuple(f["column"]), f"{role} column")


def _cauchy_bool_check(
    a: np.ndarray, b: np.ndarray, count: int, results: list[StepResult]
) -> None:
    (r,) = results
    cols_a, cols_b, represented = _principal_pairs(a, b)
    want = {
        tuple(f"({_truth(u)},{_truth(v)})" for u, v in zip(ca, cb))
        for ca in cols_a
        for cb in cols_b
    }
    missing = len(cols_a) * len(cols_b) - len(represented)
    rep = _payload(r, 1 if missing else 0)
    require(rep["modules_checked"] == count, "modules_checked differs from the down-set count")
    require(rep["cauchy_count"] == len(cols_a) * len(cols_b), "cauchy_count differs from p1 x p2")
    require({tuple(f["column"]) for f in rep["cauchy"]} == want, "Cauchy modules differ")
    require(len(rep["counterexamples"]) == missing, "counterexample count")
    require(rep["complete"] == (missing == 0), "complete flag")


def _draw_cauchy(base: str, n: int, mods, tried, rng: random.Random):
    """A category whose module count and enumeration work are in range;
    bool,bool ones must also have a Cauchy module no object represents."""
    if base == "rbot":
        grid = np.array([checks.rbot_float(s) for s in CAUCHY_GRID])
    else:
        grid = np.array([checks.BOT, 0.0])  # false, true
    for _ in range(MAX_DRAWS):
        if base == "rbot":
            mats = [_causal_with_irregular(n, rng)]
        else:
            mats = [_random_preorder(n, rng) for _ in range(2)]
        levels = [checks.left_action_levels(checks.bool_as_rbot(m) if base == "bool" else m, grid)
                  for m in mats]
        if None in levels:
            continue
        count = int(np.prod([lv[-1] for lv in levels]))
        width = len(grid) ** len(mats)
        work = width * sum(int(np.prod([lv[i] for lv in levels])) for i in range(n))
        if not (mods[0] <= count <= mods[1] and tried[0] <= work <= tried[1]):
            continue
        if base == "bool":
            cols_a, cols_b, represented = _principal_pairs(*mats)
            if len(cols_a) * len(cols_b) == len(represented):
                continue
        return mats, count
    raise RuntimeError(f"cauchy: no {base} category in range after {MAX_DRAWS} draws")


def _cauchy_job(slot: int, base: str, n: int, mods, tried, rng, work: Path) -> Job:
    mats, count = _draw_cauchy(base, n, mods, tried, rng)
    path = work / f"cauchy{slot}.json"
    if base == "rbot":
        (w,) = mats
        hom = [[_rbot_string(v) for v in row] for row in w]
        _write_json(path, _category("rbot", [f"e{i}" for i in range(n)], hom))
        steps = [["complete", str(path), "--grid", ",".join(CAUCHY_GRID)]]
        check = partial(_cauchy_rbot_check, hom, count)
        return Job(f"cauchy{slot}-rbot{n}", steps, [0], check, [path])
    a, b = mats
    hom = [[f"({_truth(a[i, j])},{_truth(b[i, j])})" for j in range(n)] for i in range(n)]
    _write_json(path, _category(["bool", "bool"], [f"o{i}" for i in range(n)], hom))
    return Job(f"cauchy{slot}-bool{n}", [["complete", str(path)]], [1],
               partial(_cauchy_bool_check, a, b, count), [path])


def cauchy(seed: int, work: Path) -> list[Job]:
    rng = random.Random(f"cauchy:{seed}")
    specs = [spec[:4] for spec in CAUCHY_SLOTS for _ in range(spec[4])]
    return [_cauchy_job(slot, *spec, rng, work) for slot, spec in enumerate(specs)]


ROUNDS = {"sprinkle": sprinkle, "exact": exact, "ingest": ingest, "cauchy": cauchy}
