"""Each output check passes on qcat's real output and fails on a planted
wrong one, so no check can pass vacuously.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import StepResult, invoke  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    out = {}
    for w in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(w)
        out[w] = workloads.ROUNDS[w](7, work)
    return out


def _run(job):
    results = [invoke(argv) for argv in job.steps]
    job.check(results)  # the real output passes
    return results


def _edit_payload(results, step, fn):
    edited = list(results)
    payload = json.loads(results[step].out)
    fn(payload)
    edited[step] = StepResult(results[step].code, json.dumps(payload))
    return edited


def _edit_file(path: Path, fn, raw: bool = False):
    """Rewrite a JSON output file through ``fn``; returns a restore callback."""
    text = path.read_text(encoding="utf-8")
    if raw:
        path.write_text(fn(text), encoding="utf-8")
    else:
        data = json.loads(text)
        fn(data)
        path.write_text(workloads.canonical_json(data), encoding="utf-8")
    return lambda: path.write_text(text, encoding="utf-8")


def _fails(job, results):
    with pytest.raises(CheckError):
        job.check(results)


def _fails_on_file(job, results, path, fn, raw=False):
    restore = _edit_file(path, fn, raw)
    try:
        _fails(job, results)
    finally:
        restore()
    job.check(results)


def test_sprinkle_valid(rounds):
    job = rounds["sprinkle"][0]
    res = _run(job)
    sample = Path(job.steps[0][-1])
    _fails(job, _edit_payload(res, 0, lambda p: p["events"][5].__setitem__(0, p["events"][5][0] + 1e-6)))
    _fails_on_file(job, res, sample, lambda d: d["hom"][0].__setitem__(0, "1/2"))
    _fails(job, _edit_payload(res, 1, lambda p: p["endohoms"]["classes"].__setitem__("p3", "irregular")))
    bogus = {"via": ["p0", "p1", "p2"], "composite": "1", "direct": "0"}
    _fails(job, _edit_payload(res, 1, lambda p: p["report"]["composition_violations"].append(bogus)))


def test_sprinkle_planted_fault(rounds):
    job = next(j for j in rounds["sprinkle"] if j.codes == [0, 1])
    res = _run(job)
    _fails(job, _edit_payload(res, 1, lambda p: p["report"]["composition_violations"].pop()))
    _fails(job, [res[0], StepResult(0, res[1].out)])


@pytest.mark.parametrize("slot", [0, 3, 5])
def test_exact(rounds, slot):
    job = rounds["exact"][slot]
    res = _run(job)
    out = Path(job.steps[1][-1])

    def bump(d):
        d["mat"][1][2] = "7" if d["mat"][1][2] != "7" else "8"

    _fails_on_file(job, res, out, bump)
    if job.codes[0]:
        _fails(job, _edit_payload(res, 0, lambda p: p["report"]["composition_violations"].pop(0)))
    else:
        bogus = {"via": ["v0", "v1", "v2"], "composite": "1", "direct": "0"}
        _fails(job, _edit_payload(res, 0, lambda p: p["report"]["composition_violations"].append(bogus)))


def test_ingest(rounds):
    job = rounds["ingest"][0]
    res = _run(job)
    out, dot = Path(job.steps[0][-1]), Path(job.steps[1][-1])

    def shorten(d):
        row = d["hom"][0]
        j = next(j for j, v in enumerate(row) if v not in ("bot", "0"))
        row[j] = str(int(row[j]) - 1)

    _fails_on_file(job, res, out, shorten)
    _fails_on_file(job, res, out, lambda t: t.replace("\n", " \n", 1), raw=True)
    _fails_on_file(job, res, dot, lambda t: t.replace(" -> ", " - ", 1), raw=True)
    _fails(job, _edit_payload(res, 1, lambda p: p["edges"].pop()))
    _fails(job, _edit_payload(res, 0, lambda p: p["objects"].reverse()))


def test_ingest_cycle(rounds):
    job = rounds["ingest"][-1]
    good = " -> ".join([f"k{i}" for i in range(workloads.CYCLE_LENGTH)] + ["k0"])
    ok = StepResult(2, json.dumps({"status": "error", "error": f"x: graph contains a cycle: {good}"}))
    job.check([ok])
    fake = good.replace("k1 ", "k5 ", 1)
    _fails(job, [StepResult(2, json.dumps({"status": "error", "error": f"x: graph contains a cycle: {fake}"}))])
    _fails(job, [StepResult(0, json.dumps({"status": "ok"}))])


def test_cauchy_rbot(rounds):
    job = rounds["cauchy"][0]
    res = _run(job)
    _fails(job, _edit_payload(res, 0, lambda p: p.__setitem__("modules_checked", p["modules_checked"] + 1)))
    _fails(job, _edit_payload(res, 0, lambda p: p["cauchy"].pop()))

    def swap_rep(p):
        p["cauchy"][0]["witness"] = p["cauchy"][1]["representing"]

    _fails(job, _edit_payload(res, 0, swap_rep))


def test_cauchy_bool(rounds):
    job = next(j for j in rounds["cauchy"] if "bool" in j.label)
    res = _run(job)
    _fails(job, _edit_payload(res, 0, lambda p: p["counterexamples"].pop()))
    _fails(job, _edit_payload(res, 0, lambda p: p.__setitem__("cauchy_count", p["cauchy_count"] - 1)))
    _fails(job, _edit_payload(res, 0, lambda p: p.__setitem__("modules_checked", p["modules_checked"] * 2)))
