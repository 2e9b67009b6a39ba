"""Characterization test: the output of every benchmark step, pinned.

The benchmark's four workloads (``perfbench/workloads.py``) are drawn at
seeds 1-3 into a temporary directory, and each of their 129 steps runs
through ``qcat.cli.main`` in this process.  A step's digest covers its
workload, seed, job and step number, its argv, its exit code, its stdout,
and the bytes of every file it wrote; the work directory is replaced by a
fixed name wherever it appears.  The digests are compared with
``corpus_digests.json``, one entry per step, so a mismatch names its step.

A change that is meant to alter output regenerates the file with

    PYTHONPATH=src python tests/test_corpus.py --write

and says which steps moved and why.  A change to a generator in
``perfbench/`` moves the digests too.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 2, 3)
DIGESTS = Path(__file__).with_name("corpus_digests.json")
WORK = "WORK"  # the name that stands for the work directory
OUTPUT_FLAGS = ("-o", "--output", "--dot")


def _files(work: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.iterdir()) if p.is_file()}


def corpus_digests(workload: str, seed: int, work: Path) -> dict[str, str]:
    """The digest of each step of one workload's round at ``seed``, drawn
    into the empty directory ``work``, keyed by the step's name."""
    jobs = workloads.ROUNDS[workload](seed, work)
    out = {}
    for job in jobs:
        for k, argv in enumerate(job.steps):
            before = _files(work)
            r = workloads.invoke(argv)
            after = _files(work)
            named = {Path(argv[i + 1]).name for i, a in enumerate(argv[:-1]) if a in OUTPUT_FLAGS}
            written = sorted(name for name, h in after.items()
                             if before.get(name) != h or name in named)
            name = f"{workload}/seed{seed}/{job.label}/{k}:{argv[0]}"
            record = [
                name,
                [a.replace(str(work), WORK) for a in argv],
                r.code,
                r.out.replace(str(work), WORK),
                [[f, after[f]] for f in written],
            ]
            text = json.dumps(record, ensure_ascii=False).encode("utf-8")
            out[name] = hashlib.sha256(text).hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_step_outputs_are_pinned(workload, seed, tmp_path):
    want = {k: v for k, v in json.loads(DIGESTS.read_text(encoding="utf-8")).items()
            if k.startswith(f"{workload}/seed{seed}/")}
    got = corpus_digests(workload, seed, tmp_path)
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(want)} steps moved: {moved}"


def test_corpus_has_129_steps():
    assert len(json.loads(DIGESTS.read_text(encoding="utf-8"))) == 129


def write() -> None:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                work = Path(tmp) / f"{workload}{seed}"
                work.mkdir()
                digests.update(corpus_digests(workload, seed, work))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{DIGESTS}: {len(digests)} steps")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write()
