"""Command-line front end.

Every subcommand is a thin adapter over one library operation, reading
and writing the JSON schemas of the library.  Output is canonical
(sorted keys, fixed array orders) so runs are byte-identical for
identical inputs and flags.  Exit codes: 0 clean, 1 mathematical
violations or negative findings, 2 malformed input (or input too large
for memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import product as iproduct
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .category import (
    _dot,
    _edge_runs,
    _require_utf8,
    _underlying_pairs,
    category_from_json,
    category_to_json,
    classify_endohoms,
    validate_category,
)
from .causal import (
    CycleError,
    causal_space_from_dag,
    dag_from_json,
    dag_from_text,
    minkowski_sample,
    mixed_signature_check,
)
from .collage import adjoin_point, collage, collage_from_json, collage_to_json, restrict
from .maxplus import Block, texts
from .modules import (
    _GridTooLarge,
    _InvalidCategory,
    _cauchy_decision,
    canonical_right_adjoint,
    cauchy_completeness_report,
    check_adjunction,
    compose,
    module_from_json,
    module_to_json,
)
from .quantale import (
    Kind,
    QuantaleDescriptor,
    _build,
    check_laws,
    parse_quantale_name,
    parse_value,
    split_top_level,
)

OK = "ok"
VIOLATIONS = "violations"
ERROR = "error"


@dataclass(frozen=True)
class CommandResult:
    status: str
    payload: dict
    exit_code: int


@dataclass(frozen=True)
class _Rows:
    """A matrix to be written from its index ``(values, positions)``, as
    the rows of strings that :func:`qcat.category._format_rows` would
    give; only :func:`_encode` renders it, a row at a time."""

    index: Block


@dataclass(frozen=True)
class _Pairs:
    """Edges as positions ``(i, j)`` into ``labels``, in order, to be
    written as :func:`_encode` writes the list of ``[labels[i],
    labels[j]]`` rows; it renders it as one chunk
    (:func:`qcat.category._edge_runs`)."""

    labels: Sequence[str]
    i: np.ndarray
    j: np.ndarray


# the exact types that json.dumps writes alike with and without indent
_SCALARS = frozenset((int, float, bool, type(None)))


def _dump(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)``
    plus a newline, byte for byte, at C speed per row: ``indent`` puts
    the stdlib on its pure-Python encoder, one call per entry."""
    return "".join(_chunks(data))


def _chunks(data: object) -> Iterator[str]:
    """The text of :func:`_dump`, in the chunks of :func:`_encode`."""
    yield from _encode(data, "\n")
    yield "\n"


def _encode(o: object, nl: str) -> Iterator[str]:
    # nl is the newline plus the indent of o's own line.  A _Rows yields
    # one chunk per row, and dicts keyed by str and lists recurse; a list
    # of str is one join over C-level encode_basestring, and an exact
    # scalar is written by the stdlib's C encoder, whose bytes are those of
    # the indenting call.  Everything else goes to that call, re-indented:
    # JSON escapes every newline inside a string, so each "\n" it writes
    # is structural.
    t = type(o)
    inner = nl + "  "
    if t is _Rows:
        yield from _matrix(o.index, nl)
    elif t is _Pairs:
        yield _pairs(o, nl)
    elif t is dict and o and set(map(type, o)) == {str}:
        lead = "{" + inner
        for k in sorted(o):
            yield lead + encode_basestring(k) + ": "
            yield from _encode(o[k], inner)
            lead = "," + inner
        yield nl + "}"
    elif t is list and o and set(map(type, o)) == {str}:
        yield "[" + inner + ("," + inner).join(map(encode_basestring, o)) + nl + "]"
    elif t is list and o:
        lead = "[" + inner
        for x in o:
            yield lead
            yield from _encode(x, inner)
            lead = "," + inner
        yield nl + "]"
    elif t is str:
        yield encode_basestring(o)
    elif t in _SCALARS:  # an int past the digit limit raises, as the stdlib does
        yield json.dumps(o)
    else:
        yield json.dumps(o, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", nl)


def _matrix(index: Block, nl: str) -> Iterator[str]:
    """The text of ``_encode(_format_rows(index), nl)``, one chunk per row:
    each distinct value is formatted and escaped once, and each row is one
    join over a gather of those texts by the row's positions."""
    values, positions = index
    if not positions.size:  # no rows, or rows of no entries
        yield from _encode([[]] * len(positions), nl)
        return
    text = np.empty(len(values), object)
    text[:] = list(map(encode_basestring, texts(values)))
    inner = nl + "  "
    cell, row, close = "," + inner + "  ", "[" + inner + "  ", inner + "]"
    lead = "[" + inner + row
    for p in positions:
        yield lead + cell.join(text[p].tolist()) + close
        lead = "," + inner + row
    yield nl + "]"


def _pairs(p: _Pairs, nl: str) -> str:
    """``_encode([[p.labels[a], p.labels[b]] for a, b in zip(p.i, p.j)], nl)``,
    escaping each label once."""
    if not len(p.i):
        return "[]"
    inner = nl + "  "
    cell = inner + "  "
    rows = _edge_runs(list(map(encode_basestring, p.labels)), p.i, p.j,
                      "[" + cell, "," + cell, inner + "]", "," + inner)
    return "[" + inner + rows + nl + "]"


def _loads(text: str, path: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer past the digit limit
        raise ValueError(f"{path}: {exc}") from None


def _named(path: str, exc: OSError | UnicodeDecodeError) -> ValueError:
    """``exc`` as an input error that names ``path`` once: an OSError as
    ``[Errno n] strerror``, since its own text repeats the file name."""
    why = f"[Errno {exc.errno}] {exc.strerror}" if getattr(exc, "errno", None) is not None else str(exc)
    return ValueError(f"{path}: {why}")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _named(path, exc) from None


def _read_json(path: str) -> object:
    return _loads(_read_text(path), path)


def _write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or its chunks, to ``path`` whole or not at
    all: streamed into a new file beside it, then renamed over it, so a
    failed write leaves an existing file as it was and no partial file
    behind."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # named by the target, not by the temp file
        raise _named(path, exc) from None


def _parse_grid(text: str):
    return [parse_value(part.strip()) for part in split_top_level(text)]


def _default_law_grid(q: QuantaleDescriptor):
    """Each base's sample from the leaf table; a product's is the
    cartesian product of its leaves' samples."""
    return tuple(_build(q, iter(p)) for p in iproduct(*(leaf.sample for leaf in q._leaves)))


def _result(ok: bool, payload: dict) -> CommandResult:
    """A command's result: status ok and exit code 0, or violations and
    exit code 1, with the status put into ``payload``."""
    status = OK if ok else VIOLATIONS
    return CommandResult(status, {"status": status, **payload}, 0 if ok else 1)


def _cmd_laws(args) -> CommandResult:
    q = parse_quantale_name(args.quantale)
    grid = _parse_grid(args.grid) if args.grid is not None else _default_law_grid(q)
    report = check_laws(q, grid)
    return _result(report.ok, report.to_json())


def _cmd_validate(args) -> CommandResult:
    cat = category_from_json(_read_json(args.category), where=args.category)
    report = validate_category(cat)
    payload = {"objects": list(cat.objects), "report": report.to_json()}
    if cat.quantale.kind is not Kind.RBOT:
        return _result(report.ok, payload)
    endo = classify_endohoms(cat)
    return _result(report.ok and endo.ok, {**payload, "endohoms": endo.to_json()})


def _cmd_compose(args) -> CommandResult:
    m = module_from_json(_read_json(args.first), where=args.first)
    n = module_from_json(_read_json(args.second), where=args.second)
    out = compose(m, n)
    _write(args.output, _chunks(module_to_json(out, _rows=_Rows)))
    shape = [len(out.target.objects), len(out.source.objects)]
    return _result(True, {"output": args.output, "shape": shape})


def _cmd_adjoint(args) -> CommandResult:
    m = module_from_json(_read_json(args.module), where=args.module)
    n = canonical_right_adjoint(m)
    report = check_adjunction(m, n)
    return _result(report.ok, {"right_adjoint": module_to_json(n), "adjunction": report.to_json()})


def _cmd_cauchy(args) -> CommandResult:
    m = module_from_json(_read_json(args.module), where=args.module)
    cauchy, representing, witness = _cauchy_decision(m)  # raises unless the source is I
    if not cauchy:
        representing, witness = (), None
    return _result(bool(representing), {
        "is_cauchy": cauchy,
        "representing": representing[0] if representing else None,
        "all_representing": list(representing),
        "witness": witness,
    })


def _cmd_complete(args) -> CommandResult:
    cat = category_from_json(_read_json(args.category), where=args.category)
    grid = _parse_grid(args.grid) if args.grid is not None else None
    try:
        report = cauchy_completeness_report(cat, grid)
    except _InvalidCategory as exc:
        raise ValueError(f"{args.category}: {exc}") from None
    except _GridTooLarge as exc:
        raise ValueError(f"{args.category}: {exc} with --grid") from None
    return _result(report.complete, report.to_json())


def _cmd_collage(args) -> CommandResult:
    m = module_from_json(_read_json(args.module), where=args.module)
    col = collage(m)
    _write(args.output, _chunks(collage_to_json(col, _rows=_Rows)))
    return _result(True, {"output": args.output, "objects": list(col.category.objects)})


def _cmd_restrict(args) -> CommandResult:
    col = collage_from_json(_read_json(args.collage), where=args.collage)
    m = restrict(col)
    payload = {"module": module_to_json(m)}
    if args.output:
        _write(args.output, _chunks(module_to_json(m, _rows=_Rows)))
        payload["output"] = args.output
    return _result(True, payload)


def _cmd_adjoin(args) -> CommandResult:
    m = module_from_json(_read_json(args.first), where=args.first)
    n = module_from_json(_read_json(args.second), where=args.second)
    _require_utf8(args.label, "--label")
    cat = adjoin_point(m, n, label=args.label)
    _write(args.output, _chunks(category_to_json(cat, _rows=_Rows)))
    return _result(True, {"output": args.output, "objects": list(cat.objects)})


def _cmd_from_dag(args) -> CommandResult:
    text = _read_text(args.edges)
    if text.lstrip().startswith("{"):
        dag = dag_from_json(_loads(text, args.edges), where=args.edges)
    else:
        try:
            dag = dag_from_text(text)
        except ValueError as exc:
            raise ValueError(f"{args.edges}: {exc}") from None
    try:
        cat = causal_space_from_dag(dag)
    except CycleError as exc:
        raise ValueError(f"{args.edges}: {exc}") from None
    _write(args.output, _chunks(category_to_json(cat, _rows=_Rows)))
    return _result(True, {"output": args.output, "objects": list(cat.objects)})


def _cmd_minkowski(args) -> CommandResult:
    parts = [p.strip() for p in args.bounds.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--bounds expects t0,t1,x0,x1, got {args.bounds!r}")
    try:
        bounds = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--bounds expects numbers, got {args.bounds!r}") from None
    cat, events = minkowski_sample(args.n, args.seed, bounds)  # type: ignore[arg-type]
    _write(args.output, _chunks(category_to_json(cat, _rows=_Rows)))
    coords = [[e.t, e.x] for e in events]
    return _result(True, {"output": args.output, "events": coords, "seed": args.seed})


def _cmd_underlying(args) -> CommandResult:
    cat = category_from_json(_read_json(args.category), where=args.category)
    i, j, labels = _underlying_pairs(cat)
    edges = _Pairs(labels, i, j)
    if not args.dot:
        return _result(True, {"edges": edges})
    _write(args.dot, _dot(cat.objects, labels, i, j))
    return _result(True, {"edges": edges, "dot": args.dot})


def _cmd_counterexample_mixed(args) -> CommandResult:
    record = mixed_signature_check()
    return _result(not record.violation, record.to_json())


class _Command(NamedTuple):
    fn: Callable[[argparse.Namespace], CommandResult]
    help: str
    args: tuple[tuple[tuple[str, ...], dict], ...] = ()


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


# Every subcommand, in help order: the one source of the full parser and
# of each one-subcommand parser.
_COMMANDS = {
    "laws": _Command(_cmd_laws, "check the quantale laws over a value grid", (
        _arg("--quantale", required=True, help="rbot, lawvere, bool, or a comma list for a product"),
        _arg("--grid", help="comma-separated values (default: a small instance grid)"),
    )),
    "validate": _Command(_cmd_validate, "validate a category file (plus endohom classes over rbot)", (
        _arg("category"),
    )),
    "compose": _Command(_cmd_compose, "compose two module files (first . second)", (
        _arg("first"),
        _arg("second"),
        _arg("-o", "--output", required=True),
    )),
    "adjoint": _Command(_cmd_adjoint, "canonical right adjoint and adjunction report", (
        _arg("module"),
    )),
    "cauchy": _Command(_cmd_cauchy, "Cauchy test, representing object, unit witness", (
        _arg("module"),
    )),
    "complete": _Command(_cmd_complete, "exhaustive Cauchy-completeness search over a grid", (
        _arg("category"),
        _arg("--grid", help="comma-separated values (default: residual closure of the homs)"),
    )),
    "collage": _Command(_cmd_collage, "glue a module into one category", (
        _arg("module"),
        _arg("-o", "--output", required=True),
    )),
    "restrict": _Command(_cmd_restrict, "extract the module of a collage", (
        _arg("collage"),
        _arg("-o", "--output"),
    )),
    "adjoin": _Command(_cmd_adjoin, "adjoin a point described by a module pair", (
        _arg("first", help="module I -/-> E (homs into the new point)"),
        _arg("second", help="module E -/-> I (homs out of the new point)"),
        _arg("--label", default="*"),
        _arg("-o", "--output", required=True),
    )),
    "from-dag": _Command(_cmd_from_dag, "causal space of a causal set (longest paths)", (
        _arg("edges", help="edge-list text file ('a b' per line) or JSON"),
        _arg("-o", "--output", required=True),
    )),
    "minkowski": _Command(_cmd_minkowski, "uniform sprinkling into a flat 2D rectangle", (
        _arg("--n", type=int, required=True),
        _arg("--seed", type=int, required=True),
        _arg("--bounds", default="0,1,0,1", help="t0,t1,x0,x1 (default 0,1,0,1)"),
        _arg("-o", "--output", required=True),
    )),
    "underlying": _Command(_cmd_underlying, "underlying preorder, optionally as DOT", (
        _arg("category"),
        _arg("--dot", help="write a graphviz file"),
    )),
    "counterexample-mixed": _Command(
        _cmd_counterexample_mixed,
        "the three-event witness that signed intervals break the triangle inequality",
    ),
}

# what argparse prints for the subcommand positional of the full parser
_CHOICES = "{" + ",".join(_COMMANDS) + "}"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qcat`` parser with every subcommand, or with ``command``'s
    alone.  The one-subcommand parser names every choice in its usage
    line, so it prints the same help and errors for ``command``."""
    parser = argparse.ArgumentParser(
        prog="qcat",
        description="Finite quantale-enriched categories: validation, module algebra, "
        "Cauchy completeness, collages, and causal-space generators.",
    )
    whole = command is None
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if whole else _CHOICES)
    for name in _COMMANDS if whole else (command,):
        spec = _COMMANDS[name]
        p = sub.add_parser(name, help=spec.help)
        for flags, kwargs in spec.args:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=spec.fn)
    return parser


def run(argv: Sequence[str]) -> CommandResult:
    argv = list(argv)
    # one process runs one command, so build only its parser; help, no
    # command or an unknown one need them all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code == 0:  # --help
            return _result(True, {})
        return CommandResult(ERROR, {"status": ERROR, "error": "invalid arguments"}, 2)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        return CommandResult(ERROR, {"status": ERROR, "error": str(exc)}, 2)
    except MemoryError as exc:  # numpy's says what it could not allocate
        error = f"out of memory: {exc}" if str(exc) else "out of memory"
        return CommandResult(ERROR, {"status": ERROR, "error": error}, 2)


def main() -> None:
    result = run(sys.argv[1:])
    sys.stdout.writelines(_chunks(result.payload))
    if result.status == ERROR:
        sys.stderr.write(f"error: {result.payload.get('error', '')}\n")
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
