"""Byte-identity of CLI output: each case replays one ``quiverdt`` command
and compares its exit code and stdout with the file stored under
``tests/golden/``.

The stored files were written before the catalog's quivers, potentials and
NCDT checks were generated from parity sequences, so they pin that the
generator changed no output; the ``relations <example> --framing`` cases
with rank > 1 framings were written before ``framing.expand`` became one
product over junction copies; the ``compare`` cases of the targets outside
``NCDT_CAPS`` were written before every target became a table row of cases
walked by one runner; the ``series`` cases were written before
``qseries.macmahon`` and ``euler_factor`` became one-variable products;
the text ``catalog show``, ``relations`` and ``catalog list`` cases were
written before a cyclic word became a tuple of arrow names and before the
monad-template table became a tuple of ids; the ``character`` cases were
written before one-variable factor products dropped exponent packing and
before ``characters._pochhammer_factors`` became a prefix sum; the
``monad verify`` cases were written while ``monad.assemble`` still
returned a ``MonadComplex`` beside its ``MonadTemplate`` and ``evaluate``
still assembled each stage matrix from blocks; the ``relations`` cases
of the geometries and the ``monad verify`` cases of c3 and y20 were
written before a geometry became a framed quiver with potential with no
framing vertices; the ``monad verify --numeric points_12.json`` cases
were written while every numeric product multiplied dense ``Fraction``
matrices.  The ``membership`` sizes (``rows``, ``nonzeros`` and
``pivots``) of the ``monad verify --json`` cases were re-captured when a
membership system started to take in only the products its queries
reach; every other byte of those cases is as before.  The ``--json`` form of
``monad verify`` drops ``phases`` (wall-clock seconds) before comparing.

The usage cases (files ``usage*.out``) store the exit code, stdout and
stderr of help requests and usage errors, with ``COLUMNS=80`` so that
argparse wraps its help and usage lines the same on every terminal; they
were written before ``cli.run`` built only the invoked subcommand's parser.
To rewrite them after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

from quiverdt import catalog
from quiverdt.cli import run

GOLDEN = Path(__file__).parent / "golden"

GEOMETRIES = ("c3", "y10", "conifold", "y11", "y20", "y30", "y40", "y50", "y60")
# pyramid and plane-partition order caps (partitions.*_MAX_ORDER)
NCDT_CAPS = {"conifold-ncdt": 21, "y20-ncdt": 18, "y30-ncdt": 18}
# the other ordered targets, each at the order perfbench runs it
BENCH_ORDERS = {
    "c3-dt": 14,
    "vw-rank1": 30,
    "nested-gl": 16,
    "blowup": 20,
    "character-figures": 30,
    "character-limits": 23,
}
# framed examples replayed with the rank > 1 framing stored as
# tests/golden/framing_<example>.json
RANKED_FRAMINGS = ("adhm3d", "spiked", "chainsaw2")
# monad templates replayed with --numeric on each of these point files
NUMERIC_TEMPLATES = ("c3", "pervsystem-c3")
# 12 points, some negative or non-integral: a size the numeric path must afford
POINT_FILES = ("points_3.json", "points_12.json")


def _cases() -> list[list[str]]:
    shown = ("c3", "conifold", "y20", "y30", "y10", "y11")
    cases = [["catalog", "show", g, "--json"] for g in shown]
    cases += [["catalog", "show", g] for g in shown[:4]]
    cases.append(["catalog", "list"])
    examples = catalog.framed_example_ids()
    cases += [["quiver", g] for g in GEOMETRIES]
    cases += [["quiver", e, "--framed"] for e in examples]
    cases += [["relations", i, "--json"] for i in GEOMETRIES + examples]
    cases += [["relations", i] for i in shown[:4] + examples]
    cases += [
        ["relations", e, "--framing", f"framing_{e}.json", "--json"] for e in RANKED_FRAMINGS
    ]
    cases.append(["compare", "all", "--json"])
    for target, cap in NCDT_CAPS.items():
        cases += [["compare", target, "--order", str(o), "--json"] for o in (0, 6, 12, cap)]
    for target, bench in BENCH_ORDERS.items():
        cases += [["compare", target, "--order", str(o), "--json"] for o in (0, 6, bench)]
    cases += [["series", f, "--order", "30", "--json"] for f in ("macmahon", "eta", "eta-inverse")]
    cases += [
        ["series", "macmahon-power", "--power", str(p), "--order", "30", "--json"]
        for p in (-3, -1, 0, 2)
    ]
    cases.append(["series", "macmahon", "--order", "0", "--json"])
    for m, n, t in ((2, 0, 3), (1, 1, 4)):
        shape = ["character", "--m", str(m), "--n", str(n), "--t", str(t), "--order", "30"]
        cases += [shape, shape + ["--json"]]
    cases.append(["character", "--m", "2", "--n", "0", "--shift", "2", "--t", "2", "--order", "30"])
    cases.append(
        ["character", "--divisor", "mu=3,1", "--m", "2", "--n", "0", "--t", "1", "--order", "20"]
    )
    for t in catalog.monad_template_ids():
        cases += [["monad", "verify", t], ["monad", "verify", t, "--json"]]
    for points in POINT_FILES:
        for t in NUMERIC_TEMPLATES:
            shape = ["monad", "verify", t, "--numeric", points]
            cases += [shape, shape + ["--json"]]
    # no numeric witness binds adhm3d's arrows: exit 2
    cases.append(["monad", "verify", "adhm3d", "--numeric", "points_3.json"])
    return cases


def _usage_cases() -> list[list[str]]:
    commands = ("catalog", "quiver", "relations", "monad", "count", "series", "character", "compare")
    cases = [[], ["bogus"], ["--help"], ["-h", "compare"]]
    cases += [[c, "--help"] for c in commands]
    cases += [
        ["compare", "c3-dt", "--bogus"],
        ["compare", "c3-dt", "--order", "3", "extra"],
        ["monad", "verify", "c3", "x"],
        ["compare"],
        ["compare", "nope"],
        ["catalog", "show"],
        ["count", "plane", "--order", "3", "--pit", "1,2,3"],
        ["series", "eta", "--order", "3", "--power", "1"],
    ]
    return cases


def _file(argv: list[str]) -> Path:
    return GOLDEN / (re.sub(r"[^a-z0-9]+", "_", " ".join(argv).lower()).strip("_") + ".out")


def _replay(argv: list[str]) -> str:
    # a --framing or --numeric value names a file under tests/golden/
    argv = [
        str(GOLDEN / a) if flag in ("--framing", "--numeric") else a
        for flag, a in zip(["", *argv], argv)
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    text = out.getvalue()
    if argv[0] == "monad" and "--json" in argv:
        data = json.loads(text)
        del data["phases"]  # wall-clock seconds, different on every run
        text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    return f"exit {code}\n{text}"


def _usage_file(argv: list[str]) -> Path:
    return _file(["usage", *argv])


def _replay_usage(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    columns = mock.patch.dict(os.environ, {"COLUMNS": "80"})
    with columns, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_output_is_byte_identical(argv):
    assert _replay(argv) == _file(argv).read_text()


@pytest.mark.parametrize("argv", _usage_cases(), ids=lambda argv: " ".join(argv) or "(none)")
def test_usage_output_is_byte_identical(argv):
    assert _replay_usage(argv) == _usage_file(argv).read_text()


def test_every_case_has_its_own_file():
    # the file name drops signs and punctuation: --power -1 and 1 would share one
    files = {_file(argv) for argv in _cases()} | {_usage_file(argv) for argv in _usage_cases()}
    assert len(files) == len(_cases()) + len(_usage_cases())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv in _cases():
        _file(argv).write_text(_replay(argv))
    for argv in _usage_cases():
        _usage_file(argv).write_text(_replay_usage(argv))
    sys.exit(0)
