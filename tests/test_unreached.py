"""``tools/unreached.py`` on the library: its dynamic pass lists the ``src``
functions that no subcommand enters, its static pass the fields, methods,
properties and module-level names that no ``src`` expression reads, then the
parameters that no ``src`` expression reads or, with a default, that no
``src`` call passes, and last the reads of one ``src`` module's
leading-underscore name by another. The ceiling keeps the first small and
three tests keep the others at zero, so that the library holds no code, no
name and no option that only the tests use, and no module leans on
another's private name.
"""

import contextlib
import io
import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import unreached  # noqa: E402

# src lines that no subcommand enters (_Gate.inconclusive, _first, _hankel_sum)
UNREACHED_CEILING = 18


@pytest.fixture(scope="module")
def report():
    """The report's four parts: the dynamic pass through its exit codes, the
    static pass over names, the one over parameters, then the one over
    private names."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert unreached.main([]) == 0
    lines = out.getvalue().splitlines()
    cut = next(i for i, line in enumerate(lines) if line.startswith("exit codes: ")) + 1
    names, params = (i + 1 for i, line in enumerate(lines) if line.startswith("unread: "))
    return lines[:cut], lines[cut:names], lines[names:params], lines[params:]


def test_unreached_smoke(report, tmp_path):
    dynamic, _, _, _ = report
    listed = [(line.split()[0].split(":")[0], line.split()[1]) for line in dynamic[:-2]]
    # functions the subcommands never enter are listed with their file; their own are not
    assert {("geometry.py", "_first"), ("models.py", "_hankel_sum")} <= set(listed)
    names = {name for _, name in listed}
    assert {"stop_cell", "frame_at", "quadric_coordinates", "cmd_report"}.isdisjoint(names)
    assert "VmfModel.sample_many" not in names
    total = sum(int(line.split()[2]) for line in dynamic[:-2])
    assert dynamic[-2].startswith(f"total: {total} unreached lines in {len(dynamic) - 2} functions")
    # the frozen seed's verdicts: at 20 replications (2 per batch) report fails a
    # gate on both configs, and every geometry case passes
    geometry = [f"geometry {model} m={m} r={r}{mode} 0"
                for model, m, r in unreached.GEOMETRY_CASES for mode in ("", " --json")]
    assert dynamic[-1] == "exit codes: " + ", ".join(
        ["simulate vmf 0", "report vmf 2", "simulate hyperboloid 0", "report hyperboloid 2"] + geometry)
    # matched by file and first line: two closures of one name, as a family
    # defines one potential per dimension, are two functions, not merged by name
    (tmp_path / "fam.py").write_text("def family(m):\n    if m == 2:\n        def fval(r):\n"
                                     "            return r\n    else:\n        def fval(r):\n"
                                     "            return -r\n    return fval\n")
    keys = [(first, name) for _, first, _, name, _ in unreached.src_functions(tmp_path)]
    assert keys == [(1, "family"), (3, "family.fval"), (6, "family.fval")]


def test_unreached_ceiling(report):
    dynamic, _, _, _ = report
    total = int(dynamic[-2].split()[1])
    assert total <= UNREACHED_CEILING, "\n".join(dynamic[:-2])


def test_no_unread_names(report):
    _, static, _, _ = report
    assert static == ["unread: 0 fields, methods and module names that no src expression reads"], \
        "\n".join(static)


def test_unread_names_smoke(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent("""\
        from dataclasses import dataclass
        from typing import NamedTuple

        from numpy.random.bit_generator import ISeedSequence

        LIMIT = 3
        SPARE = 4


        @dataclass(frozen=True)
        class Pair:
            kept: int
            dropped: int


        class Rows(NamedTuple):
            a: float
            b: float


        class Seeds(ISeedSequence):
            def __init__(self):
                self.words = LIMIT
                self.spare = 0

            def generate_state(self, n_words, dtype=None):
                return self.words

            def unused(self):
                return 0

            @property
            def size(self):
                return 1


        def read(p: Pair, r: Rows, s: Seeds):
            return p.kept + sum(getattr(r, k) for k in ("a",))


        CHECK = read
        """))
    # numpy calls generate_state, which ISeedSequence defines; a is read through
    # getattr; SPARE, the two fields, the method, the property and CHECK are read nowhere
    assert unreached.unread_names(tmp_path) == [
        ("mod.py", 7, "SPARE", "name"),
        ("mod.py", 13, "Pair.dropped", "field"),
        ("mod.py", 18, "Rows.b", "field"),
        ("mod.py", 24, "Seeds.spare", "field"),
        ("mod.py", 29, "Seeds.unused", "method"),
        ("mod.py", 33, "Seeds.size", "property"),
        ("mod.py", 41, "CHECK", "name"),
    ]


def test_no_unread_parameters(report):
    _, _, params, _ = report
    assert params == ["unread: 0 parameters that no src expression reads or, with a default, no src call passes"], \
        "\n".join(params)


def test_unread_parameters_smoke(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "mod.py").write_text(textwrap.dedent("""\
        from numpy.random.bit_generator import ISeedSequence


        def scale(x, unused):
            return 2.0 * x


        def clip(x, cap=None):
            return x if cap is None else min(x, cap)


        def shift(x, by=0.0):
            def inner():
                return x + by
            return inner()


        class Box:
            def floor(self, x, low=0.0):
                return max(x, low)


        class Seeds(ISeedSequence):
            def generate_state(self, n_words, dtype=None):
                return 0


        def main(argv=None):
            print(argv)
            return scale(clip(1.0), 2) + shift(1.0, **{"by": 1.0}) + Box().floor(1.0, 0.5)
        """))
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project.scripts]\ntool = "pkg.mod:main"\n')
    # unused is read nowhere, and only a caller outside src would pass cap; by is
    # passed through **kwargs and read in a nested function, low by position
    # after the bound self; numpy calls generate_state, which ISeedSequence
    # defines; the shell calls main
    assert unreached.unread_parameters(src, pyproject) == [
        ("mod.py", 4, "scale.unused", "parameter"),
        ("mod.py", 8, "clip.cap", "default"),
    ]
    pyproject.write_text("")
    assert unreached.unread_parameters(src, pyproject)[-1] == ("mod.py", 28, "main.argv", "default")


def test_no_private_reads(report):
    _, _, _, private = report
    assert private == ["private: 0 reads of another src module's leading-underscore name"], "\n".join(private)


def test_private_reads_smoke(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "own.py").write_text(textwrap.dedent("""\
        from math import _private_of_math


        def _helper(x):
            return x


        def public(x):
            return _helper(x)
        """))
    (src / "user.py").write_text(textwrap.dedent("""\
        import numpy as np

        from . import own as mine
        from .own import _helper, public
        from pkg import own


        def use(x):
            return mine._helper(x) + own.public(x) + own._helper(x) + mine.__name__ + np._NoValue
        """))
    # a module's own private names are its own; numpy's and math's are outside
    # src, and a dunder name is no private one
    assert unreached.private_reads(src) == [
        ("user.py", 4, "own._helper"),
        ("user.py", 9, "own._helper"),
        ("user.py", 9, "own._helper"),
    ]
