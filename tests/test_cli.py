import argparse
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dulac.cli import MAX_LATTICE_EXPONENTS, MAX_ORDER_MONOMIALS, _emit, _json_text, _same, main, parse_system
from dulac.errors import SystemFileError
from dulac.resonance import iter_exponents
from dulac.series import ScalarSeries, VectorSeries

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# strings with non-ASCII, control, quote, backslash and surrogate characters
JSON_TEXT = st.text(st.characters(blacklist_categories=()), max_size=8) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\U0001f600", ""]
)
JSON_SCALARS = (
    st.none() | st.booleans() | st.sampled_from([0, 1, -1, 10**4299 - 1, -(10**4299 - 1)])
    | st.integers() | st.floats() | JSON_TEXT
)
# objects shaped like series terms, which `_json_text` writes in one step
# when every list is a non-empty list of ints: here with ints, bools, floats,
# strings and None as leaves, empty lists and non-list values too
TERM_LEAVES = st.integers() | st.booleans() | st.floats() | JSON_TEXT | st.none()
TERM_LISTS = (st.lists(st.integers(), max_size=4) | st.lists(st.integers() | st.booleans(), min_size=1, max_size=3)
              | st.lists(TERM_LEAVES, max_size=4) | TERM_LEAVES)
TERM_OBJECTS = st.fixed_dictionaries(
    {"coeff": TERM_LISTS, "exponent": TERM_LISTS}, optional={"component": TERM_LEAVES | TERM_LISTS}
)
# well-formed series terms of any shape, as the writers build them
SERIES_TERMS = st.fixed_dictionaries(
    {"coeff": st.lists(st.integers(), min_size=1, max_size=4),
     "exponent": st.lists(st.integers(0, 9), min_size=1, max_size=4)},
    optional={"component": st.integers(-1, 5)},
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | TERM_OBJECTS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def load(path):
    return json.loads(Path(path).read_text())


HALF_DOUBLE_DOC = {
    "kind": "map", "n": 2, "scalars": "rational",
    "eigen": {"form": "mult-rational", "values": [[1, 2], [2, 1]]},
    "terms": [], "degree_D": 12, "order_N": 8,
}


class TestParse:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "sys.json", HALF_DOUBLE_DOC)
        sf = parse_system(path)
        assert sf.kind == "map" and sf.n == 2
        assert sf.eigen.kind == "mult-rational"
        assert sf.lattice_bound == 12 and sf.order == 8

    def test_decimal_rejected_with_hint(self, tmp_path):
        doc = dict(HALF_DOUBLE_DOC)
        doc["terms"] = [{"component": 1, "exponent": [0, 2], "coeff": 0.5}]
        path = write(tmp_path, "bad.json", doc)
        with pytest.raises(SystemFileError, match=r"\[1, 2\]"):
            parse_system(path)

    def test_linear_term_rejected(self, tmp_path):
        doc = dict(HALF_DOUBLE_DOC)
        doc["terms"] = [{"component": 1, "exponent": [1, 0], "coeff": [1, 1]}]
        path = write(tmp_path, "bad.json", doc)
        with pytest.raises(SystemFileError, match="degree"):
            parse_system(path)

    def test_dimension_mismatch(self, tmp_path):
        doc = dict(HALF_DOUBLE_DOC)
        doc["eigen"] = {"form": "mult-rational", "values": [[1, 2]]}
        path = write(tmp_path, "bad.json", doc)
        with pytest.raises(SystemFileError, match="entries"):
            parse_system(path)

    def test_malformed_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "map",')
        with pytest.raises(SystemFileError, match="line"):
            parse_system(str(path))

    def test_zero_multiplier_rejected(self, tmp_path):
        doc = dict(HALF_DOUBLE_DOC)
        doc["eigen"] = {"form": "mult-rational", "values": [[0, 1], [2, 1]]}
        path = write(tmp_path, "bad.json", doc)
        with pytest.raises(SystemFileError, match="nonzero"):
            parse_system(path)

    def test_gaussian_in_rational_file_rejected(self, tmp_path):
        doc = dict(HALF_DOUBLE_DOC)
        doc["terms"] = [{"component": 1, "exponent": [0, 2], "coeff": [1, 1, 1, 1]}]
        path = write(tmp_path, "bad.json", doc)
        with pytest.raises(SystemFileError, match="rational"):
            parse_system(path)


class TestFixtureFiles:
    def test_two_dim_fixture_file_matches_builder(self):
        from helpers import two_dim_fixture

        sf = parse_system(str(FIXTURES / "ex2_2d.json"))
        system, _, _ = two_dim_fixture(N=8)
        assert sf.eigen.values == system.spec.values
        assert sf.nonlinear == system.nonlinear

    def test_three_dim_fixture_file_matches_builder(self):
        from helpers import three_dim_fixture

        sf = parse_system(str(FIXTURES / "ex2_3d.json"))
        system, _, _, _ = three_dim_fixture(N=8)
        assert sf.eigen.values == system.spec.values
        assert sf.nonlinear == system.nonlinear


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        assert run(["classify", "--input", path]) == 2

    def test_hypothesis_error_is_3(self, tmp_path):
        # embedding a field system is not defined
        doc = {
            "kind": "field", "n": 2,
            "eigen": {"form": "additive", "values": [[1, 1], [-1, 1]]},
            "terms": [],
        }
        path = write(tmp_path, "field.json", doc)
        assert run(["embed", "--input", path]) == 3

    def test_tamper_is_4(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["classify", "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        doc = load(rep)
        doc["classification"]["normalization"]["phi"][0]["coeff"] = [99, 1]
        bad = write(tmp_path, "bad.json", doc)
        assert run(["verify", "--input", bad]) == 4


    @pytest.mark.parametrize("flag", ["--order", "--degree"])
    @pytest.mark.parametrize("value", [1, 0, -3])
    def test_flag_below_two_is_2(self, flag, value, capsys):
        code = run(["classify", "--input", FIXTURES / "halfdouble.json", flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and flag in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "sub,fixture,edit,message",
        [
            ("normalize", "ex2_2d.json",
             lambda d: d["normalization"].pop("order"), "'order'"),
            ("classify", "ex2_2d.json",
             lambda d: d["classification"]["normalization"]["phi"][0].update(coeff=99), "'coeff'"),
            ("normalize", "ex2_2d.json",
             lambda d: d["normalization"].update(order=1), "'order'"),
            ("normalize", "ex2_2d.json",
             lambda d: d["normalization"]["g"][0].update(exponent=[1]), "exponent"),
            ("normalize", "ex2_2d.json",
             lambda d: d["normalization"].update(phi={}), "terms must be a list"),
            ("embed", "ex2_2d.json",
             lambda d: d["embedding"].pop("order"), "'order'"),
            ("resonance", "halfdouble.json",
             lambda d: d["lattice"].update(bound=1), "'bound'"),
            ("integrals", "center.json",
             lambda d: d["parameters"].update(order_N=1), "'order_N'"),
            ("integrals", "center.json",
             lambda d: d["parameters"].update(order_N=9), "exceeds the system's order_N = 8"),
            ("integrals", "center.json",
             lambda d: d.pop("parameters"), "'parameters'"),
            ("integrals", "ex2_2d.json",
             lambda d: d["integrals"].update(pullback=5), "field 'pullback' has the wrong type"),
            ("embed", "ex2_2d.json",
             lambda d: d["embedding"].update(order=8), "order + 1 = 9 exceeds the system's order_N = 8"),
            ("embed", "ex2_2d.json",
             lambda d: d["system"].update(kind="field", eigen=dict(d["system"]["eigen"], form="additive")),
             "an embedding belongs to a map system"),
        ],
    )
    def test_verify_malformed_report_is_2(self, tmp_path, capsys, sub, fixture, edit, message):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        doc = load(rep)
        edit(doc)
        bad = write(tmp_path, "bad.json", doc)
        assert run(["verify", "--input", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_verify_malformed_system_echo_is_2(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["integrals", "--input", FIXTURES / "center.json", "--output", rep]) == 0
        doc = load(rep)
        doc["system"]["eigen"]["form"] = "unknown"
        bad = write(tmp_path, "bad.json", doc)
        assert run(["verify", "--input", bad]) == 2

    @pytest.mark.parametrize(
        "phases,message",
        [(-1, "field 'phases' has the wrong type"),
         ({"0": [0, 1]}, "field 'phases' has the wrong type"),
         ([[0, 1], [1, 2]], "exponent and phase tuples differ in length")],
    )
    @pytest.mark.parametrize("where", ["system", "verify"])
    def test_malformed_mult_base_phases_is_2(self, tmp_path, capsys, phases, message, where):
        """Phases that are not a list, or not one per exponent, in a system
        file or in the system a report echoes."""
        rep = tmp_path / "rep.json"
        if where == "system":
            doc = load(FIXTURES / "ex2_3d_base.json")
            doc["eigen"]["phases"] = phases
            code = run(["resonance", "--input", write(tmp_path, "bad.json", doc), "--output", rep])
        else:
            assert run(["resonance", "--input", FIXTURES / "ex2_3d_base.json", "--output", rep]) == 0
            doc = load(rep)
            doc["system"]["eigen"]["phases"] = phases
            code = run(["verify", "--input", write(tmp_path, "bad.json", doc)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and message in err


SOLVERS = ("resonance", "normalize", "classify", "integrals", "embed")


@pytest.mark.parametrize("order", range(2, 9))
@pytest.mark.parametrize("sub", SOLVERS)
@pytest.mark.parametrize("fixture", ["ex2_2d.json", "ex2_3d.json"])
def test_every_order_exits_0_or_3_and_its_report_verifies(tmp_path, capsys, fixture, sub, order):
    """An order below a lattice generator's degree is an unmet hypothesis,
    and a report is verified at the order it was solved at."""
    rep = tmp_path / "rep.json"
    code = run([sub, "--input", FIXTURES / fixture, "--order", order, "--output", rep])
    assert code in (0, 3), capsys.readouterr().err
    if code == 0:
        assert run(["verify", "--input", rep]) == 0, capsys.readouterr().err


def over_limit_degree(n):
    """The smallest D whose lattice scan C(D+n, n) exceeds the CLI's limit."""
    D = 2
    while comb(D + n, n) <= MAX_LATTICE_EXPONENTS:
        D += 1
    return D


def assert_cost_refused(code, capsys, what, D, n):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and what in err and "Traceback" not in err
    assert str(comb(D + n, n)) in err and str(MAX_LATTICE_EXPONENTS) in err


class TestCostGuard:
    def test_limit_is_above_fixtures_and_tests(self):
        assert comb(20 + 3, 3) < MAX_LATTICE_EXPONENTS  # largest benchmark entry
        for path in FIXTURES.glob("*.json"):
            doc = load(path)
            assert comb(doc["degree_D"] + doc["n"], doc["n"]) < MAX_LATTICE_EXPONENTS

    @pytest.mark.parametrize("fixture,n", [("ex2_3d.json", 3), ("halfdouble.json", 2)])
    def test_degree_flag_over_limit_is_2(self, fixture, n, capsys):
        D = over_limit_degree(n)
        code = run(["resonance", "--input", FIXTURES / fixture, "--degree", D])
        assert_cost_refused(code, capsys, "--degree", D, n)

    def test_degree_200_refused_at_once(self, capsys):
        code = run(["resonance", "--input", FIXTURES / "ex2_3d.json", "--degree", 200])
        assert_cost_refused(code, capsys, "--degree", 200, 3)

    def test_system_degree_at_limit_parses(self, tmp_path):
        D = over_limit_degree(2) - 1
        path = write(tmp_path, "sys.json", dict(HALF_DOUBLE_DOC, degree_D=D))
        assert parse_system(path).lattice_bound == D
        path = write(tmp_path, "sys.json", dict(HALF_DOUBLE_DOC, degree_D=D + 1))
        with pytest.raises(SystemFileError, match="over the limit"):
            parse_system(path)

    def test_system_degree_over_limit_is_2(self, tmp_path, capsys):
        D = over_limit_degree(2)
        path = write(tmp_path, "sys.json", dict(HALF_DOUBLE_DOC, degree_D=D))
        code = run(["classify", "--input", path, "--degree", 8])
        assert_cost_refused(code, capsys, "degree_D", D, 2)

    @pytest.mark.parametrize(
        "sub,fixture,edit,what",
        [
            ("resonance", "halfdouble.json",
             lambda d, D: d["lattice"].update(bound=D), "lattice.bound"),
            ("classify", "ex2_2d.json",
             lambda d, D: d["classification"]["certified_at"].update(degree_D=D),
             "certified_at.degree_D"),
            ("classify", "ex2_2d.json",
             lambda d, D: d["system"].update(degree_D=D), "degree_D"),
        ],
    )
    def test_verify_degree_over_limit_is_2(self, tmp_path, capsys, sub, fixture, edit, what):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        doc = load(rep)
        D = over_limit_degree(2)
        edit(doc, D)
        bad = write(tmp_path, "bad.json", doc)
        capsys.readouterr()
        assert_cost_refused(run(["verify", "--input", bad]), capsys, what, D, 2)


def over_limit_order(n):
    """The smallest N whose series have more than MAX_ORDER_MONOMIALS
    monomials per component."""
    N = 2
    while comb(N + n, n) <= MAX_ORDER_MONOMIALS:
        N += 1
    return N


def assert_order_refused(code, capsys, what, N, n):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and what in err and "Traceback" not in err
    assert str(comb(N + n, n)) in err and str(MAX_ORDER_MONOMIALS) in err


class TestOrderGuard:
    def test_limit_is_above_fixtures_catalogue_and_tests(self):
        sys.path.insert(0, str(FIXTURES.parent / "bench"))
        import workloads

        orders = [(load(path)["order_N"], load(path)["n"]) for path in FIXTURES.glob("*.json")]
        orders += [
            (op.system["order_N"], op.system["n"])
            for name in workloads.WORKLOADS for op in workloads.catalogue(name)
        ]
        orders.append((18, 2))  # the largest order a test runs the CLI at
        assert max(comb(N + n, n) for N, n in orders) < MAX_ORDER_MONOMIALS

    def test_order_flag_over_limit_is_2(self, capsys):
        N = over_limit_order(2)
        code = run(["normalize", "--input", FIXTURES / "ex2_2d.json", "--order", N])
        assert_order_refused(code, capsys, "--order", N, 2)

    def test_system_order_at_limit_parses(self, tmp_path):
        N = over_limit_order(2) - 1
        assert parse_system(write(tmp_path, "sys.json", dict(HALF_DOUBLE_DOC, order_N=N))).order == N
        with pytest.raises(SystemFileError, match="over the limit"):
            parse_system(write(tmp_path, "sys.json", dict(HALF_DOUBLE_DOC, order_N=N + 1)))

    def test_order_100000_refused_at_once(self, tmp_path, capsys):
        doc = dict(load(FIXTURES / "ex2_2d.json"), order_N=100000)
        code = run(["normalize", "--input", write(tmp_path, "sys.json", doc)])
        assert_order_refused(code, capsys, "order_N", 100000, 2)

    @pytest.mark.parametrize(
        "sub,edit,what",
        [
            ("normalize", lambda d, N: d["normalization"].update(order=N), "normalization.order"),
            ("classify", lambda d, N: d["classification"]["normalization"].update(order=N),
             "classification.normalization.order"),
            ("embed", lambda d, N: d["embedding"].update(order=N), "embedding.order"),
        ],
    )
    def test_verify_order_over_limit_is_2(self, tmp_path, capsys, sub, edit, what):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        doc = load(rep)
        edit(doc, 100000)
        bad = write(tmp_path, "bad.json", doc)
        capsys.readouterr()
        assert_order_refused(run(["verify", "--input", bad]), capsys, what, 100000, 2)

    def test_one_dimension_counts_as_two(self, tmp_path, capsys):
        """A dense one-dimensional map runs at the largest order n = 2 admits
        and is refused one above it, as for n = 2 (not at N = 500)."""
        N = over_limit_order(2)
        terms = [{"component": 1, "exponent": [d], "coeff": [(-1) ** d * 3, 4]} for d in range(2, N + 1)]
        doc = {"kind": "map", "n": 1, "eigen": {"form": "mult-rational", "values": [[1, 2]]},
               "terms": terms[:-1], "order_N": N - 1}
        assert run(["normalize", "--input", write(tmp_path, "sys.json", doc)]) == 0
        capsys.readouterr()
        code = run(["normalize", "--input", write(tmp_path, "sys.json", dict(doc, terms=terms, order_N=N))])
        assert_order_refused(code, capsys, "order_N", N, 2)

    @pytest.mark.parametrize("key", ["order_N", "degree_D"])
    def test_count_too_long_to_print_is_2(self, tmp_path, capsys, key):
        """A 4300-digit order or degree: its count is not computed or named,
        only said to be over the limit."""
        doc = dict(load(FIXTURES / "ex2_2d.json"), **{key: 10**4299})
        assert run(["normalize", "--input", write(tmp_path, "sys.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "over the limit" in err
        assert "Traceback" not in err


class TestOnePowerTablePerMap:
    @staticmethod
    def recorded(monkeypatch):
        """The inner maps of every table `Powers.of` builds, and the number
        of tables built by any route (the degree loop calls the
        constructor), in order."""
        from dulac.series import Powers

        of, init, tabled, built = Powers.of.__func__, Powers.__init__, [], []

        def recording(cls, inner, trunc):
            tabled.append(inner)
            return of(cls, inner, trunc)

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Powers, "of", classmethod(recording))
        monkeypatch.setattr(Powers, "__init__", counting)
        return tabled, built

    def test_integrals_and_verify_table_each_inner_map_once(self, tmp_path, monkeypatch):
        """The integrals run builds the degree loop's two tables and no
        other: the search reads the loop's table of G, the pullback pulls
        through its table of Phi, so no table of psi = Phi^-1 is built, by
        `invert` or otherwise, and every residual is carried to the normal
        form through both, so no table of F is built either.  verify, which
        holds no normalization, sums every W o F - W over F's one table."""
        F = parse_system(str(FIXTURES / "ex2_3d.json")).system().full()
        tabled, built = self.recorded(monkeypatch)
        rep = tmp_path / "rep.json"
        for args, of_calls, tables in ((["integrals", "--input", FIXTURES / "ex2_3d.json", "--output", rep], [], 2),
                                       (["verify", "--input", rep], [F], 1)):
            tabled.clear()
            built.clear()
            assert run(args) == 0
            assert tabled == of_calls and len(built) == tables

    def test_embed_and_verify_table_the_map_once(self, tmp_path, monkeypatch):
        """det(DF) o F^-1 is pulled through F's own table, which the
        intertwining residual reads too, so no table of F^-1, of its
        unipotent factor or of B^-1 is built: the embed run builds F's table
        and the degree loop's two, and verify, which rebuilds the field,
        builds F's alone."""
        F = parse_system(str(FIXTURES / "ex2_3d.json")).system().full()
        tabled, built = self.recorded(monkeypatch)
        rep = tmp_path / "rep.json"
        for args, tables in ((["embed", "--input", FIXTURES / "ex2_3d.json", "--output", rep], 3),
                             (["verify", "--input", rep], 1)):
            tabled.clear()
            built.clear()
            assert run(args) == 0
            assert tabled == [F] and len(built) == tables

    def test_normalize_keeps_the_loops_table(self, monkeypatch):
        """normalize(system).powers, and so classify's, is the degree loop's
        table of Phi = y + phi: reading it builds no table; a pair built
        directly builds its table once, on first read."""
        from dulac.normalizer import NormalizationResult, classify, normalize

        system = parse_system(str(FIXTURES / "ex2_3d.json")).system()
        tabled, built = self.recorded(monkeypatch)
        for result in (normalize(system), classify(system).normalization):
            built.clear()
            P = result.powers
            assert tabled == [] and built == [] and result.powers is P
            assert [ScalarSeries._make(P.n, result.order, col[:]) for col in P.parts] == list(result.normalization())
        claimed = NormalizationResult(result.spec, result.phi, result.g, result.order)
        assert claimed.powers is claimed.powers and tabled == [claimed.normalization()]

    def test_field_integrals_and_verify_table_the_field_once(self, tmp_path, monkeypatch):
        """The field's integrals run reads the degree loop's tables alone,
        its residuals <grad V, G> over G's parts, so it builds no table of
        X; verify sums every <grad W, X> over X's one packed table."""
        field = parse_system(str(FIXTURES / "center.json")).system().full()
        tabled, built = self.recorded(monkeypatch)
        rep = tmp_path / "rep.json"
        for args, of_calls, tables in ((["integrals", "--input", FIXTURES / "center.json", "--output", rep], [], 2),
                                       (["verify", "--input", rep], [field], 1)):
            tabled.clear()
            built.clear()
            assert run(args) == 0
            assert tabled == of_calls and len(built) == tables


class TestSubcommands:
    def test_resonance_halfdouble(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["resonance", "--input", FIXTURES / "halfdouble.json",
                    "--degree", 12, "--output", out]) == 0
        doc = load(out)
        assert doc["lattice"]["rank"] == 1
        assert doc["lattice"]["generators"] == [[1, 1]]
        assert doc["bound"]["value"] == {"type": "rational", "value": [1, 4]}
        ver = doc["bound"]["verification"]
        assert ver["passed"] and ver["min_gap"]["value"] == [1, 4]
        assert ver["witness"] == {"component": 1, "exponent": [2, 0]}

    def test_classify_2d(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["classify", "--input", FIXTURES / "ex2_2d.json", "--output", out]) == 0
        doc = load(out)["classification"]
        assert doc["verdict"] == "integrable-consistent"
        assert doc["lattice"]["rank"] == 1
        assert doc["functional_equation_residuals_zero"] == [True]
        assert doc["single_function_reduction"]["exponents"] == [[-1, 1], [1, 1]]

    def test_classify_3d(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["classify", "--input", FIXTURES / "ex2_3d.json",
                    "--degree", 8, "--order", 8, "--output", out]) == 0
        doc = load(out)["classification"]
        assert doc["verdict"] == "integrable-consistent"
        assert doc["lattice"]["rank"] == 2
        assert doc["single_function_reduction"]["base_component"] == 2
        assert doc["single_function_reduction"]["exponents"] == [[-5, 2], [1, 1], [1, 2]]

    def test_classify_center_field(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["classify", "--input", FIXTURES / "center.json", "--output", out]) == 0
        doc = load(out)["classification"]
        assert doc["verdict"] == "integrable-consistent"
        assert doc["h"] == [{"exponent": [1, 1], "coeff": [1, 1]}]

    def test_normalize_center_is_unchanged(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["normalize", "--input", FIXTURES / "center.json", "--output", out]) == 0
        doc = load(out)["normalization"]
        assert doc["phi"] == []
        assert doc["residual_zero_through"] == 8

    def test_resonance_symbolic_base(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["resonance", "--input", FIXTURES / "ex2_3d_base.json", "--output", out]) == 0
        doc = load(out)
        assert doc["lattice"]["rank"] == 2
        assert doc["lattice"]["generators"] == [[1, 2, 1], [1, 1, 3]]
        assert doc["bound"]["value"]["type"] == "symbolic"
        assert doc["bound"]["verification"]["mode"] == "certificate"
        assert doc["bound"]["verification"]["passed"]

    def test_integrals_center(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["integrals", "--input", FIXTURES / "center.json",
                    "--order", 4, "--output", out]) == 0
        doc = load(out)["integrals"]
        assert len(doc["search"]["integrals"]) == 2
        assert all(doc["search"]["residual_zero"])
        assert doc["pullback"]["residual_zero"] == [True]

    def test_embed_halfdouble(self, tmp_path):
        out = tmp_path / "out.json"
        assert run(["embed", "--input", FIXTURES / "halfdouble.json", "--output", out]) == 0
        doc = load(out)["embedding"]
        assert doc["tangency_zero"] == [True]
        assert doc["equivariance_zero"] is True
        assert doc["time_one_matches_map"] is False
        assert any("time-one" in f for f in doc["flags"])
        assert doc["field"] == [
            {"component": 1, "exponent": [1, 0], "coeff": [1, 1]},
            {"component": 2, "exponent": [0, 1], "coeff": [-1, 1]},
        ]

    def test_gaussian_system_classifies(self, tmp_path):
        doc = {
            "kind": "map", "n": 2, "scalars": "gaussian",
            "eigen": {"form": "mult-rational",
                      "values": [[0, 1, 2, 1], [0, 1, -1, 2]]},  # 2i, -i/2
            "terms": [], "degree_D": 8, "order_N": 4,
        }
        path = write(tmp_path, "gauss.json", doc)
        out = tmp_path / "out.json"
        assert run(["classify", "--input", path, "--output", out]) == 0
        body = load(out)["classification"]
        assert body["verdict"] == "integrable-consistent"
        assert body["lattice"]["rank"] == 1

    def test_phase_flag_for_nontrivial_phase_set(self, tmp_path):
        doc = {
            "kind": "map", "n": 2, "scalars": "rational",
            "eigen": {"form": "mult-rational", "values": [[-1, 2], [2, 1]]},
            "terms": [], "degree_D": 8, "order_N": 4,
        }
        path = write(tmp_path, "neg.json", doc)
        out = tmp_path / "out.json"
        assert run(["resonance", "--input", path, "--output", out]) == 0
        doc_out = load(out)
        assert any("phase set" in f for f in doc_out["flags"])
        assert doc_out["bound"]["verification"]["passed"]

    def test_embed_non_integrable_refused(self, tmp_path):
        doc = {
            "kind": "map", "n": 2,
            "eigen": {"form": "mult-rational", "values": [[2, 1], [3, 1]]},
            "terms": [],
        }
        path = write(tmp_path, "ni.json", doc)
        assert run(["embed", "--input", path]) == 3


# integrable-consistent in one dimension: lattice rank 0 = n - 1, no generators
ONE_DIMENSIONAL_MAP = {
    "kind": "map", "n": 1, "scalars": "rational",
    "eigen": {"form": "mult-rational", "values": [[2, 1]]},
    "terms": [{"component": 1, "exponent": [2], "coeff": [1, 1]}], "degree_D": 4, "order_N": 5,
}


class TestOneDimensionalEmbedding:
    """A one-dimensional map has n - 1 = 0 integrals and no cross product to
    embed it with: an unmet hypothesis, exit 3, for `embed` and for `verify`
    of an embed report."""

    def classify_report(self, tmp_path):
        path = write(tmp_path, "n1.json", ONE_DIMENSIONAL_MAP)
        out = tmp_path / "classify.json"
        assert run(["classify", "--input", path, "--output", out]) == 0
        doc = load(out)
        assert doc["classification"]["verdict"] == "integrable-consistent"
        return path, doc

    def test_embed_is_3(self, tmp_path, capsys):
        path, _ = self.classify_report(tmp_path)
        capsys.readouterr()
        assert run(["embed", "--input", path]) == 3
        assert "dimension n >= 2, not n = 1" in capsys.readouterr().err

    def test_verify_of_a_hand_built_embed_report_is_3(self, tmp_path, capsys):
        _, doc = self.classify_report(tmp_path)
        del doc["classification"]
        doc.update(subcommand="embed", embedding={
            "field": [], "order": 4, "integrals": [], "tangency_zero": [],
            "equivariance_zero": True, "time_one_matches_map": False, "flags": [],
        })
        capsys.readouterr()
        assert run(["verify", "--input", write(tmp_path, "embed.json", doc)]) == 3
        assert "dimension n >= 2, not n = 1" in capsys.readouterr().err


class TestDeterminismAndVerify:
    def test_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["classify", "--input", FIXTURES / "ex2_2d.json", "--output", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_round_trip_all_subcommands(self, tmp_path):
        for sub, fixture in (
            ("resonance", "halfdouble.json"),
            ("classify", "ex2_2d.json"),
            ("normalize", "ex2_2d.json"),
            ("integrals", "center.json"),
            ("embed", "ex2_2d.json"),
        ):
            out = tmp_path / f"{sub}.json"
            assert run([sub, "--input", FIXTURES / fixture, "--output", out]) == 0, sub
            assert run(["verify", "--input", out]) == 0, sub

    def test_verify_detects_tampered_bound(self, tmp_path):
        out = tmp_path / "res.json"
        assert run(["resonance", "--input", FIXTURES / "halfdouble.json", "--output", out]) == 0
        doc = load(out)
        doc["bound"]["value"]["value"] = [1, 8]
        bad = write(tmp_path, "res_bad.json", doc)
        assert run(["verify", "--input", bad]) == 4

    def test_text_format(self, tmp_path, capsys):
        assert run(["resonance", "--input", FIXTURES / "halfdouble.json",
                    "--format", "text"]) == 0
        captured = capsys.readouterr().out
        assert "lattice" in captured and "rank" in captured


def _empty_lattice(lattice):
    lattice.update(rank=0, generators=[], non_simple_generators=[], span_deficit=0,
                   resonant_exponents=[])


class TestVerifyRederivesLatticeAndBound:
    """verify recomputes the lattice and the bound verification from the
    eigenvalues and compares whole sections, so each edit below exits 4."""

    @pytest.mark.parametrize(
        "sub,fixture,edit,field",
        [
            ("classify", "ex2_2d.json",
             lambda d: _empty_lattice(d["classification"]["lattice"]), "classification.lattice"),
            ("classify", "ex2_2d.json",
             lambda d: d["classification"].update(rank_ok=False), "classification.rank_ok"),
            ("resonance", "halfdouble.json",
             lambda d: d["lattice"]["resonant_exponents"].pop(), "lattice.resonant_exponents"),
            ("resonance", "halfdouble.json",
             lambda d: d["lattice"].update(span_deficit=1), "lattice.span_deficit"),
            ("resonance", "halfdouble.json",
             lambda d: d["lattice"].update(non_simple_generators=[[2, 2]]),
             "lattice.non_simple_generators"),
            ("resonance", "halfdouble.json",
             lambda d: d["bound"]["verification"].update(pairs_checked=1), "bound.verification"),
            ("resonance", "halfdouble.json",
             lambda d: d["bound"]["verification"]["witness"].update(component=2),
             "bound.verification"),
            ("resonance", "halfdouble.json",
             lambda d: d["bound"]["verification"].update(
                 min_gap={"type": "rational", "value": [1, 1]}), "bound.verification"),
        ],
    )
    def test_edit_is_4(self, tmp_path, capsys, sub, fixture, edit, field):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        doc = load(rep)
        before = json.dumps(doc, sort_keys=True)
        edit(doc)
        assert json.dumps(doc, sort_keys=True) != before
        bad = write(tmp_path, "bad.json", doc)
        capsys.readouterr()
        assert run(["verify", "--input", bad]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_untouched_reports_still_verify(self, tmp_path):
        for sub, fixture in (("classify", "ex2_3d.json"), ("resonance", "ex2_3d_base.json"),
                             ("resonance", "center.json"), ("classify", "center.json")):
            rep = tmp_path / f"{sub}-{fixture}"
            assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
            assert run(["verify", "--input", rep]) == 0, (sub, fixture)

    def test_true_edited_to_one_is_4(self, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["resonance", "--input", FIXTURES / "halfdouble.json", "--output", rep]) == 0
        doc = load(rep)
        assert doc["bound"]["verification"]["passed"] is True
        doc["bound"]["verification"]["passed"] = 1
        assert run(["verify", "--input", write(tmp_path, "bad.json", doc)]) == 4


class TestVerifyChecksParametersAndResidualOrder:
    """`parameters.order_N` and `parameters.degree_D` are the order and degree
    the sections were built at (`normalization.order` or
    `classification.certified_at.order_N`, `lattice.bound` or
    `certified_at.degree_D`), and `residual_zero_through` is the order once
    the conjugacy residual is zero, so each edit below exits 4."""

    @pytest.mark.parametrize(
        "sub,fixture,edit,field",
        [
            ("normalize", "ex2_2d.json",
             lambda d: d["normalization"].update(residual_zero_through=7),
             "normalization.residual_zero_through"),
            ("normalize", "ex2_3d.json",
             lambda d: d["normalization"].update(residual_zero_through=None),
             "normalization.residual_zero_through"),
            ("classify", "ex2_2d.json",
             lambda d: d["classification"]["normalization"].update(residual_zero_through=9),
             "classification.normalization.residual_zero_through"),
            ("normalize", "ex2_2d.json", lambda d: d["parameters"].update(order_N=9),
             "parameters.order_N"),
            ("classify", "ex2_2d.json", lambda d: d["parameters"].update(order_N=7),
             "parameters.order_N"),
            ("classify", "ex2_3d.json",
             lambda d: d["classification"]["certified_at"].update(order_N=9),
             "classification.certified_at.order_N"),
            ("resonance", "halfdouble.json", lambda d: d["parameters"].update(degree_D=11),
             "parameters.degree_D"),
            ("classify", "ex2_2d.json", lambda d: d["parameters"].update(degree_D=11),
             "parameters.degree_D"),
            ("classify", "center.json", lambda d: d["parameters"].update(degree_D=9),
             "parameters.degree_D"),
        ],
    )
    def test_edit_is_4(self, tmp_path, capsys, sub, fixture, edit, field):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        assert run(["verify", "--input", rep]) == 0
        doc = load(rep)
        edit(doc)
        bad = write(tmp_path, "bad.json", doc)
        capsys.readouterr()
        assert run(["verify", "--input", bad]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: verification failed:") and field in err

    @pytest.mark.parametrize("sub", ["resonance", "normalize", "classify", "integrals", "embed"])
    def test_unedited_reports_verify_0(self, tmp_path, sub):
        for fixture in ("ex2_2d.json", "ex2_3d.json", "center.json"):
            if sub == "embed" and fixture == "center.json":
                continue  # an embedding belongs to a map
            rep = tmp_path / f"{sub}-{fixture}"
            assert run([sub, "--input", FIXTURES / fixture, "--output", rep, "--degree", "9",
                        "--order", "6"]) == 0
            assert run(["verify", "--input", rep]) == 0, (sub, fixture)


class TestTermsAboveTheVerifiedOrder:
    """A claimed term above the order `verify` checks at is not left
    unchecked: the report fails verification."""

    @pytest.mark.parametrize(
        "sub,edit,message",
        [
            ("integrals",
             lambda d: d["integrals"]["search"]["integrals"][0].append({"coeff": [7, 1], "exponent": [5, 4]}),
             "integral 1 in section 'search' has a term of degree 9"),
            ("integrals",
             lambda d: d["integrals"]["pullback"]["integrals"][0].append({"coeff": [1, 3], "exponent": [0, 10]}),
             "integral 1 in section 'pullback' has a term of degree 10"),
            ("normalize",
             lambda d: d["normalization"]["phi"].append({"component": 1, "coeff": [1, 2], "exponent": [9, 0]}),
             "phi has a term of degree 9"),
            ("embed",
             lambda d: d["embedding"]["field"].append({"component": 1, "coeff": [5, 1], "exponent": [9, 0]}),
             "the embedding field has a term of degree 9"),
            ("embed",
             lambda d: d["embedding"]["integrals"][0].append({"coeff": [5, 1], "exponent": [0, 9]}),
             "an embedding integral has a term of degree 9"),
            ("classify",
             lambda d: d["classification"]["normalization"]["g"].append(
                 {"component": 2, "coeff": [5, 1], "exponent": [5, 5]}),
             "g has a term of degree 10"),
        ],
    )
    def test_term_above_order_is_4(self, tmp_path, capsys, sub, edit, message):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        doc = load(rep)
        edit(doc)
        bad = write(tmp_path, "bad.json", doc)
        capsys.readouterr()
        assert run(["verify", "--input", bad]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: verification failed:") and message in err


def term_lists(doc, path=()):
    """The path of every non-empty term list in a report: the system echo's
    terms, phi, g, p, h, the integrals and the embedding field."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from term_lists(value, path + (key,))
    elif isinstance(doc, list):
        if doc and all(isinstance(t, dict) and "exponent" in t for t in doc):
            yield path
        else:
            for i, value in enumerate(doc):
                yield from term_lists(value, path + (i,))


class TestHugeExponentIsRefused:
    """An exponent entry of 10^40 is refused before any part is built: a
    system file or a report's system echo exits 2, a report's claimed
    series exits 4, with an error line and never a traceback."""

    @pytest.mark.parametrize("sub", ["resonance", "normalize", "classify", "integrals", "embed"])
    def test_system_file(self, tmp_path, capsys, sub):
        doc = load(FIXTURES / "ex2_2d.json")
        doc["terms"][-1]["exponent"][0] = 10**40
        assert run([sub, "--input", write(tmp_path, "sys.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "terms[" in err and "is above order_N = 8" in err

    def test_degree_past_the_digit_limit(self, tmp_path, capsys):
        """Two exponent entries at the parse limit sum to a degree with too
        many digits to print: the message gives its size instead."""
        top = int("9" * sys.get_int_max_str_digits())
        doc = dict(HALF_DOUBLE_DOC, terms=[{"component": 1, "exponent": [top, top], "coeff": [1, 1]}])
        assert run(["normalize", "--input", write(tmp_path, "sys.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "-bit integer is above order_N = 8" in err

    def test_system_term_above_order_N(self, tmp_path, capsys):
        """Every solver would drop a system term above order_N, so a system
        file holding one is refused, and so is a report's echo."""
        doc = load(FIXTURES / "ex2_2d.json")
        rep = tmp_path / "rep.json"
        assert run(["normalize", "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        echo = load(rep)
        for terms in (doc["terms"], echo["system"]["terms"]):
            terms.append({"component": 1, "exponent": [0, 12], "coeff": [1, 1]})
        for sub in ("resonance", "normalize", "classify", "integrals", "embed"):
            assert run([sub, "--input", write(tmp_path, "sys.json", doc)]) == 2
        assert run(["verify", "--input", write(tmp_path, "bad.json", echo)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 6 and all(line.endswith("exponent degree 12 is above order_N = 8") for line in err)

    @pytest.mark.parametrize("fixture,sub", [
        (fixture, sub) for fixture in ("ex2_2d.json", "ex2_3d.json", "center.json")
        for sub in ("resonance", "normalize", "classify", "integrals", "embed")
        if (fixture, sub) != ("center.json", "embed")  # an embedding belongs to a map
    ])
    def test_every_term_list_of_a_report(self, tmp_path, capsys, fixture, sub):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        doc = load(rep)
        paths = list(term_lists(doc))
        assert ("system", "terms") in paths
        for k, path in enumerate(paths):
            edited = json.loads(json.dumps(doc))
            terms = functools.reduce(lambda node, key: node[key], path, edited)
            term = terms[k % len(terms)]
            term["exponent"][k % len(term["exponent"])] = 10**40
            code = run(["verify", "--input", write(tmp_path, "bad.json", edited)])
            err = capsys.readouterr().err
            assert code == (2 if path[0] == "system" else 4), path
            assert err.startswith("error:") and "Traceback" not in err


class TestUnreadableInputIs2:
    """Input the JSON reader cannot turn into a document exits 2 with an
    error line, for system files and for reports alike."""

    @staticmethod
    def huge_integer(text, sentinel):
        return text.replace(str(sentinel), "7" * (sys.get_int_max_str_digits() + 1))

    def test_system_integer_over_the_digit_limit(self, tmp_path, capsys):
        doc = dict(HALF_DOUBLE_DOC, terms=[{"component": 1, "exponent": [0, 2], "coeff": [918273645, 1]}])
        path = tmp_path / "big.json"
        path.write_text(self.huge_integer(json.dumps(doc), 918273645))
        assert run(["normalize", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(sys.get_int_max_str_digits()) in err

    def test_report_integer_over_the_digit_limit(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert run(["normalize", "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        doc = load(rep)
        doc["normalization"]["phi"][0]["coeff"] = [918273645, 1]
        path = tmp_path / "big.json"
        path.write_text(self.huge_integer(json.dumps(doc), 918273645))
        capsys.readouterr()
        assert run(["verify", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(sys.get_int_max_str_digits()) in err

    @staticmethod
    def too_deep(path, text, sentinel):
        """Write `text` with the sentinel string replaced by 100 000 nested
        empty lists, past the interpreter's recursion limit."""
        path.write_text(text.replace(json.dumps(sentinel), "[" * 100_000 + "]" * 100_000))
        return path

    def test_system_nested_past_the_recursion_limit(self, tmp_path, capsys):
        path = self.too_deep(tmp_path / "deep.json", json.dumps(dict(HALF_DOUBLE_DOC, terms="deep")), "deep")
        assert run(["resonance", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "recursion limit" in err and "Traceback" not in err

    def test_report_nested_past_the_recursion_limit(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert run(["normalize", "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        doc = load(rep)
        doc["normalization"]["phi"] = "deep"
        path = self.too_deep(tmp_path / "deep.json", json.dumps(doc), "deep")
        capsys.readouterr()
        assert run(["verify", "--input", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "recursion limit" in err and "Traceback" not in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "map\xe9"}')
        assert run(["classify", "--input", path]) == 2
        assert capsys.readouterr().err.startswith("error:")


def big_coefficient_map(c, order):
    """mu = (1/2, 2), f = c*y1^2 e1 + (c/3)*y2^2 e2: coefficients of phi grow
    like powers of c."""
    return dict(HALF_DOUBLE_DOC, degree_D=4, order_N=order, terms=[
        {"component": 1, "exponent": [2, 0], "coeff": [c, 1]},
        {"component": 2, "exponent": [0, 2], "coeff": [c, 3]},
    ])


class TestLargeCoefficients:
    def test_growth_ratio_past_the_float_range_is_inf(self, tmp_path, capsys):
        path = write(tmp_path, "big.json", big_coefficient_map(10**400 + 7, 5))
        for sub in ("normalize", "classify"):
            rep = tmp_path / f"{sub}.json"
            assert run([sub, "--input", path, "--output", rep]) == 0
            doc = load(rep)
            growth = doc["growth"] if sub == "normalize" else doc["classification"]["growth"]
            assert growth["ratio"] == "inf" and float(growth["log_slope"]) > 709
            assert run(["verify", "--input", rep]) == 0
        assert run(["normalize", "--input", path, "--format", "text"]) == 0
        assert "ratio inf" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_output_integer_over_the_digit_limit_is_3(self, tmp_path, capsys, fmt):
        path = write(tmp_path, "big.json", big_coefficient_map(10**300 + 7, 18))
        rep = tmp_path / "rep.out"
        capsys.readouterr()
        assert run(["normalize", "--input", path, "--format", fmt, "--output", rep]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(sys.get_int_max_str_digits()) in err
        assert "Traceback" not in err
        assert not rep.exists()
        assert run(["normalize", "--input", path, "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


    def test_huge_multiplier_resonance_is_3_within_budget(self, tmp_path, capsys):
        """mu = (x, 1/x, x) with a 4300-digit x: 286 exponents at D = 10 but
        only 21 values, so the scans cost 21 divisor comparisons per j, not
        286; the report's integers are too long to write out."""
        x = 10**4299 + 7
        path = write(tmp_path, "huge.json", dict(
            HALF_DOUBLE_DOC, n=3, degree_D=10, order_N=4,
            eigen={"form": "mult-rational", "values": [[x, 1], [1, x], [x, 1]]},
        ))
        start = time.perf_counter()
        code = run(["resonance", "--input", path])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 3 and str(sys.get_int_max_str_digits()) in err
        assert elapsed < 4.0, f"resonance took {elapsed:.2f} s"


def _pop_residual_zero(section):
    section.pop("residual_zero")


def _hyperbola_embedding(emb):
    """y1*y2 with the field (y1, -y2) it is a level set of: tangent, but
    not an integral of the map."""
    emb.update(
        integrals=[[{"exponent": [1, 1], "coeff": [1, 1]}]],
        field=[{"component": 1, "exponent": [1, 0], "coeff": [1, 1]},
               {"component": 2, "exponent": [0, 1], "coeff": [-1, 1]}],
        equivariance_zero=False,
    )


class TestVerifyRederivesIntegralClaims:
    """`residual_zero`, `tangency_zero` and `equivariance_zero` are compared
    whole with the recomputed residuals, the integrals sections and
    `pullback.generators` with the lattice, and an embedding carries exactly
    n-1 integrals of the map."""

    @pytest.mark.parametrize(
        "sub,edit,field",
        [
            ("integrals", lambda d: d["integrals"]["search"]["residual_zero"].__setitem__(0, False),
             "integrals.search.residual_zero"),
            ("integrals", lambda d: d["integrals"]["pullback"]["residual_zero"].__setitem__(0, False),
             "integrals.pullback.residual_zero"),
            ("integrals", lambda d: _pop_residual_zero(d["integrals"]["search"]),
             "integrals.search.residual_zero"),
            ("integrals", lambda d: _pop_residual_zero(d["integrals"]["pullback"]),
             "integrals.pullback.residual_zero"),
            # an empty section holds no independence certificate
            ("integrals", lambda d: d["integrals"]["search"]["integrals"].clear(),
             "integrals.search.independence"),
            ("embed", lambda d: d["embedding"]["integrals"].clear(), "0 integrals, not n-1 = 1"),
            ("embed", lambda d: d["embedding"]["integrals"].append(d["embedding"]["integrals"][0]),
             "2 integrals, not n-1 = 1"),
            ("embed", lambda d: d["embedding"].update(tangency_zero=[False]), "embedding.tangency_zero"),
            ("embed", lambda d: d["embedding"].update(equivariance_zero=False),
             "embedding.equivariance_zero"),
            ("embed", lambda d: _hyperbola_embedding(d["embedding"]), "not an integral of the map"),
            ("integrals", lambda d: d["integrals"]["pullback"].update(generators=[[9, 9]]),
             "integrals.pullback.generators"),
            ("integrals", lambda d: d["integrals"]["pullback"].pop("generators"),
             "integrals.pullback.generators"),
            ("integrals", lambda d: d["integrals"].pop("pullback"), "integrals (its sections)"),
            ("integrals", lambda d: d["integrals"].update(extra={"integrals": [], "residual_zero": []}),
             "integrals (its sections)"),
        ],
    )
    def test_edit_is_4(self, tmp_path, capsys, sub, edit, field):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        assert run(["verify", "--input", rep]) == 0
        doc = load(rep)
        edit(doc)
        bad = write(tmp_path, "bad.json", doc)
        capsys.readouterr()
        assert run(["verify", "--input", bad]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: verification failed:") and field in err


class TestVerifyRebuildsTheEmbeddingField:
    """`verify` rebuilds the field from the claimed integrals and compares
    it whole, so it refuses an edit the residuals cannot see: on `ex2_3d`
    (order 7, intertwining residual nonzero) the tangency residuals through
    order 7 do not see the field's degree-7 terms."""

    @pytest.mark.parametrize("component,exponent", [(1, [2, 2, 3]), (2, [1, 3, 3]), (3, [1, 2, 4])])
    def test_raised_top_degree_coefficient_is_4(self, tmp_path, capsys, component, exponent):
        rep = tmp_path / "rep.json"
        assert run(["embed", "--input", FIXTURES / "ex2_3d.json", "--output", rep]) == 0
        doc = load(rep)
        assert doc["embedding"]["order"] == 7 and not doc["embedding"]["equivariance_zero"]
        [term] = [t for t in doc["embedding"]["field"] if (t["component"], t["exponent"]) == (component, exponent)]
        term["coeff"][0] += term["coeff"][1]
        capsys.readouterr()
        assert run(["verify", "--input", write(tmp_path, "bad.json", doc)]) == 4
        assert capsys.readouterr().err == "error: verification failed: embedding.field does not match a recomputation\n"


def _delete_pullback(sections, i):
    del sections["pullback"]["integrals"][i]
    del sections["pullback"]["residual_zero"][i]


def _search_for_pullback(sections, i, k):
    sections["pullback"]["integrals"][i] = sections["search"]["integrals"][k]


class TestVerifyPinsTheClaimedIntegrals:
    """No section claims a zero integral, and the pullback section holds one
    integral per lattice generator g, in order, each y^g plus higher terms:
    its residuals alone would let any integral stand in."""

    @staticmethod
    def refused(tmp_path, capsys, fixture, edit, message):
        rep = tmp_path / "rep.json"
        assert run(["integrals", "--input", FIXTURES / fixture, "--output", rep]) == 0
        assert run(["verify", "--input", rep]) == 0
        doc = load(rep)
        edit(doc["integrals"])
        capsys.readouterr()
        assert run(["verify", "--input", write(tmp_path, "bad.json", doc)]) == 4
        assert capsys.readouterr().err == f"error: verification failed: {message}\n"

    @pytest.mark.parametrize("fixture", ["center.json", "ex2_2d.json"])
    @pytest.mark.parametrize("section", ["search", "pullback"])
    def test_zero_integral_is_4(self, tmp_path, capsys, fixture, section):
        self.refused(tmp_path, capsys, fixture, lambda d: d[section]["integrals"].__setitem__(0, []),
                     f"section '{section}' claims a zero integral")

    @pytest.mark.parametrize(
        "fixture,edit",
        [
            ("ex2_3d.json", lambda d: _delete_pullback(d, 0)),
            ("ex2_3d.json", lambda d: _delete_pullback(d, 1)),
            ("ex2_3d.json", lambda d: d["pullback"]["integrals"].reverse()),
            ("ex2_3d.json", lambda d: _search_for_pullback(d, 1, 1)),  # -27 y^g + ...
            ("ex2_2d.json", lambda d: _search_for_pullback(d, 0, 0)),  # -y^g + ...
            ("center.json", lambda d: _search_for_pullback(d, 0, 1)),  # y^(2g)
            ("center.json", lambda d: d["pullback"]["integrals"][0][0].update(coeff=[3, 1])),  # 3 y^g
        ],
        ids=["delete-first", "delete-second", "reorder", "search-3d", "search-2d", "square", "times-three"],
    )
    def test_pullback_list_is_4(self, tmp_path, capsys, fixture, edit):
        self.refused(tmp_path, capsys, fixture, edit,
                     "the pullback integrals are not one y^g plus higher terms per lattice generator g, in order")


def _times_three(terms):
    terms[0]["coeff"] = [3 * x for x in terms[0]["coeff"]]


class TestVerifyChecksCanonicalTerms:
    """An integral or embedding term list, and the system echo, must be the
    canonical writing of what they hold (graded-lex order, lowest terms, no
    zero or repeated term), as phi and g already must: each edit below keeps
    the series an integral, or the same series or system, and exits 4."""

    @pytest.mark.parametrize(
        "sub,fixture,edit,field",
        [
            ("integrals", "ex2_3d.json", lambda d: d["integrals"]["search"]["integrals"][0].reverse(),
             "integrals.search.integrals"),
            ("integrals", "ex2_3d.json", lambda d: _times_three(d["integrals"]["pullback"]["integrals"][1]),
             "integrals.pullback.integrals"),
            ("integrals", "ex2_3d.json",
             lambda d: d["integrals"]["search"]["integrals"][3].append(d["integrals"]["search"]["integrals"][3][0]),
             "integrals.search.integrals"),
            ("integrals", "ex2_3d.json",
             lambda d: d["integrals"]["search"]["integrals"][0].append({"coeff": [0, 1], "exponent": [1, 1, 1]}),
             "integrals.search.integrals"),
            ("embed", "ex2_2d.json", lambda d: d["embedding"]["field"].reverse(), "embedding.field"),
            ("embed", "ex2_2d.json", lambda d: _times_three(d["embedding"]["field"]), "embedding.field"),
            ("embed", "ex2_2d.json", lambda d: d["embedding"]["integrals"][0].reverse(), "embedding.integrals"),
            ("normalize", "ex2_2d.json", lambda d: d["system"]["terms"].reverse(), "system.terms"),
            ("normalize", "ex2_2d.json", lambda d: _times_three(d["system"]["terms"]), "system.terms"),
            ("normalize", "ex2_2d.json", lambda d: d["system"]["eigen"]["values"].__setitem__(0, [2, 4]),
             "system.eigen.values"),
        ],
    )
    def test_edit_is_4(self, tmp_path, capsys, sub, fixture, edit, field):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        doc = load(rep)
        edit(doc)
        bad = write(tmp_path, "bad.json", doc)
        capsys.readouterr()
        assert run(["verify", "--input", bad]) == 4
        assert capsys.readouterr().err == f"error: verification failed: {field} does not match a recomputation\n"


EARLY_VERDICT_SYSTEMS = {
    # no multiplier resonance: the lattice has rank 0, not n-1 = 1
    "rank-0": dict(HALF_DOUBLE_DOC, eigen={"form": "mult-rational", "values": [[2, 1], [3, 1]]},
                   terms=[{"component": 1, "exponent": [1, 1], "coeff": [1, 1]}]),
    "unit-circle": dict(HALF_DOUBLE_DOC, eigen={"form": "mult-rational", "values": [[1, 1], [-1, 1]]}),
    "nilpotent": {"kind": "field", "n": 2, "eigen": {"form": "additive", "values": [[0, 1], [0, 1]]},
                  "terms": [{"component": 1, "exponent": [0, 2], "coeff": [1, 1]}]},
}


class TestVerifyRederivesClassification:
    """`verify` re-derives a classify report's whole `classification` body
    through `classify`, from the claimed distinguished pair, and a normalize
    report's `normalization` and `growth` from the claimed pair; a mismatch
    names the deepest key that differs."""

    @pytest.mark.parametrize("name", sorted(EARLY_VERDICT_SYSTEMS))
    def test_verdict_before_normalizing_verifies(self, tmp_path, capsys, name):
        rep, out = tmp_path / "rep.json", tmp_path / "out.json"
        assert run(["classify", "--input", write(tmp_path, "sys.json", EARLY_VERDICT_SYSTEMS[name]),
                    "--output", rep]) == 0
        doc = load(rep)
        assert "normalization" not in doc["classification"] and doc["classification"]["witness"]
        assert run(["verify", "--input", rep, "--output", out]) == 0
        assert load(out)["verify"]["checked"] == ["classification"]
        for key in ("verdict", "witness"):
            bad = json.loads(json.dumps(doc))
            bad["classification"][key] += "x"
            capsys.readouterr()
            assert run(["verify", "--input", write(tmp_path, "bad.json", bad)]) == 4
            assert f"classification.{key} does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("sub,where", [("normalize", "normalization"),
                                           ("classify", "classification.normalization")])
    def test_pair_above_the_system_order_is_2(self, tmp_path, capsys, sub, where):
        """A claimed pair is checked against system data only through the
        system's order_N: above it the linear halfdouble map would pass."""
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / "halfdouble.json", "--output", rep]) == 0
        doc = load(rep)
        doc["system"]["order_N"] = 4
        capsys.readouterr()
        assert run(["verify", "--input", write(tmp_path, "bad.json", doc)]) == 2
        assert f"{where}.order: order = 8 exceeds the system's order_N = 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sub,fixture,edit,field",
        [
            ("classify", "ex2_2d.json", lambda c: c["shape"].update(ok=False), "classification.shape.ok"),
            ("classify", "ex2_3d.json", lambda c: c["single_function_reduction"].update(base_component=1),
             "classification.single_function_reduction.base_component"),
            ("classify", "center.json", lambda c: c["growth"].update(super_geometric=True),
             "classification.growth.super_geometric"),
            ("classify", "center.json", lambda c: c.pop("h"), "classification.h"),
            ("classify", "ex2_2d.json", lambda c: c.pop("witness"), "classification.witness"),
            # a p of the wrong length is compared whole, as every other claim
            ("classify", "ex2_2d.json", lambda c: c["p"].pop(), "classification.p"),
            ("normalize", "ex2_3d.json", lambda d: d["growth"].update(log_slope="0.000000"),
             "growth.log_slope"),
        ],
    )
    def test_edit_names_the_leaf(self, tmp_path, capsys, sub, fixture, edit, field):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        doc = load(rep)
        edit(doc["classification"] if sub == "classify" else doc)
        capsys.readouterr()
        assert run(["verify", "--input", write(tmp_path, "bad.json", doc)]) == 4
        assert capsys.readouterr().err == f"error: verification failed: {field} does not match a recomputation\n"


# every fixture x solver report of the three fixtures; an embedding belongs to a map
FIXTURE_REPORTS = [(fixture, sub) for fixture in ("ex2_2d.json", "ex2_3d.json", "center.json")
                   for sub in SOLVERS if (fixture, sub) != ("center.json", "embed")]


def informational(sub, path):
    """Whether `verify` copies the leaf at path from the claim: the set its
    docstring declares."""
    return (path[0] == "tool" or path == ("parameters", "seed")
            or path == ("parameters", "degree_D") and sub in ("normalize", "embed")
            or path == ("parameters", "order_N") and sub == "resonance"
            or path[0] == "integrals" and path[2] == "independence")


def always_refused(sub, path):
    """Leaves no section-by-section match covered, which the whole rebuild
    refuses every edit of: the subcommand, an embed report's order_N, the
    embedding's flags, time-one term count and time-one verdict (copied,
    but the flags must agree with it), and the coefficients of the
    embedding field, which is rebuilt from the claimed integrals."""
    return (path[0] == "subcommand" or sub == "embed" and path == ("parameters", "order_N")
            or path[:1] == ("embedding",) and path[1] in ("flags", "time_one_terms", "time_one_matches_map")
            or path[:2] == ("embedding", "field") and path[-2] == "coeff")


def still_a_valid_claim(doc, path, edited):
    """Whether a leaf edit outside the informational set leaves a claim
    that the system data does not refute: a coefficient of an integral that
    is still an integral, or an integrals report's degree_D where the
    lattice's generators are unchanged at degree_D + 1."""
    from helpers import oracle_read_terms
    from dulac.cli import _system_from_doc
    from dulac.integrals import verify_integral
    from dulac.resonance import enumerate_lattice

    sf = _system_from_doc(doc["system"], "system")
    system, n = sf.system(), sf.n
    if path == ("parameters", "degree_D") and doc["subcommand"] == "integrals":
        D = doc["parameters"]["degree_D"]
        return enumerate_lattice(sf.eigen, D).generators == enumerate_lattice(sf.eigen, D + 1).generators
    if path[:1] == ("integrals",) and path[2:3] == ("integrals",) and path[-2] == "coeff":
        N = doc["parameters"]["order_N"]
        [V] = oracle_read_terms(edited["integrals"][path[1]]["integrals"][path[3]], "V", n, N, vector=False)
        return verify_integral(V, system, N).is_zero()
    return False


def nodes(doc, path=()):
    """The path of every node of a JSON document, containers and the root
    included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from nodes(value, path + (key,))


def known_deletion_exit(doc, path, i, paired):
    """The exit code of deleting doc[path][i] (with its `residual_zero`
    entry when paired) that `verify` does not refuse with 4, or None:
    - a search integral deleted with its `residual_zero` entry verifies (0):
      `verify` does not re-derive the completeness of the search; but an
      emptied section drops its `independence`, which the claim still holds
      (4);
    - a term above the lowest of a pullback integral whose claimed
      `residual_zero` is false verifies (0): the pullback is not re-derived,
      and the edited integral still has a nonzero residual;
    - `independence.witness_point` is informational (0);
    - an entry of a term's coeff or exponent leaves a malformed term in a
      claimed series `verify` reads (2); the classification's p and h are
      compared as they stand."""
    if paired and path[:3] == ("integrals", "search", "integrals"):
        return 0 if len(doc["integrals"]["search"]["integrals"]) > 1 else None
    if (not paired and path[:3] == ("integrals", "pullback", "integrals") and len(path) == 4 and i > 0
            and doc["integrals"]["pullback"]["residual_zero"][path[3]] is False):
        return 0
    if "witness_point" in path:
        return 0
    if path[-1] in ("coeff", "exponent") and type(path[-2]) is int and (
            path[0] != "classification" or path[1] == "normalization"):
        return 2
    return None


class TestVerifyRebuildsTheWholeReport:
    """`verify` rebuilds the whole report its `subcommand` names from the
    report's claims, with the solver's writers, and compares it once: a leaf
    edit passes only on the declared informational leaves or where the
    edited claim is still valid, a list-element deletion exits 4 unless it
    is a known exit, and a malformed report of any shape exits 2, 3 or 4
    without a traceback."""

    @pytest.mark.parametrize("fixture,sub", FIXTURE_REPORTS)
    def test_every_leaf_edit_outside_the_echo(self, tmp_path, capsys, fixture, sub):
        from helpers import leaf_edits

        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        doc = load(rep)
        edits = [(path, edited) for path, edited in leaf_edits(doc) if path[0] != "system"]
        assert len(edits) > 10
        unexplained, passed = [], []
        for path, edited in edits:
            code = run(["verify", "--input", write(tmp_path, "bad.json", edited)])
            assert code in (0, 2, 3, 4), path
            if always_refused(sub, path):
                assert code == 4, path
            if code == 0:
                passed.append(path)
                if not (informational(sub, path) or still_a_valid_claim(doc, path, edited)):
                    unexplained.append(path)
        capsys.readouterr()
        assert unexplained == []
        # the informational leaves the report holds all pass
        assert {p for p, _ in edits if informational(sub, p)} <= set(passed)

    @staticmethod
    def every_deletion_exits_as_known(tmp_path, text):
        """Each element of each list outside the echo of the report `text`
        deleted alone, and a deleted integral together with its
        `residual_zero` entry: exit 4, unless `known_deletion_exit` lists
        the deletion.  Returns the number of deletions."""
        from helpers import element_deletions

        doc = json.loads(text)
        cases = [(path, i, False) for path, i in element_deletions(doc) if path[0] != "system"]
        cases += [(path, i, True) for path, i, _ in cases
                  if path[0] == "integrals" and path[2:] == ("integrals",)]
        for path, i, paired in cases:
            edited = json.loads(text)
            del functools.reduce(lambda node, key: node[key], path, edited)[i]
            if paired:
                del edited["integrals"][path[1]]["residual_zero"][i]
            code = run(["verify", "--input", write(tmp_path, "bad.json", edited)])
            known = known_deletion_exit(doc, path, i, paired)
            assert code == (4 if known is None else known), (path, i, paired)
        return len(cases)

    @pytest.mark.parametrize("fixture,sub", FIXTURE_REPORTS)
    def test_every_list_element_deletion(self, tmp_path, capsys, fixture, sub):
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        assert self.every_deletion_exits_as_known(tmp_path, rep.read_text()) > 5
        capsys.readouterr()

    def test_every_list_element_deletion_in_the_integrals_catalogue(self, tmp_path, capsys):
        """The deletions of the `integrals` report of catalogue entry 0 of
        each `integrals` class of the benchmark: planted maps and resonant
        fields, whose pullback integrals on fields have nonzero residuals."""
        sys.path.insert(0, str(FIXTURES.parent / "bench"))
        import workloads

        classes = workloads.WORKLOADS["integrals"]
        assert len(classes) == 13
        deletions = 0
        for klass in classes:
            op = workloads.catalogue_entry("integrals", klass, 0)
            rep = tmp_path / "rep.json"
            assert run([op.subcommand, "--input", write(tmp_path, "sys.json", op.system), "--output", rep]) == 0
            deletions += self.every_deletion_exits_as_known(tmp_path, rep.read_text())
        assert deletions > 1000
        capsys.readouterr()

    @pytest.mark.parametrize("fixture,sub", [(f, s) for f, s in FIXTURE_REPORTS if f != "ex2_3d.json"])
    def test_structural_fuzz(self, tmp_path, capsys, fixture, sub):
        """Each node deleted, set to null, and set to one value drawn by a
        fixed seed."""
        import random

        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        text = rep.read_text()
        doc = json.loads(text)
        rng = random.Random(f"{fixture}/{sub}")
        values = [[], {}, "x", True, 10**40, -1, 0, [1], [0, 2]]
        for path in nodes(doc):
            for mutation in ("delete", None, rng.choice(values)):
                if mutation == "delete" and not path:
                    continue
                edited = json.loads(text)
                if path:
                    parent = functools.reduce(lambda node, key: node[key], path[:-1], edited)
                    if mutation == "delete":
                        del parent[path[-1]]
                    else:
                        parent[path[-1]] = json.loads(json.dumps(mutation))
                else:
                    edited = mutation
                code = run(["verify", "--input", write(tmp_path, "bad.json", edited)])
                err = capsys.readouterr().err
                assert code in (0, 2, 3, 4) and "Traceback" not in err, (path, mutation)

    @pytest.mark.parametrize("sub", SOLVERS)
    def test_dispatch_on_subcommand(self, tmp_path, capsys, sub):
        """A report verifies only as the solver that wrote it, whole, with
        its parameters an object."""
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        doc = load(rep)
        edits = [lambda d, other=other: d.update(subcommand=other)
                 for other in SOLVERS + ("verify", "frobnicate") if other != sub]
        edits += [lambda d: d.pop("subcommand"), lambda d: d.update(extra=1),
                  lambda d: d.update(parameters=[]), lambda d: d.update(parameters="x")]
        for edit in edits:
            edited = json.loads(json.dumps(doc))
            edit(edited)
            assert run(["verify", "--input", write(tmp_path, "bad.json", edited)]) in (2, 4)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == len(edits) and all(line.startswith("error:") for line in err)


def test_python_m_dulac_writes_the_cli_report(tmp_path):
    """`python -m dulac` runs `cli.main`: same exit code, same report bytes."""
    src = Path(__file__).resolve().parent.parent / "src"
    rep = tmp_path / "rep.json"
    assert run(["resonance", "--input", FIXTURES / "halfdouble.json", "--output", rep]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "dulac", "resonance", "--input", str(FIXTURES / "halfdouble.json")],
        capture_output=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == rep.read_bytes()


def verify_both_ways(monkeypatch, capsys, path):
    """(exit code, stdout, stderr) of `verify` on the report at path, as it
    runs and with every claimed term list rebuilt and compared
    (`helpers.rebuilding_reader`)."""
    from helpers import rebuilding_reader

    from dulac import cli

    capsys.readouterr()
    got = (run(["verify", "--input", path]), *capsys.readouterr())
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_read_terms", rebuilding_reader(cli._read_terms))
        return got, (run(["verify", "--input", path]), *capsys.readouterr())


# (name, subcommand, path, whether its terms carry a component) of one term
# list of each kind `verify` reads from a report of ex2_3d, each of two or
# more terms
CLAIMED_LISTS = [
    ("echo", "normalize", ("system", "terms"), True),
    ("phi", "normalize", ("normalization", "phi"), True),
    ("g", "normalize", ("normalization", "g"), True),
    ("classify phi", "classify", ("classification", "normalization", "phi"), True),
    ("search", "integrals", ("integrals", "search", "integrals", 0), False),
    ("pullback", "integrals", ("integrals", "pullback", "integrals", 0), False),
    ("embedding", "embed", ("embedding", "integrals", 0), False),
]

# one edit each that takes a list out of written form, in place
WRITTEN_FORM_EDITS = {
    "swap two terms": lambda terms: terms.__setitem__(slice(0, 2), terms[1::-1]),
    "repeat a term": lambda terms: terms.insert(1, dict(terms[0])),
    "scale a coefficient by 2/2": lambda terms: terms[0].update(coeff=[2 * x for x in terms[0]["coeff"]]),
    "negate a denominator": lambda terms: terms[0]["coeff"].__setitem__(1, -terms[0]["coeff"][1]),
    "zero numerator": lambda terms: terms[0]["coeff"].__setitem__(0, 0),
    "real as four ints": lambda terms: terms[0]["coeff"].extend([0, 1]),
    "extra key": lambda terms: terms[0].update(note=0),
    "true in an exponent": lambda terms: terms[0]["exponent"].__setitem__(0, True),
    "no component": lambda terms: terms[0].pop("component"),
}


class TestWrittenFormIsTakenAsRead:
    """`verify` takes a claimed term list in written form as read and
    rebuilds and compares any other: each way gives the same exit code,
    stdout and stderr.  An edit that takes a list out of written form exits
    4, or 2 where the term it leaves is malformed: an exponent entry true,
    a vector term without a component, or a Gaussian coefficient in the
    echo of a rational system."""

    @pytest.mark.parametrize("name,sub,path,vector,edit", [
        (*claimed, edit) for claimed in CLAIMED_LISTS for edit in sorted(WRITTEN_FORM_EDITS)
        if claimed[3] or edit != "no component"])
    def test_edit_out_of_written_form(self, tmp_path, capsys, monkeypatch, name, sub, path, vector, edit):
        from helpers import oracle_in_written_form

        from dulac.cli import _read_terms

        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / "ex2_3d.json", "--output", rep]) == 0
        doc = load(rep)
        terms = functools.reduce(lambda node, key: node[key], path, doc)
        n, N = doc["system"]["n"], doc["system"]["order_N"]
        assert len(terms) >= 2 and oracle_in_written_form(terms, n, N, vector)
        assert _read_terms(terms, name, n, N, vector=vector, as_read=True)[1] is terms
        WRITTEN_FORM_EDITS[edit](terms)
        malformed = edit in ("true in an exponent", "no component") or edit == "real as four ints" and name == "echo"
        if not malformed:
            assert not oracle_in_written_form(terms, n, N, vector)
            assert _read_terms(terms, name, n, N, vector=vector, as_read=True)[1] is None
        new, old = verify_both_ways(monkeypatch, capsys, write(tmp_path, "bad.json", doc))
        assert new == old and new[0] == (2 if malformed else 4) and new[2].startswith("error: ")

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_unedited_reports_take_every_list_as_read(self, tmp_path, capsys, monkeypatch, fixture):
        """Every report of every fixture and solver verifies with the same
        output both ways, and `verify` takes each of its term lists as read."""
        from dulac import cli

        read, taken = cli._read_terms, []

        def spy(*args, **kwargs):
            out = read(*args, **kwargs)
            if kwargs.get("as_read"):
                taken.append(out[1] is args[0])
            return out

        reports = 0
        for sub in SOLVERS:
            rep = tmp_path / f"{sub}.json"
            if run([sub, "--input", FIXTURES / fixture, "--output", rep]) != 0:
                continue
            reports += 1
            new, old = verify_both_ways(monkeypatch, capsys, rep)
            assert new == old and new[0] == 0, sub
            taken.clear()
            with monkeypatch.context() as mp:
                mp.setattr(cli, "_read_terms", spy)
                assert run(["verify", "--input", rep]) == 0
            assert taken and all(taken), sub
        assert reports >= 2

    @pytest.mark.parametrize("fixture,sub", FIXTURE_REPORTS)
    def test_seeded_edits_and_deletions(self, tmp_path, capsys, monkeypatch, fixture, sub):
        """Seeded leaf edits and list-element deletions of a fixture report,
        the echo included: the same exit code and output both ways."""
        from helpers import element_deletions, leaf_edits

        rep = tmp_path / "rep.json"
        assert run([sub, "--input", FIXTURES / fixture, "--output", rep]) == 0
        text = rep.read_text()
        doc = json.loads(text)
        rng = random.Random(f"as-read/{fixture}/{sub}")
        edits = list(leaf_edits(doc))
        cases = [edited for _, edited in rng.sample(edits, min(150, len(edits)))]
        deletions = list(element_deletions(doc))
        for path, i in rng.sample(deletions, min(150, len(deletions))):
            edited = json.loads(text)
            del functools.reduce(lambda node, key: node[key], path, edited)[i]
            cases.append(edited)
        codes = set()
        for edited in cases:
            new, old = verify_both_ways(monkeypatch, capsys, write(tmp_path, "bad.json", edited))
            assert new == old
            codes.add(new[0])
        assert 4 in codes


class TestReportWriter:
    """`_emit` writes json.dumps(report, indent=2, sort_keys=True) + "\\n" byte
    for byte, through its own writer."""

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
    def test_every_fixture_report_is_json_dumps(self, tmp_path, monkeypatch, fixture):
        from dulac import cli

        emitted, emit = [], cli._emit

        def recording(report, args):
            emitted.append(report)
            emit(report, args)

        monkeypatch.setattr(cli, "_emit", recording)
        written = 0
        for sub in SOLVERS:
            rep, ver = tmp_path / f"{sub}.json", tmp_path / f"{sub}-verify.json"
            emitted.clear()
            if run([sub, "--input", FIXTURES / fixture, "--output", rep]) != 0:
                assert not emitted
                continue
            assert run(["verify", "--input", rep, "--output", ver]) == 0
            for report, path in zip(emitted, (rep, ver)):
                assert path.read_text(encoding="utf-8") == json.dumps(report, indent=2, sort_keys=True) + "\n"
                written += 1
        assert written >= 4

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES)
    def test_any_json_value_is_json_dumps(self, value):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit(value, argparse.Namespace(format="json", output=None))
        assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_writer_covers_the_edge_cases(self):
        edge = {"": [], "é ": {}, '"\\\x00\x1f': [True, 1, None, False, 0, -1],
                "z": [[{}], [[]], 10**4299 - 1, -(10**4299 - 1)], "a": "\ud800 \U0001f600"}
        assert _json_text(edge) == json.dumps(edge, indent=2, sort_keys=True)

    def test_term_lists_cover_the_edge_cases(self):
        """Term shapes mixed in one list, and lists with one item that is
        not a series term, which are written item by item."""
        from helpers import oracle_json_text

        term, gauss = {"coeff": [1, -2], "component": 2, "exponent": [0, 3]}, {"coeff": [0, 1, 5, 3], "exponent": [1]}
        for terms in ([term, gauss, term, {"coeff": [10**4299 - 1, 1], "exponent": [0, 0, 7]}],
                      [term, dict(term, coeff=[True, 1])], [term, dict(term, exponent=[])], [gauss, [1, 2]],
                      [term, dict(term, component=1.5)], [dict(term, extra=0), term], [term, None], [gauss, "x"],
                      [dict(gauss, component=True)], [term, dict(term, coeff=(1, 2))], [(term,)]):
            value = {"a": {"t": terms}}
            assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True) == oracle_json_text(value)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(TERM_OBJECTS | SERIES_TERMS, min_size=1, max_size=6) | st.lists(SERIES_TERMS, min_size=1))
    def test_term_lists_are_json_dumps(self, terms):
        """Lists of series terms of any shape, mixed with the term-shaped
        objects above, against json and against the per-term writer the
        templates replaced (`helpers.oracle_json_text`)."""
        from helpers import oracle_json_text

        value = {"terms": terms}
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True) == oracle_json_text(value)

    def test_catalogue_reports_are_json_dumps(self, tmp_path, monkeypatch):
        """The solver and verify reports of entry 0 of each size class of
        every benchmark workload."""
        from helpers import oracle_json_text

        from dulac import cli

        sys.path.insert(0, str(FIXTURES.parent / "bench"))
        import workloads

        emitted, emit = [], cli._emit
        monkeypatch.setattr(cli, "_emit", lambda report, args: (emitted.append(report), emit(report, args)))
        for name, classes in workloads.WORKLOADS.items():
            for klass in classes:
                op = workloads.catalogue_entry(name, klass, 0)
                path, rep = write(tmp_path, "sys.json", op.system), tmp_path / "rep.json"
                emitted.clear()
                assert run([op.subcommand, "--input", path, "--output", rep]) == 0, op.key
                assert run(["verify", "--input", rep, "--output", tmp_path / "ver.json"]) == 0, op.key
                assert len(emitted) == 2
                for report in emitted:
                    text = _json_text(report)
                    assert text == json.dumps(report, indent=2, sort_keys=True) == oracle_json_text(report), op.key


class TestBooleansAreNotIntegers:
    """JSON true and false are refused wherever the input format asks for an
    integer (exit 2); at the parent most of these inputs ran as 1 and 0."""

    TERM = {"component": 1, "exponent": [1, 1], "coeff": [1, 3]}

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.update(n=True, eigen={"form": "mult-rational", "values": [[2, 1]]}, terms=[]),
             "field 'n' has the wrong type"),
            (lambda d: d["terms"][0].update(component=True), "field 'component' has the wrong type"),
            (lambda d: d["terms"][0].update(exponent=[True, 1]), "exponent must be 2 nonnegative integers"),
            (lambda d: d["terms"][0].update(coeff=[True, 3]), "scalars must be integer pairs"),
            (lambda d: d["eigen"].update(values=[[1, True], [2, 1]]), "scalars must be integer pairs"),
            (lambda d: d.update(eigen={"form": "mult-base", "exponents": [[True, 1], [-1, 1]]}),
             "rationals are integer pairs"),
            (lambda d: d.update(eigen={"form": "mult-base", "exponents": [[1, 1], [-1, 1]],
                                       "phases": [[0, 1], [False, 2]]}),
             "rationals are integer pairs"),
            (lambda d: d.update(degree_D=True), "degree_D must be an integer >= 2"),
            (lambda d: d.update(order_N=True), "order_N must be an integer >= 2"),
            (lambda d: d["terms"].__setitem__(0, {"component": True, "exponent": [True, 1], "coeff": [True, 3]}),
             "field 'component' has the wrong type"),
        ],
    )
    def test_boolean_is_2(self, tmp_path, capsys, edit, message):
        doc = json.loads(json.dumps(dict(HALF_DOUBLE_DOC, terms=[self.TERM])))
        assert run(["normalize", "--input", write(tmp_path, "ok.json", doc), "--output", tmp_path / "ok"]) == 0
        edit(doc)
        assert run(["normalize", "--input", write(tmp_path, "bad.json", doc), "--output", tmp_path / "rep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_boolean_in_a_report_is_2(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        assert run(["normalize", "--input", FIXTURES / "ex2_2d.json", "--output", rep]) == 0
        doc = load(rep)
        doc["normalization"]["phi"][0]["exponent"][0] = bool(doc["normalization"]["phi"][0]["exponent"][0])
        assert run(["verify", "--input", write(tmp_path, "bad.json", doc)]) == 2
        assert "exponent must be 2 nonnegative integers" in capsys.readouterr().err


class TestTypeFaithfulMatch:
    """`cli._same`, the equality `_require_match` compares with, against the
    JSON text comparison it replaced."""

    @staticmethod
    def text(value):
        return json.dumps(value, sort_keys=True)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(JSON_VALUES, JSON_VALUES)
    def test_same_is_equal_json_text(self, a, b):
        from helpers import leaf_edits

        assert _same(a, b) == (self.text(a) == self.text(b))
        assert _same(a, json.loads(json.dumps(a)))
        for _, edited in leaf_edits(a):
            assert not _same(a, edited) and not _same(edited, a)

    def test_types_are_kept(self):
        assert not _same(True, 1) and not _same(0, False) and not _same(1, 1.0)
        assert not _same(0.0, -0.0) and _same(float("nan"), float("nan"))
        assert _same([1, (2, [3])], [1, [2, (3,)]]) and not _same([1], [1, None])
        assert not _same({"a": 1}, {"a": 1, "b": None}) and not _same({"a": [True]}, {"a": [1]})
        assert _same({"a": 1, "b": {"c": "x"}}, {"b": {"c": "x"}, "a": 1})


class TestVerifyTestsTermsBelowDegreeTwo:
    """A claimed phi may carry a term of degree one: y_1 e_1 is a diagonal
    rescaling, so the pair still conjugates the linear map, and only the
    resonance test refuses it."""

    @pytest.mark.parametrize("sub,values,where", [
        ("normalize", [[2, 1], [1, 3]], ["normalization"]),
        ("classify", [[2, 1], [1, 2]], ["classification", "normalization"]),
    ])
    def test_resonant_linear_term_in_phi_is_4(self, tmp_path, capsys, sub, values, where):
        doc = {"kind": "map", "n": 2, "scalars": "rational", "eigen": {"form": "mult-rational", "values": values},
               "degree_D": 4, "order_N": 3, "terms": []}
        rep = tmp_path / "rep.json"
        assert run([sub, "--input", write(tmp_path, "sys.json", doc), "--output", rep]) == 0
        report = load(rep)
        if sub == "classify":
            assert report["classification"]["verdict"] == "integrable-consistent"
        functools.reduce(dict.__getitem__, where, report)["phi"] = [{"coeff": [1, 2], "component": 1, "exponent": [1, 0]}]
        assert run(["verify", "--input", write(tmp_path, "bad.json", report)]) == 4
        assert capsys.readouterr().err == (
            "error: verification failed: phi carries resonant monomial (1, 0) in component 1\n")


@functools.cache
def normal_form_reports():
    """(name, report) of every normalize and classify report `verify`
    re-derives a normalization from: the fixtures' and those of the
    `normal-form` catalogue."""
    sys.path.insert(0, str(FIXTURES.parent / "bench"))
    import tempfile

    import workloads

    inputs = [(f"{path.name}/{sub}", json.loads(path.read_text()), sub)
              for path in sorted(FIXTURES.glob("*.json")) for sub in ("normalize", "classify")]
    inputs += [(op.key, op.system, op.subcommand) for op in workloads.catalogue("normal-form")
               if op.subcommand in ("normalize", "classify")]
    out = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        for name, system, sub in inputs:
            path, rep = Path(tmp) / "sys.json", Path(tmp) / "rep.json"
            path.write_text(json.dumps(system))
            if main([sub, "--input", str(path), "--output", str(rep)]) == 0:
                doc = load(rep)
                if sub == "normalize" or doc["classification"].get("normalization") is not None:
                    out.append((name, doc))
    return out


def claimed_pair(doc):
    """The JSON object of a report's claimed normalization."""
    return doc["normalization"] if doc["subcommand"] == "normalize" else doc["classification"]["normalization"]


def resonance_edits(doc, rng):
    """Seeded edits of a report's claimed pair: one term moved from phi to g
    and one from g to phi, a bad term added in each of two components (a
    resonant monomial in phi or a nonresonant one in g, of any degree from
    0), and a term of degree 0 or 1 added to phi or to g."""
    from dulac.cli import _system_from_doc

    sf = _system_from_doc(doc["system"], "system")
    n, order = sf.n, claimed_pair(doc)["order"]
    monomials = list(iter_exponents(n, 0, order))
    edits = []
    for source, target in (("phi", "g"), ("g", "phi")):
        pair = json.loads(json.dumps(claimed_pair(doc)))
        if pair[source]:
            pair[target].append(pair[source].pop(rng.randrange(len(pair[source]))))
            edits.append(pair)
    pair = json.loads(json.dumps(claimed_pair(doc)))
    for j in rng.sample(range(n), min(n, 2)):
        name = rng.choice(["phi", "g"])
        bad = [m for m in monomials if sf.eigen.resonant(m, j) == (name == "phi")]
        if bad:
            pair[name].append({"coeff": [rng.choice([-3, 1, 2]), 7], "component": j + 1,
                               "exponent": list(rng.choice(bad))})
    edits.append(pair)
    pair = json.loads(json.dumps(claimed_pair(doc)))
    pair[rng.choice(["phi", "g"])].append({"coeff": [1, 2], "component": rng.randrange(n) + 1,
                                           "exponent": list(rng.choice(monomials[: n + 1]))})
    edits.append(pair)
    return edits


class TestResonanceCheckMatchesThePerTermLoop:
    """`verify`'s resonance check of a claimed pair, by class key sets,
    against the per-term loop it replaced (`helpers.oracle_claimed_resonance`):
    the same verdict and message on every fixture and `normal-form`
    catalogue report, unedited and under seeded edits.  The conjugacy
    residual is stubbed to zero, so that every edit reaches the check."""

    def test_reports_and_seeded_edits(self, monkeypatch):
        from helpers import oracle_claimed_resonance

        from dulac import cli
        from dulac.errors import InternalInvariantError

        monkeypatch.setattr(cli, "verify_conjugacy", lambda system, result: VectorSeries.zero(system.n, result.order))
        reports = normal_form_reports()
        assert len(reports) >= 100
        failed = 0
        for name, doc in reports:
            sf = cli._system_from_doc(doc["system"], "system")
            rng = random.Random(f"resonance-edits/{name}")
            for pair in [claimed_pair(doc)] + resonance_edits(doc, rng):
                phi, g = (cli._vector_from_json(pair[k], sf.n, pair["order"], k, k)[0] for k in ("phi", "g"))
                want = oracle_claimed_resonance(sf.eigen, phi, g)
                try:
                    cli._claimed_normalization(sf, sf.system(), pair, "normalization")
                    got = None
                except InternalInvariantError as exc:
                    got = str(exc).removeprefix("verification failed: ")
                assert got == want, (name, pair)
                failed += want is not None
        assert failed > 3 * len(reports)  # the edits reach the check
