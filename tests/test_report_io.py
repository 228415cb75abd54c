"""The report boundary: `cli` reads JSON term lists straight into packed
parts and writes them straight from the parts.  Both directions are checked
against the scalar round trip they replaced (the oracles in `helpers`),
malformed terms keep their messages and exit code 2, and the text format
renders the JSON report."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dulac.cli import _read_terms, _render_text, _scalar_series_json, _vector_series_json, main
from dulac.errors import InternalInvariantError, SystemFileError
from dulac.series import VectorSeries
from helpers import oracle_read_terms, oracle_scalar_series_json, oracle_vector_series_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SOLVERS = ("resonance", "normalize", "classify", "integrals", "embed")
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

N = 2
# few exponents, so that lists repeat them; degrees 0..4
EXPONENTS = st.sampled_from([[a, d - a] for d in range(5) for a in range(d + 1)])
NUMERATORS = st.integers(-12, 12) | st.sampled_from([0, 10**30, -(10**30)])
DENOMINATORS = st.integers(-12, 12).filter(bool)  # unreduced and negative ones too
RATIONALS = st.tuples(NUMERATORS, DENOMINATORS).map(list)
# Gaussian values, their real or imaginary part often zero
GAUSSIANS = st.tuples(NUMERATORS | st.just(0), DENOMINATORS, NUMERATORS | st.just(0), DENOMINATORS).map(list)


def terms(vector):
    fields = {"coeff": RATIONALS | GAUSSIANS, "exponent": EXPONENTS}
    if vector:
        fields["component"] = st.integers(1, N)
    return st.lists(st.fixed_dictionaries(fields), max_size=12)


def through(vector):
    """(term list, trunc) with trunc at or above the list's top degree, up to 5."""
    return terms(vector).flatmap(lambda doc: st.tuples(
        st.just(doc), st.integers(max([sum(t["exponent"]) for t in doc], default=0), 5)))


class TestReaderMatchesTheScalarPath:
    @SETTINGS
    @given(through(vector=True))
    def test_vector_terms(self, case):
        doc, trunc = case
        new, old = _read_terms(doc, "t", N, trunc), oracle_read_terms(doc, "t", N, trunc)
        assert [(s.trunc, s.parts) for s in new] == [(s.trunc, s.parts) for s in old]

    @SETTINGS
    @given(through(vector=False))
    def test_scalar_terms(self, case):
        doc, trunc = case
        [new] = _read_terms(doc, "t", N, trunc, vector=False)
        [old] = oracle_read_terms(doc, "t", N, trunc, vector=False)
        assert (new.trunc, new.parts) == (old.trunc, old.parts)

    def test_repeated_exponents_are_summed(self):
        doc = [{"exponent": [1, 1], "coeff": [1, 2]}, {"exponent": [1, 1], "coeff": [-1, -3]},
               {"exponent": [2, 0], "coeff": [1, 3]}, {"exponent": [2, 0], "coeff": [-2, 6]}]
        [s] = _read_terms(doc, "t", N, 2, vector=False)
        assert _scalar_series_json(s) == [{"coeff": [5, 6], "exponent": [1, 1]}]

    def test_term_above_trunc_is_refused(self):
        """A system's term above its order exits 2, a report's claimed term
        above the verified order exits 4, before any part is built."""
        doc = [{"exponent": [1, 1], "coeff": [1, 2]}, {"exponent": [2, 1], "coeff": [1, 3]}]
        with pytest.raises(SystemFileError, match=r"^t\[1\]: exponent degree 3 is above order_N = 2$"):
            _read_terms(doc, "t", N, 2, vector=False)
        with pytest.raises(InternalInvariantError, match="V has a term of degree 3, above the verified order 2$"):
            _read_terms(doc, "t", N, 2, vector=False, claimed="V has a term")


class TestWriterMatchesTheScalarPath:
    @SETTINGS
    @given(through(vector=True))
    def test_vector_series(self, case):
        doc, trunc = case
        v = VectorSeries(_read_terms(doc, "t", N, trunc))
        new, old = _vector_series_json(v), oracle_vector_series_json(v)
        assert json.dumps(new) == json.dumps(old)
        assert all(type(x) is int for t in new for x in t["coeff"] + t["exponent"] + [t["component"]])

    @SETTINGS
    @given(through(vector=False))
    def test_scalar_series(self, case):
        doc, trunc = case
        [s] = _read_terms(doc, "t", N, trunc, vector=False)
        assert json.dumps(_scalar_series_json(s)) == json.dumps(oracle_scalar_series_json(s))


TERM = {"component": 1, "exponent": [1, 1], "coeff": [1, 3]}

# (term, the scalars tag it is read under): each malformed in one way
MALFORMED = {
    "not an object": (5, "rational"),
    "a list": ([1, [1, 1], [1, 3]], "rational"),
    "no component": ({"exponent": [1, 1], "coeff": [1, 3]}, "rational"),
    "component a string": (dict(TERM, component="1"), "rational"),
    "component a bool": (dict(TERM, component=True), "rational"),
    "component 0": (dict(TERM, component=0), "rational"),
    "component 3": (dict(TERM, component=3), "rational"),
    "no exponent": ({"component": 1, "coeff": [1, 3]}, "rational"),
    "exponent an object": (dict(TERM, exponent={"0": 1}), "rational"),
    "exponent too short": (dict(TERM, exponent=[2]), "rational"),
    "exponent negative": (dict(TERM, exponent=[3, -1]), "rational"),
    "exponent a bool": (dict(TERM, exponent=[True, 1]), "rational"),
    "exponent a string": (dict(TERM, exponent=["1", 1]), "rational"),
    "no coeff": ({"component": 1, "exponent": [1, 1]}, "rational"),
    "coeff a number": (dict(TERM, coeff=3), "rational"),
    "coeff of three": (dict(TERM, coeff=[1, 2, 3]), "rational"),
    "coeff empty": (dict(TERM, coeff=[]), "rational"),
    "coeff a bool": (dict(TERM, coeff=[True, 3]), "rational"),
    "coeff a string": (dict(TERM, coeff=["1", 3]), "rational"),
    "zero denominator": (dict(TERM, coeff=[1, 0]), "rational"),
    "zero imaginary denominator": (dict(TERM, coeff=[1, 2, 1, 0]), "gaussian"),
    "zero denominator, gaussian in a rational file": (dict(TERM, coeff=[1, 0, 1, 2]), "rational"),
    "gaussian in a rational file": (dict(TERM, coeff=[1, 2, 1, 2]), "rational"),
    "linear": (dict(TERM, exponent=[1, 0]), "rational"),
}


def _oracle_message(term, where, scalars_tag, low):
    with pytest.raises(SystemFileError) as exc:
        oracle_read_terms([TERM, term], where, N, 8, scalars_tag, low=low)
    return str(exc.value)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_term_in_a_system_is_2(tmp_path, capsys, name):
    term, tag = MALFORMED[name]
    doc = {"kind": "map", "n": N, "scalars": tag, "terms": [TERM, term],
           "eigen": {"form": "mult-rational", "values": [[1, 2], [2, 1]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    expected = _oracle_message(term, f"{path}:terms", tag, low=2)
    assert main(["normalize", "--input", str(path), "--output", str(tmp_path / "rep.json")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


REPORT_CASES = [
    (name, where) for where in ("normalization.phi", "integrals") for name, (_, tag) in sorted(MALFORMED.items())
    # a report is read as gaussian and has no degree floor; integral terms carry no component
    if tag == "rational" and name not in ("linear", "gaussian in a rational file")
    and not (where == "integrals" and "component" in name)
]


@pytest.mark.parametrize("name,where", REPORT_CASES)
def test_malformed_term_in_a_report_is_2(tmp_path, capsys, name, where):
    term = MALFORMED[name][0]
    rep = tmp_path / "rep.json"
    sub = "normalize" if where == "normalization.phi" else "integrals"
    assert main([sub, "--input", str(FIXTURES / "ex2_2d.json"), "--output", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    if sub == "normalize":
        doc["normalization"]["phi"].insert(0, term)
        at, vector = f"{rep}:normalization.phi", True
    else:
        doc["integrals"]["search"]["integrals"][0].insert(0, term)
        at, vector = f"{rep}:integrals.search.integrals[0]", False
    rep.write_text(json.dumps(doc))
    with pytest.raises(SystemFileError) as exc:
        oracle_read_terms([term], at, N, 8, vector=vector)
    assert main(["verify", "--input", str(rep)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


@pytest.mark.parametrize("sub", SOLVERS)
@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_text_format_renders_the_json_report(tmp_path, capsys, fixture, sub):
    rep, text = tmp_path / "rep.json", tmp_path / "rep.txt"
    code = main([sub, "--input", str(FIXTURES / fixture), "--output", str(rep)])
    assert main([sub, "--input", str(FIXTURES / fixture), "--output", str(text), "--format", "text"]) == code
    if code == 0:
        assert text.read_text(encoding="utf-8") == _render_text(json.loads(rep.read_text(encoding="utf-8")))
    else:
        assert code == 3 and not rep.exists() and not text.exists()
