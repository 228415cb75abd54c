"""The report boundary: `cli` reads JSON term lists straight into packed
parts and writes them straight from the parts.  Both directions are checked
against the scalar round trip they replaced (the oracles in `helpers`),
malformed terms keep their messages and exit code 2, and the text format
renders the JSON report."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dulac.cli import _read_terms, _render_text, _scalar_series_json, _vector_series_json, main
from dulac.errors import InternalInvariantError, SystemFileError
from dulac.series import VectorSeries
from helpers import oracle_in_written_form, oracle_read_terms, oracle_scalar_series_json, oracle_vector_series_json

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


class TestWrittenFormDecision:
    """`_read_terms` with as_read takes a term list as read exactly when it
    is the list the writers write for the series read
    (`helpers.oracle_in_written_form`, which rebuilds the list and compares),
    and reads the same series either way."""

    @staticmethod
    def taken_as_read(doc, trunc, vector):
        series, as_read = _read_terms(doc, "t", N, trunc, vector=vector, as_read=True)
        assert as_read is None or as_read is doc
        assert [s.parts for s in series] == [s.parts for s in _read_terms(doc, "t", N, trunc, vector=vector)]
        assert (as_read is doc) == oracle_in_written_form(doc, N, trunc, vector)
        return as_read is doc

    @pytest.mark.parametrize("coeff,written", [
        ([1, 2], True), ([-1, 2], True), ([2, 4], False), ([1, -2], False), ([0, 1], False),
        ([1, 2, 0, 1], False), ([0, 1, 1, 2], True), ([-1, 2, -1, 2], True), ([0, 2, 1, 2], False),
        ([1, -2, 1, 2], False), ([2, 4, 1, 2], False), ([1, 2, 2, 4], False), ([1, 2, 1, -2], False)])
    def test_one_coefficient(self, coeff, written):
        assert self.taken_as_read([{"coeff": coeff, "exponent": [1, 1]}], 2, False) == written

    @SETTINGS
    @given(st.data())
    def test_random_lists(self, data):
        vector = data.draw(st.booleans())
        doc, trunc = data.draw(through(vector))
        self.taken_as_read(doc, trunc, vector)

    @SETTINGS
    @given(st.data())
    def test_written_lists_edited_once(self, data):
        """The writing of a random list is taken as read; one edit of it, a
        swap, repeat or deletion of a term, a new coefficient, exponent or
        component, or an extra key, is decided as the oracle decides it."""
        vector = data.draw(st.booleans())
        doc, trunc = data.draw(through(vector))
        series = _read_terms(doc, "t", N, trunc, vector=vector)
        doc = _vector_series_json(VectorSeries(series)) if vector else _scalar_series_json(series[0])
        assert self.taken_as_read(doc, trunc, vector)
        if not doc:
            return
        k = data.draw(st.integers(0, len(doc) - 1))
        edit = data.draw(st.sampled_from(["swap", "repeat", "delete", "coeff", "exponent", "component", "key"]))
        if edit == "swap":
            doc[k - 1], doc[k] = doc[k], doc[k - 1]
        elif edit == "repeat":
            doc.insert(k, dict(doc[k]))
        elif edit == "delete":
            del doc[k]
        elif edit == "coeff":
            doc[k]["coeff"] = data.draw(RATIONALS | GAUSSIANS)
        elif edit == "exponent":
            doc[k]["exponent"] = data.draw(EXPONENTS.filter(lambda m: sum(m) <= trunc))
        elif edit == "component" and vector:
            doc[k]["component"] = data.draw(st.integers(1, N))
        else:
            doc[k]["note"] = 0
        self.taken_as_read(doc, trunc, vector)


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


def single_edits(term, n, vector, rng):
    """(rule, edited term, scalars tag) for each malformed-term rule, applied
    to one seeded entry of a well-formed term; the last edit, an extra key,
    leaves it well formed."""
    c, m = term["coeff"], term["exponent"]
    i, k = rng.randrange(n), rng.randrange(len(c))

    def entry(field, index, value):
        edited = json.loads(json.dumps(term))
        edited[field][index] = value
        return edited

    edits = [
        ("bool exponent", entry("exponent", i, bool(m[i])), "gaussian"),
        ("bool coeff", entry("coeff", k, bool(c[k])), "gaussian"),
        ("negative exponent", entry("exponent", i, -rng.randint(1, 3)), "gaussian"),
        ("short exponent", dict(term, exponent=m[:-1]), "gaussian"),
        ("long exponent", dict(term, exponent=m + [0]), "gaussian"),
        ("coeff of one", dict(term, coeff=c[:1]), "gaussian"),
        ("coeff of three", dict(term, coeff=c[:2] + [1]), "gaussian"),
        ("coeff of five", dict(term, coeff=c[:2] + [1, 2, 3]), "gaussian"),
        ("empty coeff", dict(term, coeff=[]), "gaussian"),
        ("zero denominator at 1", entry("coeff", 1, 0), "gaussian"),
        ("zero denominator at -1", dict(term, coeff=c[:2] + [rng.randint(1, 5), 0]), "gaussian"),
        ("gaussian in a rational file", dict(term, coeff=c[:2] + [1, rng.randint(1, 5)]), "rational"),
        ("not an object", rng.choice([list(term.values()), 5, None, "term"]), "gaussian"),
        ("extra key", dict(term, note=rng.choice([0, "x", [1]])), "gaussian"),
    ]
    if vector:
        edits += [
            ("bool component", dict(term, component=rng.choice([True, False])), "gaussian"),
            ("component 0", dict(term, component=0), "gaussian"),
            ("component n + 1", dict(term, component=n + 1), "gaussian"),
            ("no component", {key: v for key, v in term.items() if key != "component"}, "gaussian"),
        ]
    return edits


def read_outcome(read, terms, n, trunc, tag, vector, low):
    """(trunc, parts) of each series read, or the message it is refused with."""
    try:
        return [(s.trunc, s.parts) for s in read(terms, "t", n, trunc, tag, vector=vector, low=low)]
    except SystemFileError as exc:
        return str(exc)


def through_both_readers(monkeypatch, capsys, argv):
    """(exit code, stderr) of main(argv) with `cli._read_terms` and with
    the reader before its fast path (`helpers.checked_read_terms`)."""
    from helpers import checked_read_terms

    from dulac import cli

    got = main(argv), capsys.readouterr().err
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_read_terms", checked_read_terms)
        return got, (main(argv), capsys.readouterr().err)


class TestMalformedTermFuzz:
    """Seeded single edits of system terms and of claimed-series terms, one
    rule at a time: the reader's fast path gives the same series, or the
    same message, as the scalar reader (`helpers.oracle_read_terms`), and
    through `main` the same exit code and stderr as the reader before it."""

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")
                                               if json.loads(p.read_text())["terms"]))
    def test_system_terms(self, tmp_path, capsys, monkeypatch, fixture):
        doc = json.loads((FIXTURES / fixture).read_text())
        n, N = doc["n"], doc.get("order_N", 8)
        rng = random.Random(f"term-fuzz/{fixture}")
        path = tmp_path / "sys.json"
        for t in rng.sample(range(len(doc["terms"])), min(2, len(doc["terms"]))):
            for rule, term, tag in single_edits(doc["terms"][t], n, True, rng):
                terms = doc["terms"][:t] + [term] + doc["terms"][t + 1:]
                got = read_outcome(_read_terms, terms, n, N, tag, True, 2)
                assert got == read_outcome(oracle_read_terms, terms, n, N, tag, True, 2), rule
                assert (rule == "extra key") != isinstance(got, str), rule
                path.write_text(json.dumps(dict(doc, scalars=tag if tag == "rational" else doc["scalars"], terms=terms)))
                new, old = through_both_readers(monkeypatch, capsys, ["normalize", "--input", str(path)])
                assert new == old and new[0] in (0, 2, 3), rule

    @pytest.mark.parametrize("fixture,sub", [("ex2_2d.json", "normalize"), ("ex2_3d.json", "classify"),
                                             ("ex2_2d.json", "integrals"), ("center.json", "normalize")])
    def test_claimed_series_terms(self, tmp_path, capsys, monkeypatch, fixture, sub):
        rep = tmp_path / "rep.json"
        assert main([sub, "--input", str(FIXTURES / fixture), "--output", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        n, N = doc["system"]["n"], doc["parameters"]["order_N"]
        if sub == "integrals":
            lists, vector = doc["integrals"]["search"]["integrals"], False
        else:
            pair = doc["normalization"] if sub == "normalize" else doc["classification"]["normalization"]
            lists, vector = [pair["phi"], pair["g"]], True
        rng = random.Random(f"claimed-term-fuzz/{fixture}/{sub}")
        bad = tmp_path / "bad.json"
        for terms in lists:
            if not terms:
                continue
            t = rng.randrange(len(terms))
            original = terms[t]
            for rule, term, tag in single_edits(original, n, vector, rng):
                if tag == "rational":  # a report is read as gaussian
                    continue
                terms[t] = term
                got = read_outcome(_read_terms, terms, n, N, "gaussian", vector, 0)
                assert got == read_outcome(oracle_read_terms, terms, n, N, "gaussian", vector, 0), rule
                assert (rule == "extra key") != isinstance(got, str), rule
                bad.write_text(json.dumps(doc))
                new, old = through_both_readers(monkeypatch, capsys, ["verify", "--input", str(bad)])
                assert new == old and new[0] in (0, 2, 4), rule
            terms[t] = original
