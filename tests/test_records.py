"""The record contract: one constructor, fields by position or by name."""

import ast
from pathlib import Path

import pytest

from kernelalg import analytics, exprlang, laws
from kernelalg.bayes import BayesReport
from kernelalg.disintegration import RNDecomposition
from kernelalg.document import Token
from kernelalg.records import Record
from kernelalg.spaces import Base, FiniteSpace

SRC = Path(__file__).parent.parent / "src" / "kernelalg"

# Every record class with its fields in positional order, as the hand-written
# constructors took them before the one Record constructor replaced them.
FIELDS = {
    laws.LawResult: ("law", "subject", "ok", "detail"),
    BayesReport: ("holds", "checked", "failures"),
    exprlang.Call: ("op", "args", "line", "col"),
    exprlang.Name: ("text", "line", "col"),
    exprlang.SpaceArg: ("space", "line", "col"),
    exprlang.RatArg: ("value", "line", "col"),
    exprlang.TKernel: ("dom", "cod"),
    exprlang.TMeasure: ("space",),
    exprlang.TDensity: ("space",),
    exprlang.Operator: ("kinds", "rule", "evaluate"),
    analytics.KLChainRuleReport: (
        "joint",
        "marginal",
        "conditional",
        "joint_conditional",
        "additive_form_holds",
        "comp_prod_form_holds",
    ),
    analytics.DataProcessingReport: (
        "divergence",
        "processed",
        "original",
        "joint",
        "dpi_holds",
        "conditioning_holds",
    ),
    analytics.PlainMeasureScope: ("measure",),
    analytics.KernelScope: ("kernel", "measure"),
    analytics.SubgaussianCertificate: (
        "variable", "constant", "scope", "method", "verified", "integrability"
    ),
    analytics.HoeffdingReport: (
        "exact_tail", "bound", "holds", "n", "threshold", "certificate"
    ),
    RNDecomposition: ("density", "singular"),
}

CLASSES = list(FIELDS)
IDS = [cls.__name__ for cls in CLASSES]


def values_for(cls) -> tuple:
    return tuple(f"{cls.__name__}.{name}" for name in FIELDS[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_fields_keep_their_order(cls):
    assert issubclass(cls, Record)
    assert cls.__slots__ == FIELDS[cls]
    record = cls(*values_for(cls))
    for name, value in zip(FIELDS[cls], values_for(cls)):
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    values = values_for(cls)
    by_position = cls(*values)
    by_name = cls(**dict(zip(FIELDS[cls], values)))
    mixed = cls(values[0], **dict(zip(FIELDS[cls][1:], values[1:])))
    assert by_position == by_name == mixed
    assert hash(by_position) == hash(by_name) == hash(mixed)
    assert repr(by_position) == repr(by_name)
    assert repr(by_position).startswith(f"{cls.__name__}({FIELDS[cls][0]}=")


def test_defaults_fill_the_fields_left_out():
    assert laws.LawResult("law", "subject", False, "why").detail == "why"
    assert laws.LawResult("law", "subject", True).detail == ""
    assert laws.LawResult(law="law", subject="subject", ok=True).detail == ""
    cert = analytics.SubgaussianCertificate("x", 1, "scope", ("boundedRange",), True)
    assert cert.integrability == "vacuous (finite sums)"
    other = analytics.SubgaussianCertificate("x", 1, "scope", ("m",), True, "checked")
    assert other.integrability == "checked"
    # building records leaves the defaults as they were
    assert laws.LawResult._defaults == {"detail": ""}
    assert analytics.SubgaussianCertificate._defaults == {
        "integrability": "vacuous (finite sums)"
    }
    assert Record._defaults == {}


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("a", "b", True, "", "extra"), {}, "LawResult takes 4 fields, got 5 by position"),
        (("a", "b", True), {"details": ""}, "LawResult has no field 'details'"),
        (("a", "b"), {"subject": "c", "ok": True}, "LawResult got field 'subject' twice"),
        (("a",), {"ok": True}, "LawResult is missing fields ['subject']"),
        ((), {}, "LawResult is missing fields ['law', 'subject', 'ok']"),
    ],
    ids=["too-many", "unknown", "repeated", "missing", "none"],
)
def test_wrong_fields_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError) as info:
        laws.LawResult(*args, **kwargs)
    assert str(info.value) == message


def test_missing_fields_raise_after_records_were_built():
    laws.LawResult("a", "b", True, "d")
    exprlang.TMeasure("S")
    with pytest.raises(TypeError, match="missing fields"):
        laws.LawResult("a")
    with pytest.raises(TypeError, match="missing fields"):
        exprlang.TKernel()


def test_records_of_different_classes_differ():
    space = Base(FiniteSpace("S", ["a", "b"]))
    assert exprlang.TMeasure(space) == exprlang.TMeasure(space)
    assert exprlang.TMeasure(space) != exprlang.TDensity(space)
    assert str(exprlang.TMeasure(space)) == "measure on S"
    assert str(exprlang.TDensity(space)) == "density on S"
    assert RNDecomposition(1, 2) == RNDecomposition(1, 2) != RNDecomposition(2, 1)


def test_bayes_reports_do_not_share_lists():
    first, second = BayesReport(holds=True), BayesReport(holds=True)
    first.checked.append(("y", "x"))
    first.failures.append(("y", "x"))
    assert (second.checked, second.failures) == ([], [])
    assert first.checked is not second.checked
    assert BayesReport(True, [1], [2]).checked == [1]


def test_no_record_defines_its_own_constructor_but_bayes_report():
    """Read from the source, so a record in a module no test imports counts too."""
    records, with_init = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(isinstance(b, ast.Name) and b.id == "Record" for b in node.bases):
                continue
            records.add(node.name)
            if any(
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
                for item in node.body
            ):
                with_init.add(node.name)
    assert records == {cls.__name__ for cls in CLASSES}
    assert with_init == {"BayesReport"}
    # the document's tokens are built by the thousand per parse and keep
    # their own, cheaper constructor
    assert not issubclass(Token, Record)
    assert "__init__" in Token.__dict__
