"""The six immutable records (CohomElement, GroupElement, TopologicalData,
CorrectionSum, SurfaceKind, ModuliReport): equality, hashing, repr,
immutability, pickle/copy and copies with changed fields rebuilt through
the constructor from vars(), with the repr strings recorded from the frozen
dataclasses they replaced, all from the one _Record base, which a new record
type gets them from too; and the import closure that keeps `dataclasses`
and `inspect` out of a CLI process."""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import orbifold_index
from orbifold_index import (
    CohomElement,
    CorrectionSum,
    GroupElement,
    ModuliReport,
    SurfaceKind,
    TopologicalData,
    correction_sum,
    hitchin_report,
    orientable_verdict,
)
from orbifold_index.scalars import Laurent, _Record, _set

# each record with its repr as a frozen dataclass printed it
RECORDS = {
    "cohom_rational": (
        lambda: CohomElement(F(1), F(-1, 2), 0, F(0), 3, F(5, 7)),
        "CohomElement(c0=Fraction(1, 1), ce=Fraction(-1, 2), ch=0, cee=Fraction(0, 1), "
        "ceh=3, chh=Fraction(5, 7))"),
    "cohom_laurent": (
        lambda: CohomElement.constant(Laurent({1: 1, -1: F(1, 3)})),
        "CohomElement(c0=Laurent({-1: '1/3', 1: '1'}, k=0), ce=Laurent({}, k=0), "
        "ch=Laurent({}, k=0), cee=Laurent({}, k=0), ceh=Laurent({}, k=0), "
        "chh=Laurent({}, k=0))"),
    "group_element": (lambda: GroupElement(7, 3), "GroupElement(p=7, j=3)"),
    "topological_data": (
        lambda: TopologicalData(chi_M=2, tau_M=0, chi_Sigma=1, sigma_sq=-2, p=3),
        "TopologicalData(chi_M=2, tau_M=0, chi_Sigma=1, sigma_sq=-2, p=3)"),
    "correction_sum": (
        lambda: correction_sum(5),
        "CorrectionSum(coeff_e=Fraction(-2, 1), coeff_h=Fraction(-16, 5))"),
    "surface_kind": (lambda: SurfaceKind(False, 3),
                     "SurfaceKind(orientable=False, j=3)"),
    "moduli_report": (
        lambda: hitchin_report(3),
        "ModuliReport(index=3, dim_h0=3, dim_h1=0, dim_h2=0, verdict='rigid', "
        "assumptions=('unobstructed', 'dim_h0=3', 'k=3 is the round metric (smooth case)'))"),
    "moduli_report_open": (
        lambda: orientable_verdict(2),
        "ModuliReport(index=23, dim_h0=5, dim_h1=None, dim_h2=None, "
        "verdict='nonexistence', assumptions=('unobstructed', 'dim_h0<=5'))"),
}

record_cases = pytest.mark.parametrize("make, text", RECORDS.values(), ids=list(RECORDS))


def _fields(r):
    return tuple(vars(r).values())


def _replace(r, **changes):
    """A copy of r with the named fields changed, rebuilt through its
    constructor: vars() of a record lists exactly its fields, so an unknown
    name reaches __init__, which rejects it, and every copy is validated."""
    return type(r)(**{**vars(r), **changes})


def _other(v):
    """A different value of the same kind, valid in every field below."""
    if v is None:
        return 0
    if isinstance(v, bool):
        return not v
    if isinstance(v, str):
        return v + "!"
    if isinstance(v, tuple):
        return v + ("extra",)
    return v + 1


@record_cases
def test_repr_is_the_dataclass_format(make, text):
    assert repr(make()) == text


@record_cases
def test_hash_is_the_hash_of_the_field_tuple(make, text):
    r = make()
    assert hash(r) == hash(_fields(r))
    assert r == make() and hash(r) == hash(make())


@pytest.mark.parametrize("name", [n for n in RECORDS if n != "moduli_report"])
def test_each_field_takes_part_in_equality(name):
    # moduli_report is left out: with both dimensions declared, changing any
    # one of its four numbers contradicts the index, and the constructor refuses
    r = RECORDS[name][0]()
    for field, value in vars(r).items():
        s = _replace(r, **{field: _other(value)})
        assert s != r and not s == r, field
        assert hash(s) == hash(_fields(s)), field


@record_cases
def test_never_equal_to_a_tuple(make, text):
    r = make()
    assert r != _fields(r) and _fields(r) != r
    assert r != list(_fields(r))


def test_never_equal_to_another_record_type_with_the_same_values():
    pairs = [GroupElement(7, 3), CorrectionSum(7, 3), SurfaceKind(7, 3)]
    six = [CohomElement(1, 2, 3, 2, 5, 6), ModuliReport(1, 2, 3, 2, 5, 6)]
    for group in (pairs, six):
        for a in group:
            for b in group:
                assert (a == b) == (a is b), (a, b)
                if a is not b:
                    assert _fields(a) == _fields(b) and a != b
    assert len(set(pairs)) == len(pairs) and len(set(six)) == len(six)


@record_cases
def test_fields_cannot_be_assigned_or_deleted(make, text):
    r = make()
    for name in vars(r):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert repr(r) == text


@record_cases
def test_pickle_and_copy_round_trip(make, text):
    r = make()
    for s in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(s) is type(r) and s == r and hash(s) == hash(r)
        assert vars(s) == vars(r) and repr(s) == text


@record_cases
def test_replace_without_changes_is_an_equal_copy(make, text):
    r = make()
    s = _replace(r)
    assert s == r and s is not r and repr(s) == text
    with pytest.raises(TypeError):
        _replace(r, no_such_field=1)


@pytest.mark.parametrize("cls", [CohomElement, GroupElement, TopologicalData, CorrectionSum,
                                 SurfaceKind, ModuliReport], ids=lambda cls: cls.__name__)
def test_equality_and_hash_are_the_records_own(cls):
    # one == and one hash for every record, on _Record
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    assert cls.__eq__ is _Record.__eq__ and cls.__hash__ is _Record.__hash__


class Triple(_Record):
    """A record type with nothing of its own but its fields and __init__."""

    _fields = ("a", "b", "c")

    def __init__(self, a, b, c):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)


def test_a_new_record_type_gets_every_protocol_from_record():
    assert not {"__eq__", "__hash__", "__repr__", "__reduce__"} & set(vars(Triple))
    r = Triple(1, F(1, 2), "x")
    assert r == Triple(1, F(1, 2), "x") and hash(r) == hash(Triple(1, F(1, 2), "x"))
    assert hash(r) == hash((1, F(1, 2), "x"))
    assert r != Triple(1, F(1, 2), "y") and r != Triple(2, F(1, 2), "x")
    for other in ((1, F(1, 2), "x"), [1, F(1, 2), "x"], GroupElement(7, 3), None):
        assert r.__eq__(other) is NotImplemented and r != other
    assert repr(r) == "Triple(a=1, b=Fraction(1, 2), c='x')"
    for s in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(s) is Triple and s == r and vars(s) == vars(r)
    assert _replace(r, c="y") == Triple(1, F(1, 2), "y") and _replace(r) == r
    with pytest.raises(TypeError):
        _replace(r, d=1)
    with pytest.raises(AttributeError):
        r.a = 2


def test_a_record_type_needs_two_fields():
    # the field getter of one name would return the bare value, not a tuple
    with pytest.raises(TypeError):
        class Single(_Record):
            _fields = ("a",)


def test_topological_data_rejects_a_cone_order_below_one():
    for p in (0, -1):
        with pytest.raises(ValueError):
            TopologicalData(chi_M=2, tau_M=0, chi_Sigma=2, sigma_sq=0, p=p)


def test_replace_validates_like_the_constructor():
    data = TopologicalData(chi_M=2, tau_M=0, chi_Sigma=2, sigma_sq=0, p=3)
    assert _replace(data, p=5) == TopologicalData(2, 0, 2, 0, 5)
    with pytest.raises(ValueError):
        _replace(data, p=0)
    with pytest.raises(ValueError):
        _replace(GroupElement(7, 3), j=7)
    with pytest.raises(ValueError):
        _replace(SurfaceKind(False, 1), j=0)
    with pytest.raises(ValueError):
        _replace(hitchin_report(4), dim_h1=1)
    assert data == TopologicalData(2, 0, 2, 0, 3)  # the original is untouched


# -- import closure ------------------------------------------------------------

SOURCES = Path(orbifold_index.__file__).parent


def test_no_package_module_imports_dataclasses():
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "dataclasses"], path.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import orbifold_index.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    loaded = json.loads(proc.stdout)
    assert "orbifold_index.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded), loaded
