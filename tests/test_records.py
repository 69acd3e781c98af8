import os
import subprocess
import sys
import types

import pytest

import triavg
from triavg import IdentityReport, RecurrenceSpec, TriangularWitness, resolve_spec, witness


def test_records_keep_their_fields():
    assert RecurrenceSpec(k=1, w0=0, w1=1).w1 == 1
    assert IdentityReport("x", (0, 3), []).checked_range == (0, 3)
    record = witness(2)
    assert (record.n, record.s, record.avg, record.r, record.total) == (2, 8, 15, 5, 120)
    assert record.verify()


@pytest.mark.parametrize(
    "record, field",
    [
        (RecurrenceSpec(1, 0, 1), "k"),
        (IdentityReport("x", (0, 1), []), "failures"),
        (TriangularWitness(1, 1, 1, 1), "avg"),
    ],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_records_hash_by_value():
    assert hash(RecurrenceSpec(3, -1, 1)) == hash(RecurrenceSpec(3, -1, 1))
    assert witness(3) in {witness(3)}


def test_resolve_spec_rejects_a_plain_tuple():
    with pytest.raises(TypeError, match="tuple"):
        resolve_spec((1, 0, 1))


def test_cli_import_does_not_load_dataclasses():
    # dataclasses pulls in inspect, about a third of the package's start-up.
    src = os.path.dirname(os.path.dirname(triavg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, triavg.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_triavg_triangular_is_the_module():
    from triavg.triangular import triangular

    assert isinstance(triavg.triangular, types.ModuleType)
    assert triavg.triangular.triangular is triangular
    assert triangular(5) == 15
    assert "triangular" not in triavg.__all__


def test_every_public_name_resolves():
    for name in triavg.__all__:
        assert hasattr(triavg, name), name
    assert len(set(triavg.__all__)) == len(triavg.__all__)


@pytest.mark.parametrize(
    "module, name",
    [
        ("recurrences", "eval_iterative"),
        ("convergents", "z"),
        ("convergents", "Convergent"),
        ("convergents", "cf_sqrt3"),
        ("triangular", "is_triangular"),
    ],
)
def test_removed_names_are_gone(module, name):
    assert name not in triavg.__all__
    assert not hasattr(triavg, name)
    assert not hasattr(getattr(triavg, module), name)
