"""The trusted path's internal checks raise named AnosovError subclasses
instead of asserting, so `python -O` cannot strip them."""

import subprocess
import sys

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms import galoisform
from anosovforms.errors import DimensionMismatch, EigenvalueMismatch, OddWindingIndex
from anosovforms.exactmath import (
    Polynomial as P,
    RationalMatrix,
    _boundary_chain,
    _inside_count,
)
from anosovforms.galoisform import LabeledAlgebra, Representation, main2_construct
from anosovforms.liealg import LieAlgebra


def test_mat_mul_shape():
    with pytest.raises(DimensionMismatch):
        fl.mat_mul([[1, 2]], [[1], [2], [3]])


def test_winding_parity():
    assert _inside_count(1, _boundary_chain(P([-2, 1]))) == 0
    # X - 1 breaks the caller's no-root-on-the-circle guarantee
    with pytest.raises(OddWindingIndex):
        _inside_count(1, _boundary_chain(P([-1, 1])))


def _trivial_pair(sqrt2):
    one = sqrt2.one()
    la = LabeledAlgebra(LieAlgebra(2, ()), (one, one), generators=(0, 1))
    ident = RationalMatrix.identity(2)
    return la, Representation(sqrt2, (ident, ident), la.algebra)


def test_main2_charpoly(monkeypatch, sqrt2):
    la, rho = _trivial_pair(sqrt2)
    main2_construct(la, rho)
    monkeypatch.setattr(galoisform, "transport",
                        lambda basis, f: RationalMatrix.identity(2) * 2)
    with pytest.raises(EigenvalueMismatch):
        main2_construct(la, rho)


OPTIMIZED = """
import sys
from anosovforms import _fieldlinalg as fl, galoisform
from anosovforms.catalog import sqrt2_datum
from anosovforms.exactmath import (
    Polynomial as P, RationalMatrix, _boundary_chain, _inside_count)
from anosovforms.galoisform import LabeledAlgebra, Representation
from anosovforms.liealg import LieAlgebra

datum = sqrt2_datum()
one = datum.one()
la = LabeledAlgebra(LieAlgebra(2, ()), (one, one), (0, 1))
ident = RationalMatrix.identity(2)
rho = Representation(datum, (ident, ident), la.algebra)
# (X - 1)^2 is the labels' polynomial L, X^2 - 4 is not
jordan = RationalMatrix([[1, 1], [0, 1]])
doubled = ident * 2


def construct_with(m):
    galoisform.transport = lambda basis, f: m
    return galoisform.main2_construct(la, rho)


print(sys.flags.optimize)
for check in (lambda: fl.mat_mul([[1, 2]], [[1]]),
              lambda: _inside_count(1, _boundary_chain(P([-1, 1]))),
              lambda: construct_with(doubled),
              lambda: construct_with(jordan)):
    try:
        check()
        print("passed")
    except Exception as e:
        print(type(e).__name__)
"""


def test_checks_survive_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "1", "DimensionMismatch", "OddWindingIndex", "EigenvalueMismatch", "passed",
    ]
