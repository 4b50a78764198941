import pytest

from anosovforms.anosov import certify, check_type_constraints, is_integer_like
from anosovforms.errors import NotAutomorphism
from anosovforms.exactmath import Polynomial, RationalMatrix
from anosovforms.liealg import abelian, heisenberg
from anosovforms.recipes import recipe_z4_example


class TestIntegerLike:
    def test_fibonacci(self):
        assert is_integer_like(RationalMatrix([[0, 1], [1, 1]]))

    def test_doubling(self):
        assert not is_integer_like(RationalMatrix([[2, 0], [0, 2]]))

    def test_unit_determinant_with_fractional_charpoly(self):
        # det 1, but the charpoly X^2 - 5/2 X + 1 is not integral
        m = RationalMatrix([[2, 0], [0, "1/2"]])
        assert m.det() == 1
        assert not is_integer_like(m)
        assert not certify(abelian(2), m).integer_like

    def test_gold_matrix_with_fractional_entries(self):
        out = recipe_z4_example()
        assert is_integer_like(out.matrix)
        assert out.matrix.charpoly() == \
            Polynomial([1, 1, -4, -4, 1]) * Polynomial([1, 3, 1])
        assert out.matrix.det() == 1


class TestCertify:
    def test_z4(self):
        out = recipe_z4_example()
        cert = out.certificate
        assert cert.integer_like and cert.hyperbolic
        assert cert.signature == (2, 4)
        assert cert.algebra_type == (4, 2)
        assert cert.nilpotency_class == 2
        assert cert.minimal_signature

    def test_identity_on_abelian(self):
        a = abelian(2)
        cert = certify(a, RationalMatrix.identity(2))
        assert cert.integer_like and not cert.hyperbolic
        assert cert.signature is None

    def test_not_automorphism(self):
        h = heisenberg()
        swap = RationalMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        with pytest.raises(NotAutomorphism):
            certify(h, swap)

    def test_toral(self):
        a = abelian(2)
        cert = certify(a, RationalMatrix([[2, 1], [1, 1]]))
        assert cert.integer_like and cert.hyperbolic
        assert cert.signature == (1, 1)
        assert cert.minimal_signature  # class 1, min sig 1

    def test_signature_invariant_under_inverse(self):
        out = recipe_z4_example()
        inv = out.matrix.inverse()
        cert = certify(out.algebra, inv)
        assert cert.signature == out.certificate.signature
        assert cert.integer_like and cert.hyperbolic

    def test_square_preserves_signature_and_integrality(self):
        out = recipe_z4_example()
        sq = out.matrix * out.matrix
        cert = certify(out.algebra, sq)
        assert cert.integer_like
        assert cert.signature == out.certificate.signature
        assert sq.det() == 1

    def test_minimal_bound(self):
        out = recipe_z4_example()
        cert = out.certificate
        assert min(cert.signature) >= cert.nilpotency_class


class TestTypeConstraints:
    def test_abelian(self):
        assert check_type_constraints((6,)) == "abelian"

    def test_case_ii(self):
        assert check_type_constraints((4, 2)) == "case_ii"
        assert check_type_constraints((5, 2, 2)) == "case_ii"

    def test_case_iii(self):
        assert check_type_constraints((3, 3, 3)) == "case_iii"
        assert check_type_constraints((3, 3)) == "case_iii"
        assert check_type_constraints((3, 3, 6)) == "case_iii"

    def test_infeasible(self):
        assert check_type_constraints((3, 2)) == "infeasible"
        assert check_type_constraints((2, 1)) == "infeasible"
        assert check_type_constraints((4, 1)) == "infeasible"
        assert check_type_constraints((3, 3, 4)) == "infeasible"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            check_type_constraints(())
        with pytest.raises(ValueError):
            check_type_constraints((0, 2))


def test_certify_counts_roots_once(monkeypatch):
    """One certify call runs the disk count once and never the separate
    circle count: RootOnCircle from the disk count is the non-hyperbolic
    verdict."""
    from anosovforms import anosov, exactmath

    calls = {"disk": 0, "circle": 0}

    def counting(key, fn):
        def wrapped(p):
            calls[key] += 1
            return fn(p)
        return wrapped

    monkeypatch.setattr(anosov, "count_roots_inside_unit_disk",
                        counting("disk", exactmath.count_roots_inside_unit_disk))
    circle = counting("circle", exactmath.count_roots_on_unit_circle)
    monkeypatch.setattr(exactmath, "count_roots_on_unit_circle", circle)
    monkeypatch.setattr(anosov, "count_roots_on_unit_circle", circle, raising=False)

    cert = certify(heisenberg(), RationalMatrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]]))
    assert not cert.hyperbolic and cert.signature is None
    assert calls == {"disk": 1, "circle": 0}

    out = recipe_z4_example()
    calls.update(disk=0)
    cert = certify(out.algebra, out.matrix)
    assert cert.hyperbolic and cert.signature == (2, 4)
    assert calls == {"disk": 1, "circle": 0}
