"""JSON exchange round trips."""

import json
from fractions import Fraction

import pytest

from qgfourier import core, exchange, fixtures, padic
from qgfourier.scalars import FLOAT, Cyclotomic, zeta


def _reload(A):
    return exchange.qgroup_from_obj(json.loads(exchange.dumps(exchange.qgroup_to_obj(A))))


def _scalars(A):
    yield from (x for plane in A.mult for row in plane for x in row)
    yield from (c for terms in A.comult for _, _, c in terms)
    yield from (x for row in A.antipode + (A.star or []) for x in row)
    yield from A.counit + (A.unit or []) + A.left_integral + A.right_integral


def test_quantum_group_round_trip():
    for name, A in fixtures.standard_fixtures():
        back = _reload(A)
        assert core.tensors_equal(back, A) and core.tensors_equal(A, back), name
        assert back.name == A.name
        # every fixture is rational, so the reloaded group holds Fractions only
        assert not [x for x in _scalars(back) if isinstance(x, Cyclotomic)], name


def test_reloaded_group_does_no_cyclotomic_arithmetic(monkeypatch):
    G = fixtures.FiniteGroupTable.product(fixtures.FiniteGroupTable.cyclic(3), fixtures.FiniteGroupTable.cyclic(3))
    A = _reload(fixtures.function_algebra(G))
    built = []
    init = Cyclotomic.__init__

    def counting_init(self, order, coeffs):
        built.append(order)
        init(self, order, coeffs)

    monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
    assert all(r.ok for r in core.verify_axioms(A))
    core.build_dual(A)
    assert built == []


def test_schwartz_round_trip():
    f = padic.SchwartzFunction(3, 2, {Fraction(1, 3): zeta(9), Fraction(2): Fraction(5, 7)})
    obj = json.loads(exchange.dumps(exchange.schwartz_to_obj(f)))
    assert exchange.schwartz_from_obj(obj) == f


def test_float_values_refuse_to_serialize():
    A = fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2"), FLOAT)
    with pytest.raises(ValueError):
        exchange.qgroup_to_obj(A)


def _resize(obj, d):
    obj["dim"], obj["labels"] = d, [str(i) for i in range(d)]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: _resize(obj, 1),  # tensors index past dim
        lambda obj: _resize(obj, 3),  # tensors shorter than dim
        lambda obj: obj["comult"].append([0, 2, 0, obj["comult"][0][3]]),
        lambda obj: obj["mult"].append([0, -1, 0, obj["mult"][0][3]]),
    ],
    ids=["dim-too-small", "dim-too-large", "triple-out-of-range", "negative-index"],
)
def test_shape_mismatch_is_a_value_error(mutate):
    obj = exchange.qgroup_to_obj(fixtures.function_algebra(fixtures.FiniteGroupTable.builtin("Z2")))
    mutate(obj)
    with pytest.raises(ValueError):
        exchange.qgroup_from_obj(obj)
