"""The first-failure helper every identity check is written with."""

import pytest

from qgfourier import report


def test_check_names_the_first_witness_and_stops_there():
    decided = []

    def failures():
        for i in range(5):
            decided.append(i)
            if i >= 2:
                yield "case %d" % i

    r = report.check("suite", "identity", failures())
    assert (r.status, r.witness, decided) == ("fail", "case 2", [0, 1, 2])


def test_check_passes_when_nothing_fails():
    r = report.check("suite", "identity", iter(()))
    assert (r.status, r.witness) == ("pass", None)


@pytest.mark.parametrize("witness", [None, ""])
def test_check_fails_on_a_falsy_witness_and_keeps_it(witness):
    r = report.check("suite", "identity", iter([witness]))
    assert (r.status, r.witness) == ("fail", witness)
