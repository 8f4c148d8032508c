from fractions import Fraction

import pytest

from flagcohom.coeffring import CoeffRing
from flagcohom.fgl import FormalGroupLaw
from flagcohom.flagring import FlagBasis, default_truncation
from flagcohom.lazard import LazardBasis
from flagcohom.rootdata import RootDatum


@pytest.fixture(scope="session")
def a2():
    return RootDatum.build("A2")


@pytest.fixture(scope="session")
def b2():
    return RootDatum.build("B2")


@pytest.fixture(scope="session")
def g2():
    return RootDatum.build("G2")


@pytest.fixture(scope="session")
def a2_universal(a2):
    law = FormalGroupLaw.universal(default_truncation(a2))
    return FlagBasis(a2, law)


@pytest.fixture(scope="session")
def b2_universal(b2):
    law = FormalGroupLaw.universal(default_truncation(b2))
    return FlagBasis(b2, law)


@pytest.fixture(scope="session")
def a2_lazard(a2_universal):
    return LazardBasis(a2_universal.law, a2_universal.N)


@pytest.fixture(scope="session")
def universal8():
    return FormalGroupLaw.universal(8)


@pytest.fixture(scope="session")
def lazard6(universal8):
    return LazardBasis(universal8, 6)


@pytest.fixture(scope="session")
def multiplicative_by_log():
    """Law factory: x + y - beta*x*y given by its logarithm sum beta^(k-1) x^k / k.

    The law of ``FormalGroupLaw.multiplicative``, given by its logarithm
    -ln(1 - beta x)/beta instead of its coefficients.
    """

    def build(trunc):
        ring = CoeffRing((("beta", 1),))
        beta = ring.gen("beta")
        return FormalGroupLaw.from_log(
            ring, trunc, [(beta ** k).scale(Fraction(1, k + 1)) for k in range(1, trunc)]
        )

    return build
