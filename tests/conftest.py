import time

import pytest

from ngtrace.corpus import build_corpus

pytest_plugins = ["pytester"]


def sieve(gens, bound):
    """Independent DP membership oracle used to freeze expected values."""
    ok = [False] * (bound + 1)
    ok[0] = True
    for x in range(1, bound + 1):
        ok[x] = any(x >= a and ok[x - a] for a in gens)
    return ok


@pytest.fixture(scope="session")
def small_corpus():
    """Validated instances for n in {3,4}, exponents <= 2, fast to build."""
    return build_corpus(ns=(3, 4), emax=2, bound=100)


@pytest.fixture(scope="session")
def n3_corpus():
    """All validated 3-generator instances with exponents <= 3."""
    return build_corpus(ns=(3,), emax=3, bound=150)


ACCEPTANCE_SIZE = 20004  # instances of the acceptance corpus


@pytest.fixture(scope="session")
def acceptance_corpus():
    """Every validated instance for n in {3,4,5}, exponents <= 3 and
    generators <= 150, in build order, with the seconds the build took."""
    t0 = time.time()
    corpus = build_corpus(ns=(3, 4, 5), emax=3, bound=150)
    return corpus, time.time() - t0


def by_n(corpus, n: int) -> list:
    """The instances of one matrix size, in corpus order: build_corpus(ns=(n,))."""
    return [inst for inst in corpus if inst.n == n]
