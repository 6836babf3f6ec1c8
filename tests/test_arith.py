import math
import random

import pytest

from iwrlat.arith import (
    Factorization,
    divisors,
    factorize,
    is_prime,
    is_squarefree,
    mobius,
    omega,
    squarefree_part,
    tau,
)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(45).factors == ((3, 2), (5, 1))
    assert factorize(2880).factors == ((2, 6), (3, 2), (5, 1))


def test_factorize_rejects_nonpositive():
    for bad in (0, -1, -45):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factorize_large_semiprime():
    # every prime factor lies beyond the trial-division primes
    for n, factors in (
        (1_000_003 * 1_000_033, ((1_000_003, 1), (1_000_033, 1))),
        (999_999_937 * 1_000_000_007, ((999_999_937, 1), (1_000_000_007, 1))),
        (1009**2 * 1013**3, ((1009, 2), (1013, 3))),
        ((2**61 - 1) * (2**31 - 1) ** 2, ((2**31 - 1, 2), (2**61 - 1, 1))),
    ):
        assert factorize(n).factors == factors


def _product(f):
    return math.prod(p**e for p, e in f.factors)


def test_factorization_reconstruct():
    f = factorize(360)
    assert isinstance(f, Factorization)
    assert _product(f) == 360 == f.value


def test_full_reconstruction_sweep_to_one_million():
    # the strongest functional check factorize gets: every value round-trips
    for n in range(1, 1_000_001):
        f = factorize(n)
        assert _product(f) == n


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]
    assert divisors(45) == [1, 3, 5, 9, 15, 45]
    with pytest.raises(ValueError):
        divisors(0)


def test_squarefree_part_examples():
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(2880) == (5, 24)
    assert squarefree_part(153) == (17, 3)
    with pytest.raises(ValueError):
        squarefree_part(-4)


def test_standard_functions_examples():
    assert (mobius(1), omega(1), tau(1)) == (1, 0, 1)
    assert (mobius(45), omega(45), tau(45)) == (0, 2, 6)
    assert (mobius(30), omega(30), tau(30)) == (-1, 3, 8)
    for bad in (0, -7):
        for fn in (mobius, omega, tau):
            with pytest.raises(ValueError):
                fn(bad)


def test_mobius_divisor_sum():
    for n in range(1, 2001):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_squarefree_part_identity():
    for n in range(1, 20_001):
        s, f = squarefree_part(n)
        assert s * f * f == n
        assert mobius(s) != 0


def test_tau_omega_match_divisors_and_factorization():
    for n in range(1, 5001):
        assert tau(n) == len(divisors(n))
        assert omega(n) == len(factorize(n).factors)


def test_is_squarefree_consistent_with_mobius():
    for n in range(1, 3001):
        assert is_squarefree(n) == (mobius(n) != 0)


def test_is_prime_known_values():
    primes = [2, 3, 5, 7, 97, 563, 7919, 10**9 + 7, 2**61 - 1]
    assert all(is_prime(p) for p in primes)
    composites = [1, 4, 9, 561, 1105, 6601, 10**12 + 1, 2**61 + 1]
    assert not any(is_prime(c) for c in composites)


# psi_12 and psi_13: the smallest strong pseudoprimes to every prime base up to
# 37 and up to 41 (Sorenson & Webster, Math. Comp. 86, 2017)
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def test_is_prime_refuses_from_psi_13_on():
    assert PSI_13 == 3317044064679887385961981
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1, 2**100):
        with pytest.raises(ValueError, match="certified only below"):
            is_prime(n)
    # the base 41 exposes psi_12, which the twelve bases up to 37 take for a prime
    assert PSI_12 == 318665857834031151167461
    assert not is_prime(PSI_12)
    # the largest prime below psi_13 is still certified
    assert is_prime(PSI_13 - 168) and not is_prime(PSI_13 - 170)


def test_factorize_splits_strong_pseudoprimes():
    for n, primes in ((PSI_13, (1287836182261, 2575672364521)), (PSI_12, (399165290221, 798330580441))):
        f = factorize(n)
        assert f.factors == tuple((p, 1) for p in primes)
        assert all(is_prime(p) for p in primes)
    assert factorize(2**100).factors == ((2, 100),)
    assert factorize(7 * PSI_13**2).factors == ((7, 1), (1287836182261, 2), (2575672364521, 2))


def test_factorize_refuses_uncertified_prime_factor():
    for n in (2**89 - 1, 6 * (2**89 - 1)):
        with pytest.raises(ValueError, match="cannot certify the factor 618970019642690137449562111"):
            factorize(n)


def test_factorize_random_products():
    rng = random.Random(7)
    small_primes = [p for p in range(2, 200) if is_prime(p)]
    for _ in range(300):
        n = 1
        expect = {}
        for _ in range(rng.randint(1, 5)):
            p = rng.choice(small_primes)
            e = rng.randint(1, 4)
            n *= p**e
            expect[p] = expect.get(p, 0) + e
        f = factorize(n)
        assert dict(f.factors) == expect



def test_factorization_products_powers_and_divisors():
    a, b = factorize(360), factorize(1013 * 7)
    assert a * b == factorize(360 * 1013 * 7)
    assert b * b * a == factorize(1013**2 * 49 * 360)
    assert a * factorize(1) == a
    for n in (1, 12, 360, 4052, 5040):
        f = factorize(n)
        assert f.divisors() == [d for d in range(1, n + 1) if n % d == 0]
        assert (f.omega(), f.tau(), f.mobius()) == (omega(n), tau(n), mobius(n))
