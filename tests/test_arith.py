import math
import random

import pytest
from oracles import divisors, factor_by_sieve, mobius, omega, smallest_prime_factors, tau

from iwrlat.arith import Factorization, factorize, is_prime, is_squarefree, squarefree_part


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
    # every value round-trips; 1..300 000 are left to test_factorize_matches_the_sieve_oracle,
    # which checks them against an independent sieve, a stronger check than the product
    for n in range(300_001, 1_000_001):
        f = factorize(n)
        assert _product(f) == n


# beyond the sieve: a prime, a square and products at the end of the trial-division
# primes (997 is the last, 1009 the first prime past them), prime powers above
# 10^6, and the smallest primes above 2^40 and 10^12
FACTORIZE_EDGE_CASES = (999_983, 997**2, 997 * 1009, 1009 * 1013, 1_000_003**2, 1_000_003**3, 2**40 + 15, 10**12 + 39)


def test_factorize_matches_the_sieve_oracle():
    spf = smallest_prime_factors(2**20)  # 2^20 = isqrt(2^40 + 15)
    for n in range(1, 300_001):
        assert factorize(n).factors == factor_by_sieve(n, spf), n
    for n in FACTORIZE_EDGE_CASES:
        assert factorize(n).factors == factor_by_sieve(n, spf), n


def test_squarefree_part_examples():
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(2880) == (5, 24)
    assert squarefree_part(153) == (17, 3)
    with pytest.raises(ValueError):
        squarefree_part(-4)


def test_squarefree_part_identity():
    for n in range(1, 20_001):
        s, f = squarefree_part(n)
        assert s * f * f == n
        assert mobius(s) != 0


def test_tau_omega_match_divisors_and_factorization():
    for n in range(1, 5001):
        f = factorize(n)
        assert tau(n) == len(divisors(n)) == math.prod(e + 1 for _, e in f.factors)
        assert omega(n) == len(f.factors)


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
