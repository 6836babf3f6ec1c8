"""Seeded input generators, one per workload.

Nothing here imports iwrlat: the program only ever sees what these functions
produce.  Each generator is an endless stream of blocks of questions that
depends on the seed alone; a run answers whole blocks, so a run that answers
more sees a longer prefix of the same stream.

Every block of a workload has nearly the same mix of input sizes (fixed
stratified and low-discrepancy layouts; the seed picks the inputs within
them), so throughput over whole blocks barely depends on how many blocks a
run completes, and two seeds give runs of nearly equal work (NOTES.md says
why this matters to the bounds).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from math import gcd

WORKLOADS = ("query", "census", "interference", "cli")

SQUAREFREE_D = tuple(d for d in range(1, 31) if all(d % (p * p) for p in (2, 3, 5)))

# query: M log-uniform on [10, 3e5], D uniform over SQUAREFREE_D.  A block
# holds an antithetic pair of questions in each of QUERY_STRATA equal slices
# of log M; within a slice the points (w, v) -> (M, D) follow an R2 sequence
# over blocks (steps 1/g, 1/g^2 for the plastic number g, a 2-D
# low-discrepancy sequence), and the seed moves each point by QUERY_JITTER.
QUERY_M_RANGE = (10, 300_000)
QUERY_STRATA = 8
R2_STEPS = (0.7548776662466927, 0.5698402909980532)
STRATUM_OFFSETS = (0.3819660112501051, 0.6180339887498949)
QUERY_JITTER = (1 / 8, 1 / len(SQUAREFREE_D))

# census: CENSUS_WINDOWS contiguous windows of M, one starting in each equal
# slice of [1e5, 2e5), swept in turn; one question is one row of the table,
# a single M with all six small types D
CENSUS_START_RANGE = (100_000, 200_000)
CENSUS_WINDOWS = 8
CENSUS_D = (1, 2, 3, 5, 6, 7)

# interference: epstein_zeta at eps = rel * T**-s.  s = 1.5 stays at
# rel 1e-2: the shell sum needs N ~ 2.3e4 shells at rel 1e-3, and eps = 1e-9
# would make _min_radius choose N ~ 8e9 (arrays of ~1.6e10 floats).
ZETA_MIX = ((1.5, 1e-2), (2.0, 1e-5), (2.0, 1e-6), (3.0, 1e-12))
# per block, (1.5, 1e-2) and (3, 1e-12) twice: both cost ~0.08 s, so the
# median question always falls inside that cluster rather than in a gap
# between clusters, where it would jump from run to run
ZETA_BLOCK = (ZETA_MIX[0], ZETA_MIX[0], ZETA_MIX[1], ZETA_MIX[2], ZETA_MIX[3], ZETA_MIX[3])
BOUNDS_EPS = (1e-2, 1e-6)
GOLDEN_STEP = 0.6180339887498949
SNR_EPS = 1e-6
SHAPE_K_RANGE = (4, 50)

# cli: small inputs only; eps is the CLI default
CLI_SUBCOMMANDS = ("classify", "enumerate", "count", "optimize", "zeta", "snr", "compose", "table1")
CLI_M_RANGE = (10, 1000)


def _rng(workload: str, seed: int, stream: str = "timed") -> random.Random:
    return random.Random(f"{workload}:{stream}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float, u: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    """Random integral 2x2 matrix (a, b, c, d) with ad - bc = +-1."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        t = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.5:
            b, d = b + t * a, d + t * c  # column 2 += t * column 1
        else:
            a, c = a + t * b, c + t * d  # column 1 += t * column 2
    if rng.random() < 0.5:
        a, b, c, d = b, a, d, c
    return a, b, c, d


def change_basis(gram: tuple[int, int, int], basis: tuple[int, int, int, int]) -> tuple[int, int, int]:
    """U^T G U for G = [[A, B], [B, C]] and U = [[a, b], [c, d]]: the same lattice in another basis."""
    A, B, C = gram
    a, b, c, d = basis
    return (A * a * a + 2 * B * a * c + C * c * c,
            A * a * b + B * (a * d + b * c) + C * c * d,
            A * b * b + 2 * B * b * d + C * d * d)


def _mn_class(rng: random.Random, D: int | None = None, max_mn: int = 12) -> tuple[int, int, int, int]:
    """A class (p, r, q, D) built from a random coprime pair (m, n) in the band.

    Uses the paper's parametrisation directly, so the generator does not need
    the library to know that a class exists.
    """
    while True:
        d = D if D is not None else rng.choice(SQUAREFREE_D)
        m, n = rng.randint(1, max_mn), rng.randint(1, max_mn)
        if gcd(m, n) == 1 and d * n * n <= 3 * m * m <= 9 * d * n * n:
            break
    e = 0 if d % 2 == 0 or (m * n) % 2 == 0 else 1
    g = 2**e * gcd(m, d)
    return abs(m * m - d * n * n) // g, 2 * m * n // g, (m * m + d * n * n) // g, d


def largest_prime_factor(n: int) -> int:
    """Plain trial division; for input properties only (n is at most ~1e6 here)."""
    best, f = 1, 2
    while f * f <= n:
        while n % f == 0:
            best, n = f, n // f
        f += 1
    return max(best, n)


# ----------------------------------------------------------------- query


def query_questions(seed: int):
    """Blocks of 2 * QUERY_STRATA questions, one per determinant.

    Cost grows like M*sqrt(D) over four decades of M, so a run holds only a
    handful of the largest determinants.  Every block has the same spread of
    sizes: an antithetic pair per slice of log M, the second point mirrored
    in the slice and half a cycle away in D, so a large M with a large D is
    paired with a large M with a small D.  The seed picks the determinants
    within that layout.
    """
    rng = _rng("query", seed)
    n_d = len(SQUAREFREE_D)
    block_no = 0
    while True:
        block_no += 1
        block = []
        for j in range(QUERY_STRATA):
            w, v = (
                (0.5 + j * offset + block_no * step + (rng.random() - 0.5) * jitter) % 1.0
                for offset, step, jitter in zip(STRATUM_OFFSETS, R2_STEPS, QUERY_JITTER)
            )
            for w_, v_ in ((w, v), (1.0 - w, (v + 0.5) % 1.0)):
                M = _log_uniform(rng, *QUERY_M_RANGE, (j + w_) / QUERY_STRATA)
                D = SQUAREFREE_D[min(int(v_ * n_d), n_d - 1)]
                block.append({"kind": "query", "M": M, "D": D, "basis": _unimodular(rng)})
        rng.shuffle(block)
        yield block


def query_warmup(seed: int):
    """M in [2, 9]: below the timed range, so no warm-up question repeats."""
    rng = _rng("query", seed, "warmup")
    return [
        {"kind": "query", "M": M, "D": D, "basis": _unimodular(rng)}
        for M, D in ((6, 5), (8, 3), (9, 1), (4, 7))
    ]


# ----------------------------------------------------------------- census


def census_starts(seed: int) -> list[int]:
    rng = _rng("census", seed)
    lo, hi = CENSUS_START_RANGE
    width = (hi - lo) // CENSUS_WINDOWS
    return [lo + j * width + rng.randrange(width) for j in range(CENSUS_WINDOWS)]


def census_questions(seed: int):
    """The sweep in blocks: the next M of every window.

    A row costs about the largest prime factor P of M (factorize(r^2 D)
    trial-divides up to P), so one window's cost scales with its start; a
    window in every slice of the range gives every seed the same mix.  The
    first row is also checked against the (m, n) oracle.
    """
    starts = census_starts(seed)
    step = 0
    while True:
        yield [{"kind": "census", "M": start + step, "Ds": CENSUS_D, "oracle": step == 0 and start == starts[0]}
               for start in starts]
        step += 1


def census_warmup(seed: int):
    """M just above 1000: below every window, and cheap, so set-up does not depend on the seed."""
    return [{"kind": "census", "M": M, "Ds": CENSUS_D} for M in range(1001, 1005)]


# ----------------------------------------------------------------- interference


def interference_determinants(seed: int) -> list[tuple[int, int]]:
    """Three non-empty determinants M*sqrt(D): M = k * r for a constructed class."""
    rng = _rng("interference", seed, "determinants")
    out = []
    while len(out) < 3:
        _, r, _, D = _mn_class(rng)
        spec = (r * rng.randint(1, 20), D)
        if spec not in out:
            out.append(spec)
    return out


def _shape(rng, dets):
    pick = rng.randrange(len(dets) + 2)
    if pick < len(dets):
        M, D = dets[pick]
        return {"shape": "det", "M": M, "D": D, "index": rng.randrange(1 << 16)}
    return {"shape": ("hexagonal", "square")[pick - len(dets)], "k": rng.randint(*SHAPE_K_RANGE)}


def interference_questions(seed: int):
    """Blocks of nine: six zeta questions (ZETA_BLOCK), one snr, one bracket per eps.

    Bracket exponents follow a golden-ratio sequence over (1, 3], moved by the
    seed within 1/20 of the range, so s near 1 (where the seed code refuses)
    recurs at the same rate in every run.
    """
    rng = _rng("interference", seed)
    dets = interference_determinants(seed)
    block_no = 0
    while True:
        block_no += 1
        block = [{"kind": "zeta", "s": s, "rel": rel, **_shape(rng, dets)} for s, rel in ZETA_BLOCK]
        block.append({"kind": "snr", "eps": SNR_EPS, **_shape(rng, dets)})
        for offset, eps in enumerate(BOUNDS_EPS):
            w = (0.5 * offset + block_no * GOLDEN_STEP + rng.random() / 20) % 1.0
            block.append({"kind": "bounds", "s": 3.0 - 2.0 * w, "eps": eps, **_shape(rng, dets)})
        rng.shuffle(block)
        yield block


def interference_warmup(seed: int):
    """Shapes at k = 51 and s, rel outside the timed mix."""
    return [
        {"kind": "zeta", "s": 2.5, "rel": 1e-3, "shape": "hexagonal", "k": 51},
        {"kind": "snr", "eps": SNR_EPS, "shape": "square", "k": 51},
        {"kind": "bounds", "s": 3.5, "eps": 1e-2, "shape": "hexagonal", "k": 51},
    ]


# ----------------------------------------------------------------- cli


def _cli_question(rng, sub):
    if sub == "table1":
        return {"kind": "table1", "argv": ["table1"]}
    if sub in ("enumerate", "count", "optimize"):
        M, D = _log_uniform(rng, *CLI_M_RANGE, rng.random()), rng.choice(SQUAREFREE_D)
        argv = [sub, "--M", str(M), "--D", str(D)]
        if sub == "enumerate" and rng.random() < 0.5:
            argv.append("--include-square-class")
        return {"kind": sub, "argv": argv, "M": M, "D": D}
    if sub == "classify":
        p, r, q, D = _mn_class(rng)
        k = rng.randint(1, 20)
        g = change_basis((k * q, k * p, k * q), _unimodular(rng))
        return {"kind": sub, "argv": [sub, "--gram", ",".join(map(str, g))], "class": (p, r, q, D), "k": k}
    if sub in ("zeta", "snr"):
        p, r, q, D = _mn_class(rng)
        k = rng.randint(1, 20)
        argv = [sub, "--p", str(p), "--q", str(q), "--D", str(D), "--k", str(k)]
        s = None
        if sub == "zeta":
            s = rng.choice((2.0, 3.0))
            argv += ["--s", str(s)]
        return {"kind": sub, "argv": argv, "class": (p, r, q, D), "k": k, "s": s}
    if sub == "compose":
        D = rng.choice(tuple(d for d in SQUAREFREE_D if d > 1))
        c1, c2 = _mn_class(rng, D), _mn_class(rng, D)
        argv = [sub, "--D", str(D), "--c1", f"{c1[0]},{c1[2]}", "--c2", f"{c2[0]},{c2[2]}"]
        return {"kind": sub, "argv": argv, "c1": c1, "c2": c2}
    raise ValueError(sub)


def cli_questions(seed: int):
    """Blocks of eight invocations, one per subcommand, in shuffled order."""
    rng = _rng("cli", seed)
    while True:
        order = list(CLI_SUBCOMMANDS)
        rng.shuffle(order)
        yield [_cli_question(rng, sub) for sub in order]


def cli_warmup(seed: int):
    """`--help` imports every module (compiling bytecode) and asks no question."""
    return [{"kind": "help", "argv": ["--help"]}]


QUESTIONS = {
    "query": query_questions,
    "census": census_questions,
    "interference": interference_questions,
    "cli": cli_questions,
}
WARMUP = {
    "query": query_warmup,
    "census": census_warmup,
    "interference": interference_warmup,
    "cli": cli_warmup,
}


def input_properties(workload: str, seed: int, questions: list[dict]) -> dict:
    """Measured properties of the questions a run attempted."""
    props: dict = {"questions": len(questions), "kinds": Counter(q["kind"] for q in questions)}
    Ms = sorted({q["M"] for q in questions if "M" in q})
    if Ms:
        props["M_range"] = [Ms[0], Ms[-1]]
        props["distinct_M"] = len(Ms)
        props["M_with_prime_factor_over_1000"] = sum(largest_prime_factor(M) > 1000 for M in Ms) / len(Ms)
    if workload == "query":
        props["D_counts"] = Counter(q["D"] for q in questions)
    if workload == "interference":
        props["determinants"] = interference_determinants(seed)
        props["shapes"] = Counter(q["shape"] for q in questions)
        props["zeta_s_rel"] = Counter(f"s={q['s']:g} rel={q['rel']:g}" for q in questions if q["kind"] == "zeta")
        props["bounds_eps_s"] = Counter(
            f"eps={q['eps']:g} s{'<=' if q['s'] <= 1.3 else '>'}1.3" for q in questions if q["kind"] == "bounds"
        )
    return props
