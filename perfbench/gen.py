"""Seeded input generator for the benchmark, independent of the library.

Parameters are plain tuples here: ``(n, unip, disc)`` with ``unip`` a tuple of
``(char, dim)`` pairs (char 0 = trivial, 1 = sign) in canonical order
(dimension decreasing, trivial first) and ``disc`` a tuple of ``(t, a)``
pairs (t decreasing, then a decreasing).  The enumerator, the brute-force
search and the membership criteria below are written from the paper's
statements and share no code with ``sympacket``; ``checks.py`` uses them as
oracles too.

    python3 perfbench/gen.py --workload point-queries --seed 1

writes ``perfbench/out/inputs-point-queries-1.json`` (the file the runner
loads; it makes it itself when missing).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
from collections import Counter
from functools import lru_cache

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("sweep", "point-queries", "cli-mix")

SWEEP_RANKS = range(4, 10)
SMALL_RANKS = range(1, 6)  # brute-force cross-check of the enumerator
QUERY_RANKS = range(2, 13)
QUERY_MEMBERS = 30  # fresh members per (rank, module)
QUERY_NON_MEMBERS = 60  # fresh non-members per (rank, module)
QUERY_HOT_PER_CLASS = 10  # draws from the hot pool, per (rank, module)


# --- weights and infinitesimal characters ------------------------------------


def weight_pi(n: int, m: int) -> tuple[int, ...]:
    return (m,) * n


def weight_sigma(n: int, k: int) -> tuple[int, ...]:
    return (k + 1,) * (2 * k) + (k,) * (n - 2 * k)


def inf_char(weight: tuple[int, ...]) -> tuple[int, ...]:
    """Decreasing multiset {w_i - i} ∪ {-(w_i - i)} ∪ {0}."""
    shifts = [w - i for i, w in enumerate(weight, start=1)]
    return tuple(sorted(shifts + [-s for s in shifts] + [0], reverse=True))


def target_inf_char(module: str, n: int, value: int) -> tuple[int, ...]:
    w = weight_pi(n, value) if module == "pi" else weight_sigma(n, value)
    return inf_char(w)


def disc_segment(t: int, a: int) -> list[int]:
    top, bottom = (t + a - 1) // 2, (t - a + 1) // 2
    return list(range(bottom, top + 1)) + list(range(-top, -bottom + 1))


def param_inf_char(unip, disc) -> tuple[int, ...]:
    entries: list[int] = []
    for _, dim in unip:
        h = (dim - 1) // 2
        entries.extend(range(-h, h + 1))
    for t, a in disc:
        entries.extend(disc_segment(t, a))
    return tuple(sorted(entries, reverse=True))


# --- enumeration --------------------------------------------------------------


def _positive_counts(chi: tuple[int, ...]) -> tuple[int, ...]:
    """counts[v] = multiplicity of v >= 0 (the negative half mirrors it)."""
    c = Counter(chi)
    return tuple(c[v] for v in range(max(chi) + 1))


def _use(counts: tuple[int, ...], values: list[int]) -> tuple[int, ...] | None:
    out = list(counts)
    for v in values:
        out[v] -= 1
        if out[v] < 0:
            return None
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def covers(counts: tuple[int, ...]) -> frozenset:
    """Block-dimension covers of a symmetric multiset given by its counts.

    A cover is (unipotent dims decreasing, discrete (t, a) canonical).  The
    largest positive value is covered either by a centered segment or by a
    mirrored pair of segments with that top.
    """
    top = len(counts) - 1
    if top == 0:
        return frozenset({((1,) * counts[0], ())})
    found = set()
    rest = _use(counts, [0] + list(range(1, top + 1)))
    if rest is not None:
        for unip, disc in covers(rest):
            found.add((tuple(sorted(unip + (2 * top + 1,), reverse=True)), disc))
    for bottom in range(top, -top, -1):
        if bottom >= 1:
            values = list(range(bottom, top + 1))
        else:
            values = [0, 0] + list(range(1, top + 1)) + list(range(1, -bottom + 1))
        rest = _use(counts, values)
        if rest is None:
            continue
        block = (top + bottom, top - bottom + 1)
        for unip, disc in covers(rest):
            merged = tuple(sorted(disc + (block,), key=lambda b: (-b[0], -b[1])))
            found.add((unip, merged))
    return frozenset(found)


def canonical_unip(blocks) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(blocks, key=lambda b: (-b[1], b[0])))


def violations(p) -> list[str]:
    """Block shape, dimension 2n+1, determinant parity, canonical order."""
    n, unip, disc = p
    out = []
    if any(c not in (0, 1) or d < 1 or d % 2 == 0 for c, d in unip) or any(
        t < 1 or a < 1 or (t + a) % 2 == 0 for t, a in disc
    ):
        out.append("BLOCK_SHAPE")
    if sum(d for _, d in unip) + 2 * sum(a for _, a in disc) != 2 * n + 1:
        out.append("DIM_SUM")
    if sum(c for c, _ in unip) % 2 != sum(a % 2 for _, a in disc) % 2:
        out.append("PARITY_PRODUCT")
    if unip != canonical_unip(unip) or list(disc) != sorted(disc, key=lambda b: (-b[0], -b[1])):
        out.append("ORDER")
    return out


def params_of_cover(n: int, unip_dims, disc):
    """Every valid character assignment on the cover's unipotent blocks."""
    parity = sum(a % 2 for _, a in disc) % 2
    groups = sorted(Counter(unip_dims).items(), reverse=True)
    for picks in itertools.product(*(range(c + 1) for _, c in groups)):
        if sum(picks) % 2 != parity:
            continue
        blocks = []
        for (dim, count), k in zip(groups, picks):
            blocks += [(0, dim)] * (count - k) + [(1, dim)] * k
        yield (n, canonical_unip(blocks), disc)


def enumerate_params(chi: tuple[int, ...], n: int) -> list:
    out = []
    for unip_dims, disc in covers(_positive_counts(chi)):
        out.extend(params_of_cover(n, unip_dims, disc))
    return sorted(out)


def brute_force_params(chi: tuple[int, ...], n: int) -> list:
    """Generate-and-test: every block multiset of dimension 2n+1 whose
    segments give chi, with every valid character assignment."""
    target = Counter(chi)
    top = max(chi)
    pool = [("u", 2 * h + 1) for h in range(top + 1)]
    pool += [
        ("d", (t, a))
        for t in range(1, 2 * top + 1)
        for a in range(1, 2 * top + 2)
        if (t + a) % 2 == 1 and (t + a - 1) // 2 <= top
    ]
    size = {b: (b[1] if b[0] == "u" else 2 * b[1][1]) for b in pool}
    found = set()

    def dfs(start: int, left: int, chosen: list) -> None:
        if left == 0:
            unip = [d for kind, d in chosen if kind == "u"]
            disc = tuple(sorted((d for kind, d in chosen if kind == "d"),
                                key=lambda b: (-b[0], -b[1])))
            if Counter(param_inf_char([(0, d) for d in unip], disc)) != target:
                return
            for chars in itertools.product((0, 1), repeat=len(unip)):
                if sum(chars) % 2 == sum(a % 2 for _, a in disc) % 2:
                    found.add((n, canonical_unip(zip(chars, unip)), disc))
            return
        for i in range(start, len(pool)):
            if size[pool[i]] <= left:
                chosen.append(pool[i])
                dfs(i, left - size[pool[i]], chosen)
                chosen.pop()

    dfs(0, 2 * n + 1, [])
    return sorted(found)


# --- membership criteria, restated from the paper --------------------------


def _disjoint_segments(disc) -> bool:
    spans = sorted(((t - a + 1) // 2, (t + a - 1) // 2) for t, a in disc)
    return all(h1 < l2 for (_, h1), (l2, _) in zip(spans, spans[1:]))


def member_pi(p, m: int) -> bool:
    """pi_n(m) lies in the packet (the character is assumed to match)."""
    n, unip, disc = p
    if m == 0:
        return unip == ((0, 2 * n + 1),) and not disc
    if sum(d for _, d in unip) == 1 and 2 * m > n + 1 and _disjoint_segments(disc):
        return True
    top = max(d for _, d in unip)
    exact, shifted = 2 * (n - m) + 1, 2 * (n - m) + 3
    if top == exact and (m % 2, exact) in unip:
        return True
    return 2 * m >= n + 2 and top == shifted and ((m - 1) % 2, shifted) in unip


def member_sigma(p, k: int) -> bool:
    n, unip, _ = p
    if n == 2 * k:
        return member_pi(p, k + 1)
    big = 2 * (n - k) + 1
    return max(d for _, d in unip) == big and (k % 2, big) in unip


def member(p, module: str, value: int) -> bool:
    return member_pi(p, value) if module == "pi" else member_sigma(p, value)


def distinguished_sigma(n: int, k: int):
    """sgn^k ⊠ R[2(n-k)+1] ⊕ δ_{k-1} ⊠ R[k]; for k = 1 the discrete block
    degenerates into triv ⊠ R[1] ⊕ sgn ⊠ R[1]."""
    big = (k % 2, 2 * (n - k) + 1)
    if k == 1:
        return (n, canonical_unip([big, (0, 1), (1, 1)]), ())
    return (n, (big,), ((k - 1, k),))


def targets(module: str, n: int) -> list[int]:
    return list(range(n + 1)) if module == "pi" else list(range(1, n // 2 + 1))


@lru_cache(maxsize=None)
def split_members(module: str, n: int, value: int):
    ps = enumerate_params(target_inf_char(module, n, value), n)
    return (
        tuple(p for p in ps if member(p, module, value)),
        tuple(p for p in ps if not member(p, module, value)),
    )


# --- wire form ----------------------------------------------------------------


def to_wire(p) -> dict:
    n, unip, disc = p
    return {
        "n": n,
        "unipotent": [{"char": ("triv", "sgn")[c], "dim": d} for c, d in unip],
        "discrete": [{"t": t, "a": a} for t, a in disc],
    }


def from_wire(obj: dict):
    return (
        obj["n"],
        tuple(({"triv": 0, "sgn": 1}[b["char"]], b["dim"]) for b in obj["unipotent"]),
        tuple((b["t"], b["a"]) for b in obj["discrete"]),
    )


# --- workloads ------------------------------------------------------------------


def gen_sweep(rng: random.Random) -> dict:
    ops = [
        [module, n, value]
        for n in SWEEP_RANKS
        for module in ("pi", "sigma")
        for value in targets(module, n)
    ]
    rng.shuffle(ops)
    return {"ops": ops}


def _question(rng: random.Random, module: str, n: int, want_member: bool, j: int):
    """The j-th question of its kind: targets are taken in turn, so the
    make-up of a round does not depend on the seed; the parameter is drawn."""
    side = 0 if want_member else 1
    choices = [v for v in targets(module, n) if split_members(module, n, v)[side]]
    value = choices[j % len(choices)]
    p = rng.choice(split_members(module, n, value)[side])
    return {"module": module, "n": n, "value": value,
            "param": to_wire(p), "member": want_member}


HOT_QUESTIONS = [("pi", 6, True), ("sigma", 7, False), ("pi", 8, True), ("sigma", 8, False)]


def gen_point_queries(rng: random.Random) -> dict:
    """Per (rank, module): a fixed number of fresh members and non-members,
    and a fixed number of draws from a small pool of hot questions."""
    hot = [_question(rng, module, n, member, rng.randrange(99))
           for module, n, member in HOT_QUESTIONS]
    ops = []
    for n in QUERY_RANKS:
        for module in ("pi", "sigma"):
            ops += [_question(rng, module, n, True, j) for j in range(QUERY_MEMBERS)]
            ops += [_question(rng, module, n, False, j) for j in range(QUERY_NON_MEMBERS)]
            ops += [dict(hot[j % len(hot)], hot=True) for j in range(QUERY_HOT_PER_CLASS)]
    rng.shuffle(ops)
    return {"ops": ops}


# Non-integer numbers that the wire format must reject (exit 2).  They do
# not depend on the seed, so they fail the same share of every run while
# the wire format still coerces them.
COERCED = [
    ["decide", "--pi", "1", "--param",
     '{"n": 2, "unipotent": [{"char": "sgn", "dim": 3.9}, '
     '{"char": "triv", "dim": 1}, {"char": "sgn", "dim": 1}], "discrete": []}'],
    ["decide", "--sigma", "1", "--param",
     '{"n": 2, "unipotent": [{"char": "sgn", "dim": "3"}, '
     '{"char": "triv", "dim": 1}, {"char": "sgn", "dim": 1}], "discrete": []}'],
    ["rho", "--module", "pi", "--m", "2", "--param",
     '{"n": 2.0, "unipotent": [{"char": "triv", "dim": 1}], '
     '"discrete": [{"t": 1, "a": 2}]}'],
    ["decide", "--pi", "2", "--param",
     '{"n": 2, "unipotent": [{"char": "triv", "dim": 1}], '
     '"discrete": [{"t": "1", "a": 2}]}'],
]


def _malformed(rng: random.Random) -> str:
    """A parameter that fails validation with at least one violation code."""
    while True:
        n = rng.randint(2, 6)
        w = to_wire(rng.choice(split_members("pi", n, n)[0]))
        kind = rng.choice(("DIM_SUM", "PARITY", "SHAPE", "ORDER", "FIELD", "MISSING"))
        if kind == "FIELD":
            w["extra"] = 1
            return json.dumps(w)
        if kind == "MISSING":
            del w["unipotent"][0]["dim"]
            return json.dumps(w)
        if kind == "DIM_SUM":
            w["n"] += 1
        elif kind == "PARITY":
            w["unipotent"][0]["char"] = "sgn" if w["unipotent"][0]["char"] == "triv" else "triv"
        elif kind == "SHAPE":
            w["discrete"].append({"t": 2, "a": 2})
        else:
            w["unipotent"].reverse()
            w["discrete"].reverse()
        if violations(from_wire(w)):
            return json.dumps(w)


def _table_rows(n: int):
    """Three-block unipotent members of some pi_n(m), with m."""
    rows = []
    for m in range(1, n + 1):
        for p in split_members("pi", n, m)[0]:
            if not p[2] and len(p[1]) == 3:
                rows.append((p, m))
    return rows


# Repeated enumerations, fixed so that the heaviest operations of a round
# (and so its tail) do not depend on the seed: (family, n, value, times).
HOT_ENUMERATE = [("pi", 7, 4, 3), ("sigma", 6, 2, 3), ("pi", 5, 3, 2)]
SIZES = (2, 4, 6, 8, 10, 12, 5, 9)  # ranks of the 8 ops of each small command


def gen_cli_mix(rng: random.Random) -> dict:
    """100 commands of fixed make-up; the seed picks their arguments."""
    ops: list[dict] = []

    def add(kind: str, argv: list[str]) -> None:
        ops.append({"kind": kind, "argv": argv})

    for family, n, value, times in HOT_ENUMERATE:
        for _ in range(times):
            add("enumerate", [f"enumerate-{family}", str(n), str(value)])
    for n in (3, 4, 4, 5):
        family = rng.choice(("pi", "sigma"))
        add("enumerate", [f"enumerate-{family}", str(n), str(rng.choice(targets(family, n)))])

    for i in range(20):
        module, n = ("pi", "sigma", "pi", "regular")[i % 4], 2 + i % 7
        if module == "regular":
            pos = sorted(rng.sample(range(1, n + 4), n), reverse=True)
            chi = tuple(sorted(pos + [-x for x in pos] + [0], reverse=True))
            p = rng.choice(enumerate_params(chi, n))
            add("decide", ["decide", "--param", json.dumps(to_wire(p)), "--regular", "0"])
            continue
        value = rng.choice(targets(module, n))
        pool = [x for x in split_members(module, n, value) if x]
        p = rng.choice(rng.choice(pool))
        add("decide", ["decide", "--param", json.dumps(to_wire(p)), f"--{module}", str(value)])

    for i in range(16):
        n, delta = 3 + i % 6, rng.choice(("1", "-1"))
        if i % 2 == 0:  # table rows of pi_n(m); the first-form II_A3 rows exit 3
            p, m = rng.choice(_table_rows(n))
            argv = ["rho", "--module", "pi", "--m", str(m)]
        elif i % 4 == 1:  # table rows of sigma_{n,k}, alternately first form (exit 3)
            k, tau = rng.randint(1, (n - 1) // 2), (i // 4) % 2
            p = (n, canonical_unip([(tau, 1), ((tau + k) % 2, 2 * k - 1), (k % 2, 2 * (n - k) + 1)]), ())
            argv = ["rho", "--module", "sigma", "--k", str(k)]
        else:  # members with discrete blocks
            m = rng.randint(1, n)
            members = split_members("pi", n, m)[0]
            p = rng.choice([x for x in members if x[2]] or members)
            argv = ["rho", "--module", "pi", "--m", str(m)]
        add("rho", argv + ["--whittaker", delta, "--param", json.dumps(to_wire(p))])

    for i, n in enumerate(SIZES):
        p = rng.randint(0, n)
        add("invariants", ["invariants", str(p), str(n - p)] + (
            ["--delta", rng.choice(("1", "-1"))] if i % 2 else []))
        half = 1 + i % 6
        p = rng.randint(0, 2 * half)
        argv = ["howe", "--p", str(p), "--q", str(2 * half - p), "--rank", str(n)]
        if p in (0, 2 * half):
            argv += ["--char", rng.choice(("triv", "det"))]
        else:
            argv += ["--eta", rng.choice(("triv", "sgn")), "--tau", rng.choice(("0", "1"))]
        add("howe", argv + ["--delta", rng.choice(("1", "-1"))])
        family = ("pi", "sigma")[i % 2]
        value = rng.randint(1, n) if family == "pi" else rng.randint(1, n // 2)
        add("standard", ["standard", family, str(n), str(value)])
        add("tableau", ["tableau", str(n), str(rng.randint(0, n))])
        p = rng.randint(0, n // 2)
        argv = ["cohind", str(n), str(p), str(rng.randint(0, n - p))]
        if i % 4:
            argv += ["--t", str(rng.randint(1, 2 * n))]
            if i % 2:
                argv += ["--scalar-m", str(rng.randint(1, n))]
            if i % 4 == 3:
                w = sorted((rng.randint(0, n) for _ in range(n)), reverse=True)
                argv += ["--weight", ",".join(map(str, w))]
        add("cohind", argv)

    for i in range(8):
        verb = (["decide", "--pi", "1"], ["rho", "--module", "pi", "--m", "1"])[i % 2]
        add("malformed", verb + ["--param", _malformed(rng)])
    for argv in COERCED:
        add("coerced", list(argv))

    for i, op in enumerate(ops):  # a fixed half of the reports in text form
        op["argv"] = (["--format", "text"] if i % 2 else []) + op["argv"]
    rng.shuffle(ops)
    return {"ops": ops}


GENERATORS = {"sweep": gen_sweep, "point-queries": gen_point_queries, "cli-mix": gen_cli_mix}


def inputs_path(workload: str, seed: int) -> str:
    return os.path.join(OUT_DIR, f"inputs-{workload}-{seed}.json")


def generate(workload: str, seed: int) -> str:
    """Write the inputs of one workload and seed; return the file path."""
    data = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    data.update(workload=workload, seed=seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = inputs_path(workload, seed)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(generate(args.workload, args.seed))


if __name__ == "__main__":
    main()
