"""Seeded inputs for the four workloads.

Everything here is built by the benchmark's own code, without importing
pfdual: partial functions are tuples, closed sets are found by a closure
over precomputed operation tables, and the files are written in the formats
the `pfdual` CLI reads.  The same seed gives the same files.

Each corpus follows a fixed profile (for example: an algebra on 4 points
with 72 elements and 8 arrows), so every seed draws different inputs of the
same shape and the work per run does not depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Optional

import oracles

MAX_TRIES = 20_000


class FunctionSpace:
    """All (n+1)^n partial functions on n points, encoded as indices.

    A graph is a tuple whose entry i is the image of point i, or None.
    Functions are numbered in the lexicographic order of their graphs with
    None first.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        values = [None, *range(n)]
        self.graphs = [tuple(g) for g in itertools.product(values, repeat=n)]
        code = {g: i for i, g in enumerate(self.graphs)}
        pts = range(n)
        self.comp = [
            [code[tuple(None if v is None else g[v] for v in f)] for g in self.graphs]
            for f in self.graphs
        ]
        self.pref = [
            [code[tuple(v if v is not None else w for v, w in zip(f, g))] for g in self.graphs]
            for f in self.graphs
        ]
        self.anti = [code[tuple(i if f[i] is None else None for i in pts)] for f in self.graphs]
        self.rng = []
        for f in self.graphs:
            image = {v for v in f if v is not None}
            self.rng.append(code[tuple(i if i in image else None for i in pts)])

    def __len__(self) -> int:
        return len(self.graphs)

    def close(self, gens, limit: int) -> Optional[frozenset]:
        """Least closed superset of gens, or None once it exceeds limit."""
        comp, pref, anti, rng = self.comp, self.pref, self.anti, self.rng
        closed = set(gens)
        frontier = list(closed)
        while frontier:
            new = []
            current = list(closed)
            for f in frontier:
                cf, pf = comp[f], pref[f]
                for out in (anti[f], rng[f]):
                    if out not in closed:
                        closed.add(out)
                        new.append(out)
                for g in current:
                    for out in (cf[g], comp[g][f], pf[g], pref[g][f]):
                        if out not in closed:
                            closed.add(out)
                            new.append(out)
            if len(closed) > limit:
                return None
            frontier = new
        return frozenset(closed)

    def name(self, f: int) -> str:
        return f"f{f}"


def random_closed_set(space: FunctionSpace, rnd: random.Random, size: int, arrows: int,
                      avoid=(), within: Optional[frozenset] = None,
                      gens: tuple = (), tries: int = MAX_TRIES) -> tuple[frozenset, tuple]:
    """A closed set with exactly `size` elements and `arrows` arrows, drawn
    by closing random generators; with `within`, a proper superset of it
    that adds one generator to `gens`."""
    for _ in range(tries):
        if within is None:
            new_gens = tuple(rnd.randrange(len(space)) for _ in range(rnd.randint(1, 3)))
        else:
            new_gens = gens + (rnd.randrange(len(space)),)
        closed = space.close(new_gens, size)
        if (closed is not None and len(closed) == size and closed not in avoid
                and (within is None or within < closed)
                and oracles.count_arrows(space, closed) == arrows):
            return closed, new_gens
    raise RuntimeError(f"no closed set with {size} elements and {arrows} arrows "
                       f"on {space.n} points after {tries} tries")


def subset_tables(space: FunctionSpace, closed: frozenset):
    """Operation tables of a closed set, over its elements in code order."""
    order = sorted(closed)
    index = {f: i for i, f in enumerate(order)}
    comp = [[index[space.comp[f][g]] for g in order] for f in order]
    pref = [[index[space.pref[f][g]] for g in order] for f in order]
    anti = [index[space.anti[f]] for f in order]
    rng = [index[space.rng[f]] for f in order]
    return order, comp, anti, rng, pref


def _dump(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2) + "\n")


def write_concrete(path: Path, space: FunctionSpace, closed: frozenset) -> None:
    points = [str(i + 1) for i in range(space.n)]
    functions = {}
    for f in sorted(closed):
        graph = space.graphs[f]
        functions[space.name(f)] = {points[i]: points[v] for i, v in enumerate(graph) if v is not None}
    _dump(path, {"base": points, "functions": functions})


def write_abstract(path: Path, names, comp, anti, rng, pref) -> None:
    _dump(path, {
        "elements": list(names),
        "compose": [[names[v] for v in row] for row in comp],
        "antidomain": [names[v] for v in anti],
        "range": [names[v] for v in rng],
        "pref": [[names[v] for v in row] for row in pref],
    })


def rel(root: Path, path: Path) -> str:
    return str(path.relative_to(root))


# ---------------------------------------------------------------------------
# bidual-cold: dualize, sections and bidual on each algebra of a profile
# ---------------------------------------------------------------------------

# (points, elements, arrows) of each algebra; 3 objects on 3 points, 4 on 4.
BIDUAL_PROFILE = (
    (3, 12, 4), (3, 24, 6), (3, 36, 7), (3, 64, 9),
    (4, 36, 6), (4, 48, 7), (4, 48, 7), (4, 72, 8), (4, 72, 8), (4, 72, 8),
    (4, 96, 9), (4, 96, 9), (4, 120, 10), (4, 120, 10),
)


def bidual_corpus(seed: int, root: Path, workdir: Path) -> dict:
    rnd = random.Random(f"bidual-cold/{seed}")
    spaces = {n: FunctionSpace(n) for n in sorted({p[0] for p in BIDUAL_PROFILE})}
    seen: set = set()
    verdicts = []
    algebras = []
    for k, (n, size, arrows) in enumerate(BIDUAL_PROFILE):
        space = spaces[n]
        closed, _ = random_closed_set(space, rnd, size, arrows, avoid=seen)
        seen.add(closed)
        path = workdir / f"b{k:02d}.alg.json"
        cat = workdir / f"b{k:02d}.cat.json"
        write_concrete(path, space, closed)
        expect = {
            "elements": size,
            "objects": oracles.count_objects(space, closed),
            "arrows": oracles.count_arrows(space, closed),
        }
        algebras.append({"points": n, **expect})
        file, cat_file = rel(root, path), rel(root, cat)
        verdicts.append({"argv": ["dualize", file, "--out", cat_file, "--format", "json"],
                         "check": "dualize", "expect": expect})
        verdicts.append({"argv": ["sections", cat_file, "--format", "json"],
                         "check": "sections", "expect": expect})
        verdicts.append({"argv": ["bidual", file, "--format", "json"],
                         "check": "bidual", "expect": expect})
    return {"verdicts": verdicts, "probe": ["algebra", verdicts[0]["argv"][1]],
            "info": {"algebras": algebras}}


# ---------------------------------------------------------------------------
# axioms-large: check-axioms on concrete files and on corrupted tables
# ---------------------------------------------------------------------------

# (elements, arrows) on 4 points; each profile entry gives one concrete file
# and one abstract file with a corrupted entry.
AXIOMS_PROFILE = ((120, 10), (160, 11), (180, 11), (180, 11), (250, 13))
# Axioms a corrupted table fails.  Fixing the set fixes which scans stop
# early, so the checker's work does not depend on the seed.
CORRUPTED_FAILING = [1, 4]


def corrupt(rnd: random.Random, comp, anti, rng, pref):
    """Overwrite one compose entry C[a][b] by another element, so that
    exactly the axioms in CORRUPTED_FAILING fail.  Returns the corrupted
    table, the place (a, b, value) and the re-check's report."""
    n = len(anti)
    for _ in range(MAX_TRIES):
        a, b = rnd.randrange(n), rnd.randrange(n)
        value = rnd.choice([v for v in range(n) if v != comp[a][b]])
        table = [list(row) for row in comp]
        table[a][b] = value
        report = oracles.axiom_report(table, anti, rng, pref)
        if [index for index, passed, _ in report if not passed] == CORRUPTED_FAILING:
            return table, (a, b, value), report
    raise RuntimeError("no corruption fails exactly the axioms " + str(CORRUPTED_FAILING))


def axioms_corpus(seed: int, root: Path, workdir: Path) -> dict:
    rnd = random.Random(f"axioms-large/{seed}")
    space = FunctionSpace(4)
    seen: set = set()
    verdicts = []
    info = []
    for k, (size, arrows) in enumerate(AXIOMS_PROFILE):
        closed, _ = random_closed_set(space, rnd, size, arrows, avoid=seen)
        seen.add(closed)
        order, comp, anti, rng, pref = subset_tables(space, closed)
        names = [space.name(f) for f in order]

        path = workdir / f"x{k:02d}.alg.json"
        write_concrete(path, space, closed)
        report = oracles.axiom_report(comp, anti, rng, pref)
        verdicts.append({"argv": ["check-axioms", rel(root, path), "--format", "json"],
                         "check": "axioms", "expect": oracles.named_report(report, names)})

        table, where, report = corrupt(rnd, comp, anti, rng, pref)
        path = workdir / f"y{k:02d}.alg.json"
        write_abstract(path, names, table, anti, rng, pref)
        verdicts.append({"argv": ["check-axioms", rel(root, path), "--format", "json"],
                         "check": "axioms", "expect": oracles.named_report(report, names)})
        info.append({"elements": size, "arrows": arrows, "corrupted": where,
                     "witnesses": [w for _, _, w in report if w is not None]})
    return {"verdicts": verdicts, "probe": ["algebra", verdicts[0]["argv"][1]],
            "info": {"algebras": info}}


# ---------------------------------------------------------------------------
# naturality-warm: a pool of nested closed sets and renumbered copies
# ---------------------------------------------------------------------------

# Each chain is a list of (elements, arrows), each member a proper superset
# of the one before.  Every pair in a chain gives an inclusion.  Each member
# named in NATURALITY_COPIES also gets a renumbered copy, an isomorphism onto
# it, and the inclusions of the smaller chain members into the copy.
NATURALITY_CHAINS = (
    (3, ((12, 4), (24, 6), (36, 7), (64, 9))),
    (3, ((6, 3), (18, 5), (36, 7), (64, 9))),
    (3, ((4, 2), (12, 4), (32, 7))),
    (3, ((8, 3), (24, 6), (64, 9))),
    (4, ((12, 4), (24, 5), (48, 7))),
    (3, ((12, 4), (24, 6), (36, 7), (64, 9))),
    (4, ((12, 4), (36, 6), (72, 8))),
)
NATURALITY_COPIES = ((0, 2), (1, 1), (1, 3), (2, 2), (3, 1), (4, 1), (4, 2), (5, 2), (6, 1))
NATURALITY_CHECKS = ("naturality_theta", "naturality_phi", "restricted", "functor_vs_proper")
CHAIN_STEP_TRIES = 300


def _chain(space: FunctionSpace, rnd: random.Random, shape) -> list[frozenset]:
    for _ in range(100):
        members: list[frozenset] = []
        gens: tuple = ()
        try:
            for size, arrows in shape:
                closed, gens = random_closed_set(space, rnd, size, arrows,
                                                 within=members[-1] if members else None,
                                                 gens=gens, tries=CHAIN_STEP_TRIES)
                members.append(closed)
        except RuntimeError:
            continue
        return members
    raise RuntimeError(f"no chain of shape {shape}")


def naturality_corpus(seed: int, root: Path, workdir: Path) -> dict:
    rnd = random.Random(f"naturality-warm/{seed}")
    spaces = {n: FunctionSpace(n) for n in sorted({c[0] for c in NATURALITY_CHAINS})}
    pool = []          # file paths, in load order
    homs = []
    chains = []

    def hom(source, target, mapping, proper):
        homs.append({"source": source, "target": target, "map": mapping, "proper": proper})

    for c, (n, shape) in enumerate(NATURALITY_CHAINS):
        space = spaces[n]
        members = _chain(space, rnd, shape)
        chains.append((space, members, len(pool)))
        for k, closed in enumerate(members):
            path = workdir / f"n{c}{k}.alg.json"
            write_concrete(path, space, closed)
            pool.append(rel(root, path))
        for i, j in itertools.combinations(range(len(members)), 2):
            hom(chains[c][2] + i, chains[c][2] + j,
                {space.name(f): space.name(f) for f in sorted(members[i])},
                oracles.inclusion_locally_proper(space, members[i], members[j]))
    for c, k in NATURALITY_COPIES:
        space, members, first = chains[c]
        order, comp, anti, rng, pref = subset_tables(space, members[k])
        size = len(order)
        perm = list(range(size))
        rnd.shuffle(perm)
        inv = [0] * size
        for a, v in enumerate(perm):
            inv[v] = a
        names = [f"g{order[inv[v]]}" for v in range(size)]
        path = workdir / f"n{c}{k}copy.alg.json"
        write_abstract(
            path, names,
            [[perm[comp[inv[a]][inv[b]]] for b in range(size)] for a in range(size)],
            [perm[anti[inv[a]]] for a in range(size)],
            [perm[rng[inv[a]]] for a in range(size)],
            [[perm[pref[inv[a]][inv[b]]] for b in range(size)] for a in range(size)],
        )
        pool.append(rel(root, path))
        copy_name = {f: names[perm[a]] for a, f in enumerate(order)}
        for i in range(k + 1):
            hom(first + i, len(pool) - 1,
                {space.name(f): copy_name[f] for f in sorted(members[i])},
                i == k or oracles.inclusion_locally_proper(space, members[i], members[k]))
    verdicts = []
    for h, entry in enumerate(homs):
        for check in NATURALITY_CHECKS:
            verdicts.append({"hom": h, "check": check, "expect": {"proper": entry["proper"]}})
    manifest = workdir / "pool.json"
    _dump(manifest, {"algebras": pool, "homs": homs})
    return {"verdicts": verdicts, "probe": ["pool", rel(root, manifest)],
            "pool": rel(root, manifest),
            "info": {"chains": [[len(m) for m in ms] for _, ms, _ in chains],
                     "homs": len(homs), "algebras": len(pool)}}


# ---------------------------------------------------------------------------
# transducer-bounded: bounded axiom sweeps over deterministic machines
# ---------------------------------------------------------------------------

DATA_MACHINES = ("data/id_on_as.td.json", "data/as_to_bs.td.json")

# (alphabet size, states of each machine, word bound); None is the data pair.
TRANSDUCER_PROFILE = (
    (None, None, 10),
    (2, (1, 2, 4), 7), (2, (2, 3, 4), 7), (2, (1, 3, 4), 7), (2, (2, 2, 3), 7),
    (2, (1, 2, 3), 7), (2, (2, 3, 3), 7), (2, (1, 2, 2), 7), (2, (3, 3, 4), 7),
    (2, (1, 4, 4), 7), (2, (2, 2, 4), 7),
    (2, (2, 3), 8), (2, (1, 4), 8),
    (3, (2, 3), 6), (3, (1, 4), 6), (3, (2, 2), 6),
)


def random_machine(rnd: random.Random, alphabet: str, states: int) -> dict:
    """A deterministic real-time machine with one transition per state and
    letter, outputs of length 0 to 2, and about half its states final.

    Every word has a run, so the domain is set by the final states alone and
    the work of evaluating a word does not depend on where a run dies.
    """
    names = [f"s{i}" for i in range(states)]
    slots = [(q, a) for q in names for a in alphabet]
    lengths = [i % 3 for i in range(len(slots))]
    rnd.shuffle(lengths)
    trans = [{"from": q, "in": a, "to": rnd.choice(names),
              "out": "".join(rnd.choice(alphabet) for _ in range(length))}
             for (q, a), length in zip(slots, lengths)]
    finals = sorted(rnd.sample(names, max(1, states // 2)))
    final = {q: (rnd.choice(alphabet) if j == 0 else "") for j, q in enumerate(finals)}
    return {"alphabet": list(alphabet), "states": names, "initial": names[0],
            "final": final, "trans": trans}


def transducer_corpus(seed: int, root: Path, workdir: Path) -> dict:
    rnd = random.Random(f"transducer-bounded/{seed}")
    verdicts = []
    sets = []
    for k, (letters, shape, bound) in enumerate(TRANSDUCER_PROFILE):
        if shape is None:
            files = list(DATA_MACHINES)
        else:
            files = []
            for m, states in enumerate(shape):
                path = workdir / f"t{k:02d}m{m}.td.json"
                _dump(path, random_machine(rnd, "abc"[:letters], states))
                files.append(rel(root, path))
        sets.append(files)
        verdicts.append({"argv": ["transducer", "axioms", *files, "--max-len", str(bound),
                                  "--format", "json"],
                         "check": "transducer", "expect": {"max_len": bound}})
    return {"verdicts": verdicts, "probe": ["transducers", *sets[0]],
            "info": {"machines": [len(files) for files in sets]}}


GENERATORS = {
    "bidual-cold": bidual_corpus,
    "naturality-warm": naturality_corpus,
    "axioms-large": axioms_corpus,
    "transducer-bounded": transducer_corpus,
}
