"""The cli-mix corpus: seeded ``cuntzboson`` argv lists with known answers.

``build(seed)`` returns the corpus of one unit.  Its composition is fixed
(``MIX``); the seed picks representations, states, expressions, occupations
and indices.  Each entry carries an expectation that does not come from the
path ``cli.main`` times:

* ``branch`` classifications are written out by hand, and the number of
  verified rows per component follows from ``--modes``;
* ``fock`` and ``embed --occ`` coefficients come from
  ``sympy.sqrt(factorial(k))``;
* ladder ``act`` outputs come from the defining Cuntz series
  (``boson.literal_create``/``literal_annihilate``), s-token outputs from
  prepending/stripping letters here, odometer outputs from index arithmetic
  here, and embedded outputs from the block code implemented here;
* ``embed`` words are checked by decoding them here;
* ``bases`` sizes and suite check counts follow from their parameters;
* every malformed input has its expected exit code.

``check(expect, code, stdout, stderr)`` returns whether one output is right.
"""

from __future__ import annotations

import json
import random
import re

import sympy

# Calls per unit by kind.  The mix follows a stated rule; it is not measured
# usage, since nothing records how users call the CLI.  Each kind of call
# the benchmark covers (act, branch, fock, embed, bases, malformed) gets the
# same number of calls, and act's share is split evenly among its four
# paths.  The verify suites, a small share, get 2% of the calls: they are
# the slowest calls, so the p99 rank (the slowest 1%) falls in the middle of
# them and op_p99_ms is the time of a suite call.
CALLS = 1200
SUITE_CALLS = CALLS // 50
PER_KIND = (CALLS - SUITE_CALLS) // 6
MIX = {
    "act-ladder": PER_KIND // 4, "act-s": PER_KIND // 4, "act-embed": PER_KIND // 4,
    "act-odometer": PER_KIND // 4, "branch": PER_KIND, "fock": PER_KIND, "embed": PER_KIND,
    "bases": PER_KIND, "suite": SUITE_CALLS, "malformed": PER_KIND,
}

BRANCH_CLASSES = {  # hand-written: pattern -> classification of each rotation
    (1,): ["Fock"], (2,): ["F_2"], (3,): ["F_3"], (1, 2): ["F_12", "F_21"],
    (1, 2, 3): ["periodic(1,2,3)", "periodic(2,3,1)", "periodic(3,1,2)"],
}

BASES = [  # (family, j, modes, exps), repeated to fill MIX["bases"]
    ("onetwov", 1, 3, 2), ("typej", 2, 2, 2), ("lambda", 2, 3, 0),
]

SUITES = [
    ("relations", ["--samples", "20"]),
    ("embedding", ["--samples", "10"]),
    ("odometer", ["--index-bound", "64"]),
]

MALFORMED = [  # (argv, exit code)
    (["act", "--expr", ""], 2),
    (["act", "--expr", "s0"], 2),
    (["act", "--expr", "x{k}"], 2),
    (["act", "--expr", "s{k} +"], 2),
    (["act", "--expr", "a{k}*", "--state", "{k},2"], 2),
    (["act", "--model", "odometer", "--expr", "s1", "--state", "f{k}"], 2),
    (["act"], 2),
    (["branch", "--rep", "{k}|2"], 2),
    (["branch", "--rep", "|0"], 2),
    (["branch", "--rep", "|1", "--modes", "x"], 2),
    (["fock", "--occ", "{k}:x"], 2),
    (["embed", "--N", "1", "--gen", "{k}"], 2),
    (["embed", "--N", "2"], 2),
    (["bases", "--family", "typej", "--j", "0"], 2),
    (["verify", "nosuch"], 2),
    (["bogus{k}"], 2),
    (["act", "--N", "2", "--expr", "s{k3}"], 3),
    (["act", "--N", "2", "--rep", "|2", "--expr", "a{k}*"], 3),
    (["act", "--N", "2", "--state", "3|1", "--expr", "a{k}"], 3),
    (["branch", "--rep", "|{k},{k}"], 3),
    (["branch", "--rep", "|3", "--N", "2"], 3),
]


# --- independent word model ------------------------------------------------

def canonical(prefix, cycle) -> tuple:
    """Canonical (prefix, cycle) of prefix.cycle^inf, computed here."""
    prefix, cycle = list(prefix), tuple(cycle)
    n = len(cycle)
    cycle = next(cycle[:d] for d in range(1, n + 1) if n % d == 0 and cycle[:d] * (n // d) == cycle)
    while prefix and prefix[-1] == cycle[-1]:
        prefix.pop()
        cycle = cycle[-1:] + cycle[:-1]
    return tuple(prefix), cycle


def _first(label) -> int:
    prefix, cycle = label
    return prefix[0] if prefix else cycle[0]


def _drop_first(label) -> tuple:
    prefix, cycle = label
    return canonical(prefix[1:], cycle) if prefix else canonical((), cycle[1:] + cycle[:1])


def _block_decode(word, N: int) -> list:
    """Block code of the embedding: d copies of N then b < N -> (N-1)d + b."""
    out, run = [], 0
    for letter in word:
        if letter == N:
            run += 1
        else:
            out.append((N - 1) * run + letter)
            run = 0
    if run:
        out.append((N - 1) * run + 1)
    return out


def _block_encode(letters, N: int) -> tuple:
    out: list[int] = []
    for m in letters:
        d, b = divmod(m - 1, N - 1)
        out += [N] * d + [b + 1]
    return tuple(out)


def _sym(terms) -> sympy.Expr:
    """Exact scalar from the package's JSON coefficient terms."""
    return sum((sympy.Rational(t["numerator"], t["denominator"]) * sympy.sqrt(t["radicand"])
                for t in terms), sympy.Integer(0))


def _sqrt_factorials(occ: dict) -> sympy.Expr:
    return sympy.Mul(*[sympy.sqrt(sympy.factorial(k)) for k in occ.values()])


def _equal(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(sympy.expand(a.get(k, 0) - b.get(k, 0)) == 0 for k in keys)


# --- parsing program output -------------------------------------------------

_KET_LINE = re.compile(r"^(.*) \* \|([0-9,]*)\|([0-9,]+)>$")
_INDEX_LINE = re.compile(r"^(.*) \* e([0-9]+)$")


def _letters(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _parse_ket(stdout: str, as_json: bool) -> dict:
    out: dict = {}
    if as_json:
        for term in json.loads(stdout)["terms"]:
            out[canonical(term["prefix"], term["cycle"])] = _sym(term["coeff"])
        return out
    if stdout.strip() == "0":
        return out
    for line in stdout.strip().splitlines():
        coeff, prefix, cycle = _KET_LINE.match(line).groups()
        out[canonical(_letters(prefix), _letters(cycle))] = sympy.sympify(coeff)
    return out


def _parse_indices(stdout: str, as_json: bool) -> dict:
    if as_json:
        return {t["index"]: _sym(t["coeff"]) for t in json.loads(stdout)["terms"]}
    if stdout.strip() == "0":
        return {}
    out = {}
    for line in stdout.strip().splitlines():
        coeff, index = _INDEX_LINE.match(line).groups()
        out[int(index)] = sympy.sympify(coeff)
    return out


# --- corpus -----------------------------------------------------------------

def _rand_label(rng: random.Random, cycle: tuple, letters: int, length: int = 3) -> tuple:
    shift = rng.randrange(len(cycle))
    prefix = tuple(rng.randint(1, letters) for _ in range(rng.randint(0, length)))
    return canonical(prefix, cycle[shift:] + cycle[:shift])


def _label_text(label) -> str:
    prefix, cycle = label
    return ",".join(map(str, prefix)) + "|" + ",".join(map(str, cycle))


def _rand_occ(rng: random.Random, max_mode: int = 6, max_count: int = 5) -> dict:
    modes = sorted(rng.sample(range(1, max_mode + 1), rng.randint(1, 3)))
    return {mode: rng.randint(1, max_count) for mode in modes}


def _occ_text(occ: dict) -> str:
    return ",".join(f"{mode}:{count}" for mode, count in occ.items())


def _ladder_expr(rng: random.Random) -> tuple[str, list]:
    """An expression of ladder tokens at modes 1..3 and its (coefficient, factors) terms."""
    terms, parts = [], []
    for _ in range(rng.randint(1, 2)):
        coeff = rng.choice([(1, ""), (2, "2 "), (sympy.sqrt(2), "sqrt(2) "), (sympy.Rational(1, 2), "1/2 ")])
        factors = [(rng.randint(1, 3), rng.random() < 0.6) for _ in range(rng.randint(1, 2))]
        terms.append((coeff[0], factors))
        parts.append(coeff[1] + " ".join(f"a{n}{'*' if star else ''}" for n, star in factors))
    return " + ".join(parts), terms


class _Literal:
    """Ladder outputs from the defining series, as {canonical label: sympy scalar}."""

    def __init__(self):
        from cuntzboson import boson
        from cuntzboson.cuntz import RepSpec
        from cuntzboson.states import Ket
        from cuntzboson.words import EPWord

        self.boson, self.RepSpec, self.Ket, self.EPWord = boson, RepSpec, Ket, EPWord

    def apply(self, cycle: tuple, terms: list, label) -> dict:
        spec = self.RepSpec(cycle)
        total: dict = {}
        for coeff, factors in terms:
            v = self.Ket.basis(self.EPWord(*label))
            for n, star in reversed(factors):
                op = self.boson.literal_create if star else self.boson.literal_annihilate
                v = op(spec, n, v)
            for term in v.to_json()["terms"]:
                key = canonical(term["prefix"], term["cycle"])
                total[key] = total.get(key, 0) + coeff * _sym(term["coeff"])
        return {k: c for k, c in total.items() if sympy.expand(c) != 0}


def _s_apply(factors: list, label) -> tuple | None:
    for i, star in reversed(factors):
        if star:
            if _first(label) != i:
                return None
            label = _drop_first(label)
        else:
            label = canonical((i,) + label[0], label[1])
    return label


def _odometer(n: int, star: bool, index: int) -> int | None:
    if not star:
        return 2 ** (n - 1) * (2 * index - 1)
    quotient, remainder = divmod(index, 2 ** (n - 1))
    return None if remainder or quotient % 2 == 0 else (quotient + 1) // 2


def _s_expr(rng: random.Random, top: int) -> tuple[str, list]:
    terms, parts = [], []
    for _ in range(rng.randint(1, 2)):
        coeff = rng.choice([1, 2, -1, 3])
        factors = [(rng.randint(1, top), rng.random() < 0.4) for _ in range(rng.randint(1, 3))]
        terms.append((coeff, factors))
        text = " ".join(f"s{i}{'*' if star else ''}" for i, star in factors)
        parts.append(text if coeff == 1 else f"{coeff} {text}")
    return " + ".join(parts).replace("+ -1 ", "- "), terms


def _s_expected(terms: list, apply) -> dict:
    total: dict = {}
    for coeff, factors in terms:
        image = apply(factors)
        if image is not None:
            total[image] = total.get(image, 0) + coeff
    return {k: sympy.Integer(c) for k, c in total.items() if c}


def build(seed: int) -> list[dict]:
    """One unit of the cli-mix corpus: [{"argv": [...], "expect": {...}}, ...]."""
    rng = random.Random(seed)
    literal = _Literal()
    corpus: list[dict] = []

    def add(argv: list, code: int = 0, **expect) -> None:
        corpus.append({"argv": argv, "expect": dict(expect, code=code)})

    for i in range(MIX["act-ladder"]):
        cycle = [(1,), (2,), (1, 2)][i % 3]
        label = canonical((), cycle) if i % 4 == 0 else _rand_label(rng, cycle, 3)
        text, terms = _ladder_expr(rng)
        as_json = i % 2 == 1
        expected = literal.apply(cycle, terms, label)
        state = "omega" if i % 4 == 0 else _label_text(label)
        add(["act", "--rep", "|" + ",".join(map(str, cycle)), "--expr", text, "--state", state]
            + (["--json"] if as_json else []), kind="ket", json=as_json, ket=expected)
    for i in range(MIX["act-s"]):
        cycle = [(1,), (2,), (1, 2)][i % 3]
        label = _rand_label(rng, cycle, 4)
        text, terms = _s_expr(rng, 4)
        as_json = i % 3 == 0
        add(["act", "--rep", "|" + ",".join(map(str, cycle)), "--expr", text,
             "--state", _label_text(label)] + (["--json"] if as_json else []),
            kind="ket", json=as_json, ket=_s_expected(terms, lambda f: _s_apply(f, label)))
    for i in range(MIX["act-embed"]):
        N = 2 + i % 2
        label = _rand_label(rng, (1,), N, length=4) if i % 3 else canonical((), (1,))
        as_json = i % 4 == 0
        if i % 5 == 4:  # generators of O_N act on the O_N label directly
            text, terms = _s_expr(rng, N)
            expected = _s_expected(terms, lambda f: _s_apply(f, label))
        else:
            text, terms = _ladder_expr(rng)
            decoded = canonical(_block_decode(label[0], N), (1,))
            expected = {canonical(_block_encode(prefix, N), (1,)): c
                        for (prefix, _), c in literal.apply((1,), terms, decoded).items()}
        add(["act", "--N", str(N), "--expr", text, "--state", _label_text(label)]
            + (["--json"] if as_json else []), kind="ket", json=as_json, ket=expected)
    for i in range(MIX["act-odometer"]):
        index = rng.randint(1, 200)
        text, terms = _s_expr(rng, 4)

        def image(factors, index=index):
            for n, star in reversed(factors):
                index = _odometer(n, star, index)
                if index is None:
                    return None
            return index

        as_json = i % 3 == 0
        add(["act", "--model", "odometer", "--expr", text, "--state", f"e{index}"]
            + (["--json"] if as_json else []),
            kind="odometer", json=as_json, ket=_s_expected(terms, image))
    patterns = list(BRANCH_CLASSES)
    for i in range(MIX["branch"]):
        pattern = patterns[i % len(patterns)]
        modes = rng.randint(4, 12)
        as_json = i % 3 == 0
        add(["branch", "--rep", "|" + ",".join(map(str, pattern)), "--modes", str(modes)]
            + (["--json"] if as_json else []),
            kind="branch", json=as_json, classes=BRANCH_CLASSES[pattern],
            rows=_branch_rows(pattern, modes))
    for i in range(MIX["fock"]):
        occ = _rand_occ(rng)
        as_json = i % 2 == 0
        word = [occ.get(mode, 0) + 1 for mode in range(1, max(occ) + 1)]
        add(["fock", "--occ", _occ_text(occ)] + (["--json"] if as_json else []),
            kind="fock", json=as_json, word=word, coeff=_sqrt_factorials(occ))
    for i in range(MIX["embed"]):
        N = 2 + i % 3
        option = ("gen", "word", "occ")[(i // 3) % 3]
        as_json = i % 2 == 0
        flag = ["--json"] if as_json else []
        if option == "gen":
            m = rng.randint(1, 20)
            add(["embed", "--N", str(N), "--gen", str(m)] + flag,
                kind="embed", json=as_json, N=N, decoded=[m])
        elif option == "word":
            J = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
            add(["embed", "--N", str(N), "--word", ",".join(map(str, J))] + flag,
                kind="embed", json=as_json, N=N, decoded=J)
        else:
            occ = _rand_occ(rng)
            fock = [occ.get(mode, 0) + 1 for mode in range(1, max(occ) + 1)]
            add(["embed", "--N", str(N), "--occ", _occ_text(occ)] + flag,
                kind="embed", json=as_json, N=N, decoded=fock, coeff=_sqrt_factorials(occ))
    for i in range(MIX["bases"]):
        family, j, modes, exps = BASES[i % len(BASES)]
        as_json = i % 2 == 0
        argv = ["bases", "--family", family, "--j", str(j), "--modes", str(modes)]
        argv += ["--exps", str(exps)] if family != "lambda" else []
        add(argv + (["--json"] if as_json else []),
            kind="bases", json=as_json, size=_bases_size(family, j, modes, exps))
    for i in range(MIX["suite"]):
        name, extra = SUITES[i % len(SUITES)]
        add(["verify", name, "--seed", str(rng.randint(1, 10**6))] + extra,
            kind="suite", json=False, total=_suite_total(name, extra))
    for i in range(MIX["malformed"]):
        template, code = MALFORMED[i % len(MALFORMED)]
        k = rng.randint(1, 9)
        argv = [a.format(k=k, k3=k + 2) for a in template]
        add(argv, code=code, kind="malformed", json=False)
    rng.shuffle(corpus)
    return corpus


def _branch_rows(pattern: tuple, modes: int) -> int:
    """Verified rows per component of ``branch`` for a cycle with this pattern."""
    M = max(modes, 2 * len(pattern))
    if len(pattern) == 1:
        return 2 * M if pattern[0] == 1 else M + M * (pattern[0] - 1)
    if pattern == (1, 2):
        return 3 * (M // 2)
    return M


def _bases_size(family: str, j: int, modes: int, exps: int) -> int:
    if family == "lambda":
        return modes ** modes  # the vacuum plus words over 1..modes not ending in j (j <= modes)
    if family == "typej":
        return (1 + exps + min(j - 1, exps)) ** modes
    return (1 + exps) ** ((modes + 1) // 2) * (2 + exps) ** (modes // 2)


def _suite_total(name: str, extra: list) -> int:
    """Check count of a suite at the CLI defaults (modes 6, cutoff 4) plus ``extra``."""
    value = int(extra[1])
    if name == "relations":
        return 108 * max(2, value // 10)
    if name == "embedding":
        cutoff = 4
        return 2 * value + 3 * cutoff ** 2 + 3 * cutoff * (3 * cutoff - 1) + value // 5
    return value * (1 + 2 * 6) + 4 + 5 * 64  # odometer at --index-bound value


# --- checking ---------------------------------------------------------------

def check(expect: dict, code, stdout: str, stderr: str) -> bool:
    """Whether one call's exit code and output match its expectation."""
    if code != expect["code"] or "Traceback" in stderr:
        return False
    kind, as_json = expect["kind"], expect["json"]
    if kind == "malformed":
        return stdout == "" and stderr.strip() != ""
    if stderr:
        return False
    if kind == "ket":
        return _equal(_parse_ket(stdout, as_json), expect["ket"])
    if kind == "odometer":
        return _equal(_parse_indices(stdout, as_json), expect["ket"])
    if kind == "branch":
        return _check_branch(expect, stdout, as_json)
    if kind == "fock":
        if as_json:
            doc = json.loads(stdout)
            word, coeff = doc["word"], _sym(doc["coefficient"])
        else:
            lines = stdout.splitlines()
            word = list(_letters(lines[0].removeprefix("word: ")))
            coeff = sympy.sympify(lines[1].removeprefix("coefficient: "))
        return word == expect["word"] and sympy.expand(coeff - expect["coeff"]) == 0
    if kind == "embed":
        if as_json:
            doc = json.loads(stdout)
            word = doc["word"]
            coeff = _sym(doc["coefficient"]) if "coefficient" in doc else None
        else:
            lines = stdout.splitlines()
            word = list(_letters(lines[0].rpartition(" ")[2]))
            coeff = sympy.sympify(lines[1].removeprefix("coefficient: ")) if len(lines) > 1 else None
        if "coeff" in expect and (coeff is None or sympy.expand(coeff - expect["coeff"]) != 0):
            return False
        return max(word) <= expect["N"] and _block_decode(word, expect["N"]) == expect["decoded"]
    if kind == "bases":
        if as_json:
            doc = json.loads(stdout)
            return doc["orthonormal"] is True and doc["size"] == expect["size"] == len(doc["elements"])
        lines = stdout.splitlines()
        header = f"{expect['size']} elements, orthonormal: True"
        return header in lines[0] and len(lines) == expect["size"] + 1
    if kind == "suite":
        return stdout.strip().endswith(f": {expect['total']}/{expect['total']} checks passed")
    raise ValueError(f"unknown expectation kind {kind!r}")


def _check_branch(expect: dict, stdout: str, as_json: bool) -> bool:
    if as_json:
        components = json.loads(stdout)["components"]
        got = [(c["classification"], len(c["verified"]), all(v["passed"] for v in c["verified"]))
               for c in components]
    else:
        got = []
        for line in stdout.splitlines()[1:]:
            if line.startswith("component "):
                got.append([line.rpartition("classification ")[2], 0, True])
            else:
                got[-1][1] += 1
                got[-1][2] &= line.startswith("  [ok] ")
        got = [tuple(g) for g in got]
    return got == [(name, expect["rows"], True) for name in expect["classes"]]
