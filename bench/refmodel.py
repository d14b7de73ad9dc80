"""Independent reference for checking cnl4's answers.

Formulas are plain tuples: an atom is its name (a ``str``), a negation
is ``("~", body)`` and a binary node is ``("&", left, right)`` or
``("|", left, right)``.  The connective tables come from the golden file
``src/cnl4/data/matrix_tables.txt``; nothing here imports cnl4.

Consequence is decided by the same scan the program documents: variables
in first-occurrence order (premises, then conclusion), values in the
witness order 1, i, 0, j, the last variable cycling fastest.  The scan
runs 4**CHUNK_VARS interpretations at a time, each formula evaluated as
four bitsets (one per value) over the chunk, so the first witness and
the ``checked`` count are exact while full scans stay cheap.
"""

from __future__ import annotations

import os

VALUES = ("1", "i", "j", "0")            # canonical (truth-table) order
WITNESS_ORDER = ("1", "i", "0", "j")     # countermodel scan order
CHUNK_VARS = 6

#: Matrix value -> FDE name, per option reading (README's option table).
OPTION_MAPS = {
    "O1": {"1": "t", "i": "b", "j": "n", "0": "f"},
    "O2": {"1": "t", "i": "n", "j": "b", "0": "f"},
    "O3": {"1": "b", "i": "t", "j": "f", "0": "n"},
    "O4": {"1": "b", "i": "f", "j": "t", "0": "n"},
}
#: FDE name -> rendering of its truth set (as ``str(TruthSet)`` prints it).
TRUTH_SET_TEXT = {"t": "{1}", "b": "{1,0}", "n": "{}", "f": "{0}"}


def data_dir(root: str) -> str:
    return os.path.join(root, "src", "cnl4", "data")


def load_tables(path: str) -> tuple[dict, dict, dict]:
    """Read the 36 golden entries into NEG, AND and OR dicts."""
    neg: dict = {}
    tables: dict = {"&": {}, "|": {}}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "~":
                neg[parts[1]] = parts[2]
            else:
                tables[parts[0]][(parts[1], parts[2])] = parts[3]
    if len(neg) != 4 or len(tables["&"]) != 16 or len(tables["|"]) != 16:
        raise ValueError(f"{path}: expected 4 + 16 + 16 table entries")
    return neg, tables["&"], tables["|"]


# --------------------------------------------------------------------------
# Syntax: rendering with minimal parentheses, and a small parser for the
# program's printed output.

_PREC = {"|": 1, "&": 2, "~": 3}


def _prec(f) -> int:
    return 4 if isinstance(f, str) else _PREC[f[0]]


def render(f, min_prec: int = 1) -> str:
    """Print ``f`` the way the README specifies: minimal parentheses,
    binary connectives associating to the left."""
    if _prec(f) < min_prec:
        return "(" + render(f, 1) + ")"
    if isinstance(f, str):
        return f
    if f[0] == "~":
        return "~" + render(f[1], 3)
    p = _PREC[f[0]]
    return render(f[1], p) + f" {f[0]} " + render(f[2], p + 1)


def render_sequent(premises, conclusion) -> str:
    left = ", ".join(render(p) for p in premises)
    return f"{left} |- {render(conclusion)}" if left else f"|- {render(conclusion)}"


def parse(text: str):
    """Parse printed formula text into tuples (no error recovery)."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "~&|()":
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"bad character {c!r} in {text!r}")
            tokens.append(text[i:j])
            i = j
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def binary(op, sub):
        nonlocal pos
        left = sub()
        while peek() == op:
            pos += 1
            left = (op, left, sub())
        return left

    def neg():
        nonlocal pos
        tok = peek()
        pos += 1
        if tok == "~":
            return ("~", neg())
        if tok == "(":
            inner = binary("|", conj)
            if peek() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            pos += 1
            return inner
        if tok is None or tok in "&|)":
            raise ValueError(f"expected a formula in {text!r}")
        return tok

    def conj():
        return binary("&", neg)

    result = binary("|", conj)
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return result


def atoms(formulas) -> list[str]:
    """Atom names in first-occurrence order, left to right."""
    seen: dict = {}
    stack = list(reversed(list(formulas)))
    while stack:
        f = stack.pop()
        if isinstance(f, str):
            seen.setdefault(f)
        else:
            stack.extend(reversed(f[1:]))
    return list(seen)


def size(f) -> int:
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        if not isinstance(g, str):
            stack.extend(g[1:])
    return n


# --------------------------------------------------------------------------
# Evaluation

class Reference:
    """Evaluator over the golden tables."""

    def __init__(self, root: str) -> None:
        self.neg, self.conj, self.disj = load_tables(
            os.path.join(data_dir(root), "matrix_tables.txt"))
        # (a, b) pairs grouped by result, so a binary node costs one
        # AND per pair and one OR per result value
        self._pairs = {op: {v: [(a, b) for (a, b), r in table.items() if r == v]
                            for v in VALUES}
                       for op, table in (("&", self.conj), ("|", self.disj))}
        self._patterns: dict = {}

    def value(self, f, env: dict):
        """Value of ``f`` under ``env`` (atom name -> value character)."""
        if isinstance(f, str):
            return env[f]
        if f[0] == "~":
            return self.neg[self.value(f[1], env)]
        table = self.conj if f[0] == "&" else self.disj
        return table[(self.value(f[1], env), self.value(f[2], env))]

    def _masks(self, f, env: dict, memo: dict) -> dict:
        key = id(f)
        if key in memo:
            return memo[key][1]
        if isinstance(f, str):
            out = env[f]
        elif f[0] == "~":
            inner = self._masks(f[1], env, memo)
            out = {self.neg[a]: inner[a] for a in VALUES}
        else:
            left = self._masks(f[1], env, memo)
            right = self._masks(f[2], env, memo)
            out = {}
            for v, pairs in self._pairs[f[0]].items():
                acc = 0
                for a, b in pairs:
                    acc |= left[a] & right[b]
                out[v] = acc
        memo[key] = (f, out)  # keep f alive so its id stays unique
        return out

    def _pattern(self, c: int, order) -> list[dict]:
        """Bitset env for the last ``c`` variables of a chunk, in ``order``."""
        key = (c, tuple(order))
        if key not in self._patterns:
            total = 4 ** c
            envs = []
            for pos in range(c):
                block = 4 ** (c - 1 - pos)
                masks = {}
                for d, v in enumerate(order):
                    m = ((1 << block) - 1) << (d * block)
                    span = 4 * block
                    while span < total:
                        m |= m << span
                        span *= 2
                    masks[v] = m
                envs.append(masks)
            self._patterns[key] = envs
        return self._patterns[key]

    def _chunks(self, names: list[str], order):
        """Yield (offset, width, all-ones mask, env) chunks covering every
        interpretation in ``order``."""
        n = len(names)
        c = min(n, CHUNK_VARS)
        width = 4 ** c
        full = (1 << width) - 1
        tail = self._pattern(c, order)
        for t in range(4 ** (n - c)):
            env = {}
            digits = t
            for k in range(n - c - 1, -1, -1):
                digits, d = divmod(digits, 4)
                env[names[k]] = {v: (full if i == d else 0) for i, v in enumerate(order)}
            for k in range(c):
                env[names[n - c + k]] = tail[k]
            yield t * width, width, full, env

    def decide(self, premises, conclusion, limit: int | None = None):
        """(valid, first witness or None, interpretations checked).

        With ``limit``, returns None instead once more than ``limit``
        interpretations would have to be scanned.
        """
        names = atoms([*premises, conclusion])
        for offset, width, full, env in self._chunks(names, WITNESS_ORDER):
            if limit is not None and offset >= limit:
                return None
            memo: dict = {}
            good = full
            for p in premises:
                m = self._masks(p, env, memo)
                good &= m["1"] | m["i"]
                if not good:
                    break
            if not good:
                continue
            m = self._masks(conclusion, env, memo)
            bad = good & ~(m["1"] | m["i"])
            if bad:
                index = offset + (bad & -bad).bit_length() - 1
                if limit is not None and index >= limit:
                    return None
                return False, self._decode(names, index, WITNESS_ORDER), index + 1
        return True, None, 4 ** len(names)

    def scan_work(self, premises, conclusion) -> int:
        """Formula nodes a plain scan evaluates over every interpretation:
        premises left to right until one is undesignated, then the
        conclusion.  Used to give generated full scans a similar cost."""
        names = atoms([*premises, conclusion])
        sizes = [size(p) for p in premises]
        work = 0
        for _offset, _width, full, env in self._chunks(names, WITNESS_ORDER):
            memo: dict = {}
            alive = full
            for p, n in zip(premises, sizes):
                work += n * alive.bit_count()
                m = self._masks(p, env, memo)
                alive &= m["1"] | m["i"]
            work += size(conclusion) * alive.bit_count()
        return work

    def rows(self, f) -> tuple[list[str], list[str]]:
        """Variables and the column of values, rows in canonical order."""
        names = atoms([f])
        column: list[str] = []
        for _offset, width, _full, env in self._chunks(names, VALUES):
            masks = self._masks(f, env, {})
            chunk = [""] * width
            for v in VALUES:
                bits = bin(masks[v])[:1:-1]
                for i, bit in enumerate(bits):
                    if bit == "1":
                        chunk[i] = v
            column.extend(chunk)
        return names, column

    @staticmethod
    def _decode(names: list[str], index: int, order) -> dict:
        env = {}
        for name in reversed(names):
            index, d = divmod(index, 4)
            env[name] = order[d]
        return {name: env[name] for name in names}

    @staticmethod
    def interpretation(names: list[str], row: int) -> dict:
        """The ``row``-th truth-table interpretation (canonical order)."""
        return Reference._decode(names, row, VALUES)
