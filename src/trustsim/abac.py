"""Attribute-based access control evaluated through an opaque encrypted backend.

Decisions follow the pipeline encrypt(attributes) -> evaluate(policy) ->
decrypt(decisions), packed over all nodes of a step: one ciphertext holds
every node's attributes and one holds every decision.  The default backend
simulates encryption: plaintexts are fixed-width integer slots, blinded
with a keyed stream under a fresh nonce so repeated encryptions of the
same attributes differ, and evaluation runs the policy compiled to a
vectorised predicate.  The tests hold both gate modes to a tree-walking
evaluator, node by node (``tests/reference.py``).

Policy files use a small expression grammar, e.g.::

    (trust >= 45) & ((role == 2) | (role == 3))

Leaves compare one attribute against an integer constant with one of
``< <= > >= == !=``; internal nodes combine with ``&`` (AND) and ``|`` (OR).
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np


class AbacError(Exception):
    pass


GATE_MODES = ("plain", "encrypted")

DEFAULT_SCHEMA = {
    "trust": (0, 100),
    "role": (0, 15),
    "clearance": (0, 15),
    "permissions": (0, 255),
}

DEFAULT_POLICY_TEXT = "(trust >= 45) & ((role == 2) | (role == 3))"

# the attributes every simulated node presents to the gate, in matrix column order: role 2 is
# validator; trust (column 0) is the per-node column, filled in at decision time
NODE_ATTRIBUTES = {"trust": 0, "role": 2, "clearance": 3, "permissions": 7}


# --- policy expression tree -------------------------------------------------

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class Leaf:
    attribute: str
    op: str
    constant: int

    def __post_init__(self):
        if self.op not in _OPS:
            raise AbacError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


Policy = Leaf | And | Or


def compile_policy(policy: Policy, columns: tuple):
    """The policy as one vectorised predicate over an integer attribute matrix.

    ``columns`` names the matrix columns; the returned function maps a
    (nodes x columns) matrix to one bool per row, equal row by row to the
    tree walk ``eval_policy_plain`` in ``tests/reference.py``.  A leaf
    naming no column raises AbacError here, before any node is evaluated.
    """
    if isinstance(policy, Leaf):
        if policy.attribute not in columns:
            raise AbacError(f"policy references unknown attribute {policy.attribute!r}")
        j, op, constant = columns.index(policy.attribute), _OPS[policy.op], policy.constant
        return lambda matrix: op(matrix[:, j], constant)
    if isinstance(policy, (And, Or)):
        combine = np.logical_and if isinstance(policy, And) else np.logical_or
        parts = [compile_policy(c, columns) for c in policy.children]
        return lambda matrix: functools.reduce(combine, (part(matrix) for part in parts))
    raise TypeError(f"not a policy node: {policy!r}")


# --- policy text parser -----------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\()|(\))|(&)|(\|)|(<=|>=|==|!=|<|>)|([A-Za-z_][A-Za-z0-9_]*)|(-?\d+))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise AbacError(f"cannot tokenize policy text at: {remainder[:20]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over:  or := and ('|' and)* ; and := atom ('&' atom)* ;
    atom := '(' or ')' | name op int"""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise AbacError("unexpected end of policy text")
        self.i += 1
        return tok

    def parse(self) -> Policy:
        node = self.parse_or()
        if self.peek() is not None:
            raise AbacError(f"trailing tokens in policy text: {self.tokens[self.i:]}")
        return node

    def parse_or(self) -> Policy:
        children = [self.parse_and()]
        while self.peek() == "|":
            self.take()
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def parse_and(self) -> Policy:
        children = [self.parse_atom()]
        while self.peek() == "&":
            self.take()
            children.append(self.parse_atom())
        return children[0] if len(children) == 1 else And(tuple(children))

    def parse_atom(self) -> Policy:
        tok = self.take()
        if tok == "(":
            node = self.parse_or()
            if self.take() != ")":
                raise AbacError("unbalanced parentheses in policy text")
            return node
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise AbacError(f"expected attribute name, got {tok!r}")
        op = self.take()
        if op not in _OPS:
            raise AbacError(f"expected comparison operator, got {op!r}")
        const = self.take()
        try:
            value = int(const)
        except ValueError:
            raise AbacError(f"expected integer constant, got {const!r}") from None
        return Leaf(tok, op, value)


def parse_policy(text: str) -> Policy:
    tokens = _tokenize(text)
    if not tokens:
        raise AbacError("empty policy text")
    return _Parser(tokens).parse()


def load_policy(path) -> Policy:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_policy(fh.read())


# --- encrypted evaluation backend -------------------------------------------


NONCE_BYTES = 16
_INT_MIN, _INT_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


@dataclass(frozen=True)
class Ciphertext:
    backend_tag: str
    payload: bytes


class SimulatedFheBackend:
    """Simulated-encryption backend.

    Plaintexts are packed slot vectors, as FHE schemes pack many integers
    into the slots of one ciphertext: an attribute matrix is one
    little-endian int64 slot per cell in row-major order, so row i of a
    matrix with c columns is slots ``[i*c, (i+1)*c)``, and a vector of
    decisions is one byte per row, 0 or 1.  Each plaintext is XOR-masked
    with a keystream, blake2b(key || nonce || block counter) per 64-byte
    block, under a per-instance secret key derived from the seed.  Nonces
    come from a seal counter, 16 little-endian bytes, so no nonce repeats
    within a backend and identical plaintexts never share a payload.
    ``eval_rows`` opens one attribute ciphertext, decides every row with
    one call of a compiled policy and seals the decisions as one
    ciphertext.  Opening refuses a ciphertext of another backend and a
    body of any other width than the slots asked for.  The keystream of
    the last seal is kept, so opening what was just sealed hashes nothing
    again.  The schema is fixed at construction, and its bounds are built
    once per column tuple.  This reproduces the pipeline semantics only;
    it offers no cryptographic strength and says so in its tag.
    """

    tag = "simulated-fhe"

    def __init__(self, seed: int = 0, schema: dict | None = None):
        # the seeded generator derives the key and nothing else
        self._key = np.random.default_rng(np.random.SeedSequence([0x5EC12E7, seed])).bytes(32)
        # blake2b's state after the key, copied for each keystream block
        self._keyed = hashlib.blake2b(self._key, digest_size=64)
        self._seals = 0  # the next seal's nonce, as a count
        self._last = (b"", b"")  # (nonce, keystream) of the last seal
        # fixed at construction: its bounds are built once per column tuple
        self.schema = MappingProxyType(dict(DEFAULT_SCHEMA if schema is None else schema))
        self._bounds: dict[tuple, tuple] = {}  # columns -> (lows, highs)

    def _keystream(self, nonce: bytes, size: int) -> bytes:
        """``size`` bytes of blake2b(key || nonce || counter) per 64-byte block.  A stream
        depends only on its nonce and length, so the one the last seal made is reused."""
        last_nonce, stream = self._last
        if nonce == last_nonce and len(stream) == size:
            return stream
        keyed = self._keyed
        blocks = []
        for counter in range(-(-size // 64)):
            block = keyed.copy()
            block.update(nonce + counter.to_bytes(4, "little"))
            blocks.append(block.digest())
        return b"".join(blocks)[:size]

    @staticmethod
    def _xor(stream: bytes, data: bytes) -> bytes:
        """``data`` XOR ``stream``, as one XOR of the two read as little-endian integers."""
        return (int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")).to_bytes(len(data), "little")

    def _mask(self, nonce: bytes, data: bytes) -> bytes:
        """``data`` XOR its keystream under ``nonce``."""
        return self._xor(self._keystream(nonce, len(data)), data)

    def seal(self, plain: bytes) -> Ciphertext:
        """``plain`` sealed under the next counter nonce; its keystream is kept until the next seal."""
        nonce = self._seals.to_bytes(NONCE_BYTES, "little")
        self._seals += 1
        stream = self._keystream(nonce, len(plain))
        self._last = (nonce, stream)
        return Ciphertext(self.tag, nonce + self._xor(stream, plain))

    def seal_rows(self, matrix: np.ndarray) -> Ciphertext:
        """An integer matrix sealed as one ciphertext of little-endian int64 slots, row-major."""
        return self.seal(np.asarray(matrix, dtype="<i8").tobytes())

    def _open(self, ct: Ciphertext, width: int) -> bytes:
        """The plaintext of ``ct``; AbacError for a ciphertext of another backend
        or one whose body is not exactly ``width`` bytes."""
        payload = ct.payload
        if ct.backend_tag != self.tag:
            raise AbacError(f"ciphertext belongs to backend {ct.backend_tag!r}, not {self.tag!r}")
        if len(payload) < NONCE_BYTES:
            raise AbacError(f"ciphertext payload of {len(payload)} bytes is shorter than a nonce")
        if len(payload) != NONCE_BYTES + width:
            raise AbacError(f"ciphertext body of {len(payload) - NONCE_BYTES} bytes is not {width} bytes wide")
        return self._mask(payload[:NONCE_BYTES], payload[NONCE_BYTES:])

    def _schema_bounds(self, columns: tuple) -> tuple:
        bounds = self._bounds.get(columns)
        if bounds is None:
            pairs = [self.schema.get(name, (_INT_MIN, _INT_MAX)) for name in columns]
            bounds = self._bounds[columns] = tuple(np.array(pairs, dtype=np.int64).reshape(len(columns), 2).T)
        return bounds

    def check_rows(self, columns: tuple, matrix: np.ndarray) -> None:
        """Refuse an attribute matrix with a value outside the schema's declared range.

        Raises on the first out-of-range value in row-major order, before
        anything is sealed; columns the schema does not name are unbounded.
        """
        lows, highs = self._schema_bounds(columns)
        outside = (matrix < lows) | (matrix > highs)
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise AbacError(f"attribute {columns[j]!r}={matrix[i, j]} outside declared range [{lows[j]}, {highs[j]}]")

    def eval_rows(self, predicate, columns: tuple, ct: Ciphertext, rows: int) -> Ciphertext:
        """Open ``ct`` as ``rows`` rows of ``columns`` slots, decide every row with one call
        of the compiled ``predicate`` and seal the ``rows`` decision bytes as one ciphertext."""
        # the reshape keeps an empty matrix two-dimensional for the predicate
        matrix = np.frombuffer(self._open(ct, 8 * rows * len(columns)), dtype="<i8").reshape(rows, len(columns))
        return self.seal(predicate(matrix).tobytes())

    def decrypt_decisions(self, ct: Ciphertext, rows: int) -> np.ndarray:
        """The ``rows`` decisions ``ct`` holds, as bools; AbacError unless it opens to ``rows`` bytes, each 0 or 1."""
        decisions = self._open(ct, rows)
        if decisions.translate(None, b"\x00\x01"):  # any byte left once the 0s and 1s are deleted
            raise AbacError("ciphertext does not hold a decision")
        return np.frombuffer(decisions, dtype=bool)


# --- the gate used by the simulation ----------------------------------------


class PolicyGate:
    """Per-node access decision used before delegate selection.

    Every node presents the attributes in ``NODE_ATTRIBUTES``: its trust
    floored to an integer in [0, 100] and the constant validator
    attributes.  Both modes build one integer attribute matrix per step
    (one row per node) and decide it with the policy compiled once.
    ``mode="plain"`` runs the predicate on the matrix directly and builds
    no backend.  ``mode="encrypted"`` has the backend seal the whole
    matrix as one ciphertext of int64 slots, open it, decide every row in
    one pass and seal the decisions as one ciphertext, then open the
    decisions: two ciphertexts per step, whatever the node count.  The
    two modes are parity-tested and produce identical decisions; plain is
    the default because it skips the sealing and opening, which make a
    16-node gate three to five times as slow on a 2.1 GHz Xeon core: 26
    against 8 us in a hot loop, and 86 against 17-25 us a step traced in
    a run (``BENCH_20.json``).
    """

    def __init__(self, policy: Policy | None = None, mode: str = "plain", backend=None):
        self.policy = policy if policy is not None else parse_policy(DEFAULT_POLICY_TEXT)
        if mode not in GATE_MODES:
            raise AbacError(f"gate mode must be one of {GATE_MODES}, got {mode!r}")
        self.mode = mode
        if backend is None and mode == "encrypted":
            backend = SimulatedFheBackend()
        self.backend = backend
        self._columns = tuple(NODE_ATTRIBUTES)
        self._predicate = compile_policy(self.policy, self._columns)
        self._row = np.array(list(NODE_ATTRIBUTES.values()), dtype=np.int64)
        # rebuilt only when the node count changes; each step rewrites the trust column
        self._matrix = np.tile(self._row, (0, 1))

    def accepted(self, trusts) -> np.ndarray:
        """Indices of nodes whose access decision is accept, ascending."""
        matrix = self._matrix
        if len(matrix) != len(trusts):
            matrix = self._matrix = np.tile(self._row, (len(trusts), 1))
        quantized = np.floor(np.asarray(trusts, dtype=float) * 100.0)
        matrix[:, 0] = np.minimum(np.maximum(quantized, 0.0, out=quantized), 100.0, out=quantized)
        if self.mode == "plain":
            return self._predicate(matrix).nonzero()[0]
        backend, rows = self.backend, len(matrix)
        backend.check_rows(self._columns, matrix)
        decisions = backend.eval_rows(self._predicate, self._columns, backend.seal_rows(matrix), rows)
        return backend.decrypt_decisions(decisions, rows).nonzero()[0]
