"""Attribute-based access control evaluated through an opaque encrypted backend.

Decisions follow the pipeline encrypt(attributes) -> evaluate(policy) ->
decrypt(decision), batched over all nodes of a step.  The default backend
simulates encryption: plaintexts are fixed-width integer slots, blinded
with a keyed stream so repeated encryptions of the same attributes differ,
and evaluation runs the policy compiled to a vectorised predicate.  The
tests hold both gate modes to a tree-walking evaluator, node by node
(``tests/reference.py``).

Policy files use a small expression grammar, e.g.::

    (trust >= 45) & ((role == 2) | (role == 3))

Leaves compare one attribute against an integer constant with one of
``< <= > >= == !=``; internal nodes combine with ``&`` (AND) and ``|`` (OR).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
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

    Plaintexts are fixed-width slot vectors, as FHE schemes pack integers
    into plaintext slots: an attribute row is one little-endian int64 per
    column, a decision one byte, 0 or 1.  Each plaintext is XOR-masked
    with a keystream derived from a per-instance secret key and a fresh
    nonce, so identical plaintexts never share a payload.  ``eval_rows``
    opens many attribute ciphertexts, decides them all with one call of a
    compiled policy and seals each decision.  Sealing and opening take
    lists: a batch is masked with one XOR over its concatenated messages,
    and opening refuses a body of any other width than the slots asked
    for.  The keystreams of the last seal are kept by nonce, so opening
    what was just sealed hashes nothing again.  The schema is fixed at
    construction, and its bounds are built once per column tuple.
    This reproduces the pipeline semantics only; it offers no cryptographic
    strength and says so in its tag.
    """

    tag = "simulated-fhe"

    def __init__(self, seed: int = 0, schema: dict | None = None):
        self._rng = np.random.default_rng(np.random.SeedSequence([0x5EC12E7, seed]))
        self._key = self._rng.bytes(32)
        # blake2b's state after the key, copied for each keystream block
        self._keyed = hashlib.blake2b(self._key, digest_size=64)
        self._sealed: dict[bytes, bytes] = {}  # nonce -> keystream, for the last seal only
        # fixed at construction: its bounds are built once per column tuple
        self.schema = MappingProxyType(dict(DEFAULT_SCHEMA if schema is None else schema))
        self._bounds: dict[tuple, tuple] = {}  # columns -> (lows, highs)

    def _keystreams(self, nonces: list, messages: list) -> list[bytes]:
        """One keystream per message, blake2b(key || nonce || counter) per 64-byte
        block with the last block cut to the message's length.  A stream depends
        only on its nonce and length, so one the last seal made is reused."""
        keyed, sealed = self._keyed, self._sealed
        streams = []
        for nonce, data in zip(nonces, messages):
            size = len(data)
            stream = sealed.get(nonce)
            if stream is None or len(stream) != size:
                blocks = []
                for start in range(0, size, 64):
                    block = keyed.copy()
                    block.update(nonce + (start >> 6).to_bytes(4, "little"))
                    blocks.append(block.digest()[: size - start])
                stream = b"".join(blocks)
            streams.append(stream)
        return streams

    @staticmethod
    def _xor(streams: list, messages: list) -> list[bytes]:
        """Each message XOR its stream, as one XOR of the concatenations read as uint8 arrays."""
        stream = np.frombuffer(b"".join(streams), dtype=np.uint8)
        masked = (np.frombuffer(b"".join(messages), dtype=np.uint8) ^ stream).tobytes()
        offsets = itertools.accumulate(map(len, messages), initial=0)
        return [masked[start:end] for start, end in itertools.pairwise(offsets)]

    def _mask(self, nonces: list, messages: list) -> list[bytes]:
        """Each message XOR its keystream."""
        return self._xor(self._keystreams(nonces, messages), messages)

    def draw_nonces(self, count: int) -> list[bytes]:
        """``count`` fresh nonces from one draw; the same bytes ``count`` seals would draw."""
        if count == 0:
            return []  # numpy's bytes(0) still advances the generator
        pool = self._rng.bytes(NONCE_BYTES * count)
        return [pool[i : i + NONCE_BYTES] for i in range(0, len(pool), NONCE_BYTES)]

    def seal(self, nonces: list, plains: list) -> list[Ciphertext]:
        """Plaintext i sealed under ``nonces[i]``; its keystream is kept until the next seal."""
        streams = self._keystreams(nonces, plains)
        self._sealed = dict(zip(nonces, streams))
        return [Ciphertext(self.tag, nonce + body) for nonce, body in zip(nonces, self._xor(streams, plains))]

    def seal_rows(self, nonces: list, matrix: np.ndarray) -> list[Ciphertext]:
        """Row i of an integer matrix sealed under ``nonces[i]`` as one little-endian int64 slot per column."""
        width = 8 * matrix.shape[1]
        data = np.asarray(matrix, dtype="<i8").tobytes()
        return self.seal(nonces, [data[i * width : (i + 1) * width] for i in range(len(matrix))])

    def _open(self, cts: list, width: int) -> bytes:
        """The plaintexts of ``cts``, joined; AbacError for a ciphertext of another
        backend or one whose body is not exactly ``width`` bytes."""
        nonces, bodies = [], []
        for ct in cts:
            payload = ct.payload
            if ct.backend_tag != self.tag:
                raise AbacError(f"ciphertext belongs to backend {ct.backend_tag!r}, not {self.tag!r}")
            if len(payload) < NONCE_BYTES:
                raise AbacError(f"ciphertext payload of {len(payload)} bytes is shorter than a nonce")
            if len(payload) != NONCE_BYTES + width:
                raise AbacError(f"ciphertext body of {len(payload) - NONCE_BYTES} bytes is not {width} bytes wide")
            nonces.append(payload[:NONCE_BYTES])
            bodies.append(payload[NONCE_BYTES:])
        return b"".join(self._mask(nonces, bodies))

    def _schema_bounds(self, columns: tuple) -> tuple:
        bounds = self._bounds.get(columns)
        if bounds is None:
            pairs = [self.schema.get(name, (_INT_MIN, _INT_MAX)) for name in columns]
            bounds = self._bounds[columns] = tuple(np.array(pairs, dtype=np.int64).reshape(len(columns), 2).T)
        return bounds

    def check_rows(self, columns: tuple, matrix: np.ndarray) -> None:
        """Refuse an attribute matrix with a value outside the schema's declared range.

        Raises on the first out-of-range value in row-major order, before
        any row is sealed; columns the schema does not name are unbounded.
        """
        lows, highs = self._schema_bounds(columns)
        outside = (matrix < lows) | (matrix > highs)
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise AbacError(f"attribute {columns[j]!r}={matrix[i, j]} outside declared range [{lows[j]}, {highs[j]}]")

    def eval_rows(self, predicate, columns: tuple, cts: list, nonces: list) -> list[Ciphertext]:
        """Open every attribute ciphertext as a row of ``columns`` slots, decide all rows
        with one call of the compiled ``predicate`` and seal decision i under ``nonces[i]``."""
        # the reshape keeps an empty batch two-dimensional for the predicate
        matrix = np.frombuffer(self._open(cts, 8 * len(columns)), dtype="<i8").reshape(len(cts), len(columns))
        decisions = predicate(matrix).tobytes()
        return self.seal(nonces, [decisions[i : i + 1] for i in range(len(decisions))])

    def decrypt_decisions(self, cts: list) -> np.ndarray:
        """The decision each ciphertext holds, as bools; AbacError unless each opens to one byte, 0 or 1."""
        decisions = np.frombuffer(self._open(cts, 1), dtype=np.uint8)
        if (decisions > 1).any():
            raise AbacError("ciphertext does not hold a decision")
        return decisions == 1


# --- the gate used by the simulation ----------------------------------------


class PolicyGate:
    """Per-node access decision used before delegate selection.

    Every node presents the attributes in ``NODE_ATTRIBUTES``: its trust
    floored to an integer in [0, 100] and the constant validator
    attributes.  Both modes build one integer attribute matrix per step
    (one row per node) and decide it with the policy compiled once.
    ``mode="plain"`` runs the predicate on the matrix directly;
    ``mode="encrypted"`` has the backend seal each node's row as int64
    slots in its own ciphertext under its own nonce, open them all, decide
    every row in one pass and seal each decision, then open the decisions;
    each of the three stages is one batched call.  Node i's attributes are
    sealed under nonce 2i and its decision under nonce 2i + 1, the order a
    node-by-node seal, open, decide, seal loop draws them in; the tests
    hold the batch to such a loop.  The two modes are parity-tested and
    produce identical decisions; plain is the default because it skips the
    sealing and opening, which cost over ten times the decision itself.
    """

    def __init__(self, policy: Policy | None = None, mode: str = "plain", backend=None):
        self.policy = policy if policy is not None else parse_policy(DEFAULT_POLICY_TEXT)
        if mode not in GATE_MODES:
            raise AbacError(f"gate mode must be one of {GATE_MODES}, got {mode!r}")
        self.mode = mode
        self.backend = backend if backend is not None else SimulatedFheBackend()
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
        backend = self.backend
        backend.check_rows(self._columns, matrix)
        # node i seals its attributes under nonce 2i and its decision under nonce 2i + 1
        nonces = backend.draw_nonces(2 * len(matrix))
        cts = backend.seal_rows(nonces[0::2], matrix)
        decisions = backend.eval_rows(self._predicate, self._columns, cts, nonces[1::2])
        return backend.decrypt_decisions(decisions).nonzero()[0]
