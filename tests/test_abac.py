import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustsim.abac import (
    DEFAULT_POLICY_TEXT,
    DEFAULT_SCHEMA,
    AbacError,
    And,
    Ciphertext,
    Leaf,
    NODE_ATTRIBUTES,
    Or,
    PolicyGate,
    SimulatedFheBackend,
    compile_policy,
    parse_policy,
)

from reference import eval_policy_plain, node_attributes


@pytest.fixture
def backend():
    return SimulatedFheBackend(seed=7)


ATTRS = {"trust": 50, "role": 2, "clearance": 3, "permissions": 7}


def seal_row(backend, attrs: dict) -> Ciphertext:
    """The values of ``attrs`` as one row of int64 slots, sealed as one ciphertext."""
    return backend.seal_rows(np.array([list(attrs.values())], dtype=np.int64))


def open_row(backend, ct, columns: tuple) -> dict:
    """The attribute row ``ct`` holds, by column name."""
    return dict(zip(columns, np.frombuffer(backend._open(ct, 8 * len(columns)), dtype="<i8").tolist()))


def encrypted_decision(backend, policy, attrs: dict) -> bool:
    """``attrs`` sealed, decided by the backend with the compiled policy, and the decision opened."""
    columns = tuple(attrs)
    decisions = backend.eval_rows(compile_policy(policy, columns), columns, seal_row(backend, attrs), 1)
    return bool(backend.decrypt_decisions(decisions, 1)[0])


def test_encrypt_decrypt_round_trip(backend):
    ct = seal_row(backend, ATTRS)
    assert len(ct.payload) == 16 + 8 * len(ATTRS)
    assert open_row(backend, ct, tuple(ATTRS)) == ATTRS


def test_encrypt_out_of_range_rejected(backend):
    with pytest.raises(AbacError):
        backend.check_rows(("trust",), np.array([[101]]))
    backend.check_rows(("trust", "unbounded"), np.array([[100, 10**6]]))


def test_blinded_payloads_differ(backend):
    payloads = {seal_row(backend, ATTRS).payload for _ in range(8)}
    assert len(payloads) == 8


def test_eval_encrypted_accepts(backend):
    policy = parse_policy("(trust >= 45) & (role == 2)")
    assert encrypted_decision(backend, policy, ATTRS) is True


def test_eval_encrypted_rejects_low_clearance(backend):
    policy = parse_policy("clearance >= 3")
    assert encrypted_decision(backend, policy, {"clearance": 2}) is False


def test_eval_unknown_attribute_errors(backend):
    policy = parse_policy("missing >= 1")
    with pytest.raises(AbacError):
        encrypted_decision(backend, policy, ATTRS)
    # a ciphertext whose slots are not the columns the compiled policy reads is refused too
    columns = ("missing",)
    with pytest.raises(AbacError, match="body of 32 bytes is not 8 bytes wide"):
        backend.eval_rows(compile_policy(policy, columns), columns, seal_row(backend, ATTRS), 1)


def test_plain_eval_boolean_combinators():
    t = Leaf("x", ">=", 1)
    f = Leaf("x", ">=", 10)
    attrs = {"x": 5}
    assert eval_policy_plain(And((t, t)), attrs) is True
    assert eval_policy_plain(Or((f, t)), attrs) is True
    assert eval_policy_plain(f, attrs) is False


def test_parser_round_trips_default_policy():
    policy = parse_policy("(trust >= 45) & ((role == 2) | (role == 3))")
    assert eval_policy_plain(policy, {"trust": 45, "role": 3})
    assert not eval_policy_plain(policy, {"trust": 44, "role": 2})
    assert not eval_policy_plain(policy, {"trust": 80, "role": 1})


@pytest.mark.parametrize(
    "text",
    ["", "(trust >= 45", "trust >> 3", "trust >= x", "& trust >= 1", "trust >= 1 extra tokens 99"],
)
def test_parser_rejects_malformed(text):
    with pytest.raises(AbacError):
        parse_policy(text)


def test_precedence_and_binds_tighter_than_or():
    policy = parse_policy("a == 1 | b == 1 & c == 1")
    assert eval_policy_plain(policy, {"a": 1, "b": 0, "c": 0})
    assert eval_policy_plain(policy, {"a": 0, "b": 1, "c": 1})
    assert not eval_policy_plain(policy, {"a": 0, "b": 1, "c": 0})


names = st.sampled_from(["trust", "role", "clearance", "permissions"])
ops = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])


def leaves():
    return st.builds(Leaf, attribute=names, op=ops, constant=st.integers(0, 100))


def policies():
    return st.recursive(
        leaves(),
        lambda children: st.one_of(
            st.builds(And, children=st.tuples(children, children)),
            st.builds(Or, children=st.tuples(children, children)),
        ),
        max_leaves=8,
    )


@settings(max_examples=1000, deadline=None)
@given(
    policy=policies(),
    trust=st.integers(0, 100),
    role=st.integers(0, 15),
    clearance=st.integers(0, 15),
    permissions=st.integers(0, 255),
)
def test_encrypted_path_parity_with_plaintext_oracle(policy, trust, role, clearance, permissions):
    backend = SimulatedFheBackend(seed=3)
    attrs = {"trust": trust, "role": role, "clearance": clearance, "permissions": permissions}
    expected = eval_policy_plain(policy, attrs)
    decision = encrypted_decision(backend, policy, attrs)
    assert decision == expected
    row = np.array([[attrs[name] for name in NODE_ATTRIBUTES]], dtype=np.int64)
    compiled = compile_policy(policy, tuple(NODE_ATTRIBUTES))(row)
    assert compiled.shape == (1,) and bool(compiled[0]) == expected


def test_quantize_trust_floor_matches_threshold_boundary():
    taus = [0.45, 0.4499, 0.999, 0.0]
    for trust, node in ((45, 0), (44, 1), (99, 2), (0, 3)):
        assert list(PolicyGate(parse_policy(f"trust == {trust}")).accepted(taus)) == [node]


def test_gate_modes_agree():
    plain = PolicyGate(mode="plain")
    enc = PolicyGate(mode="encrypted")
    trusts = np.linspace(0.05, 0.95, 16)
    assert np.array_equal(plain.accepted(trusts), enc.accepted(trusts))


def test_gate_rejects_unknown_attribute_when_built():
    for mode in ("plain", "encrypted"):
        with pytest.raises(AbacError):
            PolicyGate(parse_policy("(trust >= 45) & (tier == 1)"), mode=mode)


def test_gate_rejects_below_threshold():
    gate = PolicyGate()
    accepted = gate.accepted([0.44, 0.45, 0.9])
    assert list(accepted) == [1, 2]


def test_gate_role_requirement():
    # every simulated node presents the validator role
    assert list(PolicyGate().accepted([0.9])) == [0]
    assert list(PolicyGate(parse_policy("(trust >= 45) & (role == 3)")).accepted([0.9])) == []


def test_ciphertext_backend_tag_enforced(backend):
    other = SimulatedFheBackend(seed=9)
    ct = seal_row(backend, ATTRS)
    ct_other = type(ct)("other-backend", ct.payload)
    with pytest.raises(AbacError):
        other._open(ct_other, 8 * len(ATTRS))


def per_byte_mask(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Reference for ``SimulatedFheBackend._mask``: the keystream XOR one byte at a time."""
    out = bytearray(len(data))
    block = 0
    pos = 0
    while pos < len(data):
        stream = hashlib.blake2b(key + nonce + block.to_bytes(4, "little"), digest_size=64).digest()
        n = min(64, len(data) - pos)
        for i in range(n):
            out[pos + i] = data[pos + i] ^ stream[i]
        pos += n
        block += 1
    return bytes(out)


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 200])
def test_mask_matches_per_byte_loop(backend, length):
    rng = np.random.default_rng(length)
    for _ in range(20):
        nonce, data = rng.bytes(16), rng.bytes(length)
        masked = backend._mask(nonce, data)
        assert masked == per_byte_mask(backend._key, nonce, data)
        assert backend._mask(nonce, masked) == data


def per_message_mask(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """Reference for one message: its keystream joined per 64-byte block, then one XOR as integers."""
    size = len(data)
    stream = b"".join(
        hashlib.blake2b(key + nonce + block.to_bytes(4, "little"), digest_size=64).digest()
        for block in range(-(-size // 64))
    )
    return (int.from_bytes(data, "little") ^ int.from_bytes(stream[:size], "little")).to_bytes(size, "little")


def test_mask_of_a_message_matches_per_message_mask(backend):
    rng = np.random.default_rng(0)
    for _ in range(20):
        for length in rng.permutation([0, 1, 58, 63, 64, 65, 200] * 2).tolist():
            nonce, message = rng.bytes(16), rng.bytes(length)
            masked = backend._mask(nonce, message)
            assert masked == per_message_mask(backend._key, nonce, message)
            assert backend._mask(nonce, masked) == message


class CountingKeyed:
    """Stands in for the backend's keyed blake2b state and counts the keystream blocks made from it."""

    def __init__(self, keyed):
        self.keyed, self.blocks = keyed, 0

    def copy(self):
        self.blocks += 1
        return self.keyed.copy()


def test_opening_hashes_only_what_the_last_seal_did_not(backend):
    backend._keyed = counter = CountingKeyed(backend._keyed)
    rng = np.random.default_rng(3)
    older = rng.bytes(128)
    older_ct = backend.seal(older)
    newer = rng.bytes(128)
    newer_ct = backend.seal(newer)
    assert counter.blocks == 2 + 2
    assert backend._open(newer_ct, 128) == newer  # the last seal's blocks, hashed again for none
    assert counter.blocks == 4
    # the older ciphertext's blocks are no longer kept, so opening it hashes them again
    assert backend._open(older_ct, 128) == older
    assert counter.blocks == 4 + 2
    # a kept stream is reused only at its own length
    nonce = backend.seal(bytes(1)).payload[:16]
    assert backend._mask(nonce, bytes(40)) == per_message_mask(backend._key, nonce, bytes(40))

    # the gate over 16 nodes: 512 bytes of attribute slots and 16 decision bytes, each hashed once
    gate = PolicyGate(mode="encrypted", backend=backend)
    before = counter.blocks
    taus = np.random.default_rng(4).random(16)
    assert np.array_equal(gate.accepted(taus), PolicyGate().accepted(taus))
    assert counter.blocks - before == 8 + 1


def per_node_decisions(policy, trusts) -> np.ndarray:
    """Reference for the gate, node by node: the nodes whose attributes the policy tree walk accepts."""
    accepted = [node for node, tau in enumerate(trusts) if eval_policy_plain(policy, node_attributes(tau))]
    return np.array(accepted, dtype=np.int64)


GATE_POLICIES = (None, "(trust < 30) | (trust >= 70)", "(trust != 45) & (clearance >= 3)")
EDGE_TRUSTS = (0.0, 1.0, 0.4499, float(np.nextafter(0.45, 0.0)), 0.45)


def trust_vectors(seed: int, count: int):
    rng = np.random.default_rng(seed)
    yield np.array(EDGE_TRUSTS)
    yield np.array([])
    for _ in range(count):
        taus = rng.random(int(rng.integers(1, 24)))
        taus[rng.random(len(taus)) < 0.3] = rng.choice(EDGE_TRUSTS)
        yield taus


@pytest.mark.parametrize("policy_text", GATE_POLICIES)
def test_batched_encrypted_gate_matches_plain_and_per_node(policy_text):
    policy = None if policy_text is None else parse_policy(policy_text)
    plain = PolicyGate(policy, mode="plain")
    gate = PolicyGate(policy, mode="encrypted", backend=SimulatedFheBackend(seed=11))
    for calls, taus in enumerate(trust_vectors(seed=5, count=60), start=1):
        accepted = gate.accepted(taus)
        assert accepted.dtype == np.int64
        assert np.array_equal(accepted, plain.accepted(taus))
        assert np.array_equal(accepted, per_node_decisions(gate.policy, taus))
        # two seals a step, the attributes and the decisions, whatever the node count
        assert gate.backend._seals == 2 * calls


def test_packed_gate_puts_node_i_in_slots_4i_to_4i_plus_4():
    gate = PolicyGate(mode="encrypted", backend=SimulatedFheBackend(seed=4))
    backend, batch = gate.backend, {}
    eval_rows = backend.eval_rows

    def recording_eval_rows(predicate, columns, ct, rows):
        batch["attributes"] = ct
        batch["decisions"] = eval_rows(predicate, columns, ct, rows)
        return batch["decisions"]

    backend.eval_rows = recording_eval_rows
    taus = np.array([0.5, 0.5, 0.2, 0.9, 0.45, 0.5])
    gate.accepted(taus)
    slots = np.frombuffer(backend._open(batch["attributes"], 32 * len(taus)), dtype="<i8")
    decisions = backend._open(batch["decisions"], len(taus))
    for i, tau in enumerate(taus):
        attrs = node_attributes(tau)
        assert slots[4 * i : 4 * i + 4].tolist() == [attrs[name] for name in NODE_ATTRIBUTES]
        assert decisions[i] == eval_policy_plain(gate.policy, attrs)
    # two ciphertexts under two counter nonces, however many nodes
    assert [ct.payload[:16] for ct in batch.values()] == [i.to_bytes(16, "little") for i in range(2)]


def test_seal_counter_never_repeats_a_nonce(backend):
    nonces = {backend.seal(b"\x00").payload[:16] for _ in range(10_000)}
    assert len(nonces) == 10_000 and backend._seals == 10_000


def test_backends_seal_by_seed():
    matrix = np.array([list(ATTRS.values())] * 3, dtype=np.int64)

    def payloads(seed):
        backend = SimulatedFheBackend(seed=seed)
        return [backend.seal_rows(matrix).payload for _ in range(4)]

    assert payloads(5) == payloads(5)
    different = payloads(6)
    assert all(a != b for a, b in zip(payloads(5), different))


def test_batched_encrypted_gate_enforces_schema():
    backend = SimulatedFheBackend(seed=2, schema={**DEFAULT_SCHEMA, "trust": (0, 60)})
    gate = PolicyGate(mode="encrypted", backend=backend)
    assert list(gate.accepted([0.2, 0.5, 0.6])) == [1, 2]
    seals = backend._seals
    with pytest.raises(AbacError, match=r"'trust'=61 outside declared range \[0, 60\]"):
        gate.accepted([0.2, 0.61, 0.9])
    assert backend._seals == seals  # a refused matrix seals nothing


def test_plain_gate_builds_no_backend():
    assert PolicyGate().backend is None
    assert isinstance(PolicyGate(mode="encrypted").backend, SimulatedFheBackend)


@pytest.mark.parametrize("width", [0, 31, 33])
def test_eval_rows_refuses_a_row_of_the_wrong_width(backend, width):
    columns = tuple(NODE_ATTRIBUTES)
    predicate = compile_policy(parse_policy(DEFAULT_POLICY_TEXT), columns)
    for rows in (1, 16):
        size = width + 32 * (rows - 1)  # a row short, or one slot byte short or over
        ct = backend.seal(bytes(size))
        with pytest.raises(AbacError, match=f"body of {size} bytes is not {32 * rows} bytes wide"):
            backend.eval_rows(predicate, columns, ct, rows)


def test_payload_shorter_than_a_nonce_is_refused(backend):
    for payload in (b"", b"x" * 15):
        with pytest.raises(AbacError, match="shorter than a nonce"):
            backend.decrypt_decisions(Ciphertext(backend.tag, payload), 1)


@pytest.mark.parametrize(
    "obj",
    [
        (b"1", "does not hold a decision"),  # the text "1", not the byte 1
        (b"\x02", "does not hold a decision"),
        (b"\xff", "does not hold a decision"),  # -1 as a byte
        (b"\x80", "does not hold a decision"),  # sign bit alone
        (np.float64(1.0).tobytes(), "body of 8 bytes"),
        (b"", "body of 0 bytes"),
        (b"\x01\x00", "body of 2 bytes"),  # a decision with a trailing byte
        (bytes(32), "body of 32 bytes"),  # an attribute row, not a decision
        (np.int64(1).tobytes(), "body of 8 bytes"),  # a full int64 slot
    ],
)
def test_decrypt_decisions_accepts_only_zero_or_one(backend, obj):
    body, error = obj
    with pytest.raises(AbacError, match=error):
        backend.decrypt_decisions(backend.seal(body), 1)
    # a refused body among 15 good decisions refuses them all, wherever it sits
    good = np.random.default_rng(len(body)).integers(0, 2, 15).astype(np.uint8).tobytes()
    assert backend.decrypt_decisions(backend.seal(good), 15).tolist() == [b == 1 for b in good]
    if len(body) != 1:
        error = f"body of {15 + len(body)} bytes is not 16 bytes wide"
    for i in range(16):
        with pytest.raises(AbacError, match=error):
            backend.decrypt_decisions(backend.seal(good[:i] + body + good[i:]), 16)


def test_schema_bounds_are_read_per_column_tuple():
    backend = SimulatedFheBackend(seed=1, schema={"trust": (0, 60), "role": (2, 2)})
    backend.check_rows(("trust", "role"), np.array([[60, 2]]))
    with pytest.raises(AbacError, match=r"'role'=3 outside declared range \[2, 2\]"):
        backend.check_rows(("trust", "role"), np.array([[10, 2], [60, 3]]))
    with pytest.raises(AbacError, match=r"'trust'=61 outside declared range \[0, 60\]"):
        backend.check_rows(("role", "trust"), np.array([[2, 61]]))
    backend.check_rows((), np.zeros((3, 0), dtype=np.int64))
    with pytest.raises(TypeError):  # fixed at construction, so the bounds built from it hold
        backend.schema["trust"] = (0, 100)
