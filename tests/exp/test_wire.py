"""The subtrial frame codec: framing edge cases and codec bit-exactness.

Everything runs against an in-memory fake socket, which is the point of
keeping the framing functions duck-typed: partial reads, clean closes,
mid-frame deaths and hostile length prefixes are all just byte-buffer
manipulations here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exp.wire import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameTooLarge,
    MalformedFrame,
    TruncatedFrame,
    WireError,
    encode_frame,
    from_jsonable,
    recv_exactly,
    recv_frame,
    to_jsonable,
)
from repro.rl.dqn import DQNConfig


class FakeSocket:
    """A byte-buffer peer; ``chunk`` caps each recv to force short reads."""

    def __init__(self, data: bytes = b"", chunk: int | None = None):
        self._buffer = bytearray(data)
        self._chunk = chunk
        self.sent = bytearray()

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def recv(self, count: int) -> bytes:
        if not self._buffer:
            return b""
        take = min(count, self._chunk or count)
        out = bytes(self._buffer[:take])
        del self._buffer[:take]
        return out


class TestFraming:
    def test_send_then_recv_round_trips(self):
        sock = FakeSocket()
        sock.sendall(encode_frame({"type": "ready", "n": 3}))
        echo = FakeSocket(bytes(sock.sent))
        assert recv_frame(echo) == {"type": "ready", "n": 3}

    def test_partial_reads_reassemble(self):
        # One byte per recv: the 4-byte prefix and the body both arrive in
        # dribbles and must be looped back together.
        frame = encode_frame({"k": "v", "list": [1, 2, 3]})
        sock = FakeSocket(frame, chunk=1)
        assert recv_frame(sock) == {"k": "v", "list": [1, 2, 3]}

    def test_back_to_back_frames_do_not_bleed(self):
        data = encode_frame({"a": 1}) + encode_frame({"b": 2})
        sock = FakeSocket(data, chunk=3)
        assert recv_frame(sock) == {"a": 1}
        assert recv_frame(sock) == {"b": 2}

    def test_clean_close_between_frames(self):
        with pytest.raises(ConnectionClosed):
            recv_frame(FakeSocket(b""))

    def test_death_mid_frame_is_truncation(self):
        frame = encode_frame({"key": "value"})
        with pytest.raises(TruncatedFrame):
            recv_frame(FakeSocket(frame[:-3]))
        # ...and mid-prefix too.
        with pytest.raises(TruncatedFrame):
            recv_frame(FakeSocket(frame[:2]))

    def test_truncation_is_a_kind_of_close(self):
        # Peers that only care about "the conversation ended" catch the
        # base class; the broker distinguishes them for logging only.
        assert issubclass(TruncatedFrame, ConnectionClosed)
        assert issubclass(ConnectionClosed, WireError)

    def test_recv_exactly_loops_over_short_reads(self):
        sock = FakeSocket(b"abcdefgh", chunk=3)
        assert recv_exactly(sock, 8) == b"abcdefgh"

    def test_oversized_length_prefix_rejected_before_allocation(self):
        prefix = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FrameTooLarge):
            recv_frame(FakeSocket(prefix))

    def test_max_bytes_is_tunable_per_receiver(self):
        frame = encode_frame({"blob": "x" * 100})
        with pytest.raises(FrameTooLarge):
            recv_frame(FakeSocket(frame), max_bytes=16)

    def test_encoding_an_oversized_message_fails_fast(self):
        huge = {"blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(FrameTooLarge):
            encode_frame(huge)

    def test_malformed_json_rejected(self):
        body = b"not json at all"
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(MalformedFrame):
            recv_frame(FakeSocket(frame))

    def test_invalid_utf8_rejected(self):
        body = b"\xff\xfe\xfd"
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(MalformedFrame):
            recv_frame(FakeSocket(frame))

    def test_non_object_json_rejected(self):
        body = b"[1, 2, 3]"
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(MalformedFrame):
            recv_frame(FakeSocket(frame))


class TestPayloadCodec:
    def test_ndarray_round_trip_is_bit_exact(self):
        # Awkward values on purpose: denormals, negative zero, exact thirds.
        array = np.array(
            [[1.0 / 3.0, -0.0, 5e-324], [np.pi, 1e308, -1.5]], dtype=np.float64
        )
        restored = from_jsonable(to_jsonable(array))
        assert restored.dtype == array.dtype
        assert restored.shape == array.shape
        assert restored.tobytes() == array.tobytes()

    def test_non_contiguous_ndarray_round_trips(self):
        array = np.arange(24, dtype=np.float32).reshape(4, 6)[::2, ::3]
        restored = from_jsonable(to_jsonable(array))
        assert np.array_equal(restored, array)

    def test_integer_dtypes_survive(self):
        array = np.array([1, -2, 3], dtype=np.int64)
        restored = from_jsonable(to_jsonable(array))
        assert restored.dtype == np.int64
        assert np.array_equal(restored, array)

    def test_dqn_config_round_trips_with_tupled_hidden_sizes(self):
        config = DQNConfig(observation_dim=7, num_actions=4, hidden_sizes=(32, 16))
        restored = from_jsonable(to_jsonable(config))
        assert restored == config
        assert isinstance(restored.hidden_sizes, tuple)

    def test_numpy_scalars_degrade_to_python(self):
        out = to_jsonable({"a": np.int64(3), "b": np.float64(1.5)})
        assert out == {"a": 3, "b": 1.5}
        assert type(out["a"]) is int
        assert type(out["b"]) is float

    def test_containers_recurse_and_tuples_become_lists(self):
        out = to_jsonable({"t": (1, 2), "nested": [{"x": (3,)}]})
        assert out == {"t": [1, 2], "nested": [{"x": [3]}]}

    def test_unknown_wire_kind_rejected(self):
        with pytest.raises(MalformedFrame):
            from_jsonable({"__wire__": "flux-capacitor"})

    def test_frames_carry_wrapped_payloads_end_to_end(self):
        weights = {"w0": np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4)}
        sock = FakeSocket()
        sock.sendall(encode_frame({"type": "result", "payload": {"agent": weights}}))
        received = recv_frame(FakeSocket(bytes(sock.sent), chunk=5))
        out = received["payload"]["agent"]["w0"]
        assert out.tobytes() == weights["w0"].tobytes()
