"""The subtrial/payload frame codec: length-prefixed JSON + a payload codec.

This module is what the perf ledger's ``suite_fanout`` workload probes
time (the ``exp.wire.*`` per-layer metrics): it frames a
:meth:`~repro.exp.suites.Subtrial.to_wire` pair and its payload.  No
socket protocol in ``src/`` uses it; a change to the benchmark removes it
together with those metrics.

Framing is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  :func:`encode_frame` writes one frame;
:func:`recv_frame` reads one from anything with ``recv`` and handles the
failure modes a byte stream has:

* **partial reads** — ``recv`` may return any prefix; :func:`recv_exactly`
  loops until the frame is complete;
* **truncation** — a stream ending mid-frame raises :class:`TruncatedFrame`
  (a clean close *between* frames raises :class:`ConnectionClosed`);
* **oversized frames** — a length prefix beyond ``max_bytes`` raises
  :class:`FrameTooLarge` *before* allocating, so a corrupt prefix cannot
  balloon memory;
* **malformed payloads** — bytes that are not valid UTF-8 JSON (or decode
  to a non-object) raise :class:`MalformedFrame`; every failure shares the
  :class:`WireError` base.

JSON cannot carry the agent payloads suites ship to eval subtrials (numpy
weight arrays, the :class:`~repro.rl.dqn.DQNConfig` dataclass), so
:func:`to_jsonable`/:func:`from_jsonable` wrap them: an ndarray becomes
``{"__wire__": "ndarray", dtype, shape, data=base64(tobytes())}`` — raw
little-endian bytes, so the round trip is **bit-exact**.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import struct
from typing import Any

import numpy as np

from repro.rl.dqn import DQNConfig

#: Frames larger than this are rejected before allocation.  Generous —
#: the biggest real payload is an agent's MLP weights (a few hundred KiB).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Marker key of codec-wrapped objects inside a frame's JSON.
WIRE_KIND_KEY = "__wire__"


class WireError(Exception):
    """Base for every framing/codec failure."""


class ConnectionClosed(WireError):
    """The stream closed cleanly between frames (normal EOF)."""


class TruncatedFrame(ConnectionClosed):
    """The stream ended mid-frame."""


class FrameTooLarge(WireError):
    """A length prefix exceeded the maximum frame size."""


class MalformedFrame(WireError):
    """Frame bytes were not a valid UTF-8 JSON object."""


# -- framing ------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its on-wire bytes (length prefix + JSON)."""
    body = json.dumps(to_jsonable(message), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def recv_exactly(sock, count: int) -> bytes:
    """Read exactly ``count`` bytes, looping over short ``recv`` returns.

    Raises :class:`ConnectionClosed` if EOF arrives before the first byte
    and :class:`TruncatedFrame` if it arrives after (the distinction lets
    callers treat clean closes as normal and mid-frame deaths as errors).
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if chunks:
                raise TruncatedFrame(
                    f"stream ended {remaining} bytes short of a {count}-byte read"
                )
            raise ConnectionClosed("stream closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock, *, max_bytes: int = MAX_FRAME_BYTES) -> dict:
    """Read one framed message; see the module docstring for error modes."""
    prefix = recv_exactly(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(prefix)
    if length > max_bytes:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {max_bytes}")
    body = recv_exactly(sock, length) if length else b""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(f"frame is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise MalformedFrame(
            f"frame decodes to {type(message).__name__}, expected an object"
        )
    return from_jsonable(message)


# -- payload codec ------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """Rewrite a payload so ``json.dumps`` can take it, reversibly.

    ndarrays are wrapped with their raw bytes (bit-exact — no float/text
    round trip), :class:`DQNConfig` by field dict; containers recurse
    (tuples become lists, as JSON demands).  numpy scalars degrade to the
    matching Python scalar.  Anything else passes through untouched and
    will fail loudly in ``json.dumps`` if it is not JSON-native.
    """
    if isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        return {
            WIRE_KIND_KEY: "ndarray",
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii"),
        }
    if isinstance(value, DQNConfig):
        return {
            WIRE_KIND_KEY: "dqn_config",
            "fields": to_jsonable(dataclasses.asdict(value)),
        }
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return value


def from_jsonable(value: Any) -> Any:
    """Invert :func:`to_jsonable` on a decoded JSON payload."""
    if isinstance(value, dict):
        kind = value.get(WIRE_KIND_KEY)
        if kind == "ndarray":
            dtype = np.dtype(value["dtype"])
            data = base64.b64decode(value["data"])
            return np.frombuffer(data, dtype=dtype).reshape(value["shape"]).copy()
        if kind == "dqn_config":
            fields = from_jsonable(value["fields"])
            fields["hidden_sizes"] = tuple(fields["hidden_sizes"])
            return DQNConfig(**fields)
        if kind is not None:
            raise MalformedFrame(f"unknown wire payload kind {kind!r}")
        return {key: from_jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [from_jsonable(item) for item in value]
    return value
