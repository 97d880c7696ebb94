"""Tests for the serve wire protocol: framing, lossless array transport
and the typed-error registry.

The load-bearing invariant: a query answer that crossed the wire is
*byte-identical* to the in-process answer — float64 arrays survive the
JSON encoding exactly, and typed errors come back as the same exception
classes the local API raises.
"""

import asyncio
import itertools
import struct

import numpy as np
import pytest

from repro.core.procpool import WorkerCrashed, WorkerTimeout
from repro.serve import (
    DeadlineExceeded,
    ProtocolError,
    RemoteError,
    ServiceClosed,
    ServiceOverloaded,
)
from repro.serve import protocol


class TestArrayCodec:
    def test_float64_roundtrip_is_byte_identical(self):
        rng = np.random.default_rng(3)
        array = rng.uniform(-1e6, 1e6, size=(4, 7))
        # Adversarial values a decimal round-trip would mangle.
        array[0, 0] = np.nextafter(1.0, 2.0)
        array[0, 1] = np.inf
        array[0, 2] = 1e-308
        decoded = protocol.decode_array(protocol.encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.tobytes() == array.tobytes()

    def test_int64_roundtrip(self):
        ids = np.array([[5, -1, 2**62]], dtype=np.int64)
        decoded = protocol.decode_array(protocol.encode_array(ids))
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, ids)

    def test_decoded_array_is_writable(self):
        decoded = protocol.decode_array(
            protocol.encode_array(np.zeros(3)))
        decoded[0] = 1.0  # np.frombuffer alone would be read-only

    def test_malformed_payload_raises_protocol_error(self):
        for payload in ({}, {"b64": "!!!", "dtype": "<f8", "shape": [1]},
                        {"b64": "", "dtype": "nope", "shape": [1]}):
            with pytest.raises(ProtocolError):
                protocol.decode_array(payload)


#: Piece sizes a stream is fed in (cycled): one byte at a time, random
#: pieces, and the whole stream at once.
CHUNKINGS = {"1-byte": [1],
             "random": np.random.default_rng(7).integers(1, 24, 64).tolist(),
             "whole": [1 << 30]}


def read_frames(stream, sizes):
    """Run ``protocol.read_frame`` over ``stream`` fed to an
    ``asyncio.StreamReader`` in pieces of ``sizes`` and then EOF.
    Returns the frames read before the clean EOF or the error, and the
    ``ProtocolError`` raised (``None`` on clean EOF)."""
    async def main():
        reader = asyncio.StreamReader()

        async def feed():
            offset = 0
            for size in itertools.cycle(sizes):
                if offset >= len(stream):
                    break
                reader.feed_data(stream[offset:offset + size])
                offset += size
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.create_task(feed())
        frames = []
        try:
            while (frame := await protocol.read_frame(reader)) is not None:
                frames.append(frame)
        except ProtocolError as error:
            return frames, error
        finally:
            await feeder
        return frames, None

    return asyncio.run(main())


def frame_of(body):
    return struct.pack("!I", len(body)) + body


@pytest.mark.parametrize("sizes", CHUNKINGS.values(), ids=CHUNKINGS.keys())
class TestFraming:
    MESSAGES = [{"op": "ping", "id": i, "pad": "x" * i} for i in range(5)]

    def stream(self):
        return b"".join(protocol.encode_frame(m) for m in self.MESSAGES)

    def test_frames_roundtrip_then_clean_eof_is_none(self, sizes):
        assert read_frames(self.stream(), sizes) == (self.MESSAGES, None)

    def test_empty_stream_is_a_clean_eof(self, sizes):
        assert read_frames(b"", sizes) == ([], None)

    def test_eof_inside_length_prefix(self, sizes):
        frames, error = read_frames(self.stream() + b"\x00\x00", sizes)
        assert frames == self.MESSAGES
        assert "length-prefix" in str(error)

    def test_eof_inside_body(self, sizes):
        torn = protocol.encode_frame({"op": "ping", "id": 9})[:-2]
        frames, error = read_frames(self.stream() + torn, sizes)
        assert frames == self.MESSAGES
        assert "mid-frame" in str(error)

    def test_non_json_body(self, sizes):
        frames, error = read_frames(frame_of(b"\xff\xfe not json"), sizes)
        assert frames == [] and "not valid JSON" in str(error)

    def test_non_object_body(self, sizes):
        frames, error = read_frames(frame_of(b"[1,2,3]"), sizes)
        assert frames == [] and "JSON object" in str(error)

    def test_oversized_length_rejected_before_the_body_is_read(self, sizes):
        prefix = struct.pack("!I", protocol.MAX_FRAME_BYTES + 1)
        frames, error = read_frames(prefix + b"body", sizes)
        assert frames == [] and "MAX_FRAME_BYTES" in str(error)

        async def main():
            # No EOF and no body: the length alone must fail the read,
            # and the bytes behind the prefix stay unread.
            reader = asyncio.StreamReader()
            reader.feed_data(prefix + b"body")
            with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
                await asyncio.wait_for(protocol.read_frame(reader), 5.0)
            assert await reader.read(4) == b"body"

        asyncio.run(main())


class TestErrorRegistry:
    @pytest.mark.parametrize("error", [
        ServiceOverloaded("queue full"),
        ServiceClosed("stopped"),
        DeadlineExceeded("late"),
        WorkerCrashed("signal 9"),
        WorkerTimeout("5s"),
        ValueError("k must be >= 1, got 0"),
    ])
    def test_typed_errors_cross_the_wire_by_class(self, error):
        rebuilt = protocol.wire_to_error(protocol.error_to_wire(error))
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)

    def test_unknown_type_becomes_remote_error(self):
        rebuilt = protocol.wire_to_error(
            {"type": "FutureServerError", "message": "newer server"})
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.remote_type == "FutureServerError"
        assert "newer server" in str(rebuilt)

    def test_decode_result_raises_typed_error(self):
        response = protocol.error_response(1, ServiceOverloaded("full"))
        with pytest.raises(ServiceOverloaded):
            protocol.decode_result(response)

    def test_decode_result_returns_arrays(self):
        ids = np.array([3, 1], dtype=np.int64)
        dists = np.array([0.0, 2.5])
        got_ids, got_dists = protocol.decode_result(
            protocol.query_response(9, ids, dists))
        assert np.array_equal(got_ids, ids)
        assert got_dists.tobytes() == dists.tobytes()
