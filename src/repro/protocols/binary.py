"""A compact length-prefixed binary RPC codec (the fast wire path).

XML-RPC dominates the per-call budget once dispatch is cheap: every request
walks an XML parser and every response re-escapes markup.  This codec keeps
the exact same value model (:mod:`repro.protocols.types`) but serialises it
with ``struct``-packed frames — no quoting, no parsing, a single pass over
the data in each direction.

Wire format (all integers big-endian)::

    frame   := MAGIC kind payload
    MAGIC   := "CRB1"                      (4 bytes)
    kind    := "Q" | "R" | "F"             (request / result / fault)

    Q-frame := value(call_id) u32 method-utf8 u32 nparams value*
    R-frame := value(call_id) value(result)
    F-frame := value(call_id) i32 code u32 message-utf8

    value   := "N"                          None
             | "T" | "F"                    True / False
             | "i" int64                    int within +-2**63
             | "I" u32 ascii-decimal        arbitrary-precision int
             | "d" float64                  float
             | "s" u32 utf8                 str
             | "b" u32 raw                  bytes
             | "t" u32 utf8                 datetime (ISO 8601)
             | "l" u32 value*               array (count-prefixed)
             | "m" u32 (u32 utf8 value)*    struct (count-prefixed pairs)

The format is frozen by golden-byte tests in ``tests/test_binary_protocol.py``
so it can never silently drift between client and server builds.
"""

from __future__ import annotations

import datetime
import struct
from typing import Any

from repro.protocols.errors import Fault, ProtocolError
from repro.protocols.types import MAX_NESTING, RPCRequest, RPCResponse

__all__ = ["BinaryCodec", "MAGIC"]

MAGIC = b"CRB1"

_U32 = struct.Struct(">I")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: The type model's nesting cap, so a hostile frame cannot recurse the
#: decoder past what ``validate_value`` allows.
_MAX_DEPTH = MAX_NESTING


def _encode_value(value: Any, out: list[bytes], depth: int = 0) -> None:
    # str before the numeric branches: catalogue-style responses (the
    # Figure 4 method list) are overwhelmingly strings, and the reorder
    # changes no encoding (a str is never an int).
    if isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int) and not isinstance(value, bool):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            digits = str(value).encode("ascii")
            out.append(b"I")
            out.append(_U32.pack(len(digits)))
            out.append(digits)
    elif isinstance(value, float):
        out.append(b"d")
        out.append(_F64.pack(value))
    elif isinstance(value, (bytes, bytearray)):
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(bytes(value))
    elif isinstance(value, datetime.datetime):
        data = value.isoformat().encode("utf-8")
        out.append(b"t")
        out.append(_U32.pack(len(data)))
        out.append(data)
    elif isinstance(value, (list, tuple)):
        # Encode honours the same nesting cap the decoder (and
        # ``validate_value``) enforce, so a pipeline that skips the separate
        # validation walk can never emit a frame its own decoder rejects.
        if depth >= _MAX_DEPTH:
            raise ProtocolError(
                f"value nesting exceeds the {_MAX_DEPTH}-level limit")
        out.append(b"l")
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out, depth + 1)
    elif isinstance(value, dict):
        if depth >= _MAX_DEPTH:
            raise ProtocolError(
                f"value nesting exceeds the {_MAX_DEPTH}-level limit")
        out.append(b"m")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ProtocolError(
                    f"binary struct keys must be strings, got {type(key).__name__}")
            data = key.encode("utf-8")
            out.append(_U32.pack(len(data)))
            out.append(data)
            _encode_value(item, out, depth + 1)
    else:
        raise ProtocolError(
            f"type {type(value).__name__} is not encodable as a binary value")


class _Decoder:
    """Offset-walking reader over one immutable frame."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise ProtocolError("truncated binary frame")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in binary frame: {exc}") from exc

    def value(self, depth: int = 0) -> Any:
        if depth > _MAX_DEPTH:
            raise ProtocolError(
                f"binary value nesting exceeds the {_MAX_DEPTH}-level limit")
        tag = self.take(1)
        if tag == b"N":
            return None
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"i":
            return _I64.unpack(self.take(8))[0]
        if tag == b"I":
            raw = self.take(self.u32())
            try:
                return int(raw.decode("ascii"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ProtocolError(f"invalid bigint in binary frame: {exc}") from exc
        if tag == b"d":
            return _F64.unpack(self.take(8))[0]
        if tag == b"s":
            return self.text()
        if tag == b"b":
            return self.take(self.u32())
        if tag == b"t":
            raw = self.text()
            try:
                return datetime.datetime.fromisoformat(raw)
            except ValueError as exc:
                raise ProtocolError(f"invalid datetime in binary frame: {exc}") from exc
        if tag == b"l":
            count = self.u32()
            return [self.value(depth + 1) for _ in range(count)]
        if tag == b"m":
            count = self.u32()
            record: dict[str, Any] = {}
            for _ in range(count):
                key = self.text()
                record[key] = self.value(depth + 1)
            return record
        raise ProtocolError(f"unknown binary value tag {tag!r}")

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after binary frame")


def _frame_body(data: bytes | str, expected_kinds: bytes) -> tuple[bytes, _Decoder]:
    if isinstance(data, str):
        # Binary frames are never legitimately text; a str here means a
        # proxy or transport re-decoded the body.  Round-trip through
        # latin-1 recovers the original bytes when possible.
        try:
            data = data.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise ProtocolError("binary frame was corrupted in transit") from exc
    if not data.startswith(MAGIC):
        raise ProtocolError("not a binary RPC frame (bad magic)")
    decoder = _Decoder(data)
    decoder.take(len(MAGIC))
    kind = decoder.take(1)
    if kind not in (b"Q", b"R", b"F") or kind not in expected_kinds:
        raise ProtocolError(f"unexpected binary frame kind {kind!r}")
    return kind, decoder


class BinaryCodec:
    """Length-prefixed binary framing of the shared RPC value model."""

    name = "binary"
    content_type = "application/x-clarens-binary"
    #: Binary values are length-prefixed and self-delimiting, so a response
    #: frame can be assembled from a pre-encoded ``value(result)`` fragment
    #: (:meth:`encode_result_fragment` / :meth:`encode_response_from_fragment`).
    #: The pipeline keys its hot-response memo off this capability; the text
    #: codecs interleave markup and escaping, so they never set it.
    spliceable = True
    #: Encoding raises :class:`ProtocolError` for any value outside the type
    #: model, so a caller that is about to encode may skip the separate
    #: ``validate_value`` walk (the pipeline's invoke stage reads this).
    validates_on_encode = True

    # -- requests ----------------------------------------------------------------
    def encode_request(self, request: RPCRequest) -> bytes:
        out: list[bytes] = [MAGIC, b"Q"]
        _encode_value(request.call_id, out)
        method = request.method.encode("utf-8")
        out.append(_U32.pack(len(method)))
        out.append(method)
        out.append(_U32.pack(len(request.params)))
        for param in request.params:
            _encode_value(param, out)
        return b"".join(out)

    def decode_request(self, data: bytes | str) -> RPCRequest:
        _, decoder = _frame_body(data, b"Q")
        call_id = decoder.value()
        method = decoder.text()
        if not method:
            raise ProtocolError("binary request is missing a method name")
        count = decoder.u32()
        params = tuple(decoder.value() for _ in range(count))
        decoder.expect_end()
        # The decoder is constructive — it can only build model types within
        # the nesting cap — so the separate validation walk is skipped.
        return RPCRequest.from_wire(method, params, call_id)

    # -- responses ---------------------------------------------------------------
    def encode_response(self, response: RPCResponse) -> bytes:
        if response.is_fault:
            message = response.fault.message.encode("utf-8")
            out = [MAGIC, b"F"]
            _encode_value(response.call_id, out)
            out.append(_I32.pack(response.fault.code))
            out.append(_U32.pack(len(message)))
            out.append(message)
            return b"".join(out)
        out = [MAGIC, b"R"]
        _encode_value(response.call_id, out)
        _encode_value(response.result, out)
        return b"".join(out)

    def decode_response(self, data: bytes | str) -> RPCResponse:
        kind, decoder = _frame_body(data, b"RF")
        call_id = decoder.value()
        if kind == b"F":
            code = _I32.unpack(decoder.take(4))[0]
            message = decoder.text()
            decoder.expect_end()
            return RPCResponse.from_fault(Fault(code, message), call_id=call_id)
        result = decoder.value()
        decoder.expect_end()
        return RPCResponse.from_result(result, call_id=call_id, validate=False)

    # -- hot-path shortcuts --------------------------------------------------------
    def encode_result_fragment(self, result: Any) -> bytes:
        """The ``value(result)`` bytes of an R-frame, ready for splicing.

        Raises :class:`ProtocolError` for values outside the type model, so
        encoding doubles as validation on paths that skip the separate
        ``validate_value`` walk.
        """

        out: list[bytes] = []
        _encode_value(result, out)
        return b"".join(out)

    def encode_response_from_fragment(self, call_id: Any, fragment: bytes) -> bytes:
        """Assemble an R-frame around a pre-encoded result fragment.

        Byte-identical to ``encode_response(RPCResponse.from_result(result,
        call_id))`` when ``fragment == encode_result_fragment(result)``.
        """

        out: list[bytes] = [MAGIC, b"R"]
        _encode_value(call_id, out)
        out.append(fragment)
        return b"".join(out)


    def encode_multicall(self, calls, call_id: Any = None) -> bytes:
        """Serialise a ``system.multicall`` batch straight into one frame.

        Byte-identical to encoding the equivalent
        ``RPCRequest("system.multicall", ([{...}, ...],))`` but without
        materialising (and re-validating) the intermediate entry dicts.
        """

        out: list[bytes] = [MAGIC, b"Q"]
        _encode_value(call_id, out)
        out.append(_U32.pack(len(b"system.multicall")))
        out.append(b"system.multicall")
        out.append(_U32.pack(1))                      # one param: the batch
        calls = list(calls)
        out.append(b"l")
        out.append(_U32.pack(len(calls)))
        for method, params in calls:
            out.append(b"m")
            out.append(_U32.pack(2))
            out.append(_U32.pack(len(b"methodName")))
            out.append(b"methodName")
            _encode_value(method, out)
            out.append(_U32.pack(len(b"params")))
            out.append(b"params")
            out.append(b"l")
            out.append(_U32.pack(len(params)))
            for param in params:
                _encode_value(param, out)
        return b"".join(out)
