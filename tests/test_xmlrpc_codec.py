"""The single-pass XML-RPC codec: frozen wire bytes, what the text channel
can and cannot carry, hostile nesting, and a differential against the
standard library's decoder.

The codec walks each value once per direction: the encoder validates while
it writes, the decoder only ever builds model types.  These tests pin that
the one walk still does everything the separate ``validate_value`` passes
did, on the wire and through the server pipeline.
"""

from __future__ import annotations

import datetime as dt
import random
import socket
import xmlrpc.client

import pytest

from repro.client.client import ClarensClient
from repro.core.dispatch import SESSION_HEADER
from repro.httpd.message import Headers, HTTPRequest
from repro.protocols import (BinaryCodec, Fault, ProtocolError, RPCRequest,
                             RPCResponse, XMLRPCCodec)
from repro.protocols import types as types_module
from repro.protocols.errors import FaultCode
from repro.protocols.types import MAX_NESTING, validate_value

from tests.test_httpd_async import _ResponseReader

CODEC = XMLRPCCodec()


def _reply(value) -> bytes:
    return CODEC.encode_response(RPCResponse.from_result(value, validate=False))


def _nested(levels: int, inner="x"):
    """``inner`` wrapped in ``levels`` arrays (alternating with structs)."""

    value = inner
    for level in range(levels):
        value = [value] if level % 2 else {"k": value}
    return value


def _rpc_post(server, body: bytes, session_id: str | None = None):
    headers = Headers({"Content-Type": CODEC.content_type})
    if session_id:
        headers.set(SESSION_HEADER, session_id)
    return server.handle_request(HTTPRequest(
        method="POST", path=server.config.rpc_path(), headers=headers, body=body))


# -- frozen wire bytes ------------------------------------------------------------

GOLDEN_VALUE = {
    "name": "unicode ✓ <&> \"q\" ]]>",
    "n": [0, -17, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**40],
    "f": [3.5, -0.0, 1e300],
    "flags": (True, False, None),
    "blob": b"\x00\x01binary\xff",
    "when": dt.datetime(2005, 6, 14, 12, 30, 45),
    "empty": [{}, [], ""],
    " pad ": " x\n\ty ",
}
GOLDEN_VALUE_XML = (
    "<value><struct>"
    "<member><name>name</name><value><string>unicode ✓ &lt;&amp;&gt; \"q\" ]]&gt;"
    "</string></value></member>"
    "<member><name>n</name><value><array><data><value><int>0</int></value>"
    "<value><int>-17</int></value><value><int>2147483647</int></value>"
    "<value><i8>2147483648</i8></value><value><int>-2147483648</int></value>"
    "<value><i8>-2147483649</i8></value><value><i8>1099511627776</i8></value>"
    "</data></array></value></member>"
    "<member><name>f</name><value><array><data><value><double>3.5</double></value>"
    "<value><double>-0.0</double></value><value><double>1e+300</double></value>"
    "</data></array></value></member>"
    "<member><name>flags</name><value><array><data><value><boolean>1</boolean></value>"
    "<value><boolean>0</boolean></value><value><nil/></value></data></array></value>"
    "</member>"
    "<member><name>blob</name><value><base64>AAFiaW5hcnn/</base64></value></member>"
    "<member><name>when</name><value><dateTime.iso8601>20050614T12:30:45"
    "</dateTime.iso8601></value></member>"
    "<member><name>empty</name><value><array><data><value><struct></struct></value>"
    "<value><array><data></data></array></value><value><string></string></value>"
    "</data></array></value></member>"
    "<member><name> pad </name><value><string> x\n\ty </string></value></member>"
    "</struct></value>")


class TestGoldenBytes:
    """Paper-mode bytes, frozen from the two-walk encoder this one replaced."""

    def test_response(self):
        assert CODEC.encode_response(RPCResponse.from_result(GOLDEN_VALUE)) == (
            "<?xml version='1.0'?><methodResponse><params><param>"
            f"{GOLDEN_VALUE_XML}</param></params></methodResponse>").encode()

    def test_request(self):
        request = RPCRequest("file.read", ["/data/events.dat", 1024, GOLDEN_VALUE])
        assert CODEC.encode_request(request) == (
            "<?xml version='1.0'?><methodCall><methodName>file.read</methodName>"
            "<params><param><value><string>/data/events.dat</string></value></param>"
            "<param><value><int>1024</int></value></param>"
            f"<param>{GOLDEN_VALUE_XML}</param></params></methodCall>").encode()

    def test_fault(self):
        fault = Fault(403, "access to <file.read> denied & logged")
        assert CODEC.encode_response(RPCResponse.from_fault(fault)) == (
            b"<?xml version='1.0'?><methodResponse><fault><value><struct>"
            b"<member><name>faultCode</name><value><int>403</int></value></member>"
            b"<member><name>faultString</name><value><string>access to "
            b"&lt;file.read&gt; denied &amp; logged</string></value></member>"
            b"</struct></value></fault></methodResponse>")

    def test_multicall_is_byte_identical_to_the_entry_list_request(self):
        rng = random.Random(14)
        calls = [("system.echo", [_random_value(rng, 3)]) for _ in range(20)]
        calls += [("m\rn", ["a\r\nb", {"k\r": [b"\x00", None]}]), ("file.read", [])]
        entries = [{"methodName": m, "params": p} for m, p in calls]
        assert CODEC.encode_multicall(calls) == CODEC.encode_request(
            RPCRequest("system.multicall", (entries,)))


# -- what the text channel carries --------------------------------------------------

class TestTextSurvives:
    """XML line-end normalisation folds a raw ``\\r`` into ``\\n``; shell
    output and text file content cross this path, so ``\\r`` travels as a
    character reference."""

    TEXTS = ["a\r\nb", "a\rb", "\r", "\r\n\r\n", " lead", "trail \n", "\t\n x \r ",
             "]]>", "<![CDATA[x]]>", "&#13;", ""]

    @pytest.mark.parametrize("text", TEXTS, ids=repr)
    def test_string_value_round_trips(self, text):
        assert CODEC.decode_response(_reply(text)).result == text
        request = CODEC.decode_request(CODEC.encode_request(RPCRequest("m", [text])))
        assert request.params == (text,)

    @pytest.mark.parametrize("text", [t for t in TEXTS if t], ids=repr)
    def test_struct_name_round_trips(self, text):
        assert CODEC.decode_response(_reply({text: 1})).result == {text: 1}

    def test_method_name_keeps_an_inner_carriage_return(self):
        decoded = CODEC.decode_request(CODEC.encode_request(RPCRequest("a\rb")))
        assert decoded.method == "a\rb"

    def test_carriage_return_is_a_character_reference_on_the_wire(self):
        assert b"<string>a&#13;\nb</string>" in _reply("a\r\nb")
        assert b"\r" not in _reply({"k\r": "\r"})

    def test_base64_with_line_breaks_decodes(self):
        body = (b"<?xml version='1.0'?><methodResponse><params><param><value>"
                b"<base64>\n  AAFi\r\n  aW5h cnn/\n</base64></value></param></params>"
                b"</methodResponse>")
        assert CODEC.decode_response(body).result == b"\x00\x01binary\xff"


class TestTextXMLCannotCarry:
    BAD = ["\x01", "ok\x00", "\x0b", "\x1f", "\ud800", "tail\udfff", "\ufffe", "\uffff"]

    @pytest.mark.parametrize("text", BAD, ids=ascii)
    def test_encoder_refuses_with_protocol_error(self, text):
        for value in (text, [text], {"k": text}, {text: 1}):
            with pytest.raises(ProtocolError, match="cannot be carried"):
                _reply(value)
            with pytest.raises(ProtocolError, match="cannot be carried"):
                CODEC.encode_request(RPCRequest.from_wire("m", (value,), None))
            with pytest.raises(ProtocolError, match="cannot be carried"):
                CODEC.encode_multicall([("m", [value])])
        with pytest.raises(ProtocolError, match="cannot be carried"):
            CODEC.encode_request(RPCRequest.from_wire("m" + text, (), None))

    def test_tab_and_newline_are_legal(self):
        assert CODEC.decode_response(_reply("\t\n")).result == "\t\n"

    def test_fault_strings_always_encode(self):
        """A fault string quotes arbitrary text and is the last resort of
        every error path, so it is cleaned rather than refused."""

        body = CODEC.encode_response(
            RPCResponse.from_fault(Fault(500, "bad \x01 byte \ud800 in\rput")))
        fault = CODEC.decode_response(body).fault
        assert fault == Fault(500, "bad \ufffd byte \ufffd in\rput")

    def test_single_call_result_becomes_internal_error(self, server, client):
        server.registry.register("test.control", lambda: {"out": "a\x01b"})
        with pytest.raises(Fault) as raised:
            client.call("test.control")
        assert raised.value.code == FaultCode.INTERNAL_ERROR
        assert "cannot be carried" in raised.value.message
        assert client.call("system.ping") == "pong"

    def test_multicall_faults_only_the_offending_slot(self, server, client):
        server.registry.register("test.control", lambda: "a\x01b")
        server.registry.register("test.surrogate", lambda: ["\ud83d"])
        slots = client.multicall([("system.echo", ["before"]), ("test.control", []),
                                  ("system.echo", ["between"]), ("test.surrogate", []),
                                  ("no.such", []), ("system.echo", ["after"])])
        assert [slots[0], slots[2], slots[5]] == ["before", "between", "after"]
        for bad in (slots[1], slots[3]):
            assert isinstance(bad, Fault) and bad.code == FaultCode.INTERNAL_ERROR
            assert "cannot be carried" in bad.message
        assert isinstance(slots[4], Fault) and slots[4].code != FaultCode.INTERNAL_ERROR

    def test_client_side_request_is_refused_before_it_is_sent(self, server, client):
        served = server.pipeline.stats.snapshot()["requests"]
        with pytest.raises(ProtocolError, match="cannot be carried"):
            client.call("system.echo", "a\x01b")
        with pytest.raises(ProtocolError, match="cannot be carried"):
            client.multicall([("system.echo", ["\ud800"])])
        assert server.pipeline.stats.snapshot()["requests"] == served


# -- hostile nesting -------------------------------------------------------------

def _deep_call(levels: int) -> bytes:
    return ("<?xml version='1.0'?><methodCall><methodName>system.echo</methodName>"
            "<params><param>" + "<value><array><data>" * levels
            + "<value><int>7</int></value>" + "</data></array></value>" * levels
            + "</param></params></methodCall>").encode()


def _deep_reply(levels: int) -> bytes:
    return ("<?xml version='1.0'?><methodResponse><params><param>"
            + "<value><struct><member><name>k</name>" * levels + "<value>x</value>"
            + "</member></struct></value>" * levels
            + "</param></params></methodResponse>").encode()


class TestNestingCap:
    """The decoder enforces the type model's cap itself, so no body can
    recurse it: depth 65 and depth 2000 are the same protocol error."""

    def test_cap_depth_is_accepted(self):
        value = CODEC.decode_request(_deep_call(MAX_NESTING)).params[0]
        assert validate_value(value) is value
        assert CODEC.decode_response(_deep_reply(MAX_NESTING)).result is not None
        assert CODEC.decode_response(_reply(_nested(MAX_NESTING))).result == _nested(
            MAX_NESTING)

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 2000])
    def test_deeper_is_a_protocol_error_in_both_directions(self, levels):
        with pytest.raises(ProtocolError, match="nesting exceeds 64"):
            CODEC.decode_request(_deep_call(levels))
        with pytest.raises(ProtocolError, match="nesting exceeds 64"):
            CODEC.decode_response(_deep_reply(levels))

    @pytest.mark.parametrize("body", [_deep_call(MAX_NESTING + 1), _deep_call(2000),
                                      b"<?xml version='1.0'?><methodCall><methodName>"
                                      b"\xff\xfe</methodName></methodCall>"],
                             ids=["depth65", "depth2000", "bad-utf8"])
    def test_loopback_answers_a_parse_fault(self, server, body):
        response = _rpc_post(server, body)
        assert response.status == 200
        fault = CODEC.decode_response(response.body_bytes()).fault
        assert fault is not None and fault.code == FaultCode.PARSE_ERROR

    def test_async_frontend_answers_then_serves_the_same_connection(
            self, server, alice_credential):
        login = ClarensClient.for_loopback(server.loopback())
        login.login_with_credential(alice_credential)

        def wire(body: bytes) -> bytes:
            headers = Headers({"Host": "x", "Content-Type": CODEC.content_type,
                               SESSION_HEADER: login.session_id})
            return HTTPRequest(method="POST", path=server.config.rpc_path(),
                               headers=headers, body=body).to_bytes()

        assert len(_deep_call(2000)) > 80_000
        with server.async_server() as frontend:
            with socket.create_connection(frontend.address, timeout=10) as sock:
                reader = _ResponseReader(sock)
                for hostile in (_deep_call(2000), _deep_call(MAX_NESTING + 1)):
                    sock.sendall(wire(hostile))
                    status, body = reader.read_response()
                    fault = CODEC.decode_response(body).fault
                    assert status == 200 and fault.code == FaultCode.PARSE_ERROR
                    sock.sendall(wire(CODEC.encode_request(
                        RPCRequest("system.echo", ["still here"]))))
                    status, body = reader.read_response()
                    assert status == 200
                    assert CODEC.decode_response(body).result == "still here"
                sock.sendall(wire(_deep_call(MAX_NESTING)))
                status, body = reader.read_response()
                assert CODEC.decode_response(body).result == _nested_arrays(MAX_NESTING)


def _nested_arrays(levels: int):
    value = 7
    for _ in range(levels):
        value = [value]
    return value


# -- the encoder is the validator -------------------------------------------------------

class TestEncoderValidates:
    """Same refusals, same text as ``validate_value`` — from the one walk."""

    CASES = [
        {1: "x"},
        {"ok": {("t",): 1}},
        _nested(MAX_NESTING + 1),
        [_nested(MAX_NESTING)],
        object(),
        ["fine", {"k": {1, 2}}],
        [bytearray(b"x")],
        _nested(MAX_NESTING, inner=object()),
    ]

    @pytest.mark.parametrize("value", CASES, ids=lambda v: type(v).__name__)
    def test_same_error_text_as_validate_value(self, value):
        with pytest.raises(ProtocolError) as expected:
            validate_value(value)
        for encode in (
                lambda: _reply(value),
                lambda: CODEC.encode_request(RPCRequest.from_wire("m", (value,), None))):
            with pytest.raises(ProtocolError) as raised:
                encode()
            assert str(raised.value) == str(expected.value)

    def test_what_validate_value_accepts_encodes(self):
        for value in (_nested(MAX_NESTING), _nested(MAX_NESTING, inner=[]),
                      _nested(MAX_NESTING, inner={}), (1, (2, (3,)))):
            validate_value(value)
            assert CODEC.decode_response(_reply(value)).result is not None

    def test_multicall_params_count_their_three_enclosing_containers(self):
        fits, too_deep = _nested(MAX_NESTING - 3), _nested(MAX_NESTING - 2)
        for value, ok in ((fits, True), (too_deep, False)):
            entries = [{"methodName": "m", "params": [value]}]
            generic = RPCRequest.from_wire("system.multicall", (entries,), None)
            if ok:
                assert CODEC.encode_multicall([("m", [value])]) == \
                    CODEC.encode_request(generic)
            else:
                for encode in (lambda: CODEC.encode_multicall([("m", [value])]),
                               lambda: CODEC.encode_request(generic)):
                    with pytest.raises(ProtocolError, match="nesting exceeds 64"):
                        encode()

    def test_codec_capabilities(self):
        """``validates_on_encode`` is what the pipeline reads to skip its
        result walk; ``spliceable`` keeps meaning "has a fragment memo"."""

        assert XMLRPCCodec.validates_on_encode and BinaryCodec.validates_on_encode
        assert BinaryCodec.spliceable
        assert not getattr(XMLRPCCodec(), "spliceable", False)


class TestPipelineWalksOnce:
    @pytest.fixture()
    def walks(self, monkeypatch):
        """Count top-level ``validate_value`` walks."""

        seen = []
        real = types_module.validate_value

        def counting(value, *, _depth=0):
            if _depth == 0:
                seen.append(value)
            return real(value, _depth=_depth)

        monkeypatch.setattr(types_module, "validate_value", counting)
        return seen

    def test_xmlrpc_call_over_http_never_runs_the_separate_walk(
            self, server, client, walks):
        session_id = client.session_id
        body = CODEC.encode_request(RPCRequest.from_wire("system.list_methods", (), None))
        response = _rpc_post(server, body, session_id)
        assert len(CODEC.decode_response(response.body_bytes()).result) > 30
        assert walks == []

    def test_unencodable_result_is_still_an_internal_error(self, server, client, walks):
        server.registry.register("test.bad_type", lambda: {"handle": object()})
        server.registry.register("test.bad_key", lambda: {7: "x"})
        for method, text in (("test.bad_type", "type object is not representable in RPC"),
                             ("test.bad_key", "struct keys must be strings, got int")):
            body = CODEC.encode_request(RPCRequest.from_wire(method, (), None))
            fault = CODEC.decode_response(
                _rpc_post(server, body, client.session_id).body_bytes()).fault
            assert fault.code == FaultCode.INTERNAL_ERROR and text in fault.message
        assert walks == []          # caught by the encoder, not by a second walk

    def test_execute_keeps_its_validate_result_switch(self, server, client):
        server.registry.register("test.bad_type", lambda: object())
        request = RPCRequest("test.bad_type")
        http = HTTPRequest(method="POST", path=server.config.rpc_path(),
                           headers=Headers({SESSION_HEADER: client.session_id}))
        checked = server.pipeline.execute(request, http_request=http)
        assert checked.response.is_fault
        assert checked.response.fault.code == FaultCode.INTERNAL_ERROR
        unchecked = server.pipeline.execute(request, http_request=http,
                                            validate_result=False)
        assert not unchecked.response.is_fault      # the caller owns the check
        with pytest.raises(ProtocolError):
            CODEC.encode_response(unchecked.response)


# -- differential against the standard library ------------------------------------------

def _random_value(rng: random.Random, depth: int):
    kinds = ["none", "bool", "int", "i8", "float", "str", "bytes", "date"]
    if depth > 0:
        kinds += ["list", "dict"] * 2
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice([0, -1, 2**31 - 1, -(2**31), rng.randrange(-10**6, 10**6)])
    if kind == "i8":
        return rng.choice([2**31, -(2**31) - 1, 2**63 - 1, -(2**63), rng.getrandbits(60)])
    if kind == "float":
        return rng.choice([0.0, -2.5, 1e300, 1e-300, rng.uniform(-1e6, 1e6)])
    if kind == "str":
        alphabet = "abc <>&\"'\r\n\t ]é✓\U0001f600"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
    if kind == "bytes":
        return rng.randbytes(rng.randrange(0, 40))
    if kind == "date":
        return dt.datetime(2005, 6, 14) + dt.timedelta(seconds=rng.randrange(10**8))
    if kind == "list":
        return [_random_value(rng, depth - 1) for _ in range(rng.randrange(0, 4))]
    return {"k%d\r" % i if rng.random() < 0.1 else "k%d" % i: _random_value(rng, depth - 1)
            for i in range(rng.randrange(0, 4))}


def _reference(body: bytes):
    """The standard library's reading of a response body."""

    (value,), _ = xmlrpc.client.loads(body, use_builtin_types=True)
    return value


class TestDifferential:
    """On every spec-shaped body both decoders accept, they agree."""

    def test_seeded_values_agree_with_the_reference(self, test_seed):
        rng = random.Random(test_seed)
        for _ in range(150):
            value = _random_value(rng, 4)
            ours = _reply(value)
            assert CODEC.decode_response(ours).result == value == _reference(ours)
            # ...and on the body the reference encoder writes for the same
            # value (it has no i8, and says so with OverflowError).
            try:
                theirs = xmlrpc.client.dumps((value,), methodresponse=True,
                                             allow_none=True).encode()
            except OverflowError:
                continue
            assert CODEC.decode_response(theirs).result == _reference(theirs)

    def test_nesting_to_the_cap_agrees(self):
        for value in (_nested(MAX_NESTING), _nested_arrays(MAX_NESTING),
                      _nested(MAX_NESTING, inner=[]), _nested(MAX_NESTING, inner={})):
            body = _reply(value)
            assert CODEC.decode_response(body).result == value == _reference(body)

    @pytest.mark.parametrize("inner,expected", [
        ("<value>bare text</value>", "bare text"),
        ("<value></value>", ""),
        ("<value> </value>", " "),
        ("<value><i4>-5</i4></value>", -5),
        ("<value><i8>9223372036854775807</i8></value>", 2**63 - 1),
        ("<value><i8>-9223372036854775808</i8></value>", -(2**63)),
        ("<value><int> 12 </int></value>", 12),
        ("<value><int>\n+7\n</int></value>", 7),
        ("<value><double> 2.5 </double></value>", 2.5),
        ("<value><double>-1e3</double></value>", -1000.0),
        ("<value><boolean>1</boolean></value>", True),
        ("<value><boolean>0</boolean></value>", False),
        ("<value>\n  <string>padded</string>\n</value>", "padded"),
        ("<value><string> kept </string></value>", " kept "),
        ("<value><string/></value>", ""),
        ("<value><nil/></value>", None),
        ("<value><base64>\nAAFiaW5h\ncnn/\n</base64></value>", b"\x00\x01binary\xff"),
        ("<value><base64/></value>", b""),
        ("<value><dateTime.iso8601>20050614T12:30:45</dateTime.iso8601></value>",
         dt.datetime(2005, 6, 14, 12, 30, 45)),
        ("<value><array><data/></array></value>", []),
        ("<value><array>\n<data>\n<value><i4>1</i4></value>\n<value>two</value>\n"
         "</data>\n</array></value>", [1, "two"]),
        ("<value><struct/></value>", {}),
        ("<value><struct>\n<member>\n<name>a</name>\n<value><i4>1</i4></value>\n"
         "</member>\n<member><name>b</name><value>bare</value></member>\n"
         "</struct></value>", {"a": 1, "b": "bare"}),
        ("<value><struct><member><name>dup</name><value>1</value></member>"
         "<member><name>dup</name><value>2</value></member></struct></value>",
         {"dup": "2"}),
    ], ids=lambda case: case if isinstance(case, str) else None)
    def test_wire_variants(self, inner, expected):
        body = (f"<?xml version='1.0'?><methodResponse><params><param>{inner}"
                f"</param></params></methodResponse>").encode()
        ours = CODEC.decode_response(body).result
        assert ours == expected and type(ours) is type(expected)
        assert _reference(body) == expected
