"""XML-RPC codec, implemented from scratch.

XML-RPC is the protocol the paper's performance test uses ("serializing the
resultant list of more than 30 strings as an array response in XML-RPC"),
so both directions walk each value exactly once:

* the encoder builds a list of string fragments and *validates while it
  writes* — a non-string struct name, nesting past the type model's cap, a
  type outside the model or a character XML 1.0 cannot carry raises
  :class:`ProtocolError` from the same walk that serialises, so callers need
  no ``validate_value`` pre-pass (``validates_on_encode``);
* the decoder is *constructive* — over the C-accelerated
  :mod:`xml.etree.ElementTree` parse it can only build model types, it
  enforces the nesting cap itself (so a hostile body cannot recurse it) and
  struct names are always strings, so its output needs no validation walk.
"""

from __future__ import annotations

import base64
import datetime as _dt
import re
import xml.etree.ElementTree as ET
from typing import Any

from repro.protocols.errors import Fault, ProtocolError
from repro.protocols.types import (MAX_NESTING, RPCRequest, RPCResponse,
                                   key_type_error, nesting_error,
                                   value_type_error)

__all__ = ["XMLRPCCodec"]

_ISO_FORMAT = "%Y%m%dT%H:%M:%S"

#: Characters XML 1.0 has no way to carry, not even as a character
#: reference: C0 controls other than tab/LF/CR, surrogates, U+FFFE/U+FFFF.
_ILLEGAL_CLASS = "\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_ILLEGAL_RE = re.compile(f"[{_ILLEGAL_CLASS}]")
#: One scan decides whether text can be written as is (the common case).
_needs_attention = re.compile(f"[&<>\r{_ILLEGAL_CLASS}]").search


def _escape(text: str) -> str:
    """``text`` as XML character data; raises for what XML cannot carry.

    A raw carriage return would be folded into ``\\n`` by every XML parser's
    line-end normalisation, so it travels as a character reference.
    """

    if _needs_attention(text) is None:
        return text
    bad = _ILLEGAL_RE.search(text)
    if bad is not None:
        raise ProtocolError(
            f"character {bad.group()!r} cannot be carried in XML-RPC text; "
            f"send it as bytes")
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _encode_value(value: Any, out: list[str], depth: int = 0) -> None:
    """Append the ``<value>...</value>`` encoding of ``value`` to ``out``.

    Raises the errors :func:`~repro.protocols.types.validate_value` would,
    from this one walk.  ``depth`` is the nesting level of ``value`` itself.
    """

    # Ordered by how often each kind travels (the Figure 4 method list is
    # all strings; batches are containers of strings and ints); the order
    # changes no encoding, since no value is an instance of two branches
    # except bool, which is told apart inside the int branch.
    if isinstance(value, str):
        out.append(f"<value><string>{_escape(value)}</string></value>")
    elif isinstance(value, int):
        if isinstance(value, bool):
            out.append(f"<value><boolean>{1 if value else 0}</boolean></value>")
        elif -(2**31) <= value < 2**31:
            out.append(f"<value><int>{value}</int></value>")
        else:
            # XML-RPC ints are 32-bit; larger values travel as i8 (a common
            # extension also used by the original Clarens Python client).
            out.append(f"<value><i8>{value}</i8></value>")
    elif isinstance(value, dict):
        if value and depth >= MAX_NESTING:
            raise nesting_error()
        out.append("<value><struct>")
        depth += 1
        for key, item in value.items():
            if not isinstance(key, str):
                raise key_type_error(key)
            out.append(f"<member><name>{_escape(key)}</name>")
            _encode_value(item, out, depth)
            out.append("</member>")
        out.append("</struct></value>")
    elif isinstance(value, (list, tuple)):
        if value and depth >= MAX_NESTING:
            raise nesting_error()
        out.append("<value><array><data>")
        depth += 1
        for item in value:
            _encode_value(item, out, depth)
        out.append("</data></array></value>")
    elif value is None:
        out.append("<value><nil/></value>")
    elif isinstance(value, float):
        out.append(f"<value><double>{value!r}</double></value>")
    elif isinstance(value, bytes):
        out.append(f"<value><base64>{base64.b64encode(value).decode('ascii')}"
                   f"</base64></value>")
    elif isinstance(value, _dt.datetime):
        out.append(f"<value><dateTime.iso8601>{value.strftime(_ISO_FORMAT)}"
                   f"</dateTime.iso8601></value>")
    else:
        raise value_type_error(value)


def _decode_value(element: ET.Element, depth: int = 0) -> Any:
    """Decode a ``<value>`` element sitting at nesting level ``depth``."""

    if not len(element):
        # Bare text inside <value> is a string per the XML-RPC spec.
        return element.text or ""
    node = element[0]
    tag = node.tag
    if tag == "string":
        return node.text or ""
    if tag == "struct":
        if depth >= MAX_NESTING and len(node):
            raise nesting_error()
        depth += 1
        result: dict[str, Any] = {}
        for member in node:
            if member.tag != "member":
                continue
            name_el = member.find("name")
            value_el = member.find("value")
            if name_el is None or value_el is None:
                raise ProtocolError("struct member missing <name> or <value>")
            result[name_el.text or ""] = _decode_value(value_el, depth)
        return result
    if tag == "array":
        data = node.find("data")
        if data is None:
            raise ProtocolError("array without <data>")
        if depth >= MAX_NESTING and len(data):
            raise nesting_error()
        depth += 1
        return [_decode_value(item, depth) for item in data
                if item.tag == "value"]
    text = node.text or ""
    if tag == "int" or tag == "i4" or tag == "i8":
        try:
            return int(text)
        except ValueError as exc:
            raise ProtocolError(f"invalid integer value {text!r}") from exc
    if tag == "boolean":
        stripped = text.strip()
        if stripped not in ("0", "1"):
            raise ProtocolError(f"invalid boolean value {text!r}")
        return stripped == "1"
    if tag == "double":
        try:
            return float(text)
        except ValueError as exc:
            raise ProtocolError(f"invalid double value {text!r}") from exc
    if tag == "nil":
        return None
    if tag == "base64":
        try:
            # Non-alphabet characters (line breaks, spaces) are skipped by
            # the decoder itself.
            return base64.b64decode(text)
        except ValueError as exc:
            raise ProtocolError(f"invalid base64 value: {exc}") from exc
    if tag == "dateTime.iso8601":
        try:
            return _dt.datetime.strptime(text.strip(), _ISO_FORMAT)
        except ValueError as exc:
            raise ProtocolError(f"invalid dateTime value {text!r}") from exc
    raise ProtocolError(f"unknown XML-RPC value tag {tag!r}")


def _parse_xml(body: bytes | str) -> ET.Element:
    try:
        if isinstance(body, bytes):
            body = body.decode("utf-8", errors="strict")
        return ET.fromstring(body)
    except (ET.ParseError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed XML: {exc}") from exc


def _finish(out: list[str]) -> bytes:
    return "".join(out).encode("utf-8")


class XMLRPCCodec:
    """Encode/decode XML-RPC requests and responses."""

    name = "xml-rpc"
    content_type = "text/xml"
    #: Encoding raises :class:`ProtocolError` for any value outside the type
    #: model, so a caller that is about to encode may skip the separate
    #: ``validate_value`` walk (the pipeline's invoke stage reads this).
    validates_on_encode = True

    # -- requests ------------------------------------------------------------
    def encode_request(self, request: RPCRequest) -> bytes:
        out: list[str] = [
            "<?xml version='1.0'?>",
            "<methodCall><methodName>",
            _escape(request.method),
            "</methodName><params>",
        ]
        for param in request.params:
            out.append("<param>")
            _encode_value(param, out)
            out.append("</param>")
        out.append("</params></methodCall>")
        return _finish(out)

    def decode_request(self, body: bytes | str) -> RPCRequest:
        root = _parse_xml(body)
        if root.tag != "methodCall":
            raise ProtocolError(f"expected <methodCall>, found <{root.tag}>")
        name_el = root.find("methodName")
        method = (name_el.text or "").strip() if name_el is not None else ""
        if not method:
            raise ProtocolError("missing <methodName>")
        params: list[Any] = []
        params_el = root.find("params")
        if params_el is not None:
            for param in params_el.findall("param"):
                value_el = param.find("value")
                if value_el is None:
                    raise ProtocolError("<param> without <value>")
                params.append(_decode_value(value_el))
        return RPCRequest.from_wire(method, tuple(params), None)

    def encode_multicall(self, calls, call_id: Any = None) -> bytes:
        """Serialise a ``system.multicall`` batch straight into one body.

        Byte-identical to :meth:`encode_request` over the equivalent
        ``[{"methodName": ..., "params": [...]}]`` entry list, but writes
        the boilerplate fragments directly instead of building the
        intermediate dicts.  Params sit three containers deep (batch array,
        entry struct, params array).
        """

        out: list[str] = [
            "<?xml version='1.0'?>",
            "<methodCall><methodName>system.multicall</methodName><params>",
            "<param><value><array><data>",
        ]
        for method, params in calls:
            out.append("<value><struct><member><name>methodName</name>")
            _encode_value(method, out, 2)
            out.append("</member><member><name>params</name>")
            out.append("<value><array><data>")
            for param in params:
                _encode_value(param, out, 3)
            out.append("</data></array></value></member></struct></value>")
        out.append("</data></array></value></param></params></methodCall>")
        return _finish(out)

    # -- responses -----------------------------------------------------------
    def encode_response(self, response: RPCResponse) -> bytes:
        out: list[str] = ["<?xml version='1.0'?>", "<methodResponse>"]
        if response.is_fault:
            assert response.fault is not None
            # A fault string is diagnostic text that may quote anything; it
            # must always encode, so what XML cannot carry is replaced.
            message = _ILLEGAL_RE.sub("\ufffd", response.fault.message)
            out.append("<fault>")
            _encode_value({"faultCode": response.fault.code, "faultString": message}, out)
            out.append("</fault>")
        else:
            out.append("<params><param>")
            _encode_value(response.result, out)
            out.append("</param></params>")
        out.append("</methodResponse>")
        return _finish(out)

    def decode_response(self, body: bytes | str) -> RPCResponse:
        root = _parse_xml(body)
        if root.tag != "methodResponse":
            raise ProtocolError(f"expected <methodResponse>, found <{root.tag}>")
        fault_el = root.find("fault")
        if fault_el is not None:
            value_el = fault_el.find("value")
            if value_el is None:
                raise ProtocolError("<fault> without <value>")
            payload = _decode_value(value_el)
            if not isinstance(payload, dict):
                raise ProtocolError("fault payload must be a struct")
            try:
                code = int(payload.get("faultCode", 0))
            except (TypeError, ValueError) as exc:
                raise ProtocolError("faultCode must be an integer") from exc
            return RPCResponse.from_fault(
                Fault(code, str(payload.get("faultString", ""))))
        params_el = root.find("params")
        if params_el is None:
            raise ProtocolError("response has neither <params> nor <fault>")
        params = params_el.findall("param")
        if len(params) != 1:
            raise ProtocolError("XML-RPC responses carry exactly one <param>")
        value_el = params[0].find("value")
        if value_el is None:
            raise ProtocolError("<param> without <value>")
        return RPCResponse.from_result(_decode_value(value_el), validate=False)
