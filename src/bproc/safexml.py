"""XML parsing for model documents, with document type declarations refused.

Neither BPMN nor DMN needs a DTD. Refusing any `<!DOCTYPE …>` before its
body is read closes internal-entity expansion ("billion laughs") and
external-DTD inputs without a third-party parser. A declaration can only
come before the root element, so a first expat pass reads the prolog and
stops at the root's start tag; the document itself is then parsed by
ElementTree's plain C tree builder, which calls no Python per element.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.parsers import expat

from .errors import SchemaError


class _RootReached(Exception):
    """Internal: the prolog pass reached the root element."""


def _doctype(name, sysid, pubid, has_internal_subset):
    raise SchemaError(f"document type declarations are not accepted (<!DOCTYPE {name}>)")


def _root(name, attributes):
    raise _RootReached()


def _refuse_doctype(data: bytes | str) -> None:
    """Read the prolog of a document, configured as ElementTree's parser
    is, and raise SchemaError at a document type declaration."""
    parser = expat.ParserCreate(None, "}")
    parser.StartDoctypeDeclHandler = _doctype
    parser.StartElementHandler = _root
    try:
        parser.Parse(data, True)
    except _RootReached:
        pass


def fromstring(data: bytes | str, what: str) -> ET.Element:
    """Parse one document; `what` ("BPMN", "DMN") names it in errors.

    An XML declaration naming an encoding expat cannot use (unknown, not a
    text encoding, or multi-byte, such as UTF-32 or Shift-JIS) makes the
    parser raise LookupError or ValueError; such a document is malformed
    too.
    """
    try:
        _refuse_doctype(data)
        return ET.fromstring(data)
    except (ET.ParseError, expat.ExpatError, LookupError, ValueError) as exc:
        raise SchemaError(f"malformed {what} XML: {exc}") from exc


class LocalNames(dict):
    """Element tag -> its local name (the tag without its `{namespace}`),
    worked out once per distinct tag of one document."""

    def __missing__(self, tag: str) -> str:
        local = self[tag] = tag.rsplit("}", 1)[-1]
        return local
