"""XML parsing for model documents, with document type declarations refused.

Neither BPMN nor DMN needs a DTD. Refusing any `<!DOCTYPE …>` before its
body is read closes internal-entity expansion ("billion laughs") and
external-DTD inputs without a third-party parser.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .errors import SchemaError


class _NoDoctype(ET.TreeBuilder):
    def doctype(self, name, pubid, system):
        raise SchemaError(f"document type declarations are not accepted "
                          f"(<!DOCTYPE {name}>)")


def fromstring(data: bytes | str, what: str) -> ET.Element:
    """Parse one document; `what` ("BPMN", "DMN") names it in errors."""
    try:
        return ET.fromstring(data, parser=ET.XMLParser(target=_NoDoctype()))
    except ET.ParseError as exc:
        raise SchemaError(f"malformed {what} XML: {exc}") from exc
