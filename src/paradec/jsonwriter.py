"""The one JSON writer behind every document paradec prints or writes.

Any ``indent`` sends the standard library's encoder down its pure-Python
path, a generator that yields one chunk per value and separator.
:class:`JsonWriter` builds the same text with ``str.join`` and the C string
escaper instead: one string per small container, and one list of pieces,
joined once, for the document around them.  For any settings with an
indent its output is byte-identical to :class:`json.JSONEncoder`'s;
``tests/oracles.py:dumps_oracle`` is that reference.  paradec reaches it as
``json.dumps(obj, cls=JsonWriter, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring, encode_basestring_ascii

_INFINITY = float("inf")


class JsonWriter(json.JSONEncoder):
    """:class:`json.JSONEncoder` with a join-based indented writer.

    Without an indent the standard encoder, already in C, writes the text.
    Unlike it, the writer does not look for reference cycles: paradec's
    payloads are trees, and a cyclic value recurses until
    :class:`RecursionError`.
    """

    def encode(self, o) -> str:
        if self.indent is None:
            return super().encode(o)
        return self._writer()(o)

    def _writer(self):
        """The writer of one document under these settings.

        ``text(o, newline)`` is the text of ``o``, whose lines start with
        ``newline`` (the line break and the indent of ``o``'s level), built
        by joining its items' texts.  The document itself is assembled by
        ``write`` as a list of pieces joined once at the end: a dict, or a
        list whose first item is not a string, is laid out piece by piece,
        and any other value is one piece from ``text``.  So the large
        containers (a certificate's rows, an audit's edge lists) are never
        copied into a string of their own before the document is, which
        keeps the peak memory near the standard encoder's."""
        indent = self.indent if isinstance(self.indent, str) else " " * self.indent
        escape = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        item_separator, key_separator = self.item_separator, self.key_separator
        sort_keys, skipkeys, allow_nan = self.sort_keys, self.skipkeys, self.allow_nan
        default = self.default
        int_text, float_repr = int.__repr__, float.__repr__

        def float_text(o: float) -> str:
            if o != o:
                special = "NaN"
            elif o == _INFINITY:
                special = "Infinity"
            elif o == -_INFINITY:
                special = "-Infinity"
            else:
                return float_repr(o)
            if not allow_nan:
                raise ValueError(
                    "Out of range float values are not JSON compliant: " + repr(o)
                )
            return special

        def key_text(key) -> "str | None":
            """A key's text before escaping; None for a key skipped."""
            if isinstance(key, str):
                return key
            if isinstance(key, float):
                return float_text(key)
            if key is True:
                return "true"
            if key is False:
                return "false"
            if key is None:
                return "null"
            if isinstance(key, int):
                return int_text(key)
            if skipkeys:
                return None
            raise TypeError(
                f"keys must be str, int, float, bool or None, "
                f"not {key.__class__.__name__}"
            )

        def entries(o: dict) -> list:
            """(escaped key and key separator, value) of each key written."""
            written = []
            for key, value in sorted(o.items()) if sort_keys else o.items():
                key = key_text(key)
                if key is not None:
                    written.append((escape(key) + key_separator, value))
            return written

        def text(o, newline: str) -> str:
            if isinstance(o, str):
                return escape(o)
            if isinstance(o, (list, tuple)):
                if not o:
                    return "[]"
                inner = newline + indent
                items = [escape(v) if type(v) is str else text(v, inner) for v in o]
                return f"[{inner}{(item_separator + inner).join(items)}{newline}]"
            if isinstance(o, dict):
                if not o:
                    return "{}"
                inner = newline + indent
                items = [key + text(value, inner) for key, value in entries(o)]
                return f"{{{inner}{(item_separator + inner).join(items)}{newline}}}"
            if o is None:
                return "null"
            # bool before int: True is an int
            if o is True:
                return "true"
            if o is False:
                return "false"
            if isinstance(o, int):
                return int_text(o)
            if isinstance(o, float):
                return float_text(o)
            return text(default(o), newline)

        parts: list[str] = []
        append = parts.append

        def write(o, newline: str) -> None:
            """Append the text of ``o`` to ``parts``."""
            if isinstance(o, (list, tuple)) and o and type(o[0]) is not str:
                inner = newline + indent
                separator = item_separator + inner
                for i, value in enumerate(o):
                    append(separator if i else "[" + inner)
                    write(value, inner)
                append(newline + "]")
            elif isinstance(o, dict) and o:
                inner = newline + indent
                separator = item_separator + inner
                append("{" + inner)
                for i, (key, value) in enumerate(entries(o)):
                    append(separator + key if i else key)
                    write(value, inner)
                append(newline + "}")
            else:
                append(text(o, newline))

        def document(o) -> str:
            write(o, "\n")
            return "".join(parts)

        return document
