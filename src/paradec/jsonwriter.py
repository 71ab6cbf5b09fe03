"""The one JSON writer behind every document paradec prints or writes.

Any ``indent`` sends the standard library's encoder down its pure-Python
path, a generator that yields one chunk per value and separator.
:class:`JsonWriter` builds the same text with ``str.join`` and the C string
escaper instead: one string per small container, and one list of pieces,
joined once, for the document around them.  It writes str keys and str,
int, bool, None, list, tuple and dict values, which is all paradec's
documents hold; a document with anything else (a float, a non-str key, a
value that needs ``default``) is handed whole to
:class:`json.JSONEncoder`.  So for any settings with an indent the output,
and any error, is the standard encoder's; ``tests/oracles.py:dumps_oracle``
is that reference.  paradec reaches it as
``json.dumps(obj, cls=JsonWriter, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring, encode_basestring_ascii


class _Defer(Exception):
    """The document holds a key or value the writer leaves to the standard
    encoder."""


class JsonWriter(json.JSONEncoder):
    """:class:`json.JSONEncoder` with a join-based indented writer.

    Without an indent the standard encoder, already in C, writes the text.
    The writer does not look for reference cycles: a cyclic value recurses
    until :class:`RecursionError`, and the standard encoder then reports
    it.
    """

    def encode(self, o) -> str:
        if self.indent is not None:
            try:
                return self._writer()(o)
            except (_Defer, RecursionError):
                pass
        return super().encode(o)

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
        keeps the peak memory near the standard encoder's.  Both raise
        :class:`_Defer` on a key or value outside the set they write."""
        indent = self.indent if isinstance(self.indent, str) else " " * self.indent
        escape = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        item_separator, key_separator = self.item_separator, self.key_separator
        sort_keys = self.sort_keys
        int_text = int.__repr__

        def entries(o: dict) -> list:
            """(escaped key and key separator, value) of each key."""
            written = []
            for key, value in sorted(o.items()) if sort_keys else o.items():
                if not isinstance(key, str):
                    raise _Defer
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
            raise _Defer

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
