"""JSON text a row at a time: the layout of every file pfdual writes, and
the reading of its large tables.

`Reader` decodes the one object of a file member by member with
`json.JSONDecoder.raw_decode`, and a table in it a block of rows or
members at a time, never as one document of one string per entry.
`pieces`, `joined` and `document` lay out values already in JSON exactly as
`json.dumps(..., indent=2)` does, joining the whole text once.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator

encode = json.encoder.encode_basestring_ascii
_skip_space = json.decoder.WHITESPACE.match
_decoder = json.JSONDecoder()


def pieces(brackets: str, items: Iterable[str], depth: int) -> Iterator[str]:
    """The text json.dumps(..., indent=2) gives a list (brackets "[]") or an
    object ("{}") this deep, in pieces, from its items already in JSON:
    values, or an object's `key: value` members."""
    pad = "\n" + "  " * (depth + 1)
    separator = brackets[0] + pad
    for item in items:
        yield separator
        yield item
        separator = "," + pad
    yield brackets if separator[0] == brackets[0] else "\n" + "  " * depth + brackets[1]


def joined(brackets: str, items: Iterable[str], depth: int) -> str:
    return "".join(pieces(brackets, items, depth))


def document(members: Iterable[tuple[str, Iterable[str]]]) -> str:
    """json.dumps(..., indent=2) and a newline of a top-level object, from
    its keys and each value in pieces, joined once."""
    text: list[str] = []
    for key, value in members:
        text += (",\n  " if text else "{\n  ", encode(key), ": ")
        text.extend(value)
    text.append("\n}\n")
    return "".join(text)


class Unread(ValueError):
    """Text that a Reader's caller leaves to json.loads."""


class Reader:
    """A cursor over text holding one JSON object.  Whatever it does not
    expect raises Unread, or the JSONDecodeError of the text at the
    cursor."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = _skip_space(text, 0).end()

    def skip(self, char: str) -> None:
        """Step over char, which must be next, and the space after it."""
        if not self.text.startswith(char, self.pos):
            raise Unread
        self.pos = _skip_space(self.text, self.pos + 1).end()

    def value(self) -> Any:
        value, end = _decoder.raw_decode(self.text, self.pos)
        self.pos = _skip_space(self.text, end).end()
        return value

    def members(self) -> Iterator[str]:
        """Each key of the object, which must end the text and hold each
        key once; the caller reads its value before it asks for the next."""
        self.skip("{")
        seen: set[str] = set()
        while not self.text.startswith("}", self.pos):
            if seen:
                self.skip(",")
            key = self.value()
            if not isinstance(key, str) or key in seen:
                raise Unread
            seen.add(key)
            self.skip(":")
            yield key
        self.skip("}")
        if self.pos != len(self.text):
            raise Unread

    def blocks(self, brackets: str, size: int) -> Iterator[Any]:
        """The object (brackets "{}") or the list of lists ("[]") at the
        cursor, as dicts or lists of consecutive items, each about size
        characters of text.  A block ends at a comma that ends a line, after
        a ']' in a list: no JSON string holds a line break, so when the text
        up to that comma decodes as items, the comma ends one."""
        text, (opening, closing) = self.text, brackets
        mark = ",\n" if opening == "{" else "],\n"
        self.skip(opening)
        while True:
            start = self.pos
            cut = text.find(mark, start + size)
            comma = cut + len(mark) - 2
            piece = opening + (text[start:comma] + closing if cut != -1 else text[start:])
            block, end = _decoder.raw_decode(piece)
            yield block
            if cut == -1 or end < len(piece):  # the object or list closed inside the piece
                self.pos = _skip_space(text, start + end - 1).end()
                return
            self.pos = _skip_space(text, comma + 1).end()
            if text.startswith(closing, self.pos):  # that comma ended the last item
                raise Unread
