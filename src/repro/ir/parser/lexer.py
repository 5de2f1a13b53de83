"""Tokenizer for the ``.ll``-style textual IR."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional


class LexError(Exception):
    """Raised on malformed input characters."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}:{column}")
        self.line = line
        self.column = column


# Token kinds.
WORD = "word"          # keywords, opcodes, type names: define, i32, add, ...
LOCAL = "local"        # %name
GLOBAL = "global"      # @name
ATTR_GROUP = "attr_group"  # #0
INT = "int"            # integer literal (may be negative)
STRING = "string"      # "..." (operand bundle tags)
PUNCT = "punct"        # ( ) { } [ ] = , * :
METADATA = "metadata"  # !name or !0
EOF = "eof"

_SIGIL_KINDS = {"%": LOCAL, "@": GLOBAL, "#": ATTR_GROUP, "!": METADATA}

# One alternative per token shape; the groups named after a token kind
# (word, int, string, punct) yield that kind.  Digits are ASCII only, as
# in LLVM: ``str.isdigit`` would also take ``²`` and ``٣``.  Quoted names
# and strings may span lines without moving the line counter, and ``...``
# is a word (``.`` starts identifiers).
_SCAN = re.compile(
    r"(?P<newline>\n)"
    r"|[ \t\r]+"
    r"|;[^\n]*"
    r'|(?P<sigil>[%@#!])(?:"(?P<quoted>[^"]*)"|(?P<name>[-A-Za-z$._0-9]*))'
    r'|"(?P<string>[^"]*)"'
    r"|(?P<int>-?[0-9]+)"
    r"|(?P<word>[A-Za-z$._][A-Za-z$._0-9]*)"
    r"|(?P<punct>[(){}\[\]=,*:])"
    r"|(?P<error>.)"
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize the whole input, dropping comments."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _SCAN.finditer(source):
        group = match.lastgroup
        if group is None:  # blanks and comments
            continue
        if group == "newline":
            line += 1
            line_start = match.end()
            continue
        start = match.start()
        column = start - line_start + 1
        if group == "name" or group == "quoted":
            text = match[group]
            sigil = match["sigil"]
            if not text:
                if group == "name" and source.startswith('"', start + 1):
                    raise LexError("unterminated quoted name", line, column)
                raise LexError(f"empty name after {sigil!r}", line, column)
            append(Token(_SIGIL_KINDS[sigil], text, line, column))
        elif group == "error":
            if match[group] == '"':
                raise LexError("unterminated string", line, column)
            raise LexError(f"unexpected character {match[group]!r}", line, column)
        else:
            append(Token(group, match[group], line, column))
    append(Token(EOF, "", line, len(source) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with peek/expect helpers.

    The list ends in two EOF tokens, so a look one token ahead
    (``peek(1)``, ``at(kind, text, 1)``) is in range wherever the cursor
    stands: ``next`` never moves past the first EOF.
    """

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens + tokens[-1:]
        self._pos = 0

    def peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def at(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        token = self._tokens[self._pos + offset]
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token.kind != kind or (text is not None and token.text != text):
            return None
        if kind != EOF:
            self._pos += 1
        return token

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._tokens[self._pos]
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise SyntaxError(
                f"expected {wanted!r}, found {token.text!r} "
                f"at line {token.line}:{token.column}")
        if kind != EOF:
            self._pos += 1
        return token

    def at_eof(self) -> bool:
        return self._tokens[self._pos].kind == EOF
