"""The SQL lexer: one compiled pattern.

Produces a flat token list the recursive-descent parser consumes.  Keywords
are case-insensitive; identifiers keep their original case but compare
case-insensitively downstream (MySQL's default on most platforms).
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import List

from repro.errors import LexerError


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    PUNCT = "PUNCT"
    EOF = "EOF"


KEYWORDS = frozenset("""
    SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT OFFSET AS ON AND OR NOT
    JOIN INNER LEFT RIGHT FULL OUTER CROSS IN EXISTS BETWEEN LIKE IS NULL
    DISTINCT CASE WHEN THEN ELSE END UNION ALL INTERSECT EXCEPT WITH ASC
    DESC DATE INTERVAL DAY MONTH YEAR CAST EXTRACT TRUE FALSE OVER PARTITION
    ROWS SEMI ANTI GROUPING RECURSIVE
""".split())


@dataclass
class Token:
    __slots__ = ("type", "value", "position")

    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r})"


#: The token grammar as one alternation.  ``{digits}`` is the body of a
#: character class holding exactly the ``str.isdigit`` characters of the
#: text being lexed and ``{alpha}`` matches exactly ``str.isalpha`` or
#: ``_`` (see :func:`_pattern`); ``\s`` and ``\w`` are ``str.isspace``
#: and ``str.isalnum`` or ``_`` as they stand.  Each match skips the
#: whitespace, comments and ``;`` before one token; at the end of the
#: text it matches no group.  The ``open_*`` alternatives and ``other``
#: match where no token does and raise; with the catch-all last, every
#: position matches, so ``finditer`` walks the text without gaps.
_GRAMMAR = r"""
    (?: \s+ | --[^\n]*\n? | /\*[\s\S]*?\*/ | ; )*
    (?: (?P<open_comment> /\* )
  | (?P<string> '[^']*(?:''[^']*)*'(?!') )
  | (?P<number> (?:[{digits}]|\.(?=[{digits}])) [.{digits}]*
                (?:[eE][+-]?[{digits}]*)? )
  | (?P<word> {alpha}\w* )
  | (?P<quoted> `[^`]*` | "[^"]*" )
  | (?P<operator> <= | >= | <> | != | = | < | > | \+ | - | \* | / | %
                | \|\| )
  | (?P<punct> [(),.] )
  | (?P<open_string> ' )
  | (?P<open_quoted> [`"] )
  | (?P<other> [\s\S] ) | \Z )
"""

_TYPES = {
    "punct": TokenType.PUNCT,
    "operator": TokenType.OPERATOR,
    "number": TokenType.NUMBER,
}
_ERRORS = {
    "open_comment": "unterminated comment",
    "open_string": "unterminated string literal",
    "open_quoted": "unterminated quoted identifier",
}


@functools.lru_cache(maxsize=64)
def _grammar(extra_digits: str, not_alpha: str) -> "re.Pattern[str]":
    r"""The token pattern for a text whose characters outside ``\d``
    that ``str.isdigit`` accepts are ``extra_digits``, and whose word
    characters outside ``\d`` and ``_`` that ``str.isalpha`` rejects
    are ``not_alpha``."""
    digits = r"\d" + re.escape(extra_digits)
    alpha = r"[^\W\d]"
    if not_alpha:
        alpha = f"(?![{re.escape(not_alpha)}]){alpha}"
    return re.compile(_GRAMMAR.format(digits=digits, alpha=alpha),
                      re.VERBOSE)


def _pattern(text: str) -> "re.Pattern[str]":
    """Where ``re`` and the ``str`` predicates disagree — superscript
    digits, vulgar fractions, Roman numerals — the predicates decide.
    Every such character is non-ASCII, so ASCII text needs no scan."""
    if text.isascii():
        return _grammar("", "")
    odd = sorted(ch for ch in set(text) if ch.isalnum() and not ch.isalpha()
                 and not ch.isdecimal())
    return _grammar("".join(ch for ch in odd if ch.isdigit()), "".join(odd))


def tokenize(text: str) -> List[Token]:
    """Lex ``text`` into tokens, ending with a single EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    for match in _pattern(text).finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        start, end = match.span(kind)
        value = text[start:end]
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, start))
            else:
                append(Token(TokenType.IDENT, value, start))
        elif kind in _TYPES:
            append(Token(_TYPES[kind], value, start))
        elif kind == "string":
            # A string token is positioned just past its closing quote.
            append(Token(TokenType.STRING, value[1:-1].replace("''", "'"),
                         end))
        elif kind == "quoted":
            append(Token(TokenType.IDENT, value[1:-1], start))
        elif kind == "other":
            raise LexerError(f"unexpected character {value!r}", start)
        else:
            raise LexerError(_ERRORS[kind], start)
    append(Token(TokenType.EOF, "", len(text)))
    return tokens
