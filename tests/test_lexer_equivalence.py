"""The compiled-pattern lexer against the character loop it replaced.

``reference_tokenize`` is the old lexer, kept verbatim but for its name
and annotations.  On every TPC-H and TPC-DS corpus statement and on a
seeded fuzz of ASCII, quotes, both comment forms, numbers with
exponents and Unicode letters, digits and superscripts, both lexers
must produce the same ``(type, value, position)`` tokens, or raise
``LexerError`` with the same message and position.  Where ``re``'s
classes and the ``str`` predicates disagree (``'²'.isdigit()`` is true,
``'½'.isalpha()`` false) the predicates decide, as they did.
"""

import random

import pytest

from repro.errors import LexerError
from repro.sql.lexer import KEYWORDS, Token, TokenType, tokenize
from repro.workloads.tpcds import TPCDS_QUERIES
from repro.workloads.tpch import TPCH_QUERIES

_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%",
              "||")
_PUNCT = "(),."


def reference_tokenize(text):
    """The character-loop lexer the compiled pattern replaced."""
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and text.startswith("--", i):
            end = text.find("\n", i)
            i = length if end == -1 else end + 1
            continue
        if ch == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated comment", i)
            i = end + 2
            continue
        if ch == "'":
            value, i = _lex_string(text, i)
            tokens.append(Token(TokenType.STRING, value, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length
                            and text[i + 1].isdigit()):
            start = i
            i += 1
            while i < length and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < length and text[i] in "eE":
                i += 1
                if i < length and text[i] in "+-":
                    i += 1
                while i < length and text[i].isdigit():
                    i += 1
            tokens.append(Token(TokenType.NUMBER, text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            i += 1
            while i < length and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENT, word, start))
            continue
        if ch == "`" or ch == '"':
            quote = ch
            end = text.find(quote, i + 1)
            if end == -1:
                raise LexerError("unterminated quoted identifier", i)
            tokens.append(Token(TokenType.IDENT, text[i + 1:end], i))
            i = end + 1
            continue
        matched = _match_operator(text, i)
        if matched is not None:
            tokens.append(Token(TokenType.OPERATOR, matched, i))
            i += len(matched)
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        if ch == ";":
            i += 1
            continue
        raise LexerError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", length))
    return tokens


def _lex_string(text, start):
    """Lex a single-quoted string with '' as the escaped quote."""
    i = start + 1
    parts = []
    while i < len(text):
        ch = text[i]
        if ch == "'":
            if i + 1 < len(text) and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise LexerError("unterminated string literal", start)


def _match_operator(text, i):
    for operator in _OPERATORS:
        if text.startswith(operator, i):
            return operator
    return None


def _outcome(lexer, text):
    try:
        return [(t.type, t.value, t.position) for t in lexer(text)]
    except LexerError as exc:
        return ("error", str(exc), exc.position)


CORPUS = [sql for __, sql in sorted(TPCH_QUERIES.items())] + \
    [sql for __, sql in sorted(TPCDS_QUERIES.items())]


def test_corpus_tokens_are_identical():
    assert len(CORPUS) == 121
    for sql in CORPUS:
        assert _outcome(tokenize, sql) == _outcome(reference_tokenize, sql)


#: Fuzz alphabet: single characters and short runs that reach every
#: branch of both lexers.  The last group holds Unicode letters, decimal
#: digits and spaces, and the characters where ``re``'s classes and the
#: ``str`` predicates disagree: superscript, subscript and circled
#: digits (``isdigit`` but not ``\d``), fractions and Roman numerals
#: (``\w`` but neither alpha nor digit).
_FRAGMENTS = (
    list("abcxyzABCXYZ_019.eE+-*/%<>=!|(),;'`\"@#$ \t\n\r\x0b\x0c\x1c")
    + ["--", "/*", "*/", "''", "||", "<=", "<>", "!=", "1e5", "2.5E-3",
       ".5", "1.2.3", "7e", "3e+", "SELECT", "from", "Where", "null"]
    + list("éßÄπЖ日ªº٣٤०७\u00a0\u2003\u3000²³¹⁰₂①½¾ⅫⅣ")
)


def _fuzz_text(rng):
    return "".join(rng.choice(_FRAGMENTS)
                   for __ in range(rng.randrange(1, 40)))


@pytest.mark.parametrize("seed", range(8))
def test_seeded_fuzz_is_identical(seed):
    rng = random.Random(f"lexer-fuzz/{seed}")
    errors = 0
    for __ in range(500):
        text = _fuzz_text(rng)
        expected = _outcome(reference_tokenize, text)
        assert _outcome(tokenize, text) == expected, text
        errors += expected[0] == "error"
    # Both outcomes are exercised: texts that lex and texts that raise.
    assert 0 < errors < 500


@pytest.mark.parametrize("text", [
    "x²", "²", "1²3", ".²", "1e²", "½x", "x½", "Ⅻ", "aⅫ", "ß", "'a''",
    "'a'''", "''''", "'''", "`a``b`", '"q', "/* a */ /* b", "-- x",
    "1.e5", "..5", "a.b", "x\x1c y", "SELECT\u00a0x", "a||b", "a|b",
])
def test_edge_cases_are_identical(text):
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)
