"""C/C++ front-end substrate: lexer, parser, AST, pretty printer."""

from .source import SourceFile, Location
from .lexer import Lexer, Token, TokenKind, tokenize
from .parser import CParser, ParseTree, parse_source, parse_tokens
from . import ast_nodes

__all__ = [
    "SourceFile", "Location", "Lexer", "Token", "TokenKind", "tokenize",
    "CParser", "ParseTree", "parse_source", "parse_tokens", "ast_nodes",
]
