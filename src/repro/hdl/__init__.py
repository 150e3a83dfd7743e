"""Simplified behavioural HDL front end (the paper's VHDL compiler role)."""

from .ast_nodes import (Assignment, BinaryExpr, DesignUnit, LoopSpec,
                        NameExpr, NumberExpr, UnaryExpr)
from .compiler import compile_source
from .lexer import Token, tokenize
from .parser import parse

__all__ = [
    "Assignment",
    "BinaryExpr",
    "DesignUnit",
    "LoopSpec",
    "NameExpr",
    "NumberExpr",
    "Token",
    "UnaryExpr",
    "compile_source",
    "parse",
    "tokenize",
]
