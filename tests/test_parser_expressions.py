"""Tests for expression parsing."""

import pytest

from repro.errors import CParseError
from repro.lang import ast_nodes as A
from repro.lang.lexer import Lexer
from repro.lang.parser import CParser, parse_source
from repro.lang.source import SourceFile
from repro.options import SpatchOptions


def parse_expr(text: str, cxx: bool = False, metavars=None):
    src = SourceFile(name="<expr>", text=text)
    tokens = Lexer(src, smpl_mode=metavars is not None).tokenize()
    options = SpatchOptions(cxx=17) if cxx else SpatchOptions()
    parser = CParser(tokens, src, options=options, metavars=metavars, tolerant=False)
    return parser.parse_single_expression(), parser


class TestPrecedence:
    def test_multiplication_binds_tighter(self):
        expr, _ = parse_expr("a + b * c")
        assert isinstance(expr, A.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, A.BinaryOp) and expr.right.op == "*"

    def test_relational_vs_additive(self):
        expr, _ = parse_expr("i + k - 1 < n")
        assert expr.op == "<"
        assert isinstance(expr.left, A.BinaryOp) and expr.left.op == "-"

    def test_logical_operators(self):
        expr, _ = parse_expr("a && b || c")
        assert expr.op == "||"
        assert expr.left.op == "&&"

    def test_parentheses(self):
        expr, _ = parse_expr("(a + b) * c")
        assert expr.op == "*"
        assert isinstance(expr.left, A.Paren)

    def test_assignment_right_associative(self):
        expr, _ = parse_expr("a = b = c")
        assert isinstance(expr, A.Assignment)
        assert isinstance(expr.value, A.Assignment)

    def test_compound_assignment(self):
        expr, _ = parse_expr("x += y * 2")
        assert isinstance(expr, A.Assignment) and expr.op == "+="

    def test_ternary(self):
        expr, _ = parse_expr("a ? b : c")
        assert isinstance(expr, A.Ternary)


#: C binary operators, loosest first; each line binds tighter than the one
#: before it and every level is left-associative
C_LEVELS = [
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", ">", "<=", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
]
C_LEVEL = {op: level for level, ops in enumerate(C_LEVELS) for op in ops}


def shape(expr) -> str:
    """The tree as an s-expression, each node tagged ``@start:end`` with its
    token extent."""
    at = f"@{expr.start}:{expr.end}"
    if isinstance(expr, A.Ident):
        return expr.name + at
    if isinstance(expr, A.Literal):
        return expr.value + at
    if isinstance(expr, (A.BinaryOp, A.Assignment)):
        left, right = (expr.left, expr.right) if isinstance(expr, A.BinaryOp) \
            else (expr.target, expr.value)
        return f"({expr.op} {shape(left)} {shape(right)}){at}"
    if isinstance(expr, A.Ternary):
        return f"(? {shape(expr.cond)} {shape(expr.then)} {shape(expr.orelse)}){at}"
    if isinstance(expr, A.UnaryOp):
        op = expr.op if expr.prefix else "post" + expr.op
        return f"({op} {shape(expr.operand)}){at}"
    if isinstance(expr, A.Cast):
        return f"(cast {shape(expr.expr)}){at}"
    if isinstance(expr, A.SizeofExpr):
        return f"(sizeof {shape(expr.arg)}){at}"
    if isinstance(expr, A.Paren):
        return f"(paren {shape(expr.expr)}){at}"
    raise AssertionError(f"no shape for {type(expr).__name__}")


class TestPrecedenceTable:
    @pytest.mark.parametrize("op1", sorted(C_LEVEL))
    @pytest.mark.parametrize("op2", sorted(C_LEVEL))
    def test_operator_pair(self, op1, op2):
        # tokens: a=0 op1=1 b=2 op2=3 c=4
        expr, _ = parse_expr(f"a {op1} b {op2} c")
        if C_LEVEL[op1] >= C_LEVEL[op2]:
            expected = f"({op2} ({op1} a@0:1 b@2:3)@0:3 c@4:5)@0:5"
        else:
            expected = f"({op1} a@0:1 ({op2} b@2:3 c@4:5)@2:5)@0:5"
        assert shape(expr) == expected

    def test_long_left_associative_chain(self):
        expr, _ = parse_expr("a - b + c - d")
        assert shape(expr) == \
            "(- (+ (- a@0:1 b@2:3)@0:3 c@4:5)@0:5 d@6:7)@0:7"

    def test_every_level_in_one_expression(self):
        expr, _ = parse_expr("a || b && c | d ^ e & f == g < h << i + j * k")
        assert shape(expr) == (
            "(|| a@0:1 (&& b@2:3 (| c@4:5 (^ d@6:7 (& e@8:9 (== f@10:11 "
            "(< g@12:13 (<< h@14:15 (+ i@16:17 (* j@18:19 k@20:21)@18:21)"
            "@16:21)@14:21)@12:21)@10:21)@8:21)@6:21)@4:21)@2:21)@0:21")

    @pytest.mark.parametrize("text, expected", [
        ("a = b + c * d",
         "(= a@0:1 (+ b@2:3 (* c@4:5 d@6:7)@4:7)@2:7)@0:7"),
        ("a += b = c", "(+= a@0:1 (= b@2:3 c@4:5)@2:5)@0:5"),
        ("a = b ? c : d", "(= a@0:1 (? b@2:3 c@4:5 d@6:7)@2:7)@0:7"),
        ("a || b ? c : d", "(? (|| a@0:1 b@2:3)@0:3 c@4:5 d@6:7)@0:7"),
        ("a ? b : c ? d : e",
         "(? a@0:1 b@2:3 (? c@4:5 d@6:7 e@8:9)@4:9)@0:9"),
        ("a ? b = c : d", "(? a@0:1 (= b@2:3 c@4:5)@2:5 d@6:7)@0:7"),
        ("-a * b", "(* (- a@1:2)@0:2 b@3:4)@0:4"),
        ("!a && b", "(&& (! a@1:2)@0:2 b@3:4)@0:4"),
        ("a - -b", "(- a@0:1 (- b@3:4)@2:4)@0:4"),
        ("~a & b", "(& (~ a@1:2)@0:2 b@3:4)@0:4"),
        ("*p++ + 1", "(+ (* (post++ p@1:2)@1:3)@0:3 1@4:5)@0:5"),
        ("&a == b", "(== (& a@1:2)@0:2 b@3:4)@0:4"),
        ("(int)a + b", "(+ (cast a@3:4)@0:4 b@5:6)@0:6"),
        ("(double)-a * b", "(* (cast (- a@4:5)@3:5)@0:5 b@6:7)@0:7"),
        ("sizeof a + b", "(+ (sizeof a@1:2)@0:2 b@3:4)@0:4"),
        ("a * (b + c)", "(* a@0:1 (paren (+ b@3:4 c@5:6)@3:6)@2:7)@0:7"),
        ("x = a < b == c > d",
         "(= x@0:1 (== (< a@2:3 b@4:5)@2:5 (> c@6:7 d@8:9)@6:9)@2:9)@0:9"),
    ])
    def test_mixed_with_assignment_ternary_unary_cast(self, text, expected):
        expr, _ = parse_expr(text)
        assert shape(expr) == expected


class TestPostfix:
    def test_call_with_args(self):
        expr, _ = parse_expr("f(a, b + 1, g(c))")
        assert isinstance(expr, A.Call) and len(expr.args) == 3
        assert isinstance(expr.args[2], A.Call)

    def test_nested_subscripts(self):
        expr, _ = parse_expr("a[i][j][k]")
        assert isinstance(expr, A.Subscript)
        assert isinstance(expr.base, A.Subscript)
        assert isinstance(expr.base.base, A.Subscript)

    def test_multi_index_subscript(self):
        expr, _ = parse_expr("a[i, j, k]", cxx=True)
        assert isinstance(expr, A.Subscript) and len(expr.indices) == 3

    def test_member_access(self):
        expr, _ = parse_expr("p[i].pos[0]")
        assert isinstance(expr, A.Subscript)
        assert isinstance(expr.base, A.Member)
        assert expr.base.name == "pos"

    def test_arrow_access(self):
        expr, _ = parse_expr("node->next->value")
        assert isinstance(expr, A.Member) and expr.op == "->"

    def test_postfix_increment(self):
        expr, _ = parse_expr("i++")
        assert isinstance(expr, A.UnaryOp) and not expr.prefix

    def test_kernel_launch(self):
        expr, _ = parse_expr("saxpy<<<grid, block, 0, s>>>(a, b, n)")
        assert isinstance(expr, A.KernelLaunch)
        assert len(expr.config) == 4 and len(expr.args) == 3

    def test_qualified_identifier(self):
        expr, _ = parse_expr("std::find(a, b, k)", cxx=True)
        assert isinstance(expr, A.Call)
        assert expr.func.name == "std::find"


class TestUnaryAndCasts:
    def test_prefix_operators(self):
        expr, _ = parse_expr("-x")
        assert isinstance(expr, A.UnaryOp) and expr.op == "-" and expr.prefix

    def test_address_and_deref(self):
        expr, _ = parse_expr("*&x")
        assert expr.op == "*" and expr.operand.op == "&"

    def test_cast(self):
        expr, _ = parse_expr("(double)n")
        assert isinstance(expr, A.Cast) and expr.type.text == "double"

    def test_cast_with_pointer(self):
        expr, _ = parse_expr("(struct particle *)buf")
        assert isinstance(expr, A.Cast)

    def test_sizeof_type(self):
        expr, _ = parse_expr("sizeof(double)")
        assert isinstance(expr, A.SizeofExpr) and isinstance(expr.arg, A.TypeName)

    def test_sizeof_expression(self):
        expr, _ = parse_expr("sizeof x")
        assert isinstance(expr, A.SizeofExpr) and isinstance(expr.arg, A.Ident)

    def test_parenthesised_arithmetic_not_a_cast(self):
        expr, _ = parse_expr("(a) + b")
        assert isinstance(expr, A.BinaryOp)


class TestLiterals:
    @pytest.mark.parametrize("text,category", [
        ("42", "int"), ("3.5", "float"), ("1e-7", "float"), ('"hi"', "string"),
        ("'c'", "char"), ("true", "bool"), ("NULL", "null"),
    ])
    def test_literal_categories(self, text, category):
        expr, _ = parse_expr(text)
        assert isinstance(expr, A.Literal) and expr.category == category


class TestExtents:
    def test_node_text_round_trip(self):
        tree = parse_source("int f(void) { return a[i] + g(b, c); }", "t.c")
        subs = [n for n in A.walk(tree.unit) if isinstance(n, A.Subscript)]
        assert tree.node_text(subs[0]) == "a[i]"
        calls = [n for n in A.walk(tree.unit) if isinstance(n, A.Call)]
        assert tree.node_text(calls[0]) == "g(b, c)"

    def test_trailing_tokens_rejected(self):
        with pytest.raises(CParseError):
            parse_expr("a + b extra")


class TestPatternModeExpressions:
    def test_dots_in_argument_list(self):
        expr, _ = parse_expr("f(...)", metavars={"f": "identifier"})
        assert isinstance(expr.args[0], A.DotsExpr)

    def test_expression_list_metavar(self):
        expr, _ = parse_expr("fn(el)", metavars={"fn": "identifier",
                                                 "el": "expression list"})
        assert isinstance(expr.args[0], A.MetaExprList)

    def test_position_annotation(self):
        expr, _ = parse_expr("fn@p(el)", metavars={"fn": "identifier", "p": "position",
                                                   "el": "expression list"})
        assert isinstance(expr, A.Call)
        assert expr.func.pos_metavars == ("p",)

    def test_inline_disjunction(self):
        expr, _ = parse_expr(r"\( a == k \| k == a \)",
                             metavars={"k": "constant", "a": "identifier"})
        assert isinstance(expr, A.Disjunction) and len(expr.branches) == 2
