"""Lexer, AST, and recursive-descent parser for the analyzed language.

The language is a C-like fragment whose every operation is suffixed with a dot
to mark it as running on unreliable hardware. Programs are either a single
`void` function with `int` parameters or a bare statement list.

Expressions follow standard C precedence, every binary operator
left-associative:

    expr       := relational { ('==.'|'!=.') relational }
    relational := additive { ('<.'|'<=.'|'>.'|'>=.') additive }
    additive   := term { ('+.'|'-.') term }
    term       := unary { ('*.'|'/.'|'%.') unary }
    unary      := '-' unary | '+' unary | atom
    atom       := INT | IDENT | '(' expr ')'

Statements and the program shell:

    program    := function | stmt+
    function   := 'void' IDENT '(' [ 'int' IDENT { ',' 'int' IDENT } ] ')' block
    block      := '{' { stmt } '}'
    body       := block | stmt
    stmt       := IDENT '=.' expr ';'
               | 'while' '(' expr ')' body
               | 'if' '(' expr ')' body [ 'else' body ]

Plain `-` and `+` exist only to write signed literals and are folded away at
parse time; they are not unreliable ops and charge no reliability factor.
Statement-level validation keeps the analyzable shape: an assignment is not
chained and has an arithmetic right side, and a while/if condition must be a
single comparison of arithmetic operands. The logical operators `&&.`, `||.`
and `!.` are tokens only, so a compound guard is a parse error that names the
line and the operator. `//` starts a line comment.
"""

from __future__ import annotations

from .record import Record, set_field


class FrontendError(Exception):
    """Base for errors raised while turning source text into a CFG."""


class LexError(FrontendError):
    pass


class ParseError(FrontendError):
    pass


class LiteralRangeError(FrontendError):
    pass


# --- tokens ---

KEYWORDS = {"void", "int", "while", "if", "else"}

# longest first so `==.` wins over `=.` and `<=.` over `<.`; `&&.`, `||.` and
# `!.` appear in no grammar rule, so a compound guard fails to parse at them
OPERATORS = ("==.", "!=.", "<=.", ">=.", "&&.", "||.",
             "=.", "<.", ">.", "+.", "-.", "*.", "/.", "%.", "!.")

PUNCT = "(){};,-+"

ARITH_TOKENS = {"+.": "add", "-.": "sub", "*.": "mul", "/.": "div", "%.": "mod"}
CMP_TOKENS = {"<.": "lt", "<=.": "le", ">.": "gt", ">=.": "ge", "==.": "eq", "!=.": "ne"}

_MAX_LITERAL = 2**63 - 1

# operators by first character, each group longest first; identifiers and
# literals are ASCII only, so `²` or `٣` is an unexpected character
_OPERATORS_AT = {c: tuple(op for op in OPERATORS if op[0] == c)
                 for c in {op[0] for op in OPERATORS}}
_WORD = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
                  "0123456789")


class Token(Record):
    # kind: "ident", "int", "eof", a keyword, an operator, or punctuation
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        set_field(self, "kind", kind)
        set_field(self, "text", text)
        set_field(self, "line", line)
        set_field(self, "col", col)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        op = None
        for candidate in _OPERATORS_AT.get(ch, ()):
            if source.startswith(candidate, i):
                op = candidate
                break
        if op is not None:
            tokens.append(Token(op, op, line, col))
            i += len(op)
            col += len(op)
        elif "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            text = source[i:j]
            if int(text) > _MAX_LITERAL:
                raise LexError(f"line {line}: literal {text} does not fit in 64 bits")
            tokens.append(Token("int", text, line, col))
            col += j - i
            i = j
        elif ch in _WORD:
            j = i
            while j < n and source[j] in _WORD:
                j += 1
            word = source[i:j]
            tokens.append(Token(word if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
        elif ch in PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise LexError(f"line {line}, col {col}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- AST ---

class _Node(Record):
    """An AST node; its source lines stay out of == and hash."""

    __slots__ = ()
    _defaults = {"line": 0, "end_line": 0, "orelse": None}
    _loose = ("line", "end_line")


class Const(_Node):
    __slots__ = ("value", "line")

    def __init__(self, value: int, line: int = 0) -> None:
        set_field(self, "value", value)
        set_field(self, "line", line)


class Var(_Node):
    __slots__ = ("name", "line")

    def __init__(self, name: str, line: int = 0) -> None:
        set_field(self, "name", name)
        set_field(self, "line", line)


class BinOp(_Node):
    __slots__ = ("op", "lhs", "rhs", "line")  # op: add, sub, mul, div, mod

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0) -> None:
        set_field(self, "op", op)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "line", line)


Expr = Const | Var | BinOp


class Cmp(_Node):
    __slots__ = ("op", "lhs", "rhs", "line")  # op: lt, le, gt, ge, eq, ne

    def __init__(self, op: str, lhs, rhs, line: int = 0) -> None:
        set_field(self, "op", op)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "line", line)


class Assign(_Node):
    __slots__ = ("target", "value", "line")


class Block(_Node):
    __slots__ = ("stmts", "end_line")


class While(_Node):
    __slots__ = ("cond", "body", "line")


class If(_Node):
    __slots__ = ("cond", "then", "orelse", "line")


Stmt = Assign | While | If


class Program(_Node):
    # name is None for a bare statement list
    __slots__ = ("name", "params", "body", "line")
    _defaults = {"line": 1}


def end_line(stmt: Stmt) -> int:
    """Last source line a statement occupies (a block's closing brace)."""
    if isinstance(stmt, Assign):
        return stmt.line
    if isinstance(stmt, While):
        return stmt.body.end_line
    return (stmt.orelse or stmt.then).end_line


def is_arith(e) -> bool:
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, BinOp):
        return is_arith(e.lhs) and is_arith(e.rhs)
    return False


def is_condition(c) -> bool:
    """Comparison of arithmetic operands."""
    return isinstance(c, Cmp) and is_arith(c.lhs) and is_arith(c.rhs)


# --- parser ---

# binary operators by binding level, loosest first, each left-associative
_LEVELS = (("==.", "!=."), ("<.", "<=.", ">.", ">=."), ("+.", "-."),
           ("*.", "/.", "%."))
_MAKE = {**{t: (Cmp, op) for t, op in CMP_TOKENS.items()},
         **{t: (BinOp, op) for t, op in ARITH_TOKENS.items()}}

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"line {tok.line}: expected {kind!r}, got {tok.text or 'end of input'!r}")
        return self.next()

    # statements

    def program(self) -> Program:
        if self.peek().kind == "void":
            return self.function()
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.stmt())
        if not stmts:
            raise ParseError("empty program")
        return Program(None, (), Block(tuple(stmts), end_line(stmts[-1])),
                       stmts[0].line)

    def function(self) -> Program:
        header = self.expect("void")
        name = self.expect("ident").text
        self.expect("(")
        params: list[str] = []
        if self.peek().kind != ")":
            while True:
                self.expect("int")
                params.append(self.expect("ident").text)
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect(")")
        body = self.block()
        self.expect("eof")
        if len(set(params)) != len(params):
            raise ParseError(f"line {header.line}: duplicate parameter name")
        return Program(name, tuple(params), body, header.line)

    def block(self) -> Block:
        self.expect("{")
        stmts = []
        while self.peek().kind != "}":
            if self.peek().kind == "eof":
                raise ParseError(f"line {self.peek().line}: unclosed block")
            stmts.append(self.stmt())
        close = self.next()
        return Block(tuple(stmts), close.line)

    def body(self) -> Block:
        if self.peek().kind == "{":
            return self.block()
        stmt = self.stmt()
        return Block((stmt,), end_line(stmt))

    def stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "while":
            self.next()
            self.expect("(")
            cond = self.condition()
            self.expect(")")
            return While(cond, self.body(), tok.line)
        if tok.kind == "if":
            self.next()
            self.expect("(")
            cond = self.condition()
            self.expect(")")
            then = self.body()
            orelse = None
            if self.peek().kind == "else":
                self.next()
                orelse = self.body()
            return If(cond, then, orelse, tok.line)
        if tok.kind != "ident" or self.tokens[self.pos + 1].kind != "=.":
            raise ParseError(f"line {tok.line}: expression statement must be an assignment")
        self.pos += 2  # the target and `=.`
        value = self.expr()
        if self.peek().kind == "=.":
            raise ParseError(f"line {tok.line}: chained assignment is not allowed")
        self.expect(";")
        if not is_arith(value):
            raise ParseError(
                f"line {tok.line}: assignment right side must be an arithmetic expression")
        return Assign(tok.text, value, tok.line)

    def condition(self) -> Cmp:
        tok = self.peek()
        c = self.expr()
        if self.peek().kind == "=.":
            raise ParseError(f"line {tok.line}: assignment is not allowed in a condition")
        if not is_condition(c):
            raise ParseError(f"line {tok.line}: condition must compare arithmetic expressions")
        return c

    # expressions, loosest binding first

    def expr(self, level: int = 0):
        if level == len(_LEVELS):
            return self.unary()
        node = self.expr(level + 1)
        while self.peek().kind in _LEVELS[level]:
            tok = self.next()
            make, op = _MAKE[tok.kind]
            node = make(op, node, self.expr(level + 1), tok.line)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind in ("-", "+"):
            # signed literals only; there is no unreliable unary arithmetic
            self.next()
            operand = self.unary()
            if not isinstance(operand, Const):
                raise ParseError(f"line {tok.line}: {tok.kind!r} applies to integer literals only")
            return Const(-operand.value if tok.kind == "-" else operand.value, tok.line)
        return self.atom()

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return Const(int(tok.text), tok.line)
        if tok.kind == "ident":
            return Var(tok.text, tok.line)
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"line {tok.line}: expected an expression, got {tok.text or 'end of input'!r}")


def parse_program(source: str) -> Program:
    try:
        return _Parser(tokenize(source)).program()
    except RecursionError:
        # the parser and its checks recurse once per nesting level
        raise ParseError("program is nested too deeply") from None


# --- validation and queries ---

def _statements(block: Block) -> list:
    """Every statement in a block, nested ones included, in source order."""
    out = []
    for s in block.stmts:
        out.append(s)
        if isinstance(s, While):
            out += _statements(s.body)
        elif isinstance(s, If):
            out += _statements(s.then)
            if s.orelse is not None:
                out += _statements(s.orelse)
    return out


def walk_exprs(node) -> list:
    """All expression and condition nodes under an AST node, preorder."""
    if isinstance(node, (Program, Block)):
        block = node.body if isinstance(node, Program) else node
        stack = [s.value if isinstance(s, Assign) else s.cond
                 for s in reversed(_statements(block))]
    else:
        stack = [node]
    out: list = []
    while stack:
        x = stack.pop()
        out.append(x)
        if isinstance(x, (BinOp, Cmp)):
            stack.append(x.rhs)
            stack.append(x.lhs)
    return out


def program_vars(program: Program) -> tuple[str, ...]:
    """Every variable the program mentions, parameters included, sorted."""
    names = set(program.params)
    names.update(x.name for x in walk_exprs(program) if isinstance(x, Var))
    names.update(s.target for s in _statements(program.body) if isinstance(s, Assign))
    return tuple(sorted(names))


# --- printing ---

_ARITH_TEXT = {v: k for k, v in ARITH_TOKENS.items()}
_CMP_TEXT = {v: k for k, v in CMP_TOKENS.items()}
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "mod": 2}


def expr_source(e: Expr, parent_prec: int = 0, right: bool = False) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    prec = _PREC[e.op]
    text = (f"{expr_source(e.lhs, prec)} {_ARITH_TEXT[e.op]} "
            f"{expr_source(e.rhs, prec, right=True)}")
    if prec < parent_prec or (prec == parent_prec and right):
        return f"({text})"
    return text


def cond_source(c: Cmp) -> str:
    return f"{expr_source(c.lhs)} {_CMP_TEXT[c.op]} {expr_source(c.rhs)}"


def to_source(program: Program) -> str:
    """Canonical source text; parsing it back gives an equal Program."""
    lines: list[str] = []

    def emit(block: Block, depth: int) -> None:
        pad = "  " * depth
        for s in block.stmts:
            if isinstance(s, Assign):
                lines.append(f"{pad}{s.target} =. {expr_source(s.value)};")
            elif isinstance(s, While):
                lines.append(f"{pad}while ({cond_source(s.cond)}) {{")
                emit(s.body, depth + 1)
                lines.append(f"{pad}}}")
            else:
                lines.append(f"{pad}if ({cond_source(s.cond)}) {{")
                emit(s.then, depth + 1)
                if s.orelse is not None:
                    lines.append(f"{pad}}} else {{")
                    emit(s.orelse, depth + 1)
                lines.append(f"{pad}}}")

    if program.name is None:
        emit(program.body, 0)
    else:
        params = ", ".join(f"int {p}" for p in program.params)
        lines.append(f"void {program.name}({params}) {{")
        emit(program.body, 1)
        lines.append("}")
    return "\n".join(lines) + "\n"
