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
An assignment is not chained, and its right side is arithmetic; a while/if
condition is a single comparison of arithmetic operands. The parser checks
this shape as it builds each operator, flagging one built over a comparison.
The logical operators `&&.`, `||.` and `!.` are tokens only, so a compound
guard is a parse error that names the line and the operator. `//` starts a
line comment.
"""

from __future__ import annotations

from .record import Record


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
# the comparison that holds exactly when the keyed one fails
NEGATED = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt", "eq": "ne", "ne": "eq"}

_MAX_LITERAL = 2**63 - 1
# judged by digit count first: int() refuses strings of more than 4,300
# digits, leading zeros included
_MAX_DIGITS = len(str(_MAX_LITERAL))

# operators by first character, each group longest first; identifiers and
# literals are ASCII only, so `²` or `٣` is an unexpected character
_OPERATORS_AT = {c: tuple(op for op in OPERATORS if op[0] == c)
                 for c in {op[0] for op in OPERATORS}}
_WORD = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
                  "0123456789")


class Token(Record):
    """One token: its kind ("ident", "int", "eof", a keyword, an operator or
    punctuation), its text, and the line and column where it starts.

    tokenize builds one as a tuple, without a Python call.
    """

    _fields = ("kind", "text", "line", "col")


# punctuation that is never part of a longer token
_DELIMITERS = "(){};,"


def tokenize(source: str) -> list[Token]:
    """source's tokens, in order, then an "eof" token.

    Lines end at "\\n" alone, and columns count characters. Each line drops
    its `//` comment and splits at whitespace, after a space is put around
    each delimiter. Each distinct chunk is cut into tokens once; a chunk's
    column is found in the unpadded line, whose tokens come in the same
    order with only whitespace between them.
    """
    tokens: list[Token] = []
    append, new = tokens.append, tuple.__new__
    cuts: dict[str, tuple] = {}  # chunk -> its tokens' kinds, texts, offsets
    padded = source
    for ch in _DELIMITERS:
        padded = padded.replace(ch, f" {ch} ")
    # split gives at least one line, so line and text are always bound
    for line, (text, cut) in enumerate(zip(source.split("\n"),
                                           padded.split("\n")), 1):
        end = text.find("//")
        if end >= 0:
            text, cut = text[:end], cut[:cut.find("//")]
        find = text.find
        col = 0
        for chunk in cut.split():
            col = find(chunk, col) + 1
            pieces = cuts.get(chunk)
            if pieces is None:
                pieces = cuts[chunk] = _cut(chunk, line, col)
            for kind, piece, offset in pieces:
                append(new(Token, (kind, piece, line, col + offset)))
            col += len(chunk) - 1
    append(Token("eof", "", line, len(text) + 1))
    return tokens


def _cut(chunk: str, line: int, col: int) -> tuple:
    """The kind, text and offset of each token of chunk, which starts at col
    and holds no whitespace, taking the longest operator first."""
    out = []
    i, n = 0, len(chunk)
    while i < n:
        ch = chunk[i]
        for op in _OPERATORS_AT.get(ch, ()):
            if chunk.startswith(op, i):
                kind = text = op
                break
        else:
            j = i + 1
            if "0" <= ch <= "9":
                while j < n and "0" <= chunk[j] <= "9":
                    j += 1
                kind, text = "int", chunk[i:j]
                digits = text.lstrip("0")
                if (len(digits) > _MAX_DIGITS
                        or int(digits or "0") > _MAX_LITERAL):
                    raise LexError(f"line {line}: literal {text} does not "
                                   f"fit in 64 bits")
            elif ch in _WORD:
                while j < n and chunk[j] in _WORD:
                    j += 1
                text = chunk[i:j]
                kind = text if text in KEYWORDS else "ident"
            elif ch in PUNCT:
                kind = text = ch
            else:
                raise LexError(f"line {line}, col {col + i}: unexpected "
                               f"character {ch!r}")
        out.append((kind, text, i))
        i += len(text)
    return tuple(out)


# --- AST ---

class _Node(Record):
    """An AST node; its source lines stay out of == and hash."""

    _defaults = {"line": 0, "end_line": 0, "orelse": None}
    _loose = ("line", "end_line")


class Const(_Node):
    _fields = ("value", "line")


class Var(_Node):
    _fields = ("name", "line")


class BinOp(_Node):
    _fields = ("op", "lhs", "rhs", "line")  # op: add, sub, mul, div, mod


Expr = Const | Var | BinOp


class Cmp(_Node):
    _fields = ("op", "lhs", "rhs", "line")  # op: lt, le, gt, ge, eq, ne


class Assign(_Node):
    _fields = ("target", "value", "line")


class Block(_Node):
    _fields = ("stmts", "end_line")


class While(_Node):
    _fields = ("cond", "body", "line")


class If(_Node):
    _fields = ("cond", "then", "orelse", "line")


Stmt = Assign | While | If


class Program(_Node):
    # name is None for a bare statement list
    _fields = ("name", "params", "body", "line")
    _defaults = {"line": 1}


def end_line(stmt: Stmt) -> int:
    """Last source line a statement occupies (a block's closing brace)."""
    if isinstance(stmt, Assign):
        return stmt.line
    if isinstance(stmt, While):
        return stmt.body.end_line
    return (stmt.orelse or stmt.then).end_line


# --- parser ---

# binary operators by binding level, loosest first, each left-associative
_LEVELS = (("==.", "!=."), ("<.", "<=.", ">.", ">=."), ("+.", "-."),
           ("*.", "/.", "%."))
_MAKE = {**{t: (Cmp, op) for t, op in CMP_TOKENS.items()},
         **{t: (BinOp, op) for t, op in ARITH_TOKENS.items()}}

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.kinds = [t[0] for t in tokens]  # read on the hot paths
        self.pos = 0
        self.misshapen = False  # expr built an operator over a comparison

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if self.kinds[self.pos] != kind:
            raise ParseError(f"line {tok.line}: expected {kind!r}, got {tok.text or 'end of input'!r}")
        self.pos += 1
        return tok

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
        while self.kinds[self.pos] != "}":
            if self.kinds[self.pos] == "eof":
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
            return While(self.condition(), self.body(), tok.line)
        if tok.kind == "if":
            self.next()
            cond = self.condition()
            then = self.body()
            orelse = None
            if self.peek().kind == "else":
                self.next()
                orelse = self.body()
            return If(cond, then, orelse, tok.line)
        if tok.kind != "ident" or self.tokens[self.pos + 1].kind != "=.":
            raise ParseError(f"line {tok.line}: expression statement must be an assignment")
        self.pos += 2  # the target and `=.`
        self.misshapen = False
        value = self.expr()
        if self.peek().kind == "=.":
            raise ParseError(f"line {tok.line}: chained assignment is not allowed")
        self.expect(";")
        if self.misshapen or value.__class__ is Cmp:
            raise ParseError(
                f"line {tok.line}: assignment right side must be an arithmetic expression")
        return Assign(tok.text, value, tok.line)

    def condition(self) -> Cmp:
        self.expect("(")
        tok = self.peek()
        self.misshapen = False
        c = self.expr()
        if self.peek().kind == "=.":
            raise ParseError(f"line {tok.line}: assignment is not allowed in a condition")
        if self.misshapen or c.__class__ is not Cmp:
            raise ParseError(f"line {tok.line}: condition must compare arithmetic expressions")
        self.expect(")")
        return c

    # expressions, loosest binding first

    def expr(self, level: int = 0):
        if level == len(_LEVELS):
            return self.unary()
        node = self.expr(level + 1)
        kinds = self.kinds
        while kinds[self.pos] in _LEVELS[level]:
            kind, _, line, _ = self.next()
            make, op = _MAKE[kind]
            rhs = self.expr(level + 1)
            if node.__class__ is Cmp or rhs.__class__ is Cmp:
                self.misshapen = True
            node = make(op, node, rhs, line)
        return node

    def unary(self):
        if self.kinds[self.pos] not in ("-", "+"):
            return self.atom()
        # signed literals only; there is no unreliable unary arithmetic
        tok = self.next()
        operand = self.unary()
        if not isinstance(operand, Const):
            raise ParseError(f"line {tok.line}: {tok.kind!r} applies to integer literals only")
        return Const(-operand.value if tok.kind == "-" else operand.value, tok.line)

    def atom(self):
        kind, text, line, _ = tok = self.next()
        if kind == "int":
            # the tokenizer bounds the digits after any leading zeros
            return Const(int(text.lstrip("0") or "0"), line)
        if kind == "ident":
            return Var(text, line)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"line {tok.line}: expected an expression, got {tok.text or 'end of input'!r}")


def parse_program(source: str) -> Program:
    try:
        return _Parser(tokenize(source)).program()
    except RecursionError:
        # recursion grows with parentheses and nested statements, not operators
        raise ParseError("program is nested too deeply") from None


# --- queries ---

def walk_exprs(e: Expr | Cmp) -> list:
    """Every node of an expression or condition, preorder."""
    stack = [e]
    out: list = []
    while stack:
        x = stack.pop()
        out.append(x)
        if isinstance(x, (BinOp, Cmp)):
            stack.append(x.rhs)
            stack.append(x.lhs)
    return out
