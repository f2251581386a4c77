#!/usr/bin/env python3
"""Usage checks for src/: what the simulator does not run.

    python3 tools/src_usage.py [REPO_ROOT]

Six listings over the C++ of src/ bench/ perfbench/ tests/ examples/,
with comments, string and character literals stripped first:

1. Header check: a src/ header that no file outside tests/ includes.
2. Uncalled-symbol check: a name declared in a src/ header (a class,
   enum, enumerator, function, field, constant or alias) that no other
   token of those trees names. Declarations and out-of-line definitions
   of the name, and parameter names, do not count as naming it.
3. Option check: a field of a src/ struct or class named `*Config`,
   `*Policy` or `*Options` that no file outside tests/ writes. A write is
   a member access (`.f`, `->f`, or a designated initializer) followed by
   an assignment, a compound assignment or `++`/`--`, preceded by `&`,
   `++` or `--`, or followed by a mutating call such as `.push_back(`.
   Such a field is a constant, not an option.
4. Write-only field check: a data member of a src/ struct or class that
   no token of those trees reads. A read is any use that is not a pure
   write. Pure writes are an assignment target, a compound assignment, a
   statement-level `++x;` or `x++;`, a mutating call such as
   `.push_back(` or `.pop_front(`, a constructor's member initializer and
   a designated initializer. A write into a part of the member (`m.f = v`,
   `m[i] = v`) writes the member; access through `->` reads it. An
   increment whose value is used (`id = next_++`) is a read.
5. Named only by tests/: a name from check 2 that tests/ names and no
   file of src/ bench/ perfbench/ examples/ does. Informational.
6. Read only by tests/: a field from check 4 that tests/ reads and no
   file of src/ bench/ perfbench/ examples/ does. Informational.

Names are matched as identifiers, not resolved: a name declared in two
classes counts as used (or written) when either is.

Exit status 1 when check 1 lists a header, when check 2 lists a name that
is not in ALLOWLIST, when an ALLOWLIST entry is no longer uncalled, or
when check 3 or check 4 lists a field; 0 otherwise.
"""

import pathlib
import re
import sys
from collections import defaultdict

TREES = ("src", "bench", "perfbench", "tests", "examples")
PROGRAM_TREES = ("src", "bench", "perfbench", "examples")
SUFFIXES = (".cpp", ".hpp", ".h", ".cc")

# The Zynq-7000 memory map, kept whole as documentation of the platform
# even where the simulator models no device behind an address.
ALLOWLIST = {
    ("src/mem/address_map.hpp", name)
    for name in (
        "kAxiGp0Size", "kAxiGp1Base", "kAxiGp1Size", "kUart1Base",
        "kTtc0Base", "kTtcSize", "kMpcorePrivBase", "kGicCpuIfaceBase",
        "kGlobalTimerBase", "kPrivateTimerBase", "kGicDistBase",
        "kGicDistSize", "kIrqGlobalTimer", "kIrqPrivateWdt", "kIrqUart1",
    )
}

# Identifiers that open a parenthesis at declaration scope without
# declaring a function.
NOT_FUNCTIONS = {
    "static_assert", "alignas", "decltype", "sizeof", "noexcept",
    "requires", "__attribute__", "operator",
}
ACCESS = {"public", "private", "protected"}
# Structs whose fields are options a caller sets (check 3).
OPTION_STRUCT = re.compile(r"\w+(Config|Policy|Options)$")
# Member calls that modify the member they are called on.
MUTATORS = {"push_back", "emplace_back", "pop_back", "push_front",
            "emplace_front", "pop_front", "insert", "emplace", "erase",
            "assign", "resize", "reserve", "clear", "fill", "swap", "append"}
# First characters of the compound assignments the tokenizer splits from
# their `=` (`<<=` and `>>=` are matched apart).
COMPOUND = {"+", "-", "*", "/", "%", "|", "&", "^"}
# Tokens after which `&` is the address-of operator, not bitwise and.
UNARY_LEADS = {"(", ",", "=", "{", "[", "?", ":", "return", ";"}
# Tokens that end the previous statement: an increment right after one
# starts a statement of its own, so its value is unused.
STMT_LEADS = {";", "{", "}", ")", "else", ":"}
# Tokens after which an identifier names a type, not a parameter.
TYPE_LEADS = {"(", ",", "::", "const", "volatile", "struct", "class",
              "typename", "unsigned", "signed"}


def strip(text):
    """Blank comments, string and character literals (the tree has no raw
    strings) and preprocessor lines. Returns the code and, apart, the
    bodies of its macro definitions."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c == '"' or (c == "'" and not (out and re.match(r"\w", out[-1]))):
            # A quote right after a word character is a digit separator.
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    lines = "".join(out).split("\n")
    macros = []
    in_directive = in_define = False
    for k, line in enumerate(lines):
        if in_directive or line.lstrip().startswith("#"):
            if not in_directive:
                in_define = re.match(r"\s*#\s*define\s+\w+", line)
                if in_define:
                    line = line[in_define.end():]
            if in_define:
                macros.append(line.rstrip("\\"))
            in_directive = line.rstrip().endswith("\\")
            lines[k] = ""
    return "\n".join(lines), "\n".join(macros)


TOKEN = re.compile(r"[A-Za-z_]\w*|\d[\w'.]*|::|->|\S")


def tokenize(text):
    """Identifiers, numbers, `::`, `->` and single characters; attributes
    (`[[...]]`) are dropped."""
    return TOKEN.findall(re.sub(r"\[\[[^\]]*\]\]", " ", text))


def is_ident(t):
    return bool(re.match(r"[A-Za-z_]", t))


def top_level(stmt, toks):
    """Indices of `stmt` outside (), [] and <> nesting, with the depth
    each index sits at."""
    depth = 0
    for k in stmt:
        t = toks[k]
        if t in "([<":
            depth += 1
        elif t in ")]>" and depth > 0:
            depth -= 1
            continue
        yield k, depth


class Scanner:
    """Splits one file's tokens into declared-name positions, parameter
    names and uses by tracking which braces open declaration scopes
    (namespace, class, enum) and which open code."""

    def __init__(self, toks):
        self.toks = toks
        self.decls = []  # token indices that declare a name
        self.params = set()  # token indices naming a parameter
        self.inits = set()  # token indices of constructor member initializers
        self.fields = []  # (class name, token index) of each data member

    def text(self, k):
        return self.toks[k]

    def declare(self, k):
        if k is not None and is_ident(self.text(k)):
            self.decls.append(k)

    def run(self):
        toks = self.toks
        stack = [("ns", None)]
        stmt = []
        i, n = 0, len(toks)
        while i < n:
            t = toks[i]
            kind, cls = stack[-1]
            if kind == "code":
                if t == "{":
                    stack.append(("code", None))
                elif t == "}":
                    stack.pop()
                i += 1
                continue
            if kind == "enum":
                if t in (",", "}"):
                    if stmt:
                        self.declare(stmt[0])
                    stmt = []
                    if t == "}":
                        stack.pop()
                else:
                    stmt.append(i)
                i += 1
                continue
            if t == "{":
                if self.ctor_init_brace(stmt):
                    i = self.skip_braces(i, stmt)
                    continue
                stack.append(self.open_scope(stmt, cls))
                stmt = []
            elif t == ";":
                self.statement(stmt, cls)
                stmt = []
            elif t == "}":
                stmt = []
                if len(stack) > 1:
                    stack.pop()
            elif t == ":" and len(stmt) == 1 and self.text(stmt[0]) in ACCESS:
                stmt = []
            else:
                stmt.append(i)
            i += 1
        return self

    def skip_braces(self, i, stmt):
        depth = 0
        while True:
            t = self.toks[i]
            stmt.append(i)
            depth += (t == "{") - (t == "}")
            i += 1
            if depth == 0:
                return i

    def ctor_init_brace(self, stmt):
        """A `{` inside a constructor's member-initializer list."""
        if not stmt or not is_ident(self.text(stmt[-1])):
            return False
        words = [self.text(k) for k in stmt]
        if "(" not in words or words[0] in ("class", "struct", "union", "enum"):
            return False
        depth = 0
        for w in words:
            depth += (w == "(") - (w == ")")
            if w == ":" and depth == 0:
                return True
        return False

    def strip_prefix(self, stmt):
        """Drop `template <...>` heads and `friend` statements."""
        words = [self.text(k) for k in stmt]
        if "friend" in words:
            return []
        while stmt and self.text(stmt[0]) == "template":
            if len(stmt) < 2 or self.text(stmt[1]) != "<":
                stmt = stmt[1:]  # an explicit instantiation
                continue
            depth, k = 0, 1
            while k < len(stmt):
                w = self.text(stmt[k])
                depth += (w == "<") - (w == ">")
                k += 1
                if depth == 0:
                    break
            stmt = stmt[k:]
        return stmt

    def open_scope(self, stmt, cls):
        stmt = self.strip_prefix(stmt)
        words = [self.text(k) for k in stmt]
        if "namespace" in words or words[:1] == ["extern"]:
            return ("ns", None)
        if words and words[0] in ("class", "struct", "union", "enum") \
                and "(" not in words and "=" not in words:
            k = 1
            if words[0] == "enum" and k < len(words) and words[k] in ("class", "struct"):
                k += 1
            name = stmt[k] if k < len(stmt) and is_ident(words[k]) else None
            self.declare(name)
            if words[0] == "enum":
                return ("enum", None)
            return ("ns", words[k] if name is not None else None)
        self.statement(stmt, cls)
        return ("code", None)

    def statement(self, stmt, cls):
        """Record what a declaration-scope statement declares."""
        stmt = self.strip_prefix(stmt)
        if not stmt:
            return
        words = [self.text(k) for k in stmt]
        if words[0] == "using":
            if len(words) > 2 and words[2] == "=":
                self.declare(stmt[1])
            return
        if words[0] in ("class", "struct", "union", "enum", "typedef"):
            if "(" not in words:
                return  # forward declaration or elaborated type
        first_paren = first_eq = None
        for k, depth in top_level(stmt, self.toks):
            w = self.text(k)
            if depth == 1 and w == "(" and first_paren is None:
                first_paren = stmt.index(k)
            if depth == 0 and w == "=" and first_eq is None:
                first_eq = stmt.index(k)
        if first_paren is not None and (first_eq is None or first_paren < first_eq):
            self.function(stmt, words, first_paren, cls)
            return
        # Variables and fields: the last name before `=`, `[` or `:` of each
        # comma-separated declarator.
        end = first_eq if first_eq is not None else len(stmt)
        field = cls is not None and \
            not {"static", "constexpr", "typedef"} & set(words)
        declarator = []
        for k, depth in top_level(stmt[:end], self.toks):
            w = self.text(k)
            if depth == 0 and w == ",":
                self.declare_last(declarator, cls if field else None)
                declarator = []
            elif depth == 0 or w == "[":
                declarator.append(k)
        self.declare_last(declarator, cls if field else None)

    def declare_last(self, declarator, cls=None):
        for k in declarator:
            if self.text(k) in ("[", ":"):
                break
            last = k
        else:
            last = declarator[-1] if declarator else None
        if last is not None and is_ident(self.text(last)):
            self.declare(last)
            if cls is not None:
                self.fields.append((cls, last))

    def function(self, stmt, words, paren, cls):
        if paren == 0 or any(w in NOT_FUNCTIONS for w in words[:paren + 1]):
            return
        name = words[paren - 1]
        before = words[paren - 2] if paren >= 2 else ""
        qualifier = words[paren - 3] if paren >= 3 and before == "::" else None
        if name == cls or name == qualifier:
            self.member_inits(stmt, words, paren)
        if before == "~" or name == cls or name == qualifier:
            return  # constructor or destructor
        if not is_ident(name) or name.isupper():
            return  # a macro
        self.declare(stmt[paren - 1])
        # Parameter names: the identifier that closes each parameter.
        depth = 0
        for k in range(paren, len(stmt) - 1):
            w = words[k]
            depth += (w == "(") - (w == ")")
            if depth == 0:
                break
            if depth == 1 and words[k + 1] in (",", ")", "=", "[") \
                    and is_ident(w) and words[k - 1] not in TYPE_LEADS:
                self.params.add(stmt[k])


    def member_inits(self, stmt, words, paren):
        """Record the members a constructor's initializer list names."""
        depth, k = 0, paren
        while k < len(words):
            depth += (words[k] == "(") - (words[k] == ")")
            k += 1
            if depth == 0:
                break
        while k < len(words) and words[k] != ":":
            k += 1
        for m in range(k + 1, len(words) - 1):
            w = words[m]
            depth += (w in "({") - (w in ")}")
            if depth == 0 and is_ident(w) and words[m - 1] in (":", ",") \
                    and words[m + 1] in ("(", "{"):
                self.inits.add(stmt[m])


def skip_brackets(toks, j):
    """Index just past the `[...]` group opening at `j`."""
    depth = 0
    while j < len(toks):
        depth += (toks[j] == "[") - (toks[j] == "]")
        j += 1
        if depth == 0:
            break
    return j


def written_members(toks):
    """Identifiers that a member access in `toks` writes (see check 3)."""
    out = set()
    n = len(toks)
    for k in range(1, n):
        if not is_ident(toks[k]) or toks[k - 1] not in (".", "->"):
            continue
        # Forward over the rest of the access chain: `.m`, `->m`, `[i]`.
        j = k + 1
        write = False
        while j < n:
            if toks[j] in (".", "->") and j + 1 < n and is_ident(toks[j + 1]):
                if toks[j + 1] in MUTATORS and j + 2 < n and toks[j + 2] == "(":
                    write = True
                    break
                j += 2
            elif toks[j] == "[":
                j = skip_brackets(toks, j)
            else:
                break
        if not write and j + 1 < n:
            a, b = toks[j], toks[j + 1]
            c = toks[j + 2] if j + 2 < n else ""
            write = (a == "=" and b != "=") \
                or (a in COMPOUND and b == "=") \
                or (a in ("<", ">") and b == a and c == "=") \
                or (a in ("+", "-") and b == a)
        # Backward to the start of the chain for a prefix `&`, `++`, `--`.
        i = k - 1
        while i >= 1 and toks[i] in (".", "->") and is_ident(toks[i - 1]):
            i -= 2
        i += 1  # first token of the chain
        if not write and i >= 2:
            p, q = toks[i - 1], toks[i - 2]
            write = (p == "&" and q in UNARY_LEADS) \
                or (p in ("+", "-") and q == p)
        if write:
            out.add(toks[k])
    return out


def chain_start(toks, k):
    """First token of the access chain (`a.b->c[i]`) that ends at `k`."""
    i = k
    while i >= 2 and toks[i - 1] in (".", "->"):
        j = i - 2
        while toks[j] == "]":  # back over `[...]` groups
            depth = 0
            while j > 0:
                depth += (toks[j] == "]") - (toks[j] == "[")
                j -= 1
                if depth == 0:
                    break
        if not is_ident(toks[j]):
            break
        i = j
    return i


def is_read(toks, k):
    """False when the use of the identifier at `k` is a pure write (see
    check 4)."""
    n = len(toks)
    j = k + 1
    while j < n:
        if toks[j] == "[":
            j = skip_brackets(toks, j)
        elif toks[j] == "." and j + 1 < n and is_ident(toks[j + 1]):
            if j + 2 < n and toks[j + 2] == "(":
                return toks[j + 1] not in MUTATORS
            j += 2
        else:
            break
    if j >= n or toks[j] == "->":
        return True
    a = toks[j]
    b = toks[j + 1] if j + 1 < n else ""
    c = toks[j + 2] if j + 2 < n else ""
    if (a == "=" and b != "=") or (a in COMPOUND and b == "=") \
            or (a in ("<", ">") and b == a and c == "="):
        return False
    i = chain_start(toks, k)
    if a in ("+", "-") and b == a:  # postfix
        return not (i >= 1 and toks[i - 1] in STMT_LEADS and c in (";", ")"))
    if i >= 3 and toks[i - 1] in ("+", "-") and toks[i - 2] == toks[i - 1]:
        return not (toks[i - 3] in STMT_LEADS and a in (";", ")"))
    return True


def rel(path, root):
    return path.relative_to(root).as_posix()


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).parent.parent).resolve()
    files = sorted(p for tree in TREES for p in (root / tree).rglob("*")
                   if p.suffix in SUFFIXES and p.is_file())

    includes = defaultdict(set)  # header path under src/ -> includer trees
    declared = defaultdict(set)  # name -> src/ headers declaring it
    uses = defaultdict(set)  # name -> trees that name it
    options = []  # (src/ file, struct, field) of each option-struct field
    written = set()  # member names a file outside tests/ writes
    fields = set()  # (src/ file, class, name) of each data member
    reads = defaultdict(set)  # name -> trees that read it
    for path in files:
        raw = path.read_text(encoding="utf-8", errors="replace")
        tree = rel(path, root).split("/")[0]
        for inc in re.findall(r'^\s*#\s*include\s+"([^"]+)"', raw, re.M):
            target = (path.parent / inc).resolve()
            key = rel(target, root) if target.is_file() and root in target.parents \
                else "src/" + inc
            if key != rel(path, root):
                includes[key].add(tree)
        code, macros = strip(raw)
        toks = tokenize(code)
        scan = Scanner(toks).run()
        for t in tokenize(macros):
            if is_ident(t):
                uses[t].add(tree)
                reads[t].add(tree)
        if tree == "src":
            options += [(rel(path, root), cls, toks[k])
                        for cls, k in scan.fields if OPTION_STRUCT.match(cls)]
            fields |= {(rel(path, root), cls, toks[k])
                       for cls, k in scan.fields}
        if tree != "tests":
            written |= written_members(toks)
        decl_set = set(scan.decls)
        is_src_header = tree == "src" and path.suffix in (".hpp", ".h")
        for k, t in enumerate(toks):
            if not is_ident(t):
                continue
            if k in decl_set:
                if is_src_header:
                    declared[t].add(rel(path, root))
            elif k not in scan.params:
                uses[t].add(tree)
                if k not in scan.inits and is_read(toks, k):
                    reads[t].add(tree)

    headers = sorted(rel(p, root) for p in files
                     if rel(p, root).startswith("src/") and p.suffix in (".hpp", ".h"))
    orphans = [h for h in headers if not includes[h] - {"tests"}]
    print("header check: src/ headers no file outside tests/ includes")
    for h in orphans:
        print(f"  {h}: included by {sorted(includes[h])}")
    if not orphans:
        print("  (none)")

    uncalled, test_only = [], []
    for name, where in sorted(declared.items()):
        for header in sorted(where):
            if not uses[name]:
                uncalled.append((header, name))
            elif not uses[name] & set(PROGRAM_TREES):
                test_only.append((header, name))

    failures = len(orphans)
    print("uncalled-symbol check: names declared in src/ headers that no "
          "other token of " + " ".join(t + "/" for t in TREES) + "names")
    for header, name in sorted(uncalled):
        allowed = (header, name) in ALLOWLIST
        failures += not allowed
        print(f"  {header}: {name}" + ("  (allowlisted)" if allowed else ""))
    for header, name in sorted(ALLOWLIST - set(uncalled)):
        failures += 1
        print(f"  {header}: {name}  (allowlisted, no longer uncalled: "
              "drop it from ALLOWLIST)")

    unset = sorted({o for o in options if o[2] not in written})
    failures += len(unset)
    print("option check: fields of src/ *Config, *Policy and *Options structs "
          "that no file outside tests/ writes")
    for path, cls, name in unset:
        print(f"  {path}: {cls}::{name}")
    if not unset:
        print("  (none)")

    unread = sorted(f for f in fields if not reads[f[2]])
    failures += len(unread)
    print("write-only field check: data members of src/ structs and classes "
          "that no token of " + " ".join(t + "/" for t in TREES) + "reads")
    for path, cls, name in unread:
        print(f"  {path}: {cls}::{name}")
    if not unread:
        print("  (none)")

    print("named only by tests/: names declared in src/ headers that no file "
          "of " + " ".join(t + "/" for t in PROGRAM_TREES) + "names")
    for header, name in sorted(test_only):
        print(f"  {header}: {name}")
    if not test_only:
        print("  (none)")

    test_read = sorted(f for f in fields
                       if reads[f[2]] and not reads[f[2]] & set(PROGRAM_TREES))
    print("read only by tests/: data members of src/ structs and classes that "
          "no file of " + " ".join(t + "/" for t in PROGRAM_TREES) + "reads")
    for path, cls, name in test_read:
        print(f"  {path}: {cls}::{name}")
    if not test_read:
        print("  (none)")

    print("FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
