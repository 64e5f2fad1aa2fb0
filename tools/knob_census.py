#!/usr/bin/env python3
"""Knob census: every field of every knob struct under src/ (each
`struct *Options`, plus the scan planner's `PushdownCostModel`) must be set
somewhere, or it is a constant in disguise.

For each field the census counts its setters per directory (src, bench,
tests, examples, perfbench). A setter is an assignment `x.f = ...`,
`x->f = ...` (compound assignments included), a designated initializer
`{.f = ...}`, or an assignment through the field (`x.f.g = ...` sets f).
The receiver's type is resolved from the nearest declaration of its root
variable in the same file or its sibling header, then walked through
member types (`o.compute.mem_pages` sets ComputeOptions::mem_pages, and
`scanner.cm.round_trip_us` sets PushdownCostModel::round_trip_us when the
scanner's `cm` member is one). A receiver that cannot be resolved credits
every knob struct with a field of that name.

A setter whose right-hand side is just another option field
(`rbio.max_batch = opts.rbio_max_batch`) is a copy. It counts only if its
source field is itself set somewhere, so plumbing that forwards a
never-set default does not keep either end alive.

A field whose only setters are under tests/ fails too: it is a path only
tests exercise, so it becomes a constant the tests read. The exceptions
are listed in TEST_ONLY_ALLOWED below, each with the reason it stays.

The script also checks that DESIGN.md's knob table (rows beginning
"| `Struct::field` |") lists exactly the fields found, and that no code
under src/ calls getenv(): an environment variable is a knob no options
struct, setter or table row accounts for.

Last, it fails on process-wide mutable state under src/: a `static` or
`thread_local` variable (local, member or namespace-scope) or a
namespace-scope variable that is not declared const or constexpr. Such
state outlives the simulation that wrote it, so a second run in the same
process behaves differently from the first. The exceptions are listed in
PROCESS_STATE_ALLOWED below, each with the reason it stays.

Usage: python3 tools/knob_census.py   (from anywhere; exit 1 on failure)
"""

import os
import re
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "bench", "tests", "examples", "perfbench")
EXTS = (".h", ".cc", ".cpp")
KEYWORDS = {
    "return", "auto", "const", "case", "else", "new", "delete", "co_return",
    "co_await", "co_yield", "throw", "sizeof", "typename", "struct", "class",
    "using", "goto", "static", "constexpr", "inline", "if", "while", "for",
    "switch", "do", "operator",
}

# Structs whose fields are knobs: every *Options struct, and the cost
# model a RemoteScanner hands the scan planner.
KNOB_STRUCT_RE = r"\w+Options|PushdownCostModel"

# Fields that only tests set and that stay on purpose, with the reason.
TEST_ONLY_ALLOWED = {
    **{f"RandomPlanOptions::{f}":
       "input to the chaos tests' fault-plan generator"
       for f in ("start_us", "horizon_us", "events", "num_page_servers",
                 "num_secondaries", "max_window_us", "crashes")},
    "XLogClientOptions::max_block_bytes": "param_test's block-size sweep",
    **{f"PushdownCostModel::{f}":
       "the planner tests price a free fake remote path against a warm "
       "standalone engine"
       for f in ("round_trip_us", "remote_leaf_us")},
}

# Process-wide mutable variables under src/ that stay on purpose, keyed
# by (file, variable), with the reason.
PROCESS_STATE_ALLOWED = {
    ("src/sim/frame_pool.h", "cache"):
        "per-thread free lists of coroutine frames: recycled memory, not "
        "state any simulation reads back",
    ("src/engine/log_record.cc", "chain"):
        "per-thread scratch buffer for redo's rebuilt version chain, "
        "cleared before every use",
}

IDENT = r"[A-Za-z_]\w*"
SEG = IDENT + r"(?:\(\s*\))?(?:\[[^\]\n]*\])*"
PATH = SEG + r"(?:\s*(?:\.|->)\s*" + SEG + r")+"
SETTER_RE = re.compile(r"(?<![\w.>])(" + PATH +
                       r")\s*(?:[-+*/|&^]|<<|>>)?=(?!=)")
DESIGNATED_RE = re.compile(r"[{,]\s*\.(" + IDENT + r")\s*=(?!=)")
PURE_PATH_RE = re.compile(r"^\s*(" + PATH + r")\s*$")


def strip_comments(text):
    """Drops // and /* */ comments, keeping string literals and newlines."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def split_segments(path):
    """'a[i].b().c' -> [('a', '['), ('b', '('), ('c', '')]."""
    segs = []
    for part in re.split(r"\s*(?:\.|->)\s*", path.strip()):
        name = re.match(IDENT, part).group(0)
        segs.append((name, part[len(name):].lstrip()[:1]))
    return segs


def struct_fields(body):
    """(field, type) pairs declared at the top level of a struct body."""
    fields, depth, stmt = [], 0, []
    i = 0
    while i < len(body):
        c = body[i]
        stmt.append(c)
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0 and not body[i + 1:].lstrip().startswith(";"):
                stmt = []  # end of a member function body
        elif c == ";" and depth == 0:
            decl = "".join(stmt).strip()
            stmt = []
            head = declarator_head(decl)
            if head and not re.match(r"(static|using|friend|enum|struct)\b",
                                     head) and not head.endswith(")"):
                idents = re.findall(IDENT, head)
                if len(idents) >= 2:
                    fields.append((idents[-1], idents[-2]))
        i += 1
    return fields


def declarator_head(decl):
    """Text before a declaration's initializer (= or {) at nesting 0."""
    angle = paren = 0
    for i, c in enumerate(decl):
        if c == "<":
            angle += 1
        elif c == ">":
            angle -= 1
        elif c == "(":
            paren += 1
        elif c == ")":
            paren -= 1
        elif c in "={;" and angle == 0 and paren == 0:
            return decl[:i].strip()
    return decl.strip()


def source_files():
    """(path, top-level dir) of every C++ file the census reads."""
    for d in SCAN_DIRS:
        for dirpath, _, files in sorted(os.walk(os.path.join(ROOT, d))):
            for fn in sorted(files):
                if fn.endswith(EXTS):
                    yield os.path.join(dirpath, fn), d


GETENV_RE = re.compile(r"\bgetenv\s*\(")


def getenv_calls():
    """'path:line' of every getenv( call in src/, comments excluded."""
    hits = []
    for path, d in source_files():
        if d != "src":
            continue
        text = strip_comments(open(path, errors="replace").read())
        for m in GETENV_RE.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            hits.append(f"{os.path.relpath(path, ROOT)}:{line}")
    return hits


def blank_literals(text):
    """Replaces the contents of string and char literals with spaces."""
    def blank(m):
        lit = m.group(0)
        return lit[0] + " " * (len(lit) - 2) + lit[-1]
    return re.sub(r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', blank,
                  text)


def drop_preprocessor(text):
    """Blanks preprocessor lines (and their continuations), keeping
    newlines."""
    out, cont = [], False
    for line in text.split("\n"):
        directive = cont or line.lstrip().startswith("#")
        cont = directive and line.rstrip().endswith("\\")
        out.append("" if directive else line)
    return "\n".join(out)


STATIC_DECL_RE = re.compile(r"(?:^|[;{}])\s*((?:static|thread_local)\b"
                            r"[^;{}()=\[]*)(.)", re.S)
NOT_A_VARIABLE = ("using", "typedef", "template", "namespace",
                  "static_assert", "friend", "class", "struct", "enum",
                  "union", "extern")


def declared_name(head):
    """Declared variable name of a declaration head ('static int x')."""
    idents = re.findall(IDENT, head)
    return idents[-1] if idents else "?"


def is_const(head):
    return re.search(r"\b(?:const|constexpr|constinit)\b", head) is not None


def namespace_statements(text):
    """(offset, text) of each statement at namespace scope. Brace groups
    inside a statement (initializers, class bodies) read as '{}'; a
    function definition ends at its body."""
    stmts, buf, start = [], [], 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "{":
            head = "".join(buf)
            if re.match(r"\s*(?:inline\s+)?namespace\b", head):
                buf, start = [], i + 1  # enter: still namespace scope
                i += 1
                continue
            depth, j = 1, i + 1
            while depth and j < n:
                depth += {"{": 1, "}": -1}.get(text[j], 0)
                j += 1
            if not re.search(r"[()]", head) or head.rstrip().endswith("="):
                buf.append("{}")  # initializer or type body
            else:
                buf, start = [], j  # function body: statement over
            i = j
            continue
        if c == "}":
            buf, start = [], i + 1  # leaving a namespace
        elif c == ";":
            stmts.append((start, "".join(buf)))
            buf, start = [], i + 1
        else:
            buf.append(c)
        i += 1
    return stmts


def process_state():
    """'path:line: declaration' of each process-wide mutable variable in
    src/ that PROCESS_STATE_ALLOWED does not name, and the allowed
    entries that were found."""
    hits, allowed = [], set()
    for path, d in source_files():
        if d != "src":
            continue
        rel = os.path.relpath(path, ROOT)
        text = drop_preprocessor(blank_literals(strip_comments(
            open(path, errors="replace").read())))
        found = []  # (offset, head)
        for m in STATIC_DECL_RE.finditer(text):
            head, nxt = m.group(1), m.group(2)
            if nxt != "(" and not is_const(head):
                found.append((m.start(1), head))
        for off, stmt in namespace_statements(text):
            decl = stmt.strip()
            head = re.split(r"=|\{\}", decl, 1)[0]
            if (not decl or decl.split()[0] in NOT_A_VARIABLE or
                    re.match(r"(?:static|thread_local)\b", decl) or
                    "(" in head or is_const(head)):
                continue
            found.append((off + len(stmt) - len(stmt.lstrip()), head))
        for off, head in found:
            name = declared_name(head)
            if (rel, name) in PROCESS_STATE_ALLOWED:
                allowed.add((rel, name))
                continue
            line = text.count("\n", 0, off) + 1
            hits.append(f"{rel}:{line}: {' '.join(head.split())}")
    return hits, allowed


def struct_bodies(text, name_re):
    """(name, body) of each struct/class definition whose name matches."""
    for m in re.finditer(r"\b(?:struct|class)\s+(" + name_re +
                         r")\s*(?:final\s*)?(?::[^;{]*)?\{", text):
        depth, j = 1, m.end()
        while depth and j < len(text):
            depth += {"{": 1, "}": -1}.get(text[j], 0)
            j += 1
        yield m.group(1), text[m.end():j - 1]


def find_structs():
    structs = {}  # name -> {"file", "fields": [(field, type)]}
    for path, d in source_files():
        if d != "src" or not path.endswith(".h"):
            continue
        text = strip_comments(open(path).read())
        for name, body in struct_bodies(text, KNOB_STRUCT_RE):
            structs[name] = {"file": os.path.relpath(path, ROOT),
                             "fields": struct_fields(body)}
    return structs


class Census:
    def __init__(self, structs):
        self.members = {s: dict(v["fields"]) for s, v in structs.items()}
        self.by_field = defaultdict(set)
        for s, fields in self.members.items():
            for f in fields:
                self.by_field[f].add(s)
        # Members (name -> type) of every other struct/class in the tree,
        # so that an assignment to one of them is not mistaken for a knob
        # setter, while one through a member of knob type still counts.
        self.other_members = defaultdict(dict)
        for path, _ in source_files():
            text = strip_comments(open(path, errors="replace").read())
            for name, body in struct_bodies(text, r"\w+"):
                if name not in structs:
                    self.other_members[name].update(struct_fields(body))

    def root_type(self, name, suffix, text, pos, header):
        """Type of `name` (or of its element, when subscripted) at its
        nearest declaration before `pos`, else in the sibling header, else
        later in the file (class members); None when unknown."""
        decl = re.compile(r"\b(" + IDENT + r")\s*(<[^;{}()]*?>)?\s*[&*]?\s*"
                          r"(?:const\s+)?\b" + re.escape(name) +
                          r"\b\s*(?=[;={(,)\[])")
        best = None
        for src, limit in ((text, pos), (header, None), (text, None)):
            for m in decl.finditer(src):
                if limit is not None and m.start() >= limit:
                    break
                if m.group(1) == "auto":
                    best = None
                elif m.group(1) not in KEYWORDS and m.group(1) != name:
                    best = m
            if best:
                break
        if best is None or suffix == "(":
            return None
        if suffix == "[":  # element of a container: its last type argument
            args = re.findall(IDENT, best.group(2) or "")
            return args[-1] if args else None
        return best.group(1)

    def resolve(self, segs, text, pos, header):
        """(struct, field) candidates for each segment after the root, up
        to the first one that belongs to some other type; and whether the
        walk reached the last segment."""
        out = []
        typ = self.root_type(*segs[0], text, pos, header)
        for name, suffix in segs[1:]:
            if typ in self.members:
                owners = {typ}
            elif name in self.other_members.get(typ, ()):
                member_type = self.other_members[typ][name]
                if member_type not in self.members or suffix:
                    return out, False  # a member of some other type
                out.append([])  # a knob struct held by another type
                typ = member_type
                continue
            else:
                owners = self.by_field.get(name, set())
            hits = [(s, name) for s in owners if name in self.members[s]]
            out.append(hits)
            types = {self.members[s][name] for s, _ in hits}
            typ = types.pop() if len(types) == 1 and not suffix else None
        return out, True

    def scan(self):
        setters = []  # (struct, field, dir, source candidates or None)
        for path, d in source_files():
            self.scan_file(path, d, setters)
        return setters

    def scan_file(self, path, d, setters):
        text = strip_comments(open(path, errors="replace").read())
        header = ""
        sibling = os.path.splitext(path)[0] + ".h"
        if sibling != path and os.path.exists(sibling):
            header = strip_comments(open(sibling).read())
        for m in SETTER_RE.finditer(text):
            segs = split_segments(m.group(1))
            source = self.copy_source(text, m.end(), header)
            resolved, complete = self.resolve(segs, text, m.start(), header)
            for i, hits in enumerate(resolved):
                leaf = complete and i == len(segs) - 2
                for s, f in hits:
                    setters.append((s, f, d, source if leaf else None))
        for m in DESIGNATED_RE.finditer(text):
            f = m.group(1)
            for s in self.by_field.get(f, ()):
                setters.append((s, f, d, None))

    def copy_source(self, text, start, header):
        """Option fields the right-hand side merely copies, if it is one."""
        end = text.find(";", start)
        m = PURE_PATH_RE.match(text[start:end])
        if not m:
            return None
        resolved, complete = self.resolve(split_segments(m.group(1)), text,
                                          start, header)
        return resolved[-1] if complete and resolved[-1] else None


def main():
    structs = find_structs()
    census = Census(structs)
    setters = census.scan()
    live = set()
    changed = True
    while changed:  # copies of a set field are setters too
        changed = False
        for s, f, _, source in setters:
            if (s, f) not in live and (source is None or
                                       any(x in live for x in source)):
                live.add((s, f))
                changed = True
    per_dir = defaultdict(lambda: defaultdict(int))
    for s, f, d, source in setters:
        if source is None or any(x in live for x in source):
            per_dir[(s, f)][d] += 1

    unset, test_only, total = [], [], 0
    for s in sorted(structs):
        fields = structs[s]["fields"]
        plural = "" if len(fields) == 1 else "s"
        print(f"{s} ({structs[s]['file']}): {len(fields)} field{plural}")
        for f, _ in fields:
            total += 1
            counts = per_dir[(s, f)]
            dirs = [d for d in SCAN_DIRS if counts[d]]
            where = " ".join(f"{d}:{counts[d]}" for d in dirs)
            if not dirs:
                unset.append(f"{s}::{f}")
            elif dirs == ["tests"]:
                test_only.append(f"{s}::{f}")
            print(f"  {f:36s} {where or 'UNSET'}")
    print(f"{total} option fields in {len(structs)} structs")

    ok = True
    if unset:
        ok = False
        print(f"\n{len(unset)} field(s) assigned nowhere (fold each into a "
              "named constant beside its reader, or give it a setter):")
        for u in unset:
            print(f"  {u}")

    unexplained = [f for f in test_only if f not in TEST_ONLY_ALLOWED]
    if unexplained:
        ok = False
        print(f"\n{len(unexplained)} field(s) set only by tests (fold each "
              "into a named constant the tests read, or give it a setter "
              "outside tests/):")
        for u in unexplained:
            print(f"  {u}")
    for name in sorted(set(TEST_ONLY_ALLOWED) - set(test_only)):
        ok = False
        print(f"TEST_ONLY_ALLOWED lists {name}, which is not a field set "
              "only by tests")

    env = getenv_calls()
    if env:
        ok = False
        print(f"\n{len(env)} getenv() call(s) under src/ (a hidden knob: "
              "make it an options field with a setter, or delete it):")
        for e in env:
            print(f"  {e}")

    state, allowed = process_state()
    if state:
        ok = False
        print(f"\n{len(state)} process-wide mutable variable(s) under src/ "
              "(make each a member of the object that owns it, or const):")
        for h in state:
            print(f"  {h}")
    for f, name in sorted(set(PROCESS_STATE_ALLOWED) - allowed):
        ok = False
        print(f"PROCESS_STATE_ALLOWED lists {name} in {f}, which is not "
              "process-wide state there")

    design = os.path.join(ROOT, "DESIGN.md")
    if os.path.exists(design):
        rows = set(re.findall(r"^\|\s*`((?:" + KNOB_STRUCT_RE +
                              r")::\w+)`\s*\|",
                              open(design).read(), re.M))
        fields = {f"{s}::{f}" for s in structs for f, _ in
                  structs[s]["fields"]}
        for name in sorted(fields - rows):
            ok = False
            print(f"DESIGN.md knob table is missing {name}")
        for name in sorted(rows - fields):
            ok = False
            print(f"DESIGN.md knob table lists {name}, which does not exist")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
