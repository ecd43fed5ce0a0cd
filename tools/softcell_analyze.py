#!/usr/bin/env python3
"""softcell-analyze: AST-grounded lifetime & lock-order analysis.

Consumes ``clang++ -Xclang -ast-dump=json`` output (no third-party
dependencies) and runs three project-specific checkers that the regex
linter (softcell_lint.py) fundamentally cannot express:

  rvalue-snapshot-deref   member access or pointer escape through a
                          *temporary* shared_ptr snapshot (the PR 8
                          PathView use-after-free shape, generalized to
                          every RCU snapshot type).  Pin the snapshot in
                          a named local first.

  handle-across-mutation  a pointer/reference derived from a
                          Slab/SlabMap/FlatMap stays live across a call
                          that may mutate the owning container, without
                          being re-derived (generation recheck).

  lock-order-cycle        extracts sc:: guard acquisitions per function,
                          builds the inter-procedural acquisition graph
                          (modelling mid-scope unlock()/lock() on
                          UniqueLock), and fails on any cycle whose edges are not all
                          declared in tools/lock_order.txt.

Exit codes:
  0  clean
  1  findings (or stale suppressions)
  2  bad invocation / malformed input
  3  environment cannot analyze (clang++ missing or no JSON AST support)
     -- tier1.sh maps this to a visible SKIP.

Suppressions mirror softcell_lint.py:
  * inline, on the finding line or the line above:
        // sc-analyze: suppress(<checker>) <justification>
  * file tools/analyze_suppressions.txt:
        <checker> <path>:<line> <justification>
  Stale entries (matching no diagnostic) are themselves failures.

AST dumps are cached under --cache-dir keyed on a content hash of
(source bytes, compile args, clang version); edit the file or bump the
compiler and the entry is invalidated.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

VERSION = "softcell-analyze-1"

CHECKERS = ("rvalue-snapshot-deref", "handle-across-mutation", "lock-order-cycle")

# ----------------------------------------------------------------------------
# Type / name patterns grounding the checkers in the softcell tree.
# ----------------------------------------------------------------------------

# RCU snapshot payload types: anything published through VersionedSnapshot
# or the CoreCommitter.  qualType strings look like
# "std::shared_ptr<const softcell::PathView>".
SNAPSHOT_TYPE_RE = re.compile(
    r"shared_ptr<\s*(?:const\s+)?(?:[A-Za-z_]\w*::)*"
    r"(?:[A-Za-z_]\w*(?:View|Snapshot)|ServicePolicy)\s*>"
)

# Containers whose element pointers/references can be invalidated.
CONTAINER_KIND_RE = re.compile(
    r"(?:^|[\s:<(&])((?:[A-Za-z_]\w*::)*)(Slab|SlabMap|FlatMap|FlatSet)\s*<"
)

# Methods that hand out a pointer/reference into a container.
DERIVER_NAMES = {"get", "find", "at", "begin", "end", "operator[]"}

# Methods that may invalidate previously derived pointers, per container.
MUTATORS = {
    "Slab": {"erase", "clear"},
    "SlabMap": {"erase", "clear"},
    "FlatMap": {"try_emplace", "emplace", "insert", "erase", "clear",
                "reserve", "rehash", "operator[]"},
    "FlatSet": {"insert", "erase", "clear", "reserve", "rehash"},
}

# sc:: guard types.  qualType strings look like "softcell::sc::LockGuard"
# or "sc::UniqueLock" in fixtures.
GUARD_TYPE_RE = re.compile(
    r"(?:^|\s|::)sc::(LockGuard|UniqueLock|WriteLock|ReadLock)\b"
)

# Expression wrapper kinds that carry no semantics for our purposes.
WRAPPER_KINDS = {
    "MaterializeTemporaryExpr",
    "ImplicitCastExpr",
    "ExprWithCleanups",
    "CXXBindTemporaryExpr",
    "ParenExpr",
    "ConstantExpr",
    "CXXFunctionalCastExpr",
    "CXXStaticCastExpr",
    "CXXConstCastExpr",
    "FullComma",  # never emitted; placeholder
}

SUPPRESS_INLINE_RE = re.compile(
    r"//\s*sc-analyze:\s*suppress\(([a-z-]+)\)\s*(.*)$"
)


def class_of(qual_type: str) -> str:
    """Last class-ish name in a qualType, sans namespaces/templates/cv."""
    t = qual_type
    # Drop template arguments: take text before the first '<'.
    t = t.split("<", 1)[0]
    t = t.replace("*", " ").replace("&", " ")
    t = re.sub(r"\b(const|volatile|struct|class)\b", " ", t)
    t = t.strip()
    if "::" in t:
        t = t.rsplit("::", 1)[1]
    return t.strip()


def container_kind(qual_type: str):
    m = CONTAINER_KIND_RE.search(qual_type)
    return m.group(2) if m else None


# ----------------------------------------------------------------------------
# AST walking with clang's line/file carry-forward semantics.
# ----------------------------------------------------------------------------

class Pos:
    __slots__ = ("file", "line")

    def __init__(self):
        self.file = "<unknown>"
        self.line = 0


class Finding:
    __slots__ = ("checker", "path", "line", "message")

    def __init__(self, checker, path, line, message):
        self.checker = checker
        self.path = path
        self.line = line
        self.message = message

    def key(self):
        return (self.checker, self.path, self.line)

    def render(self):
        return f"{self.path}:{self.line}: [{self.checker}] {self.message}"


def _absorb_loc(loc, pos: Pos):
    """Update carry-forward state from one serialized location object.

    clang omits "file"/"line" when unchanged from the previously printed
    location; macro locations nest spellingLoc/expansionLoc (both are
    printed, expansion last, so absorb in key order).
    """
    if not isinstance(loc, dict):
        return (pos.file, pos.line)
    out = None
    if "spellingLoc" in loc or "expansionLoc" in loc:
        for key in ("spellingLoc", "expansionLoc"):
            if key in loc:
                out = _absorb_loc(loc[key], pos)
        return out if out else (pos.file, pos.line)
    if "file" in loc:
        pos.file = loc["file"]
    if "line" in loc:
        pos.line = loc["line"]
    return (pos.file, pos.line)


class Ast:
    """One parsed translation unit with resolved per-node positions."""

    def __init__(self, root: dict, default_file: str):
        self.root = root
        self.pos_of = {}       # id(node) -> (file, line)
        self.parent_of = {}    # id(node) -> parent node (or None)
        self._resolve(root, Pos(), None, default_file)

    def _resolve(self, node, pos, parent, default_file):
        if not isinstance(node, dict):
            return
        begin = None
        for key, val in node.items():
            if key == "loc":
                p = _absorb_loc(val, pos)
                if begin is None and p[1]:
                    begin = p
            elif key == "range" and isinstance(val, dict):
                p = _absorb_loc(val.get("begin", {}), pos)
                if begin is None and p[1]:
                    begin = p
                _absorb_loc(val.get("end", {}), pos)
        if begin is None:
            begin = (pos.file, pos.line)
        if begin[0] == "<unknown>" and default_file:
            begin = (default_file, begin[1])
        self.pos_of[id(node)] = begin
        self.parent_of[id(node)] = parent
        for child in node.get("inner", []) or []:
            self._resolve(child, pos, node, default_file)

    def pos(self, node):
        return self.pos_of.get(id(node), ("<unknown>", 0))

    def parent(self, node):
        return self.parent_of.get(id(node))


def strip_wrappers(node):
    """Descend through semantics-free wrapper expressions."""
    while isinstance(node, dict) and node.get("kind") in WRAPPER_KINDS:
        inner = node.get("inner") or []
        if len(inner) != 1:
            # CXXConstructExpr-like multi-child handled by callers.
            break
        node = inner[0]
    return node


def significant_ancestor(ast: Ast, node):
    """First ancestor that is not a pure wrapper (CXXConstructExpr with a
    single argument counts as a wrapper: copy/move construction)."""
    cur = ast.parent(node)
    while cur is not None:
        kind = cur.get("kind")
        if kind in WRAPPER_KINDS:
            cur = ast.parent(cur)
            continue
        if kind == "CXXConstructExpr" and len(cur.get("inner") or []) == 1:
            cur = ast.parent(cur)
            continue
        return cur
    return None


def callee_name(call_node):
    """Name of the called function/operator for Call/MemberCall/OperatorCall."""
    inner = call_node.get("inner") or []
    if not inner:
        return None
    head = strip_wrappers(inner[0])
    kind = head.get("kind")
    if kind == "MemberExpr":
        name = head.get("name", "")
        return name.lstrip(".->") or None
    if kind == "DeclRefExpr":
        ref = head.get("referencedDecl") or {}
        return ref.get("name")
    if kind == "UnresolvedLookupExpr":
        return head.get("name")
    return None


def member_callee_parts(call_node):
    """(method_name, base_node) for a CXXMemberCallExpr, else (None, None)."""
    inner = call_node.get("inner") or []
    if not inner:
        return None, None
    head = strip_wrappers(inner[0])
    if head.get("kind") != "MemberExpr":
        return None, None
    base_inner = head.get("inner") or []
    base = strip_wrappers(base_inner[0]) if base_inner else None
    name = head.get("name", "").lstrip(".->")
    return name or None, base


def expr_key(node):
    """Canonical identity string for a receiver expression."""
    if not isinstance(node, dict):
        return "?"
    node = strip_wrappers(node)
    kind = node.get("kind")
    if kind == "DeclRefExpr":
        ref = node.get("referencedDecl") or {}
        return ref.get("name", node.get("name", "?"))
    if kind == "MemberExpr":
        inner = node.get("inner") or []
        base = strip_wrappers(inner[0]) if inner else None
        name = node.get("name", "?").lstrip(".->")
        if base is not None and base.get("kind") == "CXXThisExpr":
            return name
        return f"{expr_key(base)}.{name}"
    if kind == "CXXThisExpr":
        return "this"
    if kind == "ArraySubscriptExpr":
        inner = node.get("inner") or []
        base = expr_key(inner[0]) if inner else "?"
        return f"{base}[]"
    if kind == "UnaryOperator":
        inner = node.get("inner") or []
        return expr_key(inner[0]) if inner else "?"
    if kind in ("CallExpr", "CXXMemberCallExpr", "CXXOperatorCallExpr"):
        name, base = member_callee_parts(node)
        if name:
            return f"{expr_key(base)}.{name}()"
        return f"{callee_name(node) or '?'}()"
    return kind or "?"


def qual_type(node):
    t = node.get("type") or {}
    return t.get("qualType", "")


# ----------------------------------------------------------------------------
# Checker 1: rvalue-snapshot-deref
# ----------------------------------------------------------------------------

def check_rvalue_snapshot(ast: Ast, findings):
    def visit(node):
        if not isinstance(node, dict):
            return
        kind = node.get("kind")
        if kind in ("CXXMemberCallExpr", "CallExpr", "CXXOperatorCallExpr"):
            qt = qual_type(node)
            if SNAPSHOT_TYPE_RE.search(qt) and _is_producer(node):
                anc = significant_ancestor(ast, node)
                verdict = _classify_snapshot_use(ast, node, anc)
                if verdict:
                    path, line = ast.pos(node)
                    findings.append(Finding(
                        "rvalue-snapshot-deref", path, line,
                        f"{verdict} through a temporary '{qt}' -- pin the "
                        "snapshot in a named local so it outlives the access "
                        "(see DESIGN.md §12.4 / §17.1)"))
        for child in node.get("inner", []) or []:
            visit(child)

    visit(ast.root)


def _is_producer(call_node):
    """True when the call produces a fresh snapshot (not a re-read of a
    named shared_ptr local, which DeclRefExpr uses never are)."""
    if call_node.get("kind") == "CXXOperatorCallExpr":
        # operator-> / operator* on shared_ptr yields the payload, not a
        # snapshot; operator= returns shared_ptr& (not prvalue).  Only
        # treat call operators producing shared_ptr by value as producers.
        name = callee_name(call_node)
        if name in ("operator->", "operator*", "operator="):
            return False
    vk = call_node.get("valueCategory", "prvalue")
    return vk == "prvalue"


def _classify_snapshot_use(ast: Ast, call_node, anc):
    """Return a description string when the use is unsafe, else None."""
    if anc is None:
        return None
    kind = anc.get("kind")
    if kind == "MemberExpr":
        name = anc.get("name", "").lstrip(".->")
        if name in ("get", "operator->", "operator*"):
            return f"pointer escape via '.{name}()'"
        return f"member access '.{name}'"
    if kind == "CXXOperatorCallExpr":
        name = callee_name(anc)
        if name in ("operator->", "operator*"):
            # The snapshot must be the object argument (first child after
            # the callee ref).
            inner = anc.get("inner") or []
            if len(inner) >= 2:
                obj = strip_wrappers(inner[1])
                if _contains(obj, call_node):
                    return f"dereference via '{name}'"
        return None
    if kind == "UnaryOperator" and anc.get("opcode") == "*":
        return "dereference via 'operator*'"
    # VarDecl (pinned), ReturnStmt, call argument, ctor argument: safe --
    # the full-expression or the new owner keeps the control block alive.
    return None


def _contains(haystack, needle):
    if haystack is needle:
        return True
    if not isinstance(haystack, dict):
        return False
    for child in haystack.get("inner", []) or []:
        if _contains(child, needle):
            return True
    return False


# ----------------------------------------------------------------------------
# Checkers 2+3 share a per-function linear event walk.
# ----------------------------------------------------------------------------

class FunctionScan:
    """Linear (source-order) facts extracted from one function body."""

    def __init__(self, name, path, line):
        self.name = name          # "Class::method" or bare name
        self.path = path
        self.line = line
        self.acquires = []        # (lock_id, held_tuple_before, file, line)
        self.calls = []           # (callee_keys, held_tuple, file, line)


def function_name(ast: Ast, node, record_names, record_stack):
    name = node.get("name", "")
    cls = None
    if record_stack:
        cls = record_stack[-1]
    pid = node.get("parentDeclContextId")
    if pid is not None and pid in record_names:
        cls = record_names[pid]
    if cls:
        return f"{cls}::{name}"
    return name


def scan_functions(ast: Ast, analysis):
    """Walk the TU; run handle-across-mutation inline and collect lock
    facts (FunctionScan) for the global lock-order pass."""
    record_names = {}

    def index_records(node):
        if not isinstance(node, dict):
            return
        if node.get("kind") in ("CXXRecordDecl", "ClassTemplateSpecializationDecl"):
            nid = node.get("id")
            if nid is not None and node.get("name"):
                record_names[nid] = node["name"]
        for child in node.get("inner", []) or []:
            index_records(child)

    index_records(ast.root)

    def visit(node, record_stack):
        if not isinstance(node, dict):
            return
        kind = node.get("kind")
        if kind in ("CXXRecordDecl", "ClassTemplateSpecializationDecl"):
            name = node.get("name")
            record_stack = record_stack + [name] if name else record_stack
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl"):
            body = None
            for child in node.get("inner", []) or []:
                if isinstance(child, dict) and child.get("kind") == "CompoundStmt":
                    body = child
            if body is not None:
                fname = function_name(ast, node, record_names, record_stack)
                path, line = ast.pos(node)
                scan = FunctionScan(fname, path, line)
                _scan_body(ast, body, scan, analysis)
                analysis.add_function(scan)
        for child in node.get("inner", []) or []:
            visit(child, record_stack)

    visit(ast.root, [])


def _guard_lock_id(ast: Ast, ctor_arg, enclosing_record_hint=None):
    """Lock identity 'Owner::member' from the guard constructor argument."""
    arg = strip_wrappers(ctor_arg)
    kind = arg.get("kind")
    if kind == "MemberExpr":
        name = arg.get("name", "?").lstrip(".->")
        inner = arg.get("inner") or []
        base = strip_wrappers(inner[0]) if inner else None
        if base is not None:
            bq = qual_type(base)
            owner = class_of(bq)
            if owner:
                return f"{owner}::{name}"
        if enclosing_record_hint:
            return f"{enclosing_record_hint}::{name}"
        return f"?::{name}"
    if kind == "DeclRefExpr":
        ref = arg.get("referencedDecl") or {}
        name = ref.get("name", arg.get("name", "?"))
        owner = class_of(qual_type(arg))
        if owner and owner not in ("Mutex", "SharedMutex"):
            return f"{owner}::{name}"
        return f"::{name}"
    return None


def _scan_body(ast: Ast, body, scan: FunctionScan, analysis):
    """Linear walk of one function body.

    Tracks:
      * guard variables (name -> lock_id, held?) with block scoping and
        mid-scope unlock()/lock() toggles;
      * container-derived pointers (name -> (receiver_key, kind)) with
        poisoning on mutation and clearing on re-assignment;
      * calls with the held-lock set at the call site.
    Lambda bodies are scanned as separate anonymous functions.
    """
    guards = {}          # var name -> [lock_id, held(bool), depth]
    derived = {}         # var name -> [receiver_key, container, depth,
                         #              poisoned_by (None | (line, mutator))]
    skip_use_ids = set() # DeclRefExpr nodes consumed by assignment LHS

    def held_tuple():
        return tuple(sorted({g[0] for g in guards.values() if g[1]}))

    def handle_var_decl(node, depth):
        name = node.get("name")
        qt = qual_type(node)
        init = None
        for child in node.get("inner", []) or []:
            if isinstance(child, dict) and child.get("kind") not in (
                    "TypedefDecl", "TemplateArgument"):
                init = child
        if name is None:
            return
        gm = GUARD_TYPE_RE.search(qt)
        if gm and init is not None:
            ctor = strip_wrappers(init)
            args = [c for c in (ctor.get("inner") or [])
                    if isinstance(c, dict)]
            if ctor.get("kind") == "CXXConstructExpr" and args:
                lock_id = _guard_lock_id(ast, args[0])
                if lock_id:
                    path, line = ast.pos(node)
                    scan.acquires.append((lock_id, held_tuple(), path, line))
                    guards[name] = [lock_id, True, depth]
            return
        if init is not None:
            dk = _derive_from(init)
            if dk and _is_ptr_like(qt):
                derived[name] = [dk[0], dk[1], depth, None]
                return
        # A fresh non-derived declaration shadows any tracked state.
        derived.pop(name, None)

    def _is_ptr_like(qt):
        return "*" in qt or "&" in qt or "iterator" in qt

    def _derive_from(init):
        """(receiver_key, container_kind) when init derives a pointer from
        a tracked container, else None."""
        e = strip_wrappers(init)
        if e.get("kind") == "UnaryOperator" and e.get("opcode") == "&":
            inner = e.get("inner") or []
            if inner:
                e = strip_wrappers(inner[0])
        if e.get("kind") == "CXXMemberCallExpr":
            name, base = member_callee_parts(e)
            if name in DERIVER_NAMES and base is not None:
                ck = container_kind(qual_type(base))
                if ck:
                    return (expr_key(base), ck)
        elif e.get("kind") == "CXXOperatorCallExpr":
            name = callee_name(e)
            inner = e.get("inner") or []
            if name == "operator[]" and len(inner) >= 2:
                base = strip_wrappers(inner[1])
                ck = container_kind(qual_type(base))
                if ck:
                    return (expr_key(base), ck)
        return None

    def handle_member_call(node):
        name, base = member_callee_parts(node)
        if name is None:
            return
        # Guard toggles.
        if base is not None and base.get("kind") == "DeclRefExpr":
            ref = (base.get("referencedDecl") or {})
            vname = ref.get("name", base.get("name"))
            if vname in guards and name in ("lock", "unlock"):
                guards[vname][1] = (name == "lock")
                if name == "lock":
                    g = guards[vname]
                    path, line = ast.pos(node)
                    scan.acquires.append((g[0], held_tuple(), path, line))
                return
        # Container mutation -> poison derived pointers for this receiver.
        if base is not None:
            ck = container_kind(qual_type(base))
            if ck and name in MUTATORS.get(ck, ()):
                rkey = expr_key(base)
                path, line = ast.pos(node)
                for var, st in derived.items():
                    if st[0] == rkey and st[3] is None:
                        st[3] = (line, name)

    def handle_operator_call(node):
        name = callee_name(node)
        inner = node.get("inner") or []
        if name == "operator[]" and len(inner) >= 2:
            base = strip_wrappers(inner[1])
            ck = container_kind(qual_type(base))
            if ck and "operator[]" in MUTATORS.get(ck, ()):
                rkey = expr_key(base)
                _, line = ast.pos(node)
                for var, st in derived.items():
                    if st[0] == rkey and st[3] is None:
                        st[3] = (line, "operator[]")

    def record_call(node):
        """Register an outgoing call edge with the current held set."""
        keys = []
        if node.get("kind") == "CXXMemberCallExpr":
            name, base = member_callee_parts(node)
            if name:
                if base is not None:
                    cls = class_of(qual_type(base))
                    if cls:
                        keys.append(f"{cls}::{name}")
                keys.append(name)
        else:
            name = callee_name(node)
            if name:
                keys.append(name)
        if keys:
            path, line = ast.pos(node)
            scan.calls.append((tuple(keys), held_tuple(), path, line))

    def handle_assign(node):
        inner = [c for c in (node.get("inner") or []) if isinstance(c, dict)]
        if len(inner) != 2:
            return
        lhs = strip_wrappers(inner[0])
        if lhs.get("kind") == "DeclRefExpr":
            ref = lhs.get("referencedDecl") or {}
            vname = ref.get("name", lhs.get("name"))
            if vname in derived:
                skip_use_ids.add(id(inner[0]))
                skip_use_ids.add(id(lhs))
                dk = _derive_from(inner[1])
                if dk:
                    derived[vname] = [dk[0], dk[1], derived[vname][2], None]
                else:
                    derived.pop(vname, None)

    def check_use(node):
        ref = node.get("referencedDecl") or {}
        vname = ref.get("name", node.get("name"))
        st = derived.get(vname)
        if st and st[3] is not None and id(node) not in skip_use_ids:
            path, line = ast.pos(node)
            mline, mname = st[3]
            analysis.findings.append(Finding(
                "handle-across-mutation", path, line,
                f"'{vname}' (derived from {st[1]} '{st[0]}') used after "
                f"'{st[0]}.{mname}(...)' at line {mline} may have "
                "invalidated it -- re-derive via get()/find() after the "
                "mutation (generation recheck, DESIGN.md §17.2)"))
            st[3] = None  # one report per poisoning

    def walk(node, depth):
        if not isinstance(node, dict):
            return
        kind = node.get("kind")
        if kind == "LambdaExpr":
            # The lambda body is its own scope/function; scan separately
            # so captured guards don't leak across.
            for child in node.get("inner", []) or []:
                if isinstance(child, dict) and child.get("kind") == "CompoundStmt":
                    sub = FunctionScan(f"{scan.name}::<lambda>", *ast.pos(node))
                    _scan_body(ast, child, sub, analysis)
                    analysis.add_function(sub)
            return
        if kind == "CompoundStmt":
            for child in node.get("inner", []) or []:
                walk(child, depth + 1)
            # Scope exit: release guards and forget pointers declared here.
            for name in [n for n, g in guards.items() if g[2] >= depth + 1]:
                del guards[name]
            for name in [n for n, st in derived.items() if st[2] >= depth + 1]:
                del derived[name]
            return
        if kind == "VarDecl":
            handle_var_decl(node, depth)
            # Still walk the initializer for producer calls inside it.
            for child in node.get("inner", []) or []:
                walk(child, depth)
            return
        if kind == "BinaryOperator" and node.get("opcode") == "=":
            handle_assign(node)
        if kind == "CXXMemberCallExpr":
            handle_member_call(node)
            record_call(node)
        elif kind == "CXXOperatorCallExpr":
            handle_operator_call(node)
        elif kind == "CallExpr":
            record_call(node)
        elif kind == "DeclRefExpr":
            check_use(node)
        for child in node.get("inner", []) or []:
            walk(child, depth)

    walk(body, 0)


# ----------------------------------------------------------------------------
# Global lock-order analysis (across all scanned TUs).
# ----------------------------------------------------------------------------

class LockOrderGraph:
    def __init__(self):
        self.functions = {}   # name -> FunctionScan (first wins)

    def count(self):
        return len({id(s) for s in self.functions.values()})

    def add(self, scan: FunctionScan):
        self.functions.setdefault(scan.name, scan)
        # Also index by bare method name for unqualified resolution.
        if "::" in scan.name:
            bare = scan.name.rsplit("::", 1)[1]
            self.functions.setdefault(bare, scan)

    def edges_and_cycles(self, declared):
        """Compute observed hold->acquire edges (transitive through the
        call graph) and return (edges, cycles) where cycles is a list of
        (cycle_nodes, offending_edges)."""
        # Transitive acquired-lock summaries, to fixpoint.
        summary = {name: {a[0] for a in scan.acquires}
                   for name, scan in self.functions.items()}
        changed = True
        while changed:
            changed = False
            for name, scan in self.functions.items():
                for keys, _held, _f, _l in scan.calls:
                    callee = self._resolve(keys)
                    if callee and not summary[name] >= summary[callee]:
                        summary[name] |= summary[callee]
                        changed = True

        edges = {}  # (A, B) -> witness "file:line (function)"
        for name, scan in self.functions.items():
            for lock, held, path, line in scan.acquires:
                for h in held:
                    if h != lock:
                        edges.setdefault(
                            (h, lock), f"{path}:{line} ({name})")
            for keys, held, path, line in scan.calls:
                callee = self._resolve(keys)
                if callee and held:
                    for b in summary[callee]:
                        for h in held:
                            if h != b:
                                edges.setdefault(
                                    (h, b),
                                    f"{path}:{line} ({name} -> {callee})")

        # Cycle detection over observed + declared edges.
        graph = {}
        for (a, b) in edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        for (a, b) in declared:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())

        cycles = []
        for scc in tarjan_sccs(graph):
            nodes = set(scc)
            in_cycle = len(scc) > 1 or (
                len(scc) == 1 and scc[0] in graph.get(scc[0], ()))
            if not in_cycle:
                continue
            scc_edges = [(a, b) for (a, b) in edges
                         if a in nodes and b in nodes]
            offending = [e for e in scc_edges if e not in declared]
            cycles.append((sorted(nodes), offending, scc_edges))
        return edges, cycles

    def _resolve(self, keys):
        for k in keys:
            if k in self.functions:
                return k
        return None


def tarjan_sccs(graph):
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v):
        # Iterative Tarjan to survive deep graphs.
        work = [(v, iter(sorted(graph.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return sccs


# ----------------------------------------------------------------------------
# Suppressions (mirrors softcell_lint.py grammar).
# ----------------------------------------------------------------------------

def load_file_suppressions(path):
    """-> dict[(checker, path, line)] = justification; exits 2 on garbage."""
    entries = {}
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                print(f"{path}:{lineno}: malformed suppression "
                      f"(want '<checker> <path>:<line> <justification>')",
                      file=sys.stderr)
                sys.exit(2)
            checker, loc, justification = parts
            if checker not in CHECKERS:
                print(f"{path}:{lineno}: unknown checker '{checker}'",
                      file=sys.stderr)
                sys.exit(2)
            m = re.fullmatch(r"(.+):(\d+)", loc)
            if not m:
                print(f"{path}:{lineno}: bad location '{loc}'",
                      file=sys.stderr)
                sys.exit(2)
            entries[(checker, m.group(1), int(m.group(2)))] = justification
    return entries


def load_inline_suppressions(source_path):
    """-> dict[(checker, line)] = justification for one source file.
    A marker suppresses findings on its own line and the line below."""
    out = {}
    try:
        with open(source_path, encoding="utf-8", errors="replace") as fh:
            for lineno, raw in enumerate(fh, 1):
                m = SUPPRESS_INLINE_RE.search(raw)
                if m:
                    checker, justification = m.group(1), m.group(2).strip()
                    out[(checker, lineno)] = justification or "(none)"
    except OSError:
        pass
    return out


# ----------------------------------------------------------------------------
# Lock-order whitelist.
# ----------------------------------------------------------------------------

def load_lock_order(path):
    """Declared edges 'A -> B' meaning A may be held while acquiring B."""
    declared = set()
    if not os.path.exists(path):
        return declared
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = re.fullmatch(r"(\S+)\s*->\s*(\S+)", line)
            if not m:
                print(f"{path}:{lineno}: bad lock-order entry '{line}' "
                      "(want 'Owner::lock -> Owner::lock')", file=sys.stderr)
                sys.exit(2)
            declared.add((m.group(1), m.group(2)))
    return declared


# ----------------------------------------------------------------------------
# Clang invocation + AST-dump cache.
# ----------------------------------------------------------------------------

def clang_version(clang):
    try:
        out = subprocess.run([clang, "--version"], capture_output=True,
                             text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.splitlines()[0].strip() if out.stdout else "clang"


def probe_json_support(clang):
    """True when `clang++ -Xclang -ast-dump=json` emits JSON."""
    with tempfile.NamedTemporaryFile("w", suffix=".cpp", delete=False) as fh:
        fh.write("int softcell_probe() { return 0; }\n")
        probe = fh.name
    try:
        out = subprocess.run(
            [clang, "-x", "c++", "-std=c++20", "-fsyntax-only",
             "-Xclang", "-ast-dump=json", probe],
            capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        return False
    finally:
        os.unlink(probe)
    return out.returncode == 0 and out.stdout.lstrip().startswith("{")


def dump_ast(clang, source, args, cache_dir, ver, use_cache=True):
    """Return the parsed JSON AST for `source`, via the content-hash cache."""
    with open(source, "rb") as fh:
        content = fh.read()
    key = hashlib.sha256()
    key.update(ver.encode())
    key.update(b"\0".join(a.encode() for a in args))
    key.update(b"\0")
    key.update(content)
    digest = key.hexdigest()
    cache_path = os.path.join(cache_dir, f"{digest}.json.gz") if cache_dir else None

    if use_cache and cache_path and os.path.exists(cache_path):
        try:
            with gzip.open(cache_path, "rt", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass  # corrupt cache entry: fall through to a fresh dump

    cmd = [clang, "-x", "c++", "-fsyntax-only",
           "-Xclang", "-ast-dump=json"] + args + [source]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0 or not out.stdout.lstrip().startswith("{"):
        print(f"softcell-analyze: error: clang failed on {source}:\n"
              f"{out.stderr}", file=sys.stderr)
        sys.exit(2)
    root = json.loads(out.stdout)
    if use_cache and cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = cache_path + ".tmp"
        with gzip.open(tmp, "wt", encoding="utf-8") as fh:
            json.dump(root, fh)
        os.replace(tmp, cache_path)
    return root


# ----------------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------------

class Analysis:
    def __init__(self):
        self.findings = []
        self.locks = LockOrderGraph()

    def add_function(self, scan: FunctionScan):
        self.locks.add(scan)


def relativize(path, root):
    try:
        rel = os.path.relpath(os.path.realpath(path), os.path.realpath(root))
    except ValueError:
        return path
    return path if rel.startswith("..") else rel


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="softcell-analyze",
        description="AST-grounded lifetime & lock-order checks for softcell")
    ap.add_argument("paths", nargs="*", help="sources or directories "
                    "(default: <root>/src)")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--clang", default=os.environ.get("SOFTCELL_CLANGXX",
                                                      "clang++"))
    ap.add_argument("--ast", action="append", default=[], metavar="SRC=DUMP",
                    help="use a precomputed JSON AST dump for SRC instead of "
                    "invoking clang (repeatable; used by the fixture tests)")
    ap.add_argument("--cache-dir", default=None,
                    help="AST dump cache (default <root>/build/analyze-cache)")
    ap.add_argument("--no-cache", action="store_true")
    ap.add_argument("--suppressions", default=None,
                    help="default <root>/tools/analyze_suppressions.txt")
    ap.add_argument("--lock-order", default=None,
                    help="default <root>/tools/lock_order.txt")
    ap.add_argument("--report", default=None, help="write a JSON report")
    ap.add_argument("--probe-only", action="store_true",
                    help="exit 0 if clang supports JSON AST dumps, else 3")
    ap.add_argument("--list-checkers", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checkers:
        for c in CHECKERS:
            print(c)
        return 0

    root = os.path.abspath(args.root)
    suppress_file = args.suppressions or os.path.join(
        root, "tools", "analyze_suppressions.txt")
    lock_order_file = args.lock_order or os.path.join(
        root, "tools", "lock_order.txt")
    cache_dir = args.cache_dir or os.path.join(root, "build", "analyze-cache")

    ast_map = {}
    for pair in args.ast:
        if "=" not in pair:
            print(f"softcell-analyze: bad --ast '{pair}' (want SRC=DUMP)",
                  file=sys.stderr)
            return 2
        src, dump = pair.split("=", 1)
        ast_map[os.path.abspath(src)] = dump

    # Collect translation units.
    targets = []
    inputs = args.paths or ([os.path.join(root, "src")] if not ast_map else [])
    for p in inputs:
        ap_ = os.path.abspath(p)
        if os.path.isdir(ap_):
            for dirpath, _dirs, files in os.walk(ap_):
                for f in sorted(files):
                    if f.endswith(".cpp"):
                        targets.append(os.path.join(dirpath, f))
        elif os.path.isfile(ap_):
            targets.append(ap_)
        else:
            print(f"softcell-analyze: no such path: {p}", file=sys.stderr)
            return 2
    for src in ast_map:
        if src not in targets:
            targets.append(src)
    targets.sort()
    if not targets:
        print("softcell-analyze: nothing to analyze", file=sys.stderr)
        return 2

    need_clang = [t for t in targets if t not in ast_map]
    clang_args = ["-std=c++20", "-I", os.path.join(root, "src")]

    ver = None
    if need_clang or args.probe_only:
        ver = clang_version(args.clang)
        supported = ver is not None and probe_json_support(args.clang)
        if args.probe_only:
            return 0 if supported else 3
        if not supported:
            print("softcell-analyze: SKIP: clang++ with JSON AST support "
                  "not available (set SOFTCELL_CLANGXX to override)",
                  file=sys.stderr)
            return 3

    analysis = Analysis()
    asts = []
    for src in targets:
        if src in ast_map:
            try:
                with open(ast_map[src], encoding="utf-8") as fh:
                    root_node = json.load(fh)
            except (OSError, json.JSONDecodeError) as e:
                print(f"softcell-analyze: cannot read AST dump "
                      f"{ast_map[src]}: {e}", file=sys.stderr)
                return 2
        else:
            root_node = dump_ast(args.clang, src, clang_args, cache_dir, ver,
                                 use_cache=not args.no_cache)
        asts.append((src, Ast(root_node, default_file=src)))

    # Per-TU checkers.
    report_roots = [os.path.realpath(t) for t in targets]
    report_roots.append(os.path.realpath(os.path.join(root, "src")))

    def reportable(path):
        rp = os.path.realpath(path)
        return any(rp == r or rp.startswith(r + os.sep) for r in report_roots)

    for src, ast in asts:
        before = len(analysis.findings)
        check_rvalue_snapshot(ast, analysis.findings)
        scan_functions(ast, analysis)
        # Findings pointing outside the analyzed tree (system headers) are
        # dropped; carrying them would make runs environment-dependent.
        kept = [f for f in analysis.findings[before:] if reportable(f.path)]
        del analysis.findings[before:]
        analysis.findings.extend(kept)

    # Global lock-order pass.
    declared = load_lock_order(lock_order_file)
    edges, cycles = analysis.locks.edges_and_cycles(declared)
    for nodes, offending, scc_edges in cycles:
        if not offending:
            # Every observed edge in the cycle is declared: the ordering
            # is sanctioned (e.g. same-class instances locked in address
            # order), so the cycle is covered -- not a finding.
            continue
        a, b = offending[0]
        witness = edges.get((a, b), "?")
        wpath, _, wrest = witness.partition(":")
        wline = int(wrest.split()[0].split("(")[0]) if wrest and \
            wrest.split()[0].split("(")[0].isdigit() else 1
        analysis.findings.append(Finding(
            "lock-order-cycle", wpath, wline,
            f"lock acquisition cycle {' -> '.join(nodes + [nodes[0]])}; "
            f"edge {a} -> {b} (witness {witness}) is not declared in "
            f"{os.path.relpath(lock_order_file, root)} -- either fix the "
            "ordering or declare it (DESIGN.md §17.3)"))

    # Dedupe (headers analyzed in several TUs) and relativize.
    seen = set()
    unique = []
    for f in sorted(analysis.findings, key=lambda f: (f.path, f.line, f.checker)):
        f.path = relativize(f.path, root)
        if f.key() in seen:
            continue
        seen.add(f.key())
        unique.append(f)

    # Suppressions.  Inline markers are preloaded from EVERY analyzed
    # source (not just files with findings) so a marker left behind in a
    # now-clean file is still caught by the stale audit below.
    file_supp = load_file_suppressions(suppress_file)
    used_file_supp = set()
    inline_cache = {t: load_inline_suppressions(t) for t in targets}
    used_inline = {}  # path -> set of (checker, marker_line)
    active = []
    suppressed = []
    for f in unique:
        key = (f.checker, f.path, f.line)
        if key in file_supp:
            used_file_supp.add(key)
            suppressed.append(f)
            continue
        apath = os.path.join(root, f.path) if not os.path.isabs(f.path) else f.path
        if apath not in inline_cache:
            inline_cache[apath] = load_inline_suppressions(apath)
        inline = inline_cache[apath]
        marker = None
        if (f.checker, f.line) in inline:
            marker = (f.checker, f.line)
        elif (f.checker, f.line - 1) in inline:
            marker = (f.checker, f.line - 1)
        if marker:
            used_inline.setdefault(apath, set()).add(marker)
            suppressed.append(f)
            continue
        active.append(f)

    # Stale suppression audit (satellite: stale entries are hard failures).
    stale = []
    for key, justification in sorted(file_supp.items()):
        if key not in used_file_supp:
            stale.append(f"{os.path.relpath(suppress_file, root)}: stale "
                         f"suppression '{key[0]} {key[1]}:{key[2]}' matches "
                         "no diagnostic -- remove it")
    for apath, inline in sorted(inline_cache.items()):
        for (checker, line) in sorted(inline):
            if (checker, line) not in used_inline.get(apath, set()):
                stale.append(f"{relativize(apath, root)}:{line}: stale "
                             f"'sc-analyze: suppress({checker})' marker "
                             "matches no diagnostic -- remove it")
    # Inline markers in files that were never analyzed can't be audited;
    # only files we loaded are in inline_cache, so nothing extra to do.

    for f in active:
        print(f.render())
    for s in stale:
        print(f"stale-suppression: {s}")

    if args.report:
        payload = {
            "version": VERSION,
            "files_scanned": len(targets),
            "functions_scanned": analysis.locks.count(),
            "lock_edges": sorted(f"{a} -> {b}" for (a, b) in edges),
            "findings": [
                {"checker": f.checker, "path": f.path, "line": f.line,
                 "message": f.message} for f in active],
            "suppressed": [
                {"checker": f.checker, "path": f.path, "line": f.line}
                for f in suppressed],
            "stale_suppressions": stale,
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    if active or stale:
        total = len(active)
        print(f"softcell-analyze: {total} finding(s), "
              f"{len(stale)} stale suppression(s)", file=sys.stderr)
        return 1
    print(f"softcell-analyze: clean ({len(targets)} file(s), "
          f"{analysis.locks.count()} function(s), "
          f"{len(edges)} lock edge(s))", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
