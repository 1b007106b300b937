#!/usr/bin/env bash
# Lint option fields against the rule documented in DESIGN.md
# ("Options"): an option exists only while production sets it. Every
# non-string field of a `struct ...Options`, a `struct ...Config` or
# `struct ViewDefinition` under src/ must be assigned by production
# code, in src/, tools/, bench/ or servebench/; tests/ and examples/ do
# not count. A field only tests set is a constant in every production
# binary: make it a named constexpr next to its reader.
#
# An assignment is `recv.field = x`, `recv->field op= x`, an element
# write `recv.field[i] = x`, or a designated initializer
# `Type{.field = x}` / `Type v{.field = x}`. It counts for a field only
# when its receiver resolves to the field's own struct: the receiver's
# type is read from the nearest earlier declaration of the variable in
# the same file (`auto` follows its initializer: a checked struct's
# `{}` temporary or another receiver's field), and a chain such as
# `opts.retry.max_attempts` follows the nested struct fields, setting
# `retry` and `max_attempts` both. A write through a data member
# (`options_.field = x`, any object whose name ends in `_`) is a
# component changing its own copy and does not count. Neither does
# assigning a field the value of its own default initializer
# (`x.bits = 10` where the struct says `int bits = 10`): the field is
# then the same constant in every production binary. A production
# assignment that names a checked field but whose receiver the lint
# cannot resolve fails the lint with its file:line: declare the
# receiver with its type. String fields (names and paths) are
# deployment settings and are not checked, though a write to one on a
# resolved receiver is no failure. Neither are std::function fields;
# the one left, CircuitBreaker::Options::now_ns, is the fake clock the
# breaker tests substitute.
#
# scripts/testdata/options_lint is a small repo root the lint must fail
# on with exactly one UNUSED OPTION line (CI runs it).
#
# Usage: scripts/check_options_used.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

exec python3 - <<'EOF'
import os
import re
import sys

PRODUCTION = ["src", "tools", "bench", "servebench"]
SOURCES = (".cc", ".cpp", ".h")
KEYWORDS = {"return", "else", "case", "goto", "throw", "delete", "new",
            "co_return", "co_yield", "typename", "using", "sizeof",
            "decltype", "operator", "do", "if", "while", "for", "switch"}
CV = re.compile(r"^(?:(?:const|constexpr|static|volatile|mutable|inline|"
                r"thread_local|struct|class)\s+)+")


def strip(text):
    """Blanks comments and string/char literals, keeping line breaks."""
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (min(j, n) - i - 1) + (c if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def files(dirs):
    for d in dirs:
        for base, _, names in sorted(os.walk(d)):
            for name in sorted(names):
                if name.endswith(SOURCES):
                    yield os.path.join(base, name)


def value(text):
    """Canonical form of an initializer or assigned value: numbers
    compare by value (`1000`, `1000.0`, `5u`), anything else by its
    text without spaces. None when empty."""
    text = re.sub(r"\s+", "", text)
    try:
        return float(re.sub(r"(?<=[0-9.])[uUlLfF]+$", "", text))
    except ValueError:
        return text or None


def rhs(text, start):
    """The value assigned at `start`, up to the `;`, `,` or closing
    bracket that ends it."""
    level = 0
    for i in range(start, len(text)):
        c = text[i]
        if c in "([{":
            level += 1
        elif c in ")]}":
            if level == 0:
                return text[start:i]
            level -= 1
        elif c in ";," and level == 0:
            return text[start:i]
    return text[start:]


# ---- Checked structs: key "Owner::Name" (or "Name" at namespace scope).
FIELD = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_:<>, *&]*[A-Za-z0-9_>*&])\s+([a-z_][a-z0-9_]*)"
    r"\s*(=.*|\{.*\})?;\s*$")
CHECKED = re.compile(r"Options$|Config$|^ViewDefinition$")
structs = {}  # key -> {field: (type, file, line, default)}
unchecked = {}  # key -> names of its string fields
for path in files(["src"]):
    if not path.endswith(".h"):
        continue
    lines = strip(open(path).read()).split("\n")
    scopes, depth, current = [], 0, None
    for lineno, line in enumerate(lines, 1):
        m = re.search(r"\b(?:class|struct)\s+([A-Za-z_]\w*)[^;{]*\{", line)
        if m:
            owner = [s for s, _ in scopes]
            key = "::".join(owner[-1:] + [m.group(1)])
            scopes.append((m.group(1), depth))
            if CHECKED.search(m.group(1)) and current is None:
                current = (key, depth)
                structs[key] = {}
                unchecked[key] = set()
        elif current is not None and depth == current[1] + 1:
            f = FIELD.match(line)
            if f and "std::string " in line:
                unchecked[current[0]].add(f.group(2))
            elif (f and not re.match(
                    r"\s*(static|using|typedef|return|friend)\s", line)):
                init = (f.group(3) or "").strip()
                init = init[1:] if init.startswith("=") else init[1:-1]
                structs[current[0]][f.group(2)] = (f.group(1).split()[-1]
                                                   .rstrip("&*"), path, lineno,
                                                   value(init))
        depth += line.count("{") - line.count("}")
        while scopes and depth <= scopes[-1][1]:
            scopes.pop()
        if current is not None and depth <= current[1]:
            current = None

by_name = {}
for key in structs:
    by_name.setdefault(key.split("::")[-1], []).append(key)


def struct_key(type_name, context):
    """Key of the checked struct a type string names ("?" when it is
    ambiguous), or None; an unqualified name shared by several structs
    resolves to the one owned by `context`, a class or file stem."""
    parts = re.sub(r"<.*", "", CV.sub("", type_name.strip())).split("::")
    name = parts[-1]
    if name not in by_name:
        return None
    if len(parts) >= 2 and "::".join(parts[-2:]) in structs:
        return "::".join(parts[-2:])
    keys = by_name[name]
    if len(keys) == 1:
        return keys[0]
    context = (context or "").replace("_", "").lower()
    owned = [k for k in keys if k.split("::")[0].lower() == context]
    return owned[0] if len(owned) == 1 else "?"


option_names = {f for fields in structs.values() for f in fields}
assigned = set()  # (key, field)
unresolved = []


def decl_type(text, var, end):
    """Type string of the nearest declaration of `var` before `end`."""
    pat = re.compile(
        r"(?:^|[\s(,{;])((?:const\s+|static\s+|constexpr\s+)*"
        r"(?:[A-Za-z_]\w*::)*[A-Za-z_]\w*(?:<[^;(){}]*>)?)"
        r"(?:\s*[&*]{1,2}\s*|\s+)" + re.escape(var) +
        r"\s*(=|;|\{|\(|,|\)|\[|:)")
    best = None
    for m in pat.finditer(text, 0, end):
        t = CV.sub("", m.group(1)).strip()
        if t.split("<")[0] in KEYWORDS:
            continue
        best = (t, m)
    if best is None:
        return None
    t, m = best
    if t != "auto":
        return t
    # auto: follow the initializer, `std::make_shared<T>(...)` (or
    # make_unique), a checked struct's `{}` temporary, or another receiver's
    # field. Any other call may be a function, so it stays unresolved.
    rest = text[m.end():m.end() + 200]
    init = re.match(r"\s*std::make_(?:shared|unique)<([\w:]+)>\s*\(", rest)
    if init:
        return init.group(1)
    init = re.match(r"\s*((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*[({]", rest)
    if init and struct_key(init.group(1), None) is not None:
        return init.group(1)
    init = re.match(r"\s*([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)\s*;", rest)
    if init:
        return resolve_chain(text, m.start(), init.group(1),
                             init.group(2).split(".")[1:])
    return None


def resolve_chain(text, end, base, members):
    """Type of `base.members...`, or None when it cannot be resolved."""
    t = decl_type(text, base, end)
    if t is None:
        return None
    key = struct_key(t, None)
    for member in members:
        if key in (None, "?") or member not in structs[key]:
            return None
        key = struct_key(structs[key][member][0], key.split("::")[0])
    return key


def mark(key, members, where, assigned_value=None):
    """Marks each field along `members`, starting at struct `key`; the
    last one only when `assigned_value` is not its default."""
    for i, member in enumerate(members):
        if key is None or member in unchecked.get(key, ()):
            return
        if key == "?" or member not in structs[key]:
            unresolved.append((where, ".".join(members)))
            return
        default = structs[key][member][3]
        if (i + 1 < len(members) or default is None or
                assigned_value != default):
            assigned.add((key, member))
        key = struct_key(structs[key][member][0], key.split("::")[0])


ASSIGN = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*|[\])])((?:\s*(?:\.|->)\s*[A-Za-z_]\w*)+)"
    r"((?:\s*\[[^][;]*\])*)\s*((?:[-+*/%|&^]|<<|>>)?)=(?!=)")
DESIGNATED = re.compile(r"([{,])\s*\.([a-z_]\w*)\s*=(?!=)")
for path in files(PRODUCTION):
    text = strip(open(path).read())
    stem = os.path.splitext(os.path.basename(path))[0]
    for m in ASSIGN.finditer(text):
        base = m.group(1)
        members = re.findall(r"[A-Za-z_]\w*", m.group(2))
        if not any(x in option_names for x in members):
            continue
        if base.endswith("_") or base == "this":
            continue
        where = "%s:%d" % (path, text.count("\n", 0, m.start()) + 1)
        t = decl_type(text, base, m.start()) if base[0] not in "])" else None
        if t is None:
            unresolved.append((where, base + "." + ".".join(members)))
            continue
        key = struct_key(t, stem)
        if key is None:
            # Not a checked struct. Only a chain through one of its
            # members could still reach an option.
            if len(members) > 1:
                unresolved.append((where, base + "." + ".".join(members)))
            continue
        # An element write or a compound assignment sets no whole value
        # to compare with the default.
        mark(key, members, where,
             None if m.group(3) or m.group(4) else value(rhs(text, m.end())))
    for m in DESIGNATED.finditer(text):
        if m.group(2) not in option_names:
            continue
        where = "%s:%d" % (path, text.count("\n", 0, m.start()) + 1)
        # Walk back to the bracket that opens this initializer list.
        i, level = m.start(1), 0
        while i >= 0:
            c = text[i]
            if c in ")]}":
                level += 1
            elif c in "([{":
                if level == 0:
                    break
                level -= 1
            i -= 1
        head = None
        if i >= 0 and text[i] == "{":
            head = re.search(
                r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)(?:\s+[A-Za-z_]\w*)?"
                r"\s*=?\s*$", text[max(0, i - 200):i])
        key = struct_key(head.group(1), stem) if head else None
        if key is None:
            unresolved.append((where, "." + m.group(2)))
            continue
        mark(key, [m.group(2)], where, value(rhs(text, m.end())))

status = 0
count = 0
for key in sorted(structs):
    for field, (_, path, lineno, _) in structs[key].items():
        count += 1
        if (key, field) not in assigned:
            print("UNUSED OPTION  %s:%d: %s::%s — no production caller "
                  "assigns it; make it a constant" % (path, lineno, key, field))
            status = 1
for where, what in unresolved:
    print("UNRESOLVED     %s: cannot tell which struct `%s` assigns; "
          "declare the receiver with its type" % (where, what))
    status = 1
if status == 0:
    print("check_options_used: OK (%d option and config fields, each "
          "assigned by a production caller)" % count)
sys.exit(status)
EOF
