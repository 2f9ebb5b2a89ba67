#!/usr/bin/env python3
"""Fail when a library interface exports a `val` that nothing calls.

For every `val` in lib/**/*.mli, this looks for the name, as a whole
identifier, in every .ml file under lib/, bin/, bench/, benchsuite/,
examples/ and tools/, apart from the val's own implementation (the .ml
beside its .mli). A name with no match is an uncalled export: delete
it, keep it private, or list it in tools/val_audit_allow.txt as

    Module.val  reason

(one per line; `#` starts a comment). Tests are not searched, so a
val that only a test calls needs an allowlist line saying why the test
needs it. Any match counts as a call, whatever module it names, so the
check can miss an uncalled val but never flags one with a real caller.

Usage, from the repository root:

    python3 tools/val_audit.py

Exit status: 0 clean, 1 some val has no caller and no allowlist line
(or an allowlist line names a val that no longer exists).
"""

import pathlib
import re
import sys

CALLER_DIRS = ["lib", "bin", "bench", "benchsuite", "examples", "tools"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)")
SIG_OPEN = re.compile(r"^\s*module\s+([A-Z][A-Za-z0-9_']*)\b.*:\s*sig\s*$")
SIG_CLOSE = re.compile(r"^\s*end\s*$")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
ALLOW = pathlib.Path("tools/val_audit_allow.txt")


def exported_vals(mli):
    """(Module.Sub.val key, val name) for every val of an interface,
    with the path of the signature it sits in."""
    path = [mli.stem.capitalize()]
    for line in mli.read_text().splitlines():
        if m := SIG_OPEN.match(line):
            path.append(m.group(1))
        elif SIG_CLOSE.match(line) and len(path) > 1:
            path.pop()
        elif m := VAL.match(line):
            yield ".".join(path + [m.group(1)]), m.group(1)


def read_allowlist():
    allowed = {}
    if not ALLOW.exists():
        return allowed
    for n, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, reason = line.partition(" ")
        if not reason.strip():
            sys.exit(f"{ALLOW}:{n}: {key} has no reason")
        allowed[key] = reason.strip()
    return allowed


def main():
    sources = [
        p for d in CALLER_DIRS for p in sorted(pathlib.Path(d).glob("**/*.ml"))
        if "_build" not in p.parts
    ]
    # identifiers of each source file, so a lookup is one set test
    idents = {p: set(IDENT.findall(p.read_text())) for p in sources}
    allowed = read_allowlist()
    count = 0
    exported = set()
    uncalled = []
    for mli in sorted(pathlib.Path("lib").glob("**/*.mli")):
        own = mli.with_suffix(".ml")
        for key, name in exported_vals(mli):
            count += 1
            exported.add(key)
            if key in allowed:
                continue
            if not any(name in ids for p, ids in idents.items() if p != own):
                uncalled.append((key, mli))
    stale = sorted(set(allowed) - exported)
    for key, mli in uncalled:
        print(f"{key}: no caller outside {mli.with_suffix('.ml')}")
    for key in stale:
        print(f"{ALLOW}: {key} is not an exported val")
    print(f"{count} public vals in lib/**/*.mli, {len(allowed)} allowlisted")
    if uncalled or stale:
        print(
            f"{len(uncalled)} uncalled val(s), {len(stale)} stale allowlist line(s): "
            f"delete the val, drop it from its .mli, or give a reason in {ALLOW}"
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
