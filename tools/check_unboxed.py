#!/usr/bin/env python3
"""Fail when a compiled library module calls a generic bigarray accessor.

ocamlopt inlines Bigarray.Array1.get/set/unsafe_get/unsafe_set into a
plain load or store only where the array's kind and layout are known
at the access. Where they are not (a plane parameter left untyped in a
polymorphic helper), it emits a call to caml_ba_get_N / caml_ba_set_N,
which boxes every float it moves. This check runs nm over the library
objects of a built tree and names every module with such a reference.

Usage, after `dune build`, from the repository root:

    python3 tools/check_unboxed.py [BUILD_LIB_DIR]

BUILD_LIB_DIR defaults to _build/default/lib. Exit status: 0 clean,
1 some module calls a generic accessor, 2 nothing to check.
"""

import pathlib
import re
import subprocess
import sys

GENERIC = re.compile(r"\bcaml_ba_(get|set)_\w+")


def generic_refs(obj):
    out = subprocess.run(
        ["nm", "-u", str(obj)], check=True, capture_output=True, text=True
    ).stdout
    return sorted({m.group(0) for m in GENERIC.finditer(out)})


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "_build/default/lib")
    objs = sorted(root.glob("**/*.o"))
    if not objs:
        print(f"check_unboxed: no object files under {root}; run dune build first", file=sys.stderr)
        sys.exit(2)
    flagged = [(obj, refs) for obj in objs if (refs := generic_refs(obj))]
    for obj, refs in flagged:
        print(f"{obj.stem}: {', '.join(refs)}  ({obj})")
    if flagged:
        print(
            f"{len(flagged)} module(s) call a generic bigarray accessor: "
            "give every plane parameter its type (Cmat.plane)"
        )
        sys.exit(1)
    print(f"{len(objs)} library objects, no generic bigarray accessor")


if __name__ == "__main__":
    main()
