#!/usr/bin/env python3
"""Fail when compiled library code boxes floats where it must not.

Two checks over the library objects of a built tree.

1. Generic bigarray accessors. ocamlopt inlines
   Bigarray.Array1.get/set/unsafe_get/unsafe_set into a plain load or
   store only where the array's kind and layout are known at the
   access. Where they are not (a plane parameter left untyped in a
   polymorphic helper), it emits a call to caml_ba_get_N /
   caml_ba_set_N, which boxes every float it moves. `nm` names every
   module with such a reference.

2. Calls through another module's closure in the hot kernels. dune's
   default profile compiles every module with -opaque, so no call into
   another module is inlined, whatever its [@inline] attribute: it goes
   through caml_applyN, which boxes every float argument and a float
   result (a caml_curryN reference is a closure built in the kernel).
   A float helper that a hot loop calls must live in the module that
   loops over it. The
   kernels listed in HOT are disassembled (`objdump -dr`) and any
   caml_apply*/caml_curry* relocation inside one of them fails the
   check; a listed kernel that is missing from its object fails too,
   so a rename cannot drop it from the check silently.

Usage, after `dune build`, from the repository root:

    python3 tools/check_unboxed.py [BUILD_LIB_DIR]

BUILD_LIB_DIR defaults to _build/default/lib. Exit status: 0 clean,
1 a check failed, 2 nothing to check.
"""

import pathlib
import re
import subprocess
import sys

GENERIC = re.compile(r"\bcaml_ba_(get|set)_\w+")

# object stem -> the functions in it that must not call through a
# closure of another module
HOT = {
    "linalg__Csparse": ["refactor", "norms_inf", "lu_abs_norm_inf", "numeric"],
    "testability__Fastsim": ["smw_point_solve", "bound_of", "solve_columns", "sweep_rows"],
    "mna__Stamps": ["fill_sparse"],
}

SYMBOL = re.compile(r"^[0-9a-f]+ <caml\w+[.$](\w+)_\d+>:$")
CLOSURE_CALL = re.compile(r"\bcaml_(apply|curry)\d+\w*")


def generic_refs(obj):
    out = subprocess.run(
        ["nm", "-u", str(obj)], check=True, capture_output=True, text=True
    ).stdout
    return sorted({m.group(0) for m in GENERIC.finditer(out)})


def closure_calls(obj):
    """Function name -> the caml_apply*/caml_curry* symbols it references."""
    out = subprocess.run(
        ["objdump", "-dr", str(obj)], check=True, capture_output=True, text=True
    ).stdout
    calls, fn = {}, None
    for line in out.splitlines():
        m = SYMBOL.match(line)
        if m:
            fn = m.group(1)
            calls.setdefault(fn, set())
        elif fn is not None:
            calls[fn].update(c.group(0) for c in CLOSURE_CALL.finditer(line))
    return calls


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "_build/default/lib")
    objs = sorted(root.glob("**/*.o"))
    if not objs:
        print(f"check_unboxed: no object files under {root}; run dune build first", file=sys.stderr)
        sys.exit(2)
    failed = False
    flagged = [(obj, refs) for obj in objs if (refs := generic_refs(obj))]
    for obj, refs in flagged:
        print(f"{obj.stem}: {', '.join(refs)}  ({obj})")
    if flagged:
        failed = True
        print(
            f"{len(flagged)} module(s) call a generic bigarray accessor: "
            "give every plane parameter its type (Cmat.plane)"
        )
    by_stem = {obj.stem: obj for obj in objs}
    kernels = 0
    for stem, functions in HOT.items():
        obj = by_stem.get(stem)
        if obj is None:
            failed = True
            print(f"{stem}: no object file under {root}")
            continue
        calls = closure_calls(obj)
        for fn in functions:
            kernels += 1
            if fn not in calls:
                failed = True
                print(f"{stem}.{fn}: not found in {obj}")
            elif calls[fn]:
                failed = True
                print(
                    f"{stem}.{fn}: calls or builds a closure "
                    f"({', '.join(sorted(calls[fn]))}): keep the float helper it "
                    "calls in this module, at top level, or call it from outside "
                    "the kernel"
                )
    if failed:
        sys.exit(1)
    print(
        f"{len(objs)} library objects, no generic bigarray accessor; "
        f"{kernels} hot kernels, no call through another module's closure"
    )


if __name__ == "__main__":
    main()
