#!/usr/bin/env python3
"""Check that only ISA-tagged functions in a library use AVX registers.

    check_isa_portability.py --objdump <objdump> <library>

The packed GEMM builds its AVX2 and AVX-512 tiles with a target pragma and
picks one at run time, so every other function in the library must run on a
baseline x86-64 CPU. A function whose demangled name contains none of the
ISA namespaces `::avx2::` or `::avx512::` fails the check when it uses a
ymm, zmm or opmask register, or any VEX/EVEX-encoded (v-prefixed) vector
instruction. That also catches an inline or template function compiled
under a target pragma: the linker may keep that copy for every caller, and
it raises SIGILL on an older CPU.

Exit status: 0 clean, 1 violations, 2 objdump failed.
"""
import argparse
import re
import subprocess
import sys

ISA_TAG = re.compile(r"::(avx2|avx512)::")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.*)>:$")
# "   1f:\tvmovaps %zmm25,%zmm4": mnemonic, then operands.
INSN = re.compile(r"^\s*[0-9a-f]+:\t(\S+)\s*(.*)$")
WIDE = re.compile(r"%[yz]mm\d|%k[0-7]\b|\{1to\d+\}|%xmm(1[6-9]|2\d|3[01])\b")
VECTOR_OPERAND = re.compile(r"%[xyz]mm")


def is_wide(mnemonic: str, operands: str) -> bool:
    if WIDE.search(operands):
        return True
    return mnemonic.startswith("v") and VECTOR_OPERAND.search(operands) is not None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("library")
    args = ap.parse_args()
    proc = subprocess.run([args.objdump, "-d", "-C", "--no-show-raw-insn", args.library],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 2

    functions = tagged = 0
    violations = {}
    name = None
    for line in proc.stdout.splitlines():
        m = FUNCTION.match(line)
        if m:
            name = m.group(1)
            functions += 1
            tagged += ISA_TAG.search(name) is not None
            continue
        m = INSN.match(line)
        if not m or name is None or ISA_TAG.search(name):
            continue
        if is_wide(m.group(1), m.group(2)) and name not in violations:
            violations[name] = line.strip()

    print(f"{args.library}: {functions} functions, {tagged} ISA-tagged, "
          f"{len(violations)} untagged using AVX")
    for fn, insn in sorted(violations.items()):
        print(f"  {fn}\n      {insn}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
