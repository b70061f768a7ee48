"""Run the codedcomp CLI as its console script does, then record peak memory.

Usage: python3 perfbench/cli_child.py <peak-file> <cli arguments...>
(with the program's ``src`` directory on PYTHONPATH).

The peak is VmHWM from /proc/self/status, in kB.  It counts this process
image only.  The rusage maximum that a parent gets from wait4 would also
count the parent's own memory, which a child inherits across vfork and exec.
"""

import sys

from codedcomp.cli import main


def peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    code = main(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="ascii") as fh:
        fh.write(f"{peak_kb()}\n")
    sys.exit(code)
