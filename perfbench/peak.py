"""Run a module or a script in this process, then report its own peak RSS.

    python3 perfbench/peak.py -m MODULE ARGS...
    python3 perfbench/peak.py SCRIPT ARGS...

The parent's `os.wait4` rusage cannot give this figure: at exec the kernel
carries the high-water mark of the replaced image, which is a copy of the
parent, into the child's ru_maxrss. VmHWM in /proc/self/status belongs to
this process's own address space. It is written as the last stderr line,
`peak_rss_kb N`, also when the program exits with an error.
"""

import runpy
import sys


def vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(args):
    try:
        if args[0] == "-m":
            sys.argv = args[1:]
            runpy.run_module(args[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = args
            runpy.run_path(args[0], run_name="__main__")
    finally:
        sys.stdout.flush()
        print(f"peak_rss_kb {vmhwm_kb()}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
