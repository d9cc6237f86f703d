"""Host and process-tree readings from ``/proc`` (Linux).

Memory is each process's peak resident set (``VmHWM``), summed over a
process and all its descendants; CPU is user + system time of the same
tree; steal is the share of host CPU time the hypervisor took.
"""

from __future__ import annotations

import os

__all__ = [
    "child_env",
    "cpu_count",
    "process_tree",
    "steal_ticks",
    "tree_cpu_s",
    "tree_peak_rss_mb",
]

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")

#: Longest temp dir that leaves room for ``/repro-shards-XXXXXXXX/shard-N.sock``
#: (35 bytes) inside a unix socket address (at most 107 bytes).
MAX_TMPDIR_LEN = 70


def child_env(pythonpath: str, out_dir: str) -> dict[str, str]:
    """Environment for a process the benchmark starts.

    Temp files (the sharded server's sockets) go under ``out_dir`` in the
    checkout, unless that path is too long for a unix socket address.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = pythonpath
    tmp = os.path.join(out_dir, "tmp")
    if len(tmp) <= MAX_TMPDIR_LEN:
        os.makedirs(tmp, exist_ok=True)
        env["TMPDIR"] = tmp
    return env


def cpu_count() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _children(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant."""
    tree = [pid]
    index = 0
    while index < len(tree):
        tree.extend(_children(tree[index]))
        index += 1
    return tree


def _status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (MiB) of ``pid`` and its live descendants."""
    return sum(_status_kib(p, "VmHWM") for p in process_tree(pid)) / 1024.0


def tree_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` and its live descendants."""
    total = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields after the command name: state is [0]; utime, stime are
        # fields 14 and 15 of stat(5), i.e. [11] and [12] here.
        total += int(fields[11]) + int(fields[12])
    return total * _TICK_S


def steal_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted inside user/nice.
    total = sum(values[:8])
    return values[7], total
