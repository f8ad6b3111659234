"""Host counters read from ``/proc``: machine-wide CPU and steal seconds,
peak resident memory of the driver and its Ray worker processes."""

from __future__ import annotations

import ctypes
import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_times() -> tuple[float, float]:
    """Machine-wide ``(busy_s, steal_s)`` since boot.  Busy is
    user+nice+system+irq+softirq; idle, iowait and steal are excluded, so a
    busy delta holds up when the host steals cycles."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = v
    return (user + nice + system + irq + softirq) / _TICK, steal / _TICK


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "X"


def live_descendants(root: int) -> list[int]:
    """Descendants still running; exited children of this process are
    reaped on the way (Ray kills its services but leaves one unreaped)."""
    out = []
    for p in descendants(root):
        if _state(p) in "ZX":
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        else:
            out.append(p)
    return out


def become_subreaper() -> None:
    """Make orphaned descendants re-parent to this process instead of init.
    Ray's services run in sessions of their own, and when the raylet dies
    before its workers and agents they would otherwise escape
    ``descendants`` and outlive the benchmark."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_descendants(grace_s: float = 30.0) -> list[int]:
    """Wait up to ``grace_s`` for every descendant of this process to exit,
    then kill the rest and wait until each has ended.  Returns the pids
    that had to be killed."""
    me = os.getpid()
    end = time.monotonic() + grace_s
    while live_descendants(me) and time.monotonic() < end:
        time.sleep(0.1)
    killed = live_descendants(me)
    while True:
        left = live_descendants(me)
        if not left:
            return killed
        for p in left:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def descendants(root: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def ray_worker_pids(root: int) -> list[int]:
    """Ray worker processes under ``root`` (their title starts ``ray::``);
    the raylet, GCS and agents are runtime services, not workers."""
    return [p for p in descendants(root)
            if _cmdline(p).startswith("ray::") or "default_worker.py" in _cmdline(p)]


def vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def rss_by_process() -> dict[str, float]:
    """``VmHWM`` in MB of this process and of each of its Ray workers."""
    me = os.getpid()
    out = {"driver": vm_hwm_mb(me)}
    for p in ray_worker_pids(me):
        out[f"{p} {_cmdline(p)[:40]}"] = vm_hwm_mb(p)
    return out
