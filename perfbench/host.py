"""Host annotation, process accounting, host-speed calibration and
small statistics helpers.

Everything here reads from outside the program: ``getrusage`` and
``/proc`` for the CPU time and resident memory of the engine's processes
(the benchmark process itself, its forked worker lanes, and ``repro
serve`` / ``repro route`` subprocesses), ``os.sched_getaffinity`` for
the usable cores, and the checkout's files for the commit stamp.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for sockets, schema files and state tiers; ignored by git
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


# -- statistics -------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 0.5)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- processes --------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ')'
    return text[text.rindex(")") + 2:].split()


def children_of(pid: int) -> list[int]:
    """Direct children of ``pid`` (a scan of ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and int(fields[1]) == pid:
            found.append(int(entry))
    return found


def descendants_of(pid: int) -> list[int]:
    """Every live descendant of ``pid``, breadth first."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        children = [child for parent in frontier for child in children_of(parent)]
        found.extend(children)
        frontier = children
    return found


def cpu_seconds(pid: int) -> float:
    """User+sys CPU seconds ``pid`` has used so far (0.0 once it is gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime and stime are fields 14 and 15 of /proc/<pid>/stat
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def rss_mb(pid: int) -> float:
    """Current resident set of ``pid`` in MiB."""
    try:
        with open(f"/proc/{pid}/statm") as handle:
            resident = int(handle.read().split()[1])
    except OSError:
        return 0.0
    return resident * _PAGE_BYTES / (1 << 20)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def cpu_snapshot(pids) -> dict[int, float]:
    """CPU seconds used so far by each of ``pids`` (for this process from
    ``getrusage``, whose resolution is finer than ``/proc``'s ticks)."""
    me = os.getpid()
    snapshot = {pid: cpu_seconds(pid) for pid in pids if pid != me}
    if me in pids:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        snapshot[me] = usage.ru_utime + usage.ru_stime
    return snapshot


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds used between two snapshots; a pid absent from
    ``before`` started inside the interval and counts in full."""
    return sum(
        max(0.0, seconds - before.get(pid, 0.0)) for pid, seconds in after.items()
    )


#: the calibration loop's typical rate (loops/s) on the 2-core host the
#: benchmark was built on; in-process timed figures are scaled to it
REFERENCE_SPEED = 6.5e6


def host_speed(rounds: int = 3) -> float:
    """Median rate (loops/s) of a fixed pure-Python loop: how fast this
    host runs the interpreter at this moment.  On a shared host it swings
    by 2x within seconds, and the program's timings swing with it."""
    rates = []
    for _ in range(rounds):
        table: dict[int, int] = {}
        start = time.perf_counter()
        for index in range(10000):
            table[index & 255] = table.get(index & 255, 0) + index
        rates.append(10000 / (time.perf_counter() - start))
    return median(rates)


def medians(samples, rate: bool = False) -> tuple[float, float]:
    """``(raw, scaled)`` medians of ``(value, speeds)`` samples, where
    ``speeds`` are the host-speed readings around the sample: ``scaled``
    first rescales each value to :data:`REFERENCE_SPEED` (a time measured
    on a slowed host shrinks, a rate grows)."""
    raw = median([value for value, _ in samples])
    scaled = []
    for value, speeds in samples:
        factor = sum(speeds) / len(speeds) / REFERENCE_SPEED
        scaled.append(value / factor if rate else value * factor)
    return raw, median(scaled)


# -- host annotation ----------------------------------------------------------
def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_commit() -> str | None:
    """The checkout's commit read from ``.git`` without running git, or
    ``None`` when the checkout is not a git repository."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git_dir, ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources — identifies the measured code
    even in a checkout that carries no git metadata."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for folder, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_annotation() -> dict:
    return {
        "cores": usable_cores(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_digest": source_digest(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "started_unix": round(time.time(), 1),
    }


def check_requirements(requires: tuple[str, ...]) -> list[dict]:
    """Evaluate declared host requirements (``cores>=N``); each is
    recorded as met or unmet and the workload runs either way."""
    results = []
    for requirement in requires:
        name, _, bound = requirement.partition(">=")
        if name != "cores":
            raise ValueError(f"unknown requirement {requirement!r}")
        have = usable_cores()
        results.append({
            "requirement": requirement, "have": have, "met": have >= int(bound),
        })
    return results
