"""Drives knnshap_serve over its JSONL stdin/stdout protocol.

Server wraps one router process (plus, for remote shards, its worker
processes); closed_loop runs N waiting clients against it; replay feeds a
request stream to a reference server and returns the reply hashes.
Replies are hashed, not parsed, on the timed path.
"""

import hashlib
import json
import subprocess
import threading
import time
from pathlib import Path

KERNEL = "avx2"  # pinned; the binary falls back to blocked without AVX2/FMA
_OK_ID = b'{"ok":true,"id":'
_STARTUP_TIMEOUT_S = 60


def digest(line):
    """Hash of a reply line with the one scheduling-dependent field fixed
    (a concurrent duplicate may miss the cache where a serial replay hits)
    and a requested trace echo, always the last field, cut off."""
    cut = line.rfind(b',"trace":{', max(0, len(line) - 4096))
    if cut >= 0:
        line = line[:cut] + b"}\n"
    head = line[:512].replace(b'"cache_hit":true', b'"cache_hit":false')
    return hashlib.blake2b(head + line[512:], digest_size=16).digest()


def peak_rss_mb(pid):
    """VmHWM of a live process, in MiB."""
    for entry in Path(f"/proc/{pid}/status").read_text().splitlines():
        if entry.startswith("VmHWM:"):
            return int(entry.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reply_id(line):
    """The echoed request id of a reply, or None for a control reply."""
    if line.startswith(_OK_ID):
        end = line.index(b",", len(_OK_ID))
        return int(line[len(_OK_ID):end])
    if line.startswith(b'{"ok":false'):
        value = json.loads(line).get("id")
        return None if value is None else int(value)
    return None


def start_workers(binary, run_dir, count):
    """Starts `count` fresh loopback --shard-listen workers. Returns
    (processes, "host:port" endpoints)."""
    procs, endpoints = [], []
    try:
        for index in range(count):
            log_path = Path(run_dir) / f"worker-{index}.log"
            with open(log_path, "wb") as log:
                procs.append(subprocess.Popen(
                    [str(binary), "--shard-listen=127.0.0.1:0", "--no-timing",
                     f"--kernel={KERNEL}"],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=log))
            endpoints.append(_announced_endpoint(procs[-1], log_path))
    except BaseException:
        stop(procs)
        raise
    return procs, endpoints


def _announced_endpoint(proc, log_path):
    deadline = time.monotonic() + _STARTUP_TIMEOUT_S
    marker = b"listening on "
    while time.monotonic() < deadline:
        text = log_path.read_bytes()
        if marker in text:
            return text.split(marker, 1)[1].split(b"\n", 1)[0].decode()
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    raise RuntimeError(f"shard worker {log_path.name} did not announce a port")


def stop(procs):
    """Terminates the processes still running and waits for every one."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Server:
    """A knnshap_serve router, spawned with stdin/stdout pipes. With
    `shards` > 0 it first starts that many fresh loopback --shard-listen
    workers and routes to them with --shard-remote."""

    def __init__(self, binary, run_dir, shards=0):
        self.spawned_at = time.perf_counter()
        self.workers = []
        argv = [str(binary), "--no-timing", f"--kernel={KERNEL}"]
        if shards:
            self.workers, endpoints = start_workers(binary, run_dir, shards)
            argv.append("--shard-remote=" + ";".join(endpoints))
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def peak_rss_mb(self):
        return sum(peak_rss_mb(p.pid) for p in [self.proc] + self.workers)

    def send(self, line):
        self.proc.stdin.write(line)
        self.proc.stdin.flush()

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server closed its output")
        return line

    def call(self, line):
        self.send(line)
        return self.read()

    def close(self):
        """Ends the session and stops every process, waiting for each."""
        try:
            if self.proc.poll() is None:
                self.send(b'{"op":"quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        stop([self.proc] + self.workers)
        self.proc.stdout.close()


class Record:
    """One sent op: its number, kind, query rows, latency and reply."""
    __slots__ = ("j", "kind", "queries", "sent", "latency", "hash", "ok")

    def __init__(self, j, kind, queries, sent):
        self.j, self.kind, self.queries, self.sent = j, kind, queries, sent
        self.latency = None
        self.hash = None
        self.ok = False


def closed_loop(server, inputs, first_j, seconds, clients, traced=None,
                min_values=0):
    """Runs `clients` closed-loop clients for `seconds`, and on until
    `min_values` value requests went out: each client sends its next
    request only after the reply to its previous one arrived. One thread
    plays every client, so the generator adds no scheduling of its own.
    Requests are numbered from first_j in write order; value request j
    asks the server for a trace echo when traced(j) is true. Returns the
    records of every op sent."""
    records, by_id, control = [], {}, []  # control: replies without an id
    state = {"next": first_j, "values": 0}
    stop_at = time.perf_counter() + seconds

    def send_next():
        if time.perf_counter() >= stop_at and state["values"] >= min_values:
            return
        j = state["next"]
        state["next"] += 1
        kind, queries, line = inputs.request(j)
        if kind == "value":
            state["values"] += 1
            if traced is not None and traced(j):
                line = line[:-2] + b',"trace":true}\n'
        rec = Record(j, kind, queries, time.perf_counter())
        records.append(rec)
        if kind == "value":
            by_id[j] = rec
        else:
            control.append(rec)
        server.send(line)

    for _ in range(clients):
        send_next()
    while by_id or control:
        line = server.read()
        now = time.perf_counter()
        j = reply_id(line)
        rec = by_id.pop(j) if j is not None else control.pop(0)
        rec.latency = now - rec.sent
        send_next()  # the client's next request goes out before any hashing
        rec.ok = line.startswith(b'{"ok":true')
        if rec.kind == "value":
            rec.hash = digest(line)
    return records


def replay(server, inputs, last_j):
    """Feeds requests 0..last_j-1 in order to `server` (the reference) and
    returns {j: reply hash} for the value requests; error replies hash to
    None."""
    errors = []

    def writer():
        try:
            for j in range(last_j):
                server.send(inputs.request(j)[2])
        except OSError as exc:
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    hashes = {}
    for _ in range(last_j):
        line = server.read()
        j = reply_id(line)
        if j is not None:
            hashes[j] = digest(line) if line.startswith(b'{"ok":true') else None
    thread.join()
    if errors:
        raise errors[0]
    return hashes
