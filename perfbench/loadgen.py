"""Open-loop load generator for the resume-parse daemon.

One thread drives at most `connections` lockstep connections through
poll(): each connection carries one kParseV2 request at a time. Requests
are due at Poisson arrival times; a request whose due time has come waits
in the backlog until a connection is free. Latency runs from the due time,
so a stall counts against every request it delays.

Lateness is split in two. `conn_wait` is time a due request waited for a
free connection: the system under test was busy. `send_lag` is time the
generator lost on its own after a connection was free: the generator fell
behind, and a run where that is large is invalid.

Beside the parse traffic, kStats requests go out at a fixed rate, each on
a fresh connection, as tools/serve_stats.sh sends them.
"""

import errno
import os
import random
import select
import socket
import struct
import time

KIND_OK_V2 = 7
KIND_STATS = 4
KIND_SHUTDOWN = 3
KIND_PARSE_V2 = 6
HEADER = struct.Struct("<IBI")


def frame(kind, payload=b"", deadline_ms=0):
    return HEADER.pack(len(payload), kind, deadline_ms) + payload


class _Reader:
    """Accumulates bytes until one whole frame has arrived."""

    def __init__(self):
        self.buf = bytearray()

    def feed(self, data):
        self.buf += data
        if len(self.buf) < HEADER.size:
            return None
        length, kind, _ = HEADER.unpack_from(self.buf)
        if len(self.buf) < HEADER.size + length:
            return None
        payload = bytes(self.buf[HEADER.size:HEADER.size + length])
        del self.buf[:HEADER.size + length]
        return kind, payload


def connect(port):
    s = socket.create_connection(("127.0.0.1", port), timeout=10)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return s


def request(port, kind, payload=b"", timeout=30):
    """One blocking request on a fresh connection; returns (kind, payload)."""
    with connect(port) as s:
        s.settimeout(timeout)
        s.sendall(frame(kind, payload))
        reader = _Reader()
        while True:
            data = s.recv(65536)
            if not data:
                raise ConnectionError("daemon closed the connection")
            got = reader.feed(data)
            if got is not None:
                return got


class _Conn:
    def __init__(self, port):
        self.sock = connect(port)
        self.sock.setblocking(False)
        self.reader = _Reader()
        self.free_since = None
        self.job = None  # (doc index, due, sent)


class _Admin:
    def __init__(self, port, payload):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.started = time.monotonic()
        err = self.sock.connect_ex(("127.0.0.1", port))
        if err not in (0, errno.EINPROGRESS):
            raise ConnectionError(os.strerror(err))
        self.out = frame(KIND_STATS, payload)
        self.reader = _Reader()


class Phase:
    """Results of one open-loop phase."""

    def __init__(self, rate, seconds):
        self.rate = rate
        self.seconds = seconds
        self.latency_ms = []
        self.send_lag_ms = []
        self.conn_wait_ms = []
        self.rtt_ms = []  # send to reply: the daemon's share of latency
        self.admin_ms = []
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.mismatched = 0
        self.inflight_max = 0
        self.backlog_samples = []  # (t, backlog) once per second
        self.backlog_end = 0  # due-but-unsent requests when the phase ends
        self.admin_failed = 0
        self.last_done = 0.0  # seconds from start to the last reply

    def backlog_growth(self):
        """Backlog at the end minus backlog at the first sample."""
        if not self.backlog_samples:
            return 0
        return self.backlog_samples[-1][1] - self.backlog_samples[0][1]


def run_phase(port, texts, expected, first_doc, rate, seconds, seed,
              connections, admin_rate):
    """Drives Poisson arrivals at `rate`/s for `seconds`, then drains.

    With `rate` None the phase is a closed loop instead: every connection
    sends its next request as soon as its reply arrives (the daemon's
    capacity at `connections` concurrent clients). The i-th request sends
    `texts[(first_doc + i) % len(texts)]`; its reply must equal the same
    index of `expected` byte for byte. `admin_rate` kStats polls per second
    go out on fresh connections while the phase runs."""
    closed = rate is None
    rng = random.Random(seed)
    # A Poisson process conditioned on its count: round(rate * seconds)
    # arrivals at uniform random times. Bursts are as in any Poisson
    # stream, but every phase of a given rate and length offers the same
    # load, so a run's tail does not follow how many arrivals its seed drew.
    due = [] if closed else sorted(
        rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
    ph = Phase(rate, seconds)
    conns = [_Conn(port) for _ in range(connections)]
    by_fd = {c.sock.fileno(): c for c in conns}
    poller = select.poll()
    for c in conns:
        poller.register(c.sock, select.POLLIN)
    start = time.monotonic() + 0.02
    for c in conns:
        c.free_since = start
    free = list(conns)
    backlog = []  # indices of due, unsent requests
    next_due = 0
    inflight = 0
    admin_conn = None
    admin_every = 1.0 / admin_rate
    next_admin = start + admin_every / 2
    next_sample = start
    end = start + seconds

    def send(c, i, now):
        nonlocal inflight
        d = start + due[i]
        ph.conn_wait_ms.append(max(0.0, c.free_since - d) * 1e3)
        ph.send_lag_ms.append((now - max(d, c.free_since)) * 1e3)
        c.job = (i, d, now)
        c.sock.sendall(frame(KIND_PARSE_V2,
                             texts[(first_doc + i) % len(texts)]))
        ph.sent += 1
        inflight += 1
        ph.inflight_max = max(ph.inflight_max, inflight)

    while True:
        now = time.monotonic()
        if closed and now < end:
            for _ in range(len(free) - len(backlog)):
                due.append(now - start)
        while next_due < len(due) and start + due[next_due] <= now:
            backlog.append(next_due)
            next_due += 1
        while backlog and free:
            send(free.pop(), backlog.pop(0), now)
            now = time.monotonic()
        if now >= next_sample and now < end:
            ph.backlog_samples.append((now - start, len(backlog)))
            next_sample += 1.0
        if now >= next_admin and admin_conn is None and now < end:
            admin_conn = _Admin(port, b"")
            poller.register(admin_conn.sock, select.POLLOUT)
            next_admin += admin_every
        if (now >= end or not closed) and next_due >= len(due) and (
                not backlog and inflight == 0 and admin_conn is None):
            break
        wake = [next_sample if now < end else float("inf"),
                next_admin if admin_conn is None and now < end
                else float("inf")]
        if closed and now < end:
            wake.append(end)
        if next_due < len(due):
            wake.append(start + due[next_due])
        timeout_ms = max(0, int((min(wake) - now) * 1e3)) if min(
            wake) < float("inf") else 1000
        for fd, ev in poller.poll(timeout_ms):
            if admin_conn is not None and fd == admin_conn.sock.fileno():
                a = admin_conn
                if ev & select.POLLOUT and a.out:
                    a.out = a.out[a.sock.send(a.out):]
                    if not a.out:
                        poller.modify(a.sock, select.POLLIN)
                    continue
                data = a.sock.recv(1 << 20)
                got = a.reader.feed(data) if data else ("eof", b"")
                if got is not None:
                    if got[0] == 1:
                        ph.admin_ms.append(
                            (time.monotonic() - a.started) * 1e3)
                    else:
                        ph.admin_failed += 1
                    poller.unregister(a.sock)
                    a.sock.close()
                    admin_conn = None
                continue
            c = by_fd[fd]
            data = c.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("daemon closed a parse connection")
            got = c.reader.feed(data)
            if got is None:
                continue
            kind, payload = got
            done = time.monotonic()
            i, d, sent = c.job
            ph.rtt_ms.append((done - sent) * 1e3)
            inflight -= 1
            if kind == KIND_OK_V2:
                ph.succeeded += 1
                if payload[8:] != expected[(first_doc + i) % len(expected)]:
                    ph.mismatched += 1
            else:
                ph.failed += 1
            # A failed request counts as missing any latency limit.
            ph.latency_ms.append((done - d) * 1e3 if kind == KIND_OK_V2
                                 else float("inf"))
            c.job = None
            c.free_since = done
            free.append(c)
            ph.last_done = done - start
    ph.backlog_end = len(backlog)
    for c in conns:
        c.sock.close()
    if admin_conn is not None:
        admin_conn.sock.close()
    return ph


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    a, b = v[lo], v[hi]
    if a == float("inf") or b == float("inf"):
        return float("inf")
    return a + (b - a) * (pos - lo)
