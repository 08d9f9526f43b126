"""zalmsim benchmark: five workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds nothing: the package runs from ``src/`` of the checkout this file
sits in.  In-process workloads run in fresh interpreters (``worker.py``);
``service_mix`` drives ``zalmsim serve`` over loopback and ``validate`` runs
``zalmsim validate``, both as subprocesses.  Human-readable lines come first;
the last line of standard output is the JSON result.  Traces are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.metadata
import json
import os
import platform
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import calibrate  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150.0
SERVICE_MIN_PASSES = 3
HEALTH_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
VALIDATE_TIMEOUT_S = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the speed probe measures the CPU the work runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def niced() -> None:
    """Child set-up: lowest priority, so a waking probe in this process runs at once."""
    os.nice(19)


def watch(proc: subprocess.Popen, trace: calibrate.SpeedTrace | None, done, deadline: float) -> bytes:
    """Read ``proc``'s stdout until ``done(output)`` or end of file, probing the CPU while it is quiet.

    Kills ``proc`` once ``deadline`` (a ``perf_counter`` time) has passed.
    """
    fd, out = proc.stdout.fileno(), b""
    while not done(out):
        if time.perf_counter() > deadline:
            proc.kill()
            deadline = float("inf")
        ready, _, _ = select.select([fd], [], [], calibrate.INTERVAL_S)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            out += chunk
        elif trace is not None:
            trace.sample()
    return out


def wait_rusage(proc: subprocess.Popen, timeout: float) -> float:
    """Reap ``proc`` (killing it after ``timeout``) and return its peak RSS in MB."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        except ChildProcessError:  # already reaped by Popen.poll; its usage is gone
            return 0.0
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.005)


# ----------------------------------------------------------------- workers


class Worker:
    """A ``worker.py`` interpreter; ``ready_s`` is its spawn-to-READY time.

    With a speed trace the worker runs at nice 19 and is probed while it works.
    """

    def __init__(self, args, trace: calibrate.SpeedTrace | None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        self.trace = trace
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
                                     cwd=ROOT, preexec_fn=niced if trace is not None else None)
        self.out = watch(self.proc, trace, lambda out: b"\n" in out, started + WORKER_TIMEOUT_S)
        ready = time.perf_counter()
        self.ready_s = trace.adjust(started, ready) if trace is not None else ready - started
        if not self.out.startswith(b"READY\n"):
            self.close()
            raise RuntimeError(f"worker did not start: {self.out[:200]!r}")

    def run(self) -> dict:
        self.proc.stdin.write(b"run\n")
        self.proc.stdin.flush()
        self.out += watch(self.proc, self.trace, lambda out: False, time.perf_counter() + WORKER_TIMEOUT_S)
        self.close()
        lines = self.out.decode("utf-8", "replace").splitlines()
        if self.proc.returncode != 0 or len(lines) < 2:
            raise RuntimeError(f"worker failed with exit code {self.proc.returncode}")
        return json.loads(lines[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"exit\n")
                self.proc.stdin.close()
            except (BrokenPipeError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def setup_workers(args, count: int, keep_last: bool, trace) -> tuple[list[float], Worker | None]:
    """Spawn fresh workers one after another; the last one is kept to run the workload."""
    times, last = [], None
    for i in range(count):
        worker = Worker(args, trace)
        times.append(worker.ready_s)
        if keep_last and i == count - 1:
            last = worker
        else:
            worker.close()
    return times, last


def run_in_process(args) -> dict:
    trace = None if args.trace else calibrate.SpeedTrace()
    setup_s, worker = setup_workers(args, 1 if args.trace else SETUP_SAMPLES, True, trace)
    result = worker.run()
    if args.trace:
        return result
    latencies = []
    for p in result["passes"]:
        for t0, t1, samples in p["spans"]:
            if len(samples) == 1:
                latencies.append(trace.adjust(t0, t1))
                continue
            # Samples timed inside one call (sweep rows) are laid end to end from its start.
            for d in samples:
                latencies.append(trace.adjust(t0, t0 + d))
                t0 += d
    walls = [trace.adjust(p["t0"], p["t1"]) for p in result["passes"]]
    result["speed"] = trace.mean_factor()
    result["latencies"] = latencies
    result["metrics"] = report.end_to_end(setup_s, walls, result["attempted"], latencies, result["rss_mb"])
    return result


# ----------------------------------------------------------------- service


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """``zalmsim serve`` on a free loopback port; ``setup_s`` runs from spawn until /v1/health answers."""

    def __init__(self, trace: calibrate.SpeedTrace):
        self.port = free_port()
        cmd = [sys.executable, "-m", "zalmsim", "serve", "--bind", "127.0.0.1", "--port", str(self.port)]
        started = last_probe = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                     env=child_env(), cwd=ROOT, preexec_fn=niced)
        while True:
            try:
                status, _ = self.request("GET", "/v1/health", None)
                if status == 200:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() - started > HEALTH_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.005)
            if time.perf_counter() - last_probe >= calibrate.INTERVAL_S:
                trace.sample()
                last_probe = time.perf_counter()
        self.setup_s = trace.adjust(started, time.perf_counter())

    def request(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.terminate()
        return wait_rusage(self.proc, 30.0)


def service_pass(server: Server, bodies: list[bytes], trace: calibrate.SpeedTrace) -> dict:
    """Closed loop: each client sends its next request only after the previous reply."""
    replies: list = [None] * len(bodies)
    spans: list = [None] * len(bodies)

    def client(k: int) -> None:
        os.nice(19)  # this thread only: the probing main thread keeps priority
        for i in range(k, len(bodies), workloads.SERVICE_CLIENTS):
            t0 = time.perf_counter()
            try:
                replies[i] = server.request("POST", "/v1/metrics", bodies[i])
            except OSError as exc:
                replies[i] = (None, repr(exc).encode())
            spans[i] = (t0, time.perf_counter())

    threads = [threading.Thread(target=client, args=(k,)) for k in range(workloads.SERVICE_CLIENTS)]
    started = time.perf_counter()
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        time.sleep(calibrate.INTERVAL_S)
        trace.sample()
    for t in threads:
        t.join()
    return {"t0": started, "t1": max(t1 for _, t1 in spans), "replies": replies, "spans": spans}


def expected_replies(requests: list[dict]) -> list[bytes]:
    """``compute_metrics_response`` in this process, serialised as the server does."""
    from zalmsim import server as zserver

    memo: dict[str, bytes] = {}
    out = []
    for req in requests:
        key = json.dumps(req, sort_keys=True)
        if key not in memo:
            memo[key] = json.dumps(zserver.compute_metrics_response(req)).encode("utf-8")
        out.append(memo[key])
    return out


def service_failures(passes: list[dict], expected: list[bytes]) -> tuple[int, list[str]]:
    failed, notes = 0, []
    for p in passes:
        for i, (status, body) in enumerate(p["replies"]):
            if status != 200 or body != expected[i]:
                failed += 1
                if len(notes) < 10:
                    notes.append(f"request {i}: status {status}, body {'differs' if status == 200 else body[:200]!r}")
    return failed, notes


def run_service(args) -> dict:
    """Passes of the request list, each on a fresh server.

    Server and clients share this process's CPU at nice 19 while the main
    thread probes it, so each request's time is corrected like the other
    workloads' calls.
    """
    requests = workloads.service_mix(args.seed)
    bodies = [json.dumps(r).encode("utf-8") for r in requests]
    trace = calibrate.SpeedTrace()
    setup_s, rss, passes = [], [], []
    while len(passes) < SERVICE_MIN_PASSES or sum(p["t1"] - p["t0"] for p in passes) < args.seconds:
        server = Server(trace)
        try:
            setup_s.append(server.setup_s)
            passes.append(service_pass(server, bodies, trace))
        finally:
            rss.append(server.stop())
        if args.trace:
            break
    failed, notes = service_failures(passes, expected_replies(requests))
    latencies = [t1 - t0 for p in passes for t0, t1 in p["spans"]]
    attempted = len(latencies)
    if not args.trace:
        metrics = report.end_to_end(setup_s, [trace.adjust(p["t0"], p["t1"]) for p in passes], attempted,
                                    [trace.adjust(t0, t1) for p in passes for t0, t1 in p["spans"]],
                                    statistics.median(rss))
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes,
                "latencies": latencies, "speed": trace.mean_factor()}
    # Traced: replay the same requests in-process, then subtract the in-process
    # compute time from the client latency measured above.
    _, worker = setup_workers(args, 1, True, None)
    result = worker.run()
    overhead = statistics.median(latencies) * 1e3 - result["untraced_op_ms_median"]
    result["per_layer"]["server.http_overhead_ms"] = overhead
    result["attempted"] += attempted
    result["failed"] += failed
    result["notes"] += notes
    result["per_layer"]["bench.error_rate"] = result["failed"] / result["attempted"]
    return result


# ---------------------------------------------------------------- validate


def validate_once(trace: calibrate.SpeedTrace) -> dict:
    """One ``zalmsim validate`` process at nice 19, probed while it runs."""
    import checks

    cmd = [sys.executable, "-m", "zalmsim", "validate"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                            preexec_fn=niced)
    text = watch(proc, trace, lambda out: False, started + VALIDATE_TIMEOUT_S).decode("utf-8", "replace")
    ended = time.perf_counter()
    rss = wait_rusage(proc, VALIDATE_TIMEOUT_S)
    proc.stdout.close()
    return {"elapsed": trace.adjust(started, ended), "rss": rss, "text": text,
            "reason": checks.validate_output(proc.returncode, text)}


def run_validate(args) -> dict:
    if args.trace:
        return run_in_process(args)
    trace = calibrate.SpeedTrace()
    setup_s, _ = setup_workers(args, SETUP_SAMPLES, False, trace)
    runs = []
    started = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - started < args.seconds:
        runs.append(validate_once(trace))
    notes = [f"validate run {i}: {r['reason']}" for i, r in enumerate(runs) if r["reason"]]
    notes += [f"validate run {i}: output differs from run 0" for i, r in enumerate(runs) if r["text"] != runs[0]["text"]]
    failed = sum(1 for r in runs if r["reason"] or r["text"] != runs[0]["text"])
    walls = [r["elapsed"] for r in runs]
    metrics = report.end_to_end(setup_s, walls, len(runs), walls, statistics.median(r["rss"] for r in runs))
    return {"metrics": metrics, "attempted": len(runs), "failed": failed, "notes": notes, "latencies": walls,
            "speed": trace.mean_factor()}


# -------------------------------------------------------------------- main


def run_workload(args) -> dict:
    if args.workload in workloads.IN_PROCESS:
        return run_in_process(args)
    if args.workload == "service_mix":
        return run_service(args)
    return run_validate(args)


def run_all(args) -> int:
    """Every workload in its own benchmark process; metrics are prefixed with the workload name."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(report.result_line(correct, attempted, failed, merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zalmsim" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'zalmsim'}; run from a zalmsim checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    pin_to_one_cpu()
    info = machine()
    load_before = loadavg()
    result = run_workload(args)
    load_after = loadavg()

    if args.trace:
        units = tracing.per_layer_units()
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = result["metrics"]
    failed = result["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"  machine: {json.dumps(info)}")
    print(f"  loadavg before: {load_before}; after: {load_after}")
    print("\n".join(report.describe(metrics, None if args.trace else len(result["latencies"]))))
    if not args.trace:
        print(f"  host speed factor: mean {result['speed']:.4f} (times are reported at factor 1)")
    print(f"  error_rate = {failed / result['attempted']:.6g} ({failed} of {result['attempted']} operations)")
    for note in result["notes"][:20]:
        print(f"  FAILED {note}")
    print(report.result_line(failed == 0, result["attempted"], failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
