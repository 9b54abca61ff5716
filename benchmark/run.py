#!/usr/bin/env python3
"""The repository benchmark: two simulator fleets and a 16-daemon UDP cluster.

Stdlib only. Run from the root of a checkout.

One workload, one run (what BENCHMARK.json's command does):

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

    Builds benchmark/CMakeLists.txt into .bench_build (the library and the
    `emerged` daemon come from the checkout's own sources), runs the
    workload in fresh processes, checks its outputs and prints, as the last
    stdout line, {"correct", "attempted", "failed", "metrics"}. --trace 0
    reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
    per-layer metrics (a separate traced pass; see README.md). --seconds
    is how long the wire workload offers load; a sim workload runs a batch
    of sessions sized to take about as long. Times are reported at the
    reference CPU speed (README.md, "CPU speed").

A suite (the timed pass, then optionally the traced pass):

  python3 benchmark/run.py --suite [--repeats 3] [--seed 1] [--trace 1]
                           [--workloads a,b] [--out results.json]

    Runs every workload --repeats times, interleaved, each run a fresh
    process with its own seed, and prints every end-to-end metric by name
    and unit as a median with quartiles. --out keeps every run for
    benchmark/compare.py.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from benchlib import call, load_json, quartiles, spawn, stop

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
SPEC = ROOT / "BENCHMARK.json"

# The workloads. Scenario strings use workload::parse_scenario's grammar.
# A sim workload runs one batch of `sessions_per_s` x --seconds sessions (a
# run of about --seconds on the machine of README.md) on a world seeded by
# the workload seed; its set-up time is the median of `bootstraps` world
# bootstraps (about 3 s of them on either world).
SIM_WORKLOADS = {
    "sim-metro": {
        "scenario": "metro-diurnal:population=100000",
        "sessions_per_s": 800,
        "share": False,
        "bootstraps": 3,
    },
    "sim-share-lossy": {
        "scenario": "share-threshold:population=20000,net=lossy,domains=2",
        "sessions_per_s": 500,
        "share": True,
        "bootstraps": 15,
    },
}
WIRE = {
    "daemons": 16,
    # tools/docker-compose.yml's 0.25 s stabilize. Replica repair is pushed
    # past the end of a run (wire_bench's kRepairInterval): no daemon leaves
    # the ring, and the default 4 s sweep re-sends the whole never-expiring
    # store in bursts that overflow the loopback receive buffers and lose
    # sessions (README.md, Observations).
    "daemon_flags": ["--stabilize-interval=0.25", "--repair-interval=3600",
                     "--status-interval=0"],
    # How much longer than --seconds the CPU speed sampler runs: the load's
    # 3 s warm-up, T + 2 s drain and the scrapes, with room to spare.
    "load_margin_s": 12,
    # The per-layer probes' substrate: the ring's size, joint 2x3.
    "probe_scenario": "poisson-open:population=16",
}
# Per-layer metrics of layers a workload does not run, reported as 0: the
# simulator fleets have no daemons, the daemons no arena and no churn.
NOT_MEASURED = {
    "sim": ("service.",),
    "wire": ("workload.peak_live_sessions", "workload.arena_slots",
             "workload.stray_packages_per_ksession",
             "dht.churn_deaths_per_ksession"),
}
# Plain/decorated replay pairs per traced run (about 3 s per replay).
REPLAY_ROUNDS = 2
# Every this-many-th delivered fleet session is decrypt-checked
# (SessionFleet::kPayloadCheckStride): one aead_open per that many.
PAYLOAD_CHECK_STRIDE = 997
REPLAY_GROUPS = ("submit", "put", "put_ack", "store_replica", "package",
                 "find_successor", "stabilize")
WIRE_DHT_GROUPS = ("find_successor", "stabilize", "put", "store_replica")


class BenchError(Exception):
    """A build, run or correctness failure: no result is printed."""


def log(message):
    print(f"# {message}", flush=True)


def load_spec():
    return load_json(SPEC)


# -- build ---------------------------------------------------------------------

def build():
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for step in steps:
        with open(build_log, "a", encoding="utf-8") as out:
            proc = spawn(step, stdout=out, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=840)
            finally:
                stop(proc)
        if code != 0:
            tail = build_log.read_text(errors="replace").splitlines()[-20:]
            print("\n".join(tail), file=sys.stderr)
            raise BenchError(f"build step failed: {' '.join(step)}")


def binary(name):
    return str(BUILD / name)


def emerged_binary():
    return str(BUILD / "emergence" / "tools" / "emerged")


def run_json(args, timeout=170, check=True):
    """Runs one bench binary; returns its last stdout line as JSON."""
    code, out, err = call(args, timeout)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{Path(args[0]).name} {args[1]} printed no result "
                         f"(exit {code}): {err.strip()}")
    if check and code != 0:
        raise BenchError(f"{Path(args[0]).name} {args[1]} failed "
                         f"(exit {code}): {err.strip()}")
    return result


# -- sim workloads -------------------------------------------------------------

def sim_args(command, workload, seed, seconds):
    config = SIM_WORKLOADS[workload]
    sessions = max(1, round(config["sessions_per_s"] * seconds))
    return [binary("sim_bench"), command,
            f"--scenario={config['scenario']},sessions={sessions}",
            f"--seed={seed}"]


def run_sim(workload, seed, seconds, trace):
    config = SIM_WORKLOADS[workload]
    setup = run_json(sim_args("setup", workload, seed, seconds) +
                     [f"--bootstraps={config['bootstraps']}"])
    run = run_json(sim_args("run", workload, seed, seconds), check=False)
    problems = [] if run["ok"] else [run["failures"]]
    log(f"{workload}: {run['sessions']} sessions in {run['wall_s']:.2f} s "
        f"at CPU speed factor {run['speed_factor']:.3f} "
        f"({run['sessions_per_s']:.1f}/s at the reference speed); "
        f"bootstraps {[round(b, 4) for b in setup['bootstrap_s']]} s at "
        f"factor {setup['speed_factor']:.3f}")
    metrics = {
        "sessions_per_s": run["sessions_per_s"],
        "cpu_us_per_session": run["cpu_us_per_session"],
        "setup_s": setup["setup_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "emerged_fraction": run["emerged_fraction"],
        "release_resilience": run["release_resilience"],
    }
    if trace:
        probe = run_json(sim_args("probe", workload, seed, seconds))
        metrics = sim_layers(setup, run, probe, share=config["share"])
    return {"metrics": metrics, "attempted": run["sessions"],
            "failed": run["failed_sessions"], "problems": problems}


def attribution(wall_us, probe, per_session, share):
    """Where a session's microseconds go: probe cost x per-session count.

    Each call is charged once, to the lowest layer a probe times as a
    whole: AEAD and Shamir calls to crypto even inside onion build and
    peel, whose remaining self time is emerge's. README.md lists the
    counts.
    """
    seal, opened = probe["aead_seal_us"], probe["aead_open_us"]
    build_us = probe["build_onion_share_us" if share else "build_onion_us"]
    crypto = ((probe["onion_seals"] + per_session["message_seals"]) * seal +
              (per_session["peel_opens"] + per_session["decrypt_opens"]) *
              opened +
              probe["shamir_splits"] * probe["shamir_split_us"] +
              per_session["combines"] * probe["shamir_combine_us"])
    emerge = (build_us + per_session["peels"] * probe["peel_us"] -
              probe["onion_seals"] * seal - per_session["peel_opens"] * opened)
    rows = {
        "crypto.us_per_session": crypto,
        "emerge.us_per_session": emerge,
        "dht.us_per_session": per_session["dht_us"],
        "sim.us_per_session": per_session["events"] * probe["event_ns"] / 1e3,
    }
    rows["workload.wall_us_per_session"] = wall_us
    rows["workload.unattributed_us_per_session"] = wall_us - sum(
        rows[k] for k in ("crypto.us_per_session", "emerge.us_per_session",
                          "dht.us_per_session", "sim.us_per_session"))
    return rows


def peel_counts(probe, holders_stuck_per_session):
    """Peels, AEAD opens and Shamir combines per session from the geometry
    and the stuck-holder count (a stuck holder never peels)."""
    holders = probe["holders"]
    peels = holders - holders_stuck_per_session
    share_of_holders = peels / holders
    return {
        "peels": peels,
        # open_envelope for every peel, unwrap_inner for non-terminal ones
        "peel_opens": peels + probe["nonterminal_holders"] * share_of_holders,
        "combines": probe["shamir_combines"] * share_of_holders,
    }


def sim_layers(setup, run, probe, share):
    n = run["sessions"]
    # At the reference CPU speed, like the probe costs it is split into.
    wall_us = run["wall_s"] * run["speed_factor"] * 1e6 / n
    counts = peel_counts(probe, run["holders_stuck"] / n)
    delivered_attempts = run["transport_attempts"] - run["transport_dropped"]
    counts.update({
        "message_seals": 1.0,  # the sender seals the message for the cloud
        "decrypt_opens": run["delivered"] / n / PAYLOAD_CHECK_STRIDE,
        "events": run["events_executed"] / n,
        # layout lookups, one lookup per delivered routed attempt, and one
        # store/load/erase lifecycle per assigned layer key
        "dht_us": (probe["holders"] + delivered_attempts / n) *
                  probe["lookup_us"] +
                  run["key_assignments"] / n * probe["put_get_us"],
    })
    layers = common_probe_layers(probe)
    layers.update(attribution(wall_us, probe, counts, share))
    layers.update({
        "api.submit_p50_ms": probe["submit_p50_ms"],
        "api.submit_p99_ms": probe["submit_p99_ms"],
        "emerge.packages_per_session": run["packages_sent"] / n,
        "emerge.key_puts_per_session": run["key_assignments"] / n,
        "emerge.holders_stuck_per_ksession": run["holders_stuck"] * 1e3 / n,
        "dht.bootstrap_s": setup["setup_s"],
        "dht.transport_attempts_per_message":
            run["transport_attempts"] / max(1, run["transport_messages"]),
        "dht.transport_retries_per_ksession":
            run["transport_retried"] * 1e3 / n,
        "dht.transport_timeouts": run["transport_timed_out"],
        "dht.churn_deaths_per_ksession": run["churn_deaths"] * 1e3 / n,
        "sim.events_per_session": counts["events"],
        "sim.domain_imbalance": run["domain_imbalance"],
        "sim.parallelism": run["cpu_s"] / run["wall_s"],
        "workload.peak_live_sessions": run["peak_live_sessions"],
        "workload.arena_slots": run["arena_slots"],
        "workload.stray_packages_per_ksession":
            run["stray_packages"] * 1e3 / n,
    })
    return layers


def common_probe_layers(probe):
    return {
        "crypto.aead_seal_us": probe["aead_seal_us"],
        "crypto.aead_open_us": probe["aead_open_us"],
        "crypto.shamir_split_us": probe["shamir_split_us"],
        "crypto.shamir_combine_us": probe["shamir_combine_us"],
        "emerge.build_onion_us": probe["build_onion_us"],
        "emerge.build_onion_share_us": probe["build_onion_share_us"],
        "emerge.peel_us": probe["peel_us"],
        "dht.lookup_us": probe["lookup_us"],
        "dht.lookup_hops": probe["lookup_hops"],
        "dht.put_get_us": probe["put_get_us"],
        "sim.event_ns": probe["event_ns"],
    }


# -- the service layer: replays and the real cluster ---------------------------

def replay_at_reference(replay):
    """A replay's times scaled to the reference CPU speed."""
    factor = replay["speed_factor"]
    for key, value in replay.items():
        if key in ("load_wall_s", "send_s", "timer_s") or \
                key.startswith(("rx_s.", "rx_total_s.")):
            replay[key] = value * factor
    return replay


def replay_pair(seed, seconds, problems):
    """The wire schedule replayed in process, plain and decorated in turn
    REPLAY_ROUNDS times, times at the reference CPU speed; each side's
    fastest load phase is kept, because the decorators' cost is smaller
    than one replay's noise."""
    args = [binary("wire_bench"), "replay", f"--seed={seed}",
            f"--seconds={seconds}"]
    runs = [(replay_at_reference(run_json(args)),
             replay_at_reference(run_json(args + ["--decorate"])))
            for _ in range(REPLAY_ROUNDS)]
    for plain, decorated in runs:
        for key in ("emerged", "frames_sent", "frames_received", "events",
                    "store_keys"):
            if plain[key] != decorated[key] or plain[key] != runs[0][0][key]:
                problems.append(f"decorators changed the replay's {key}")
    plain, decorated = (min(side, key=lambda r: r["load_wall_s"])
                        for side in zip(*runs))
    if plain["emerged"] != plain["sessions"] or plain["malformed_frames"]:
        problems.append("replay lost sessions on a lossless hub")
    return plain, decorated


def service_layers(plain, decorated, load):
    """service.*: handler, send and timer costs from the replays; what the
    real cluster shows from outside its processes from the UDP load."""
    n = decorated["sessions"]
    rx_total = sum(decorated[f"rx_s.{g}"] for g in REPLAY_GROUPS + ("other",))
    layers = {
        f"service.rx_frames_per_session.{g}": decorated[f"rx.{g}"] / n
        for g in REPLAY_GROUPS}
    layers.update({
        f"service.rx_us.{g}": decorated[f"rx_total_s.{g}"] * 1e6 /
                              max(1, decorated[f"rx_total.{g}"])
        for g in REPLAY_GROUPS})
    layers.update({
        "service.send_calls_per_session": decorated["sends"] / n,
        "service.send_us":
            decorated["send_s"] * 1e6 / max(1, decorated["sends"]),
        "service.timer_fires_per_session": decorated["timer_fires"] / n,
        "service.timer_us":
            decorated["timer_s"] * 1e6 / max(1, decorated["timer_fires"]),
        "service.timer_cancels_per_session": decorated["timer_cancels"] / n,
        "service.engine_us_per_session":
            (rx_total + decorated["timer_s"]) * 1e6 / n,
        "service.trace_overhead_pct":
            (decorated["load_wall_s"] / plain["load_wall_s"] - 1.0) * 100.0,
    })
    m = load["sessions"]
    factor = load["speed_factor"]
    layers.update({
        "service.user_cpu_us_per_session":
            load["daemon_user_s"] * factor * 1e6 / m,
        "service.sys_cpu_us_per_session":
            load["daemon_sys_s"] * factor * 1e6 / m,
        "service.frames_sent_per_session": load["frames_sent"] / m,
        "service.frames_received_per_session": load["frames_received"] / m,
        "service.udp_rcvbuf_drops_per_session": load["udp_rcvbuf_errors"] / m,
        "service.request_retries_per_session": load["request_retries"] / m,
        "service.request_timeouts_per_ksession":
            load["request_timeouts"] * 1e3 / m,
        "service.put_failures": load["put_failures"],
        "service.holders_stuck": load["holders_stuck"],
        "service.store_keys_per_session": load["store_keys"] / m,
        "service.holder_slots_per_session": load["holder_slots"] / m,
        "service.ctx_switches_per_session": load["daemon_ctx_switches"] / m,
        "service.generator_lag_p99_ms": load["generator_lag_p99_ms"],
        "service.lateness_p50_ms": load["lateness_p50_ms"],
        "service.lateness_p99_ms": load["lateness_p99_ms"],
    })
    return layers


def free_udp_ports(count):
    """Ports the kernel hands out now; the daemons bind them next."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sockets.append(sock)
            sock.bind(("127.0.0.1", 0))
        return [s.getsockname()[1] for s in sockets]
    finally:
        for sock in sockets:
            sock.close()


class Cluster:
    """16 `emerged serve` processes on 127.0.0.1; daemon 0 creates the
    ring and the others join through it (they retry until it is up)."""

    def __init__(self, seed):
        self.seed = seed
        self.procs = []
        self.endpoints = [f"127.0.0.1:{port}"
                          for port in free_udp_ports(WIRE["daemons"])]

    def set_up(self):
        """Spawns the daemons; returns the seconds from spawn until a
        status walk closed over all of them."""
        log_dir = BUILD / "wire-logs"
        log_dir.mkdir(exist_ok=True)
        began = time.time()
        for i, endpoint in enumerate(self.endpoints):
            args = [emerged_binary(), "serve", f"--listen={endpoint}",
                    f"--name=bench-{i}",
                    f"--rng-seed={self.seed * 1000 + i + 1}"]
            args += WIRE["daemon_flags"]
            if i:
                args.append(f"--seed-node={self.endpoints[0]}")
            log = log_dir / f"node-{i}.log"
            with open(log, "w", encoding="utf-8") as out:
                self.procs.append(
                    spawn(args, stdout=out, stderr=subprocess.STDOUT))
        closed = run_json([binary("wire_bench"), "ring-wait",
                           f"--daemon={self.endpoints[0]}",
                           f"--expect={WIRE['daemons']}"], timeout=60)
        if not all(proc.poll() is None for proc in self.procs):
            raise BenchError("a daemon exited during set-up")
        return closed["closed_at_epoch"] - began

    def stop(self):
        """SIGTERM every daemon and reap it; True when all exited with
        status 0. Stopping a stopped cluster does nothing."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        clean = True
        for proc in self.procs:
            try:
                clean = proc.wait(timeout=5) == 0 and clean
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                clean = False
        self.procs = []
        return clean


def speed_factor(samples, start, end):
    """Mean speed factor of `wire_bench speed` samples inside [start, end]."""
    inside = [f for at, f in zip(samples["at"], samples["factor"])
              if start <= at <= end]
    if not inside:
        raise BenchError("no CPU speed sample during the load")
    return sum(inside) / len(inside)


def run_wire(seed, seconds, trace):
    problems = []
    cluster = Cluster(seed)
    try:
        setup_s = cluster.set_up()
        # Samples every CPU from before the warm-up until after the drain.
        sampler = spawn([binary("wire_bench"), "speed",
                         f"--seconds={seconds + WIRE['load_margin_s']}"],
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                        text=True)
        try:
            load = run_json([
                binary("wire_bench"), "load",
                "--daemons=" + ",".join(cluster.endpoints),
                "--pids=" + ",".join(str(p.pid) for p in cluster.procs),
                f"--seconds={seconds}", f"--seed={seed}"],
                timeout=seconds + 60)
            out, _ = sampler.communicate(timeout=30)
        finally:
            stop(sampler)
        samples = json.loads(out.strip().splitlines()[-1])
    finally:
        if not cluster.stop():
            problems.append("a daemon did not exit cleanly")
    factor = load["speed_factor"] = speed_factor(
        samples, load["load_start"], load["load_end"])
    n = load["sessions"]
    log(f"wire-udp: {n} sessions, {load['emerged']} emerged, "
        f"{n - load['acked']} unacknowledged, {load['lost']} lost, "
        f"{load['late']} late; set-up {setup_s:.3f} s; "
        f"kernel receive-buffer drops {load['udp_rcvbuf_errors']}; "
        f"CPU speed factor {factor:.3f}")
    for key in ("wrong_secret", "early", "rejected"):
        if load[key]:
            problems.append(f"{load[key]} sessions {key.replace('_', ' ')}")
    if load["malformed_frames"] or load["walk_malformed"] or \
            load["generator_malformed"]:
        problems.append("malformed frames on the wire")
    if not load["ring_closed"] or load["ring_size"] != WIRE["daemons"]:
        problems.append("the ring no longer closes after the run")
    if load["scraped"] != WIRE["daemons"]:
        problems.append("a daemon did not answer the metrics scrape")
    metrics = {
        # Emergences per second over the span they arrived in; one
        # schedule step is added so that span counts every session once.
        "sessions_per_s":
            load["emerged"] / (load["emergence_span_s"] + 1 / load["rate"]),
        "cpu_us_per_session": load["daemon_cpu_s"] * factor * 1e6 / n,
        "setup_s": setup_s,
        "peak_rss_mb": load["daemon_hwm_mb"],
        "emerged_fraction": load["emerged"] / n,
        "release_resilience": 1.0 - load["early"] / n,
    }
    if trace:
        probe = run_json([binary("sim_bench"), "probe",
                          f"--scenario={WIRE['probe_scenario']}",
                          f"--seed={seed}"])
        plain, decorated = replay_pair(seed, seconds, problems)
        metrics = wire_layers(setup_s, load, probe, plain, decorated)
    return {"metrics": metrics, "attempted": n, "failed": n - load["emerged"],
            "problems": problems}


def wire_layers(setup_s, load, probe, plain, decorated):
    n = load["sessions"]
    m = decorated["sessions"]
    counts = peel_counts(probe, plain["holders_stuck"] / plain["sessions"])
    counts.update({
        "message_seals": 0.0,  # the secret itself travels; no cloud blob
        "decrypt_opens": 0.0,
        "events": plain["events"] / plain["sessions"],
        # the daemon's own Chord: its ring-maintenance, routing and storage
        # frames, timed in the decorated replay
        "dht_us": sum(decorated[f"rx_s.{g}"] for g in WIRE_DHT_GROUPS) *
                  1e6 / m,
    })
    wall_us = plain["load_wall_s"] * 1e6 / plain["sessions"]
    layers = common_probe_layers(probe)
    layers.update(attribution(wall_us, probe, counts, share=False))
    retries = load["request_retries"]
    layers.update({
        "api.submit_p50_ms": load["submit_p50_ms"],
        "api.submit_p99_ms": load["submit_p99_ms"],
        "emerge.packages_per_session": load["packages_sent"] / n,
        "emerge.key_puts_per_session": load["keys_put"] / n,
        "emerge.holders_stuck_per_ksession": load["holders_stuck"] * 1e3 / n,
        "dht.bootstrap_s": setup_s,
        "dht.transport_attempts_per_message":
            load["frames_sent"] / max(1.0, load["frames_sent"] - retries),
        "dht.transport_retries_per_ksession": retries * 1e3 / n,
        "dht.transport_timeouts": load["request_timeouts"],
        "sim.events_per_session": counts["events"],
        "sim.domain_imbalance": load["rx_imbalance"],
        "sim.parallelism": load["daemon_cpu_s"] / load["loaded_s"],
    })
    layers.update(service_layers(plain, decorated, load))
    return layers


# -- one run -------------------------------------------------------------------

def run_once(workload, seed, seconds, trace):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r} (known: {names})")
    build()
    kind = "sim" if workload in SIM_WORKLOADS else "wire"
    if kind == "sim":
        outcome = run_sim(workload, seed, seconds, trace)
    else:
        outcome = run_wire(seed, seconds, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = outcome["metrics"].get(metric["name"])
        if value is None and trace and \
                metric["name"].startswith(NOT_MEASURED[kind]):
            value = 0
        if value is None:
            raise BenchError(f"{workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for problem in outcome["problems"]:
        print(f"FAIL {workload}: {problem}", file=sys.stderr)
    return {"correct": not outcome["problems"],
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]), "metrics": metrics}


# -- suite ---------------------------------------------------------------------


def run_suite(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    build()
    results = {w: {"runs": [], "trace": []} for w in workloads}

    def child(workload, seed, trace):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        began = time.monotonic()
        code, out, err = call(cmd, timeout=900, cwd=ROOT)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            raise BenchError(f"{workload} seed {seed}: exit {code}: "
                             f"{err.strip()}")
        result = json.loads(lines[-1])
        result.update(seed=seed, trace=trace,
                      seconds=round(time.monotonic() - began, 1))
        for line in lines[:-1]:
            print(f"  {line}", flush=True)  # the run's own log lines
        log(f"{workload} seed {seed} trace {trace}: correct "
            f"{result['correct']}, {result['failed']}/{result['attempted']} "
            f"failed, {result['seconds']} s")
        return result

    for rep in range(args.repeats):
        for workload in workloads:
            results[workload]["runs"].append(
                child(workload, args.seed + rep, 0))
    if args.trace:
        for workload in workloads:
            results[workload]["trace"].append(child(workload, args.seed, 1))

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"\n# end-to-end: median [q1, q3] over {args.repeats} run(s); "
          "spread = (q3 - q1) / median")
    for workload in workloads:
        runs = results[workload]["runs"]
        if not runs:
            continue
        print(f"\n{workload}  (correct {sum(r['correct'] for r in runs)}/"
              f"{len(runs)}, failed {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)} sessions)")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {name:22s} {med:14.6g} {m['unit']:6s} "
                  f"[{q1:.6g}, {q3:.6g}]  spread {spread:7.2%}  "
                  f"bound {m['bound']:.2%}")
    for workload in workloads:
        for result in results[workload]["trace"]:
            print(f"\n{workload} per-layer (traced pass, seed "
                  f"{result['seed']}):")
            for name, metric in result["metrics"].items():
                print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"run_seconds": spec["run_seconds"],
                       "workloads": results}, handle, indent=1)
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    args = parser.parse_args(argv[1:])
    # A terminated run still stops and reaps its daemons (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.suite:
            return run_suite(args)
        if not args.workload:
            parser.error("--workload or --suite is required")
        seconds = args.seconds if args.seconds else load_spec()["run_seconds"]
        result = run_once(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, KeyError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
