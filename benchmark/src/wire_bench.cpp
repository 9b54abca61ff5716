// wire_bench — the `emerged` side of the repository benchmark.
//
//   wire_bench ring-wait --daemon=IP:PORT --expect=N
//       Walks successor links from one daemon every 10 ms until the walk
//       closes over exactly N daemons; prints the wall-clock instant it did.
//
//   wire_bench load --daemons=EP,EP,... --pids=PID,PID,... [--seconds=20]
//                   [--seed=N]
//       The open-loop generator: ONE thread and ONE UDP socket. After a
//       3 s warm-up it sends Submit frames at 200 per second for `seconds`,
//       round-robin over the daemons, each built with the public codecs
//       (service::encode_frame + api::encode_submit_request) and naming the
//       generator's own socket as the receiver; then it drains for T + 2 s
//       (T = 4 s, joint 2x3). Every Deliver is decoded
//       (api::decode_emerge_event) and checked against the submitted secret
//       and tr. The daemons' CPU, context switches and peak RSS come from
//       /proc/<pid>, kernel UDP drops from /proc/net/snmp, and their wire
//       counters from MetricsRequest scrapes before and after the load. A
//       final status walk must still close.
//
//   wire_bench replay [--seconds=20] [--seed=N] [--decorate]
//       The same schedule on 16 in-process NodeDaemons over a
//       MemoryDatagramHub on a sim::Simulator (the loopback test harness).
//       With --decorate every daemon's DatagramSocket and sim::Clock are
//       wrapped in timing decorators that time each receive-handler call by
//       frame type, each send_to and each timer callback; the difference in
//       load-phase wall time between a plain and a decorated replay is the
//       tracing overhead. The replay runs pinned to one CPU beside a
//       bench::SpeedProbe and reports the load phase's speed factor; its
//       times are as measured.
//
//   wire_bench speed [--seconds=10]
//       Samples the speed of every CPU (bench::SpeedProbe) for `seconds`
//       and prints each sample's steady-clock instant and factor; run.py
//       averages the ones inside the load to put the daemons' CPU time at
//       the reference speed.
//
// Every command prints one JSON object as its last stdout line.
#include <poll.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "crypto/drbg.hpp"
#include "service/daemon.hpp"
#include "service/datagram.hpp"
#include "service/udp_socket.hpp"
#include "service/wire.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace emergence;           // NOLINT(build/namespaces)
using namespace emergence::service;  // NOLINT(build/namespaces)

/// The schedule both the UDP load and the replay follow.
constexpr double kRate = 200.0;         ///< open-loop submits per second
constexpr double kEmergingTime = 4.0;   ///< T of every session
constexpr double kWarmup = 3.0;         ///< seconds between ring and load
/// Replica-repair period of every daemon (run.py passes the same value to
/// `emerged serve`): longer than any run, so no repair sweep fires.
constexpr double kRepairInterval = 3600.0;
constexpr std::size_t kReplayNodes = 16;

double epoch_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

// -- the session schedule and its outcomes ------------------------------------

/// Open-loop sessions of one run: what was submitted and what came back.
/// Times are passed in, so the same book serves the UDP generator (steady
/// clock for latencies, the daemons' epoch clock for tr) and the replay
/// (virtual time for both).
class SessionBook {
 public:
  struct Summary {
    std::uint64_t sessions = 0, acked = 0, rejected = 0, emerged = 0;
    std::uint64_t wrong_secret = 0, early = 0, late = 0, lost = 0;
    /// First and last emergence instants (epoch clock).
    double first_emerged = 0, last_emerged = 0;
    double submit_p50_ms = 0, submit_p99_ms = 0;
    double lateness_p50_ms = 0, lateness_p99_ms = 0;
    double lag_p99_ms = 0;
  };

  SessionBook(std::size_t count, std::uint64_t seed, api::SubmitRequest shape)
      : request_(std::move(shape)), sessions_(count) {
    crypto::Drbg drbg(seed);
    for (Session& s : sessions_) s.secret = drbg.bytes(32);
  }

  /// The Submit frame for session `i`, due at `scheduled`, sent at `sent`.
  Bytes submit_frame(std::size_t i, const Endpoint& self, double scheduled,
                     double sent) {
    Session& s = sessions_[i];
    s.scheduled = scheduled;
    s.sent = sent;
    api::SubmitRequest request = request_;
    request.message = s.secret;
    request.seed = i + 1;
    Submit submit;
    submit.token = i + 1;
    submit.reply_to = self;
    submit.request = api::encode_submit_request(request);
    submit.receiver = self;
    return encode_frame(submit);
  }

  /// `mono` times acks against the schedule; `epoch` times deliveries
  /// against tr, which the daemon states on its own clock.
  void on_datagram(BytesView datagram, double mono, double epoch) {
    std::optional<WireMessage> message = decode_frame(datagram, stats_);
    if (!message.has_value()) return;
    if (const auto* ack = std::get_if<SubmitAck>(&*message)) {
      if (ack->token == 0 || ack->token > sessions_.size()) return;
      Session& s = sessions_[ack->token - 1];
      if (s.acked || s.rejected) return;
      if (!ack->ok) {
        s.rejected = true;
        return;
      }
      s.acked = true;
      s.ack_at = mono;
      s.release = ack->release_time;
      by_nonce_[ack->session_nonce] = ack->token - 1;
      return;
    }
    const auto* deliver = std::get_if<Deliver>(&*message);
    if (deliver == nullptr) return;
    api::EmergeEvent event;
    try {
      event = api::decode_emerge_event(deliver->event);
    } catch (const Error&) {
      ++stats_.malformed_payload;
      return;
    }
    auto it = by_nonce_.find(event.session_nonce);
    if (it == by_nonce_.end()) return;  // ack lost: the session failed
    Session& s = sessions_[it->second];
    if (s.delivered) return;  // the column's other terminal holder
    s.delivered = true;
    s.delivered_at = epoch;
    s.secret_ok = event.secret == s.secret;
    s.early = epoch < s.release || event.delivery_time < event.release_time;
  }

  Summary summarize() const {
    Summary out;
    std::vector<double> submit_ms, lateness_ms, lag_ms;
    out.sessions = sessions_.size();
    for (const Session& s : sessions_) {
      lag_ms.push_back((s.sent - s.scheduled) * 1e3);
      if (s.rejected) ++out.rejected;
      if (!s.acked) continue;
      ++out.acked;
      submit_ms.push_back((s.ack_at - s.scheduled) * 1e3);
      if (!s.delivered) {
        ++out.lost;
        continue;
      }
      lateness_ms.push_back((s.delivered_at - s.release) * 1e3);
      if (!s.secret_ok) {
        ++out.wrong_secret;
      } else if (s.early) {
        ++out.early;
      } else if (s.delivered_at > s.release + 1.0) {
        ++out.late;
      } else {
        out.first_emerged = out.emerged == 0
                                ? s.delivered_at
                                : std::min(out.first_emerged, s.delivered_at);
        out.last_emerged = std::max(out.last_emerged, s.delivered_at);
        ++out.emerged;
      }
    }
    out.submit_p50_ms = bench::percentile(submit_ms, 0.50);
    out.submit_p99_ms = bench::percentile(submit_ms, 0.99);
    out.lateness_p50_ms = bench::percentile(lateness_ms, 0.50);
    out.lateness_p99_ms = bench::percentile(lateness_ms, 0.99);
    out.lag_p99_ms = bench::percentile(lag_ms, 0.99);
    return out;
  }

  const WireStats& stats() const { return stats_; }

 private:
  struct Session {
    Bytes secret;
    double scheduled = 0, sent = 0, ack_at = 0, release = 0, delivered_at = 0;
    bool acked = false, rejected = false, delivered = false;
    bool secret_ok = false, early = false;
  };

  api::SubmitRequest request_;
  std::vector<Session> sessions_;
  std::map<std::uint64_t, std::size_t> by_nonce_;
  WireStats stats_;
};

void put_summary(bench::Json& out, const SessionBook::Summary& s) {
  out.count("sessions", s.sessions)
      .count("acked", s.acked)
      .count("rejected", s.rejected)
      .count("emerged", s.emerged)
      .count("wrong_secret", s.wrong_secret)
      .count("early", s.early)
      .count("late", s.late)
      .count("lost", s.lost)
      .num("emergence_span_s", s.last_emerged - s.first_emerged)
      .num("submit_p50_ms", s.submit_p50_ms)
      .num("submit_p99_ms", s.submit_p99_ms)
      .num("lateness_p50_ms", s.lateness_p50_ms)
      .num("lateness_p99_ms", s.lateness_p99_ms)
      .num("generator_lag_p99_ms", s.lag_p99_ms);
}

/// Every session: joint 2x3, emerging after kEmergingTime.
api::SubmitRequest session_shape() {
  api::SubmitRequest request;
  request.scheme = core::SchemeKind::kJoint;
  request.shape = core::PathShape{2, 3};
  request.emerging_time = kEmergingTime;
  return request;
}

// -- the UDP generator --------------------------------------------------------

/// One socket, one thread: waits with ppoll at sub-millisecond resolution
/// and drains every datagram into the installed handler.
class Generator {
 public:
  using Handler = std::function<void(BytesView, double mono, double epoch)>;

  Generator() : socket_(Endpoint{0x7F000001, 0}) {
    socket_.on_receive([this](const Endpoint&, BytesView datagram) {
      const double mono = bench::steady_seconds();
      const double epoch = epoch_seconds();
      if (auto reply = match_reply(datagram)) {
        reply_ = std::move(reply);
        return;
      }
      if (handler_) handler_(datagram, mono, epoch);
    });
  }

  Endpoint self() const { return socket_.local_endpoint(); }
  void set_handler(Handler handler) { handler_ = std::move(handler); }
  void send(const Endpoint& to, const Bytes& frame) {
    socket_.send_to(to, frame);
  }

  /// Receives until the steady clock reaches `deadline`.
  void pump_until(double deadline) {
    for (;;) {
      const double left = deadline - bench::steady_seconds();
      if (left <= 0) break;
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(left);
      ts.tv_nsec =
          static_cast<long>((left - static_cast<double>(ts.tv_sec)) * 1e9);
      pollfd pfd{socket_.fd(), POLLIN, 0};
      ::ppoll(&pfd, 1, &ts, nullptr);
      socket_.poll(-1.0);
    }
    socket_.poll(-1.0);
  }

  /// A Status or MetricsRequest round trip; nullopt after `timeout` s.
  template <typename Request>
  std::optional<WireMessage> call(const Endpoint& to, double timeout) {
    Request request;
    request.token = ++token_;
    request.reply_to = self();
    awaiting_ = request.token;
    reply_.reset();
    socket_.send_to(to, encode_frame(request));
    const double deadline = bench::steady_seconds() + timeout;
    while (!reply_.has_value() && bench::steady_seconds() < deadline) {
      pump_until(std::min(deadline, bench::steady_seconds() + 0.002));
    }
    awaiting_ = 0;
    return std::move(reply_);
  }

 private:
  std::optional<WireMessage> match_reply(BytesView datagram) {
    if (awaiting_ == 0) return std::nullopt;
    WireStats ignored;
    std::optional<WireMessage> message = decode_frame(datagram, ignored);
    if (!message.has_value()) return std::nullopt;
    if (const auto* s = std::get_if<StatusReply>(&*message)) {
      if (s->token == awaiting_) return message;
    }
    if (const auto* m = std::get_if<MetricsResponse>(&*message)) {
      if (m->token == awaiting_) return message;
    }
    return std::nullopt;
  }

  UdpSocket socket_;
  Handler handler_;
  std::uint64_t token_ = 1ull << 40;  // disjoint from the session tokens
  std::uint64_t awaiting_ = 0;
  std::optional<WireMessage> reply_;
};

struct Walk {
  std::size_t size = 0;
  bool closed = false;
  std::uint64_t malformed = 0;
};

/// Follows successor links from `start` until the walk revisits a node.
Walk status_walk(Generator& gen, const Endpoint& start, std::size_t limit,
                 double timeout) {
  Walk walk;
  std::set<dht::NodeId> seen;
  Endpoint cursor = start;
  for (std::size_t i = 0; i <= limit; ++i) {
    const std::optional<WireMessage> reply =
        gen.call<Status>(cursor, timeout);
    if (!reply.has_value()) return walk;
    const auto& status = std::get<StatusReply>(*reply);
    if (!seen.insert(status.self.id).second) {
      walk.closed = true;
      return walk;
    }
    ++walk.size;
    walk.malformed += status.malformed_frames;
    if (status.successors.empty()) return walk;
    cursor = status.successors.front().addr;
  }
  return walk;
}

int cmd_ring_wait(int argc, char** argv) {
  constexpr double kTimeout = 30.0;  // a healthy 16-node ring closes in ~4 s
  std::string daemon;
  std::size_t expect = 16;
  OptionTable table;
  table.add_string("daemon", "IP:PORT", "daemon to start the walk at", &daemon);
  table.add_size("expect", "ring size to wait for", &expect);
  table.parse_cli(argc, argv, 2);
  const Endpoint start = Endpoint::parse(daemon);

  Generator gen;
  const double deadline = bench::steady_seconds() + kTimeout;
  while (bench::steady_seconds() < deadline) {
    const Walk walk = status_walk(gen, start, expect, 0.2);
    if (walk.closed && walk.size == expect) {
      bench::Json out;
      out.num("closed_at_epoch", epoch_seconds()).print();
      return 0;
    }
    gen.pump_until(bench::steady_seconds() + 0.01);
  }
  std::cerr << "wire_bench ring-wait: ring of " << expect
            << " did not close within " << kTimeout << " s" << std::endl;
  return 1;
}

// /proc readers for the daemon processes and the kernel's UDP counters.

struct ProcSample {
  double cpu_s = 0;  ///< on-CPU time, nanosecond resolution (schedstat)
  double cpu_user_s = 0, cpu_sys_s = 0;  ///< the split, in clock ticks
  std::uint64_t ctx_switches = 0;
  double hwm_mb = 0;
};

ProcSample read_proc(int pid) {
  ProcSample out;
  std::ifstream schedstat("/proc/" + std::to_string(pid) + "/schedstat");
  double on_cpu_ns = -1;
  schedstat >> on_cpu_ns;
  require(on_cpu_ns >= 0,
          "cannot read /proc/" + std::to_string(pid) + "/schedstat");
  out.cpu_s = on_cpu_ns * 1e-9;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  require(paren != std::string::npos,
          "cannot read /proc/" + std::to_string(pid) + "/stat");
  std::stringstream fields(text.substr(paren + 2));
  std::vector<std::string> f;
  std::string token;
  while (fields >> token) f.push_back(token);
  require(f.size() > 12, "short /proc stat line");
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  out.cpu_user_s = std::stod(f[11]) / tick;  // field 14: utime
  out.cpu_sys_s = std::stod(f[12]) / tick;   // field 15: stime
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    std::stringstream in(line);
    std::string key;
    double value = 0;
    in >> key >> value;
    if (key == "VmHWM:") out.hwm_mb = value / 1024.0;
    if (key == "voluntary_ctxt_switches:" ||
        key == "nonvoluntary_ctxt_switches:") {
      out.ctx_switches += static_cast<std::uint64_t>(value);
    }
  }
  return out;
}

/// Udp RcvbufErrors from /proc/net/snmp (0 when the line is absent).
std::uint64_t udp_rcvbuf_errors() {
  std::ifstream snmp("/proc/net/snmp");
  std::string header, values, line;
  while (std::getline(snmp, line)) {
    if (line.rfind("Udp:", 0) != 0) continue;
    if (header.empty()) {
      header = line;
    } else {
      values = line;
      break;
    }
  }
  std::stringstream h(header), v(values);
  std::string name, value;
  while (h >> name && v >> value) {
    if (name == "RcvbufErrors") return std::stoull(value);
  }
  return 0;
}

/// Sums of the scraped daemon counters this benchmark reads.
struct Scrape {
  std::map<std::string, double> sum;
  std::vector<double> frames_received;  ///< per daemon
  std::size_t answered = 0;
};

Scrape scrape(Generator& gen, const std::vector<Endpoint>& daemons) {
  Scrape out;
  for (const Endpoint& d : daemons) {
    std::optional<WireMessage> reply;
    for (int attempt = 0; attempt < 5 && !reply.has_value(); ++attempt) {
      reply = gen.call<MetricsRequest>(d, 0.5);
    }
    if (!reply.has_value()) continue;
    ++out.answered;
    for (const auto& [name, value] :
         std::get<MetricsResponse>(*reply).entries) {
      out.sum[name] += value;
      if (name == "emergence_wire_frames_received_total")
        out.frames_received.push_back(value);
    }
  }
  return out;
}

double malformed_of(const Scrape& s) {
  double total = 0;
  for (const char* name :
       {"emergence_wire_bad_magic_total",
        "emergence_wire_version_mismatch_total",
        "emergence_wire_truncated_frames_total",
        "emergence_wire_oversized_frames_total",
        "emergence_wire_unknown_type_total",
        "emergence_wire_malformed_payload_total"}) {
    auto it = s.sum.find(name);
    if (it != s.sum.end()) total += it->second;
  }
  return total;
}

int cmd_load(int argc, char** argv) {
  std::string daemons_text, pids_text;
  double seconds = 20;
  std::uint64_t seed = 1;
  OptionTable table;
  table.add_string("daemons", "EP,...", "daemon endpoints", &daemons_text);
  table.add_string("pids", "PID,...", "daemon process ids", &pids_text);
  table.add_real("seconds", "load duration", &seconds);
  table.add_u64("seed", "workload seed", &seed);
  table.parse_cli(argc, argv, 2);
  std::vector<Endpoint> daemons;
  for (const std::string& ep : split_commas(daemons_text))
    daemons.push_back(Endpoint::parse(ep));
  std::vector<int> pids;
  for (const std::string& pid : split_commas(pids_text))
    pids.push_back(std::stoi(pid));
  require(!daemons.empty() && daemons.size() == pids.size(),
          "--daemons and --pids must list the same daemons");

  const auto count = static_cast<std::size_t>(kRate * seconds);
  require(count >= 1, "load: --seconds must give at least 1 session");
  SessionBook book(count, seed, session_shape());
  Generator gen;
  gen.set_handler([&book](BytesView datagram, double mono, double epoch) {
    book.on_datagram(datagram, mono, epoch);
  });

  gen.pump_until(bench::steady_seconds() + kWarmup);
  const Scrape before = scrape(gen, daemons);
  std::vector<ProcSample> proc0;
  for (int pid : pids) proc0.push_back(read_proc(pid));
  const std::uint64_t drops0 = udp_rcvbuf_errors();

  // Open loop: session i is due at start + i / kRate whatever came back.
  const double start = bench::steady_seconds() + 0.01;
  for (std::size_t i = 0; i < count; ++i) {
    const double due = start + static_cast<double>(i) / kRate;
    gen.pump_until(due);
    gen.send(daemons[i % daemons.size()],
             book.submit_frame(i, gen.self(), due, bench::steady_seconds()));
  }
  const double end =
      start + static_cast<double>(count - 1) / kRate + kEmergingTime + 2.0;
  gen.pump_until(end);
  const double loaded_s = bench::steady_seconds() - start;

  std::vector<ProcSample> proc1;
  for (int pid : pids) proc1.push_back(read_proc(pid));
  const std::uint64_t drops1 = udp_rcvbuf_errors();
  const Scrape after = scrape(gen, daemons);
  const Walk walk = status_walk(gen, daemons.front(), daemons.size(), 1.0);

  double cpu = 0, user = 0, sys = 0, hwm = 0;
  std::uint64_t ctx = 0;
  for (std::size_t d = 0; d < pids.size(); ++d) {
    cpu += proc1[d].cpu_s - proc0[d].cpu_s;
    user += proc1[d].cpu_user_s - proc0[d].cpu_user_s;
    sys += proc1[d].cpu_sys_s - proc0[d].cpu_sys_s;
    ctx += proc1[d].ctx_switches - proc0[d].ctx_switches;
    hwm += proc1[d].hwm_mb;
  }
  const auto delta = [&](const std::string& name) {
    const auto a = after.sum.find(name);
    const auto b = before.sum.find(name);
    return (a == after.sum.end() ? 0.0 : a->second) -
           (b == before.sum.end() ? 0.0 : b->second);
  };
  const auto gauge = [&](const std::string& name) {
    const auto a = after.sum.find(name);
    return a == after.sum.end() ? 0.0 : a->second;
  };
  // Busiest daemon's received frames over the mean (1 = perfectly even).
  double rx_peak = 0, rx_sum = 0;
  for (double r : after.frames_received) {
    rx_peak = std::max(rx_peak, r);
    rx_sum += r;
  }
  const double rx_imbalance =
      rx_sum > 0 ? rx_peak * static_cast<double>(after.frames_received.size()) /
                       rx_sum
                 : 0.0;

  bench::Json out;
  put_summary(out, book.summarize());
  out.num("rate", kRate)
      .num("load_start", start)
      .num("load_end", start + loaded_s)
      .num("loaded_s", loaded_s)
      .num("daemon_cpu_s", cpu)
      .num("daemon_user_s", user)
      .num("daemon_sys_s", sys)
      .count("daemon_ctx_switches", ctx)
      .num("daemon_hwm_mb", hwm)
      .count("udp_rcvbuf_errors", drops1 - drops0)
      .count("generator_malformed", book.stats().malformed_frames())
      .num("frames_sent", delta("emergence_wire_frames_sent_total"))
      .num("frames_received", delta("emergence_wire_frames_received_total"))
      .num("request_retries", delta("emergence_wire_request_retries_total"))
      .num("request_timeouts", delta("emergence_wire_request_timeouts_total"))
      .num("packages_sent", delta("emergence_daemon_packages_sent_total"))
      .num("keys_put", delta("emergence_daemon_keys_put_total"))
      .num("put_failures", delta("emergence_daemon_put_failures_total"))
      .num("holders_stuck", delta("emergence_daemon_holders_stuck_total"))
      .num("store_keys", gauge("emergence_store_size"))
      .num("holder_slots", gauge("emergence_holder_slots"))
      .num("rx_imbalance", rx_imbalance)
      .num("malformed_frames", malformed_of(after))
      .count("scraped", after.answered)
      .count("ring_size", walk.size)
      .count("ring_closed", walk.closed ? 1 : 0)
      .count("walk_malformed", walk.malformed)
      .print();
  return 0;
}

// -- the in-process replay ----------------------------------------------------

/// Frame groups the traced replay times receive handlers by.
constexpr std::array<const char*, 8> kGroups = {
    "submit", "put", "put_ack", "store_replica", "package",
    "find_successor", "stabilize", "other"};

std::size_t group_of(BytesView datagram) {
  if (datagram.size() < 3) return 7;
  switch (static_cast<MessageType>(datagram[2])) {
    case MessageType::kSubmit: return 0;
    case MessageType::kPut: return 1;
    case MessageType::kPutAck: return 2;
    case MessageType::kStoreReplica: return 3;
    case MessageType::kPackage: return 4;
    case MessageType::kFindSuccessor:
    case MessageType::kFindSuccessorReply: return 5;
    case MessageType::kGetPredecessor:
    case MessageType::kPredecessorReply:
    case MessageType::kNotify: return 6;
    default: return 7;
  }
}

/// What the timing decorators accumulate across all daemons.
struct TraceStats {
  std::array<std::uint64_t, kGroups.size()> rx{};
  std::array<double, kGroups.size()> rx_s{};
  std::uint64_t sends = 0;
  double send_s = 0;
  std::uint64_t timer_fires = 0;
  double timer_s = 0;
  std::uint64_t timer_cancels = 0;
};

/// DatagramSocket decorator: times every receive-handler call by frame
/// group and every send_to.
class TimedSocket final : public DatagramSocket {
 public:
  TimedSocket(std::unique_ptr<DatagramSocket> inner, TraceStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void send_to(const Endpoint& to, BytesView datagram) override {
    const double t0 = bench::steady_seconds();
    inner_->send_to(to, datagram);
    stats_.send_s += bench::steady_seconds() - t0;
    ++stats_.sends;
  }
  Endpoint local_endpoint() const override { return inner_->local_endpoint(); }
  void on_receive(Handler handler) override {
    inner_->on_receive([this, handler = std::move(handler)](
                           const Endpoint& from, BytesView datagram) {
      const std::size_t group = group_of(datagram);
      const double t0 = bench::steady_seconds();
      handler(from, datagram);
      stats_.rx_s[group] += bench::steady_seconds() - t0;
      ++stats_.rx[group];
    });
  }

 private:
  std::unique_ptr<DatagramSocket> inner_;
  TraceStats& stats_;
};

/// sim::Clock decorator: times every timer callback, counts cancels.
class TimedClock final : public sim::Clock {
 public:
  TimedClock(sim::Clock& inner, TraceStats& stats)
      : inner_(inner), stats_(stats) {}

  sim::EventId schedule_at(sim::Time at,
                           std::function<void()> action) override {
    return inner_.schedule_at(at, wrap(std::move(action)));
  }
  sim::EventId schedule_in(sim::Time delay,
                           std::function<void()> action) override {
    return inner_.schedule_in(delay, wrap(std::move(action)));
  }
  void cancel(sim::EventId id) override {
    ++stats_.timer_cancels;
    inner_.cancel(id);
  }
  sim::Time now() const override { return inner_.now(); }

 private:
  std::function<void()> wrap(std::function<void()> action) {
    return [this, action = std::move(action)]() {
      const double t0 = bench::steady_seconds();
      action();
      stats_.timer_s += bench::steady_seconds() - t0;
      ++stats_.timer_fires;
    };
  }

  sim::Clock& inner_;
  TraceStats& stats_;
};

int cmd_replay(int argc, char** argv) {
  double seconds = 20;
  std::uint64_t seed = 1;
  bool decorate = false;
  OptionTable table;
  table.add_real("seconds", "load duration", &seconds);
  table.add_u64("seed", "workload seed", &seed);
  table.add_flag("decorate", "time handlers, sends and timers", &decorate);
  table.parse_cli(argc, argv, 2);
  const std::vector<int> cpus = bench::last_cpus(1);
  bench::pin_thread(cpus);
  bench::SpeedProbe speed(cpus);

  constexpr std::uint32_t kLoopback = 0x7F000001;
  constexpr std::size_t nodes = kReplayNodes;
  sim::Simulator sim;
  MemoryDatagramHub hub(sim);
  TraceStats trace;
  struct Node {
    std::unique_ptr<DatagramSocket> socket;
    std::unique_ptr<sim::Clock> clock;  // null = the simulator itself
    std::unique_ptr<NodeDaemon> daemon;
  };
  std::vector<Node> cluster(nodes);
  std::vector<Endpoint> endpoints;
  crypto::Drbg seeds(seed ^ 0x12E91A7);
  for (std::size_t i = 0; i < nodes; ++i) {
    DaemonConfig config;
    config.listen = Endpoint{kLoopback, static_cast<std::uint16_t>(9000 + i)};
    if (i != 0) config.seed = endpoints.front();
    config.name = "node-" + std::to_string(i);
    config.rng_seed = seeds.u64();
    config.stabilize_interval = 0.25;
    config.repair_interval = kRepairInterval;
    endpoints.push_back(config.listen);
    Node& node = cluster[i];
    node.socket = hub.bind(config.listen);
    sim::Clock* clock = &sim;
    if (decorate) {
      node.socket =
          std::make_unique<TimedSocket>(std::move(node.socket), trace);
      node.clock = std::make_unique<TimedClock>(sim, trace);
      clock = node.clock.get();
    }
    node.daemon = std::make_unique<NodeDaemon>(*clock, *node.socket, config);
  }
  for (Node& node : cluster) node.daemon->start();

  const auto ring_closed = [&] {
    std::set<dht::NodeId> seen;
    std::size_t cursor = 0;
    for (std::size_t hop = 0; hop <= nodes; ++hop) {
      const NodeDaemon& d = *cluster[cursor].daemon;
      if (!seen.insert(d.self().id).second) return seen.size() == nodes;
      if (d.successors().empty()) return false;
      const Endpoint next = d.successors().front().addr;
      cursor = static_cast<std::size_t>(next.port - 9000);
      if (cursor >= nodes) return false;
    }
    return false;
  };
  while (!ring_closed()) {
    require(sim.now() < 120.0, "replay: ring did not close");
    sim.run_until(sim.now() + 0.05);
  }
  sim.run_until(sim.now() + kWarmup);

  const auto count = static_cast<std::size_t>(kRate * seconds);
  require(count >= 1, "replay: --seconds must give at least 1 session");
  SessionBook book(count, seed, session_shape());
  auto client = hub.bind(Endpoint{kLoopback, 8999});
  client->on_receive([&](const Endpoint&, BytesView datagram) {
    book.on_datagram(datagram, sim.now(), sim.now());
  });
  const double start = sim.now() + 0.01;
  for (std::size_t i = 0; i < count; ++i) {
    const double due = start + static_cast<double>(i) / kRate;
    sim.schedule_at(due, [&, i, due] {
      client->send_to(endpoints[i % nodes],
                      book.submit_frame(i, client->local_endpoint(), due,
                                        sim.now()));
    });
  }
  const double end =
      start + static_cast<double>(count - 1) / kRate + kEmergingTime + 2.0;
  const TraceStats trace0 = trace;
  const std::uint64_t events0 = sim.executed_events();
  const bench::Usage u0 = bench::Usage::now();
  const double t0 = bench::steady_seconds();
  sim.run_until(end);
  const double wall = bench::steady_seconds() - t0;
  const bench::Usage u1 = bench::Usage::now();
  speed.stop();

  WireStats wire;
  DaemonReport report;
  std::uint64_t malformed = 0;
  double store_keys = 0, slots = 0;
  for (const Node& node : cluster) {
    const WireStats& w = node.daemon->stats();
    wire.frames_sent += w.frames_sent;
    wire.frames_received += w.frames_received;
    wire.request_retries += w.request_retries;
    wire.request_timeouts += w.request_timeouts;
    malformed += w.malformed_frames();
    report.put_failures += node.daemon->report().put_failures;
    report.holders_stuck += node.daemon->report().holders_stuck;
    store_keys += static_cast<double>(node.daemon->store_size());
    slots += static_cast<double>(node.daemon->holder_slot_count());
  }

  bench::Json out;
  put_summary(out, book.summarize());
  out.num("load_wall_s", wall)
      .num("speed_factor", speed.factor(t0, t0 + wall))
      .num("user_s", u1.user_s - u0.user_s)
      .num("sys_s", u1.sys_s - u0.sys_s)
      .count("ctx_switches", u1.ctx_switches - u0.ctx_switches)
      .count("events", sim.executed_events() - events0)
      .count("frames_sent", wire.frames_sent)
      .count("frames_received", wire.frames_received)
      .count("request_retries", wire.request_retries)
      .count("request_timeouts", wire.request_timeouts)
      .count("malformed_frames", malformed)
      .count("put_failures", report.put_failures)
      .count("holders_stuck", report.holders_stuck)
      .num("store_keys", store_keys)
      .num("holder_slots", slots);
  if (decorate) {
    // Load-phase counts and time, plus whole-replay totals: ring joins are
    // the only find_successor traffic, so per-call costs use the totals.
    for (std::size_t g = 0; g < kGroups.size(); ++g) {
      const std::string group = kGroups[g];
      out.count("rx." + group, trace.rx[g] - trace0.rx[g])
          .num("rx_s." + group, trace.rx_s[g] - trace0.rx_s[g])
          .count("rx_total." + group, trace.rx[g])
          .num("rx_total_s." + group, trace.rx_s[g]);
    }
    out.count("sends", trace.sends - trace0.sends)
        .num("send_s", trace.send_s - trace0.send_s)
        .count("timer_fires", trace.timer_fires - trace0.timer_fires)
        .num("timer_s", trace.timer_s - trace0.timer_s)
        .count("timer_cancels", trace.timer_cancels - trace0.timer_cancels);
  }
  out.print();
  return 0;
}

// -- CPU speed beside the daemons ---------------------------------------------

int cmd_speed(int argc, char** argv) {
  double seconds = 10;
  OptionTable table;
  table.add_real("seconds", "sampling duration", &seconds);
  table.parse_cli(argc, argv, 2);
  bench::SpeedProbe speed(bench::last_cpus(CPU_SETSIZE));
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  speed.stop();
  bench::Json out;
  out.list("at", speed.sample_times())
      .list("factor", speed.sample_factors())
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  try {
    if (command == "ring-wait") return cmd_ring_wait(argc, argv);
    if (command == "load") return cmd_load(argc, argv);
    if (command == "replay") return cmd_replay(argc, argv);
    if (command == "speed") return cmd_speed(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "wire_bench " << command << ": " << e.what() << std::endl;
    return 1;
  }
  std::cerr << "usage: wire_bench <ring-wait|load|replay|speed> "
               "[--key=value ...]"
            << std::endl;
  return 2;
}
