#include "service/daemon.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "emerge/protocol.hpp"
#include "obs/bridge.hpp"
#include "obs/trace.hpp"
#include "service/udp_socket.hpp"

namespace emergence::service {
namespace {

/// Safety margin a submit's holding period must leave beyond the assembly
/// delay: covers localhost RTTs and scheduler jitter on a wall clock (the
/// simulator analogue is th > assembly + 4 * max_latency).
constexpr double kHoldingMargin = 0.05;

/// The request token of a message, for pending-request matching; 0 for
/// token-less message types.
std::uint64_t token_of(const WireMessage& message) {
  return std::visit(
      [](const auto& m) -> std::uint64_t {
        if constexpr (requires { m.token; }) {
          return m.token;
        } else {
          return 0;
        }
      },
      message);
}

}  // namespace

void add_daemon_options(OptionTable& table, DaemonConfig& config) {
  table.add("listen", "IP:PORT", "UDP endpoint this daemon binds",
            [&config](const std::string& v) {
              config.listen = resolve_endpoint(v);
            });
  table.add("seed-node", "IP:PORT",
            "existing daemon to join via (omit to create a new ring)",
            [&config](const std::string& v) {
              config.seed = resolve_endpoint(v);
            });
  table.add_string("name", "TEXT",
                   "ring identity = hash(name); defaults to the listen "
                   "endpoint",
                   &config.name);
  table.add_size("successor-list", "successor-list length",
                 &config.successor_list);
  table.add_size("replicas", "copies kept of every stored key",
                 &config.replicas);
  table.add_real("stabilize-interval", "seconds between stabilize rounds",
                 &config.stabilize_interval);
  table.add_real("repair-interval", "seconds between replica-repair sweeps",
                 &config.repair_interval);
  table.add_real("request-timeout", "seconds before a request is retried",
                 &config.request_timeout);
  table.add_size("request-retries", "resend attempts per request",
                 &config.request_retries);
  table.add("max-hops", "N", "hop cap for routed messages",
            [&config](const std::string& v) {
              const std::size_t hops = parse_size_option("max-hops", v);
              require(hops >= 1 && hops <= 255,
                      "option 'max-hops=" + v + "': expected 1..255");
              config.max_hops = static_cast<std::uint8_t>(hops);
            });
  table.add_u64("rng-seed", "seed for tokens and submit-side randomness",
                &config.rng_seed);
}

NodeDaemon::NodeDaemon(sim::Clock& clock, DatagramSocket& socket,
                       DaemonConfig config)
    : clock_(clock),
      socket_(socket),
      config_(std::move(config)),
      drbg_(config_.rng_seed) {
  require(config_.listen.valid(), "NodeDaemon: listen endpoint required");
  require(config_.successor_list >= 1, "NodeDaemon: empty successor list");
  require(config_.replicas >= 1, "NodeDaemon: replicas must be >= 1");
  // Each of these re-arms a timer at now + value: zero, a negative or a NaN
  // value re-arms at or before now, so one instant would fire forever.
  for (const auto& [name, value] :
       {std::pair{"stabilize interval", config_.stabilize_interval},
        std::pair{"repair interval", config_.repair_interval},
        std::pair{"request timeout", config_.request_timeout}}) {
    require(std::isfinite(value) && value > 0.0,
            std::string("NodeDaemon: ") + name +
                " must be positive and finite");
  }
  const std::string name =
      config_.name.empty() ? config_.listen.to_string() : config_.name;
  self_ = Peer{dht::NodeId::hash_of_text(name), config_.listen};
  socket_.on_receive([this](const Endpoint&, BytesView datagram) {
    handle_datagram(datagram);
  });
}

void NodeDaemon::start() {
  successors_ = {self_};
  if (!config_.seed.has_value()) {
    joined_ = true;
  } else {
    // Join: ask the seed for the successor of our own id. Failure retries
    // from scratch — the seed may simply not be up yet.
    const auto attempt = [this](const auto& self_fn) -> void {
      FindSuccessor request;
      request.token = next_token();
      request.reply_to = self_.addr;
      request.target = self_.id;
      request.hops_left = config_.max_hops;
      send_request(
          request, *config_.seed,
          [this](const WireMessage& reply) {
            const auto* fsr = std::get_if<FindSuccessorReply>(&reply);
            if (fsr == nullptr || fsr->successor.id == self_.id) return;
            adopt_successors(fsr->successor, {});
            joined_ = true;
            Notify notify;
            notify.self = self_;
            send_message(successors_.front().addr, notify);
          },
          [this, self_fn]() {
            clock_.schedule_in(config_.stabilize_interval,
                               [self_fn]() { self_fn(self_fn); });
          });
    };
    attempt(attempt);
  }
  schedule_stabilize();
  schedule_repair();
}

StatusReply NodeDaemon::local_status() const {
  StatusReply reply;
  reply.self = self_;
  reply.has_predecessor = predecessor_.has_value();
  if (predecessor_.has_value()) reply.predecessor = *predecessor_;
  reply.successors = successors_;
  reply.store_size = store_.size();
  reply.holder_slots = slots_.size();
  reply.deliveries = report_.deliveries;
  reply.malformed_frames = stats_.malformed_frames();
  return reply;
}

// -- pump ---------------------------------------------------------------------

void NodeDaemon::handle_datagram(BytesView datagram) {
  std::optional<WireMessage> message = decode_frame(datagram, stats_);
  if (!message.has_value()) return;  // counted by decode_frame; keep serving

  std::visit(
      [this, &message](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Ping>) {
          on_ping(m);
        } else if constexpr (std::is_same_v<T, FindSuccessor>) {
          on_find_successor(std::move(m));
        } else if constexpr (std::is_same_v<T, GetPredecessor>) {
          on_get_predecessor(m);
        } else if constexpr (std::is_same_v<T, Notify>) {
          on_notify(m);
        } else if constexpr (std::is_same_v<T, Put>) {
          on_put(std::move(m));
        } else if constexpr (std::is_same_v<T, Get>) {
          on_get(std::move(m));
        } else if constexpr (std::is_same_v<T, StoreReplica>) {
          on_store_replica(std::move(m));
        } else if constexpr (std::is_same_v<T, Package>) {
          route_package(std::move(m));
        } else if constexpr (std::is_same_v<T, Deliver>) {
          on_deliver(m);
        } else if constexpr (std::is_same_v<T, Submit>) {
          handle_submit(std::move(m));
        } else if constexpr (std::is_same_v<T, Status>) {
          on_status(m);
        } else if constexpr (std::is_same_v<T, MetricsRequest>) {
          on_metrics(m);
        } else {
          // Every reply type: match against the pending-request table.
          complete_request(token_of(*message), *message);
        }
      },
      std::move(*message));
}

void NodeDaemon::send_message(const Endpoint& to, const WireMessage& message) {
  socket_.send_to(to, encode_frame(message));
  ++stats_.frames_sent;
}

// -- request/response ---------------------------------------------------------

std::uint64_t NodeDaemon::next_token() {
  std::uint64_t token = drbg_.u64();
  while (token == 0 || pending_.find(token) != pending_.end())
    token = drbg_.u64();
  return token;
}

void NodeDaemon::send_request(WireMessage message, Endpoint to,
                              std::function<void(const WireMessage&)> on_reply,
                              std::function<void()> on_fail,
                              std::function<Endpoint()> retarget) {
  const std::uint64_t token = token_of(message);
  PendingRequest& pending = pending_[token];
  pending.message = std::move(message);
  pending.to = to;
  pending.retries_left = config_.request_retries;
  pending.on_reply = std::move(on_reply);
  pending.on_fail = std::move(on_fail);
  pending.retarget = std::move(retarget);
  send_message(pending.to, pending.message);
  arm_request_timer(token);
}

void NodeDaemon::arm_request_timer(std::uint64_t token) {
  pending_[token].timer =
      clock_.schedule_in(config_.request_timeout, [this, token]() {
        auto it = pending_.find(token);
        if (it == pending_.end()) return;
        PendingRequest& pending = it->second;
        if (pending.retries_left == 0) {
          ++stats_.request_timeouts;
          auto fail = std::move(pending.on_fail);
          pending_.erase(it);
          if (fail) fail();
          return;
        }
        --pending.retries_left;
        ++stats_.request_retries;
        if (pending.retarget) pending.to = pending.retarget();
        send_message(pending.to, pending.message);
        arm_request_timer(token);
      });
}

bool NodeDaemon::complete_request(std::uint64_t token,
                                  const WireMessage& reply) {
  auto it = pending_.find(token);
  if (it == pending_.end()) return false;  // stale or duplicated reply
  clock_.cancel(it->second.timer);
  auto on_reply = std::move(it->second.on_reply);
  pending_.erase(it);
  if (on_reply) on_reply(reply);
  return true;
}

// -- chord --------------------------------------------------------------------

bool NodeDaemon::alone() const {
  return successors_.empty() || successors_.front().id == self_.id;
}

bool NodeDaemon::responsible_for(const dht::NodeId& key) const {
  if (alone()) return true;
  if (predecessor_.has_value())
    return dht::in_half_open_interval(key, predecessor_->id, self_.id);
  // No predecessor link yet (joining, or it died): claim only keys that no
  // known successor serves better — the hop cap bounds any transient loop.
  return false;
}

std::optional<Peer> NodeDaemon::route_next_hop(const dht::NodeId& key) const {
  if (alone() || responsible_for(key)) return std::nullopt;
  const Peer& succ = successors_.front();
  if (dht::in_half_open_interval(key, self_.id, succ.id)) return succ;
  // Greedy: the farthest successor still preceding the key clockwise.
  for (auto it = successors_.rbegin(); it != successors_.rend(); ++it) {
    if (dht::in_open_interval(it->id, self_.id, key)) return *it;
  }
  return succ;
}

void NodeDaemon::schedule_stabilize() {
  clock_.schedule_in(config_.stabilize_interval, [this]() {
    stabilize();
    schedule_stabilize();
  });
}

void NodeDaemon::stabilize() {
  if (alone()) {
    // Chord's ring-of-one bootstrap: the first Notify from a joiner lands
    // in predecessor_; adopting it as successor forms the two-node ring.
    if (predecessor_.has_value() && predecessor_->id != self_.id) {
      successors_ = {*predecessor_};
      Notify notify;
      notify.self = self_;
      send_message(successors_.front().addr, notify);
    }
    return;
  }
  const Peer succ = successors_.front();
  GetPredecessor request;
  request.token = next_token();
  request.reply_to = self_.addr;
  send_request(
      request, succ.addr,
      [this, succ](const WireMessage& reply) {
        const auto* pr = std::get_if<PredecessorReply>(&reply);
        if (pr == nullptr) return;
        Peer head = succ;
        if (pr->known &&
            dht::in_open_interval(pr->predecessor.id, self_.id, succ.id)) {
          head = pr->predecessor;
        }
        adopt_successors(head, pr->successors);
        Notify notify;
        notify.self = self_;
        send_message(successors_.front().addr, notify);
      },
      [this]() { drop_successor_head(); });
}

void NodeDaemon::drop_successor_head() {
  if (successors_.empty()) return;
  successors_.erase(successors_.begin());
  if (successors_.empty()) successors_ = {self_};
}

void NodeDaemon::adopt_successors(const Peer& head,
                                  const std::vector<Peer>& rest) {
  std::vector<Peer> next;
  next.push_back(head);
  for (const Peer& peer : rest) {
    if (next.size() >= config_.successor_list) break;
    if (peer.id == self_.id) break;  // wrapped all the way around
    const bool dup = std::any_of(next.begin(), next.end(),
                                 [&](const Peer& p) { return p.id == peer.id; });
    if (!dup) next.push_back(peer);
  }
  successors_ = std::move(next);
}

void NodeDaemon::schedule_repair() {
  clock_.schedule_in(config_.repair_interval, [this]() {
    repair_replicas();
    schedule_repair();
  });
}

void NodeDaemon::repair_replicas() {
  if (alone()) return;
  for (const auto& [key, value] : store_) {
    if (responsible_for(key)) replicate(key, value);
  }
}

// -- storage ------------------------------------------------------------------

void NodeDaemon::store_local(const dht::NodeId& key, Bytes value) {
  store_[key] = std::move(value);
}

void NodeDaemon::replicate(const dht::NodeId& key, const Bytes& value) {
  std::size_t copies = 0;
  for (const Peer& peer : successors_) {
    if (copies + 1 >= config_.replicas) break;
    if (peer.id == self_.id) continue;
    StoreReplica msg;
    msg.key = key;
    msg.value = value;
    send_message(peer.addr, msg);
    ++copies;
  }
}

// -- message handlers ---------------------------------------------------------

void NodeDaemon::on_ping(const Ping& m) {
  Pong pong;
  pong.token = m.token;
  pong.self = self_;
  send_message(m.reply_to, pong);
}

void NodeDaemon::on_find_successor(FindSuccessor&& m) {
  if (responsible_for(m.target)) {
    FindSuccessorReply reply;
    reply.token = m.token;
    reply.successor = self_;
    send_message(m.reply_to, reply);
    return;
  }
  std::optional<Peer> next = route_next_hop(m.target);
  if (!next.has_value() || m.hops_left == 0) {
    ++stats_.hops_exhausted;
    return;
  }
  --m.hops_left;
  send_message(next->addr, m);
}

void NodeDaemon::on_get_predecessor(const GetPredecessor& m) {
  PredecessorReply reply;
  reply.token = m.token;
  reply.known = predecessor_.has_value();
  if (predecessor_.has_value()) reply.predecessor = *predecessor_;
  reply.successors = successors_;
  send_message(m.reply_to, reply);
}

void NodeDaemon::on_notify(const Notify& m) {
  if (m.self.id == self_.id) return;
  if (!predecessor_.has_value() ||
      dht::in_open_interval(m.self.id, predecessor_->id, self_.id)) {
    predecessor_ = m.self;
  }
}

void NodeDaemon::on_put(Put&& m) {
  std::optional<Peer> next = route_next_hop(m.key);
  if (next.has_value()) {
    if (m.hops_left == 0) {
      ++stats_.hops_exhausted;
      return;
    }
    --m.hops_left;
    send_message(next->addr, m);
    return;
  }
  PutAck ack;
  ack.token = m.token;
  const Endpoint reply_to = m.reply_to;
  const dht::NodeId key = m.key;
  store_local(key, std::move(m.value));
  replicate(key, store_[key]);
  send_message(reply_to, ack);
}

void NodeDaemon::on_get(Get&& m) {
  std::optional<Peer> next = route_next_hop(m.key);
  if (next.has_value()) {
    if (m.hops_left == 0) {
      ++stats_.hops_exhausted;
      return;
    }
    --m.hops_left;
    send_message(next->addr, m);
    return;
  }
  GetReply reply;
  reply.token = m.token;
  auto it = store_.find(m.key);
  if (it != store_.end()) {
    reply.found = true;
    reply.value = it->second;
  }
  send_message(m.reply_to, reply);
}

void NodeDaemon::on_store_replica(StoreReplica&& m) {
  store_local(m.key, std::move(m.value));
}

void NodeDaemon::on_deliver(const Deliver& m) {
  try {
    received_events_.push_back(api::decode_emerge_event(m.event));
  } catch (const Error&) {
    ++stats_.malformed_payload;
  }
}

void NodeDaemon::on_status(const Status& m) {
  StatusReply reply = local_status();
  reply.token = m.token;
  send_message(m.reply_to, reply);
}

void NodeDaemon::publish_metrics(obs::MetricsRegistry& registry) const {
  obs::publish(registry, stats_);
  obs::publish(registry, report_);
  registry.gauge("emergence_store_size") =
      static_cast<double>(store_.size());
  registry.gauge("emergence_holder_slots") =
      static_cast<double>(slots_.size());
  registry.gauge("emergence_successors") =
      static_cast<double>(successors_.size());
  registry.gauge("emergence_pending_requests") =
      static_cast<double>(pending_.size());
  registry.gauge("emergence_joined") = joined_ ? 1.0 : 0.0;
}

void NodeDaemon::on_metrics(const MetricsRequest& m) {
  obs::MetricsRegistry registry;
  publish_metrics(registry);
  MetricsResponse reply;
  reply.token = m.token;
  reply.entries = registry.flatten();
  send_message(m.reply_to, reply);
}

void NodeDaemon::trace_session_event(
    const char* name, std::uint64_t nonce,
    std::vector<std::pair<std::string, std::string>> args) {
  if (trace_ == nullptr || !trace_->sample(nonce)) return;
  obs::TraceEvent ev;
  ev.ts_us = static_cast<std::int64_t>(clock_.now() * 1e6);
  ev.name = name;
  ev.cat = "daemon";
  ev.id = nonce;
  ev.args = std::move(args);
  ev.args.emplace_back("node", self_.addr.to_string());
  trace_->record(std::move(ev));
}

// -- holder engine ------------------------------------------------------------

void NodeDaemon::route_package(Package&& pkg) {
  std::optional<Peer> next = route_next_hop(pkg.ring_point);
  if (!next.has_value()) {
    accept_package(std::move(pkg));
    return;
  }
  if (pkg.hops_left == 0) {
    ++stats_.hops_exhausted;
    return;
  }
  --pkg.hops_left;
  send_message(next->addr, pkg);
}

void NodeDaemon::send_packages(const SessionMeta& meta,
                               std::vector<core::OutgoingPackage> packages) {
  for (core::OutgoingPackage& out : packages) {
    Package pkg;
    pkg.meta = meta;
    pkg.ring_point = out.ring_point;
    pkg.package = std::move(out.package);
    pkg.hops_left = config_.max_hops;
    ++report_.packages_sent;
    route_package(std::move(pkg));
  }
}

void NodeDaemon::accept_package(Package&& pkg) {
  ++report_.packages_received;
  core::ProtocolPackage decoded;
  try {
    decoded = core::decode_protocol_package(pkg.package);
  } catch (const Error&) {
    ++stats_.malformed_payload;
    return;
  }
  // A session's slots live until one holding period past its tr; a package
  // for a session past that point (a late or replayed copy) is dropped so
  // it cannot recreate a slot. Negated comparisons also reject NaNs.
  const core::SessionConfig& config = pkg.meta.config;
  const double expiry = pkg.meta.release_time() + pkg.meta.holding_period();
  if (decoded.session_nonce != pkg.meta.session_nonce || config.shape.l == 0 ||
      !(config.emerging_time > 0.0) || !(config.assembly_delay >= 0.0) ||
      !std::isfinite(expiry) || decoded.column == 0 ||
      decoded.column > config.shape.l) {
    ++stats_.malformed_payload;
    return;
  }
  const std::uint64_t nonce = decoded.session_nonce;
  if (clock_.now() >= expiry) {
    ++report_.packages_expired;
    return;
  }
  if (slot_sessions_.insert(nonce).second)
    clock_.schedule_at(expiry, [this, nonce]() { expire_slots(nonce); });

  trace_session_event("package_received", nonce,
                      {{"column", std::to_string(decoded.column)},
                       {"holder", std::to_string(decoded.holder_index)}});
  const SlotKey key{nonce, decoded.column, decoded.holder_index};
  WireSlot& slot = slots_[key];
  if (slot.assembly.assemble(std::move(decoded))) {
    slot.meta = std::move(pkg.meta);
    slot.ring_point = pkg.ring_point;
    clock_.schedule_in(slot.meta.config.assembly_delay,
                       [this, key]() { process_slot(key); });
  }
}

void NodeDaemon::expire_slots(std::uint64_t nonce) {
  slot_sessions_.erase(nonce);
  slots_.erase(slots_.lower_bound(SlotKey{nonce, 0, 0}),
               slots_.upper_bound(SlotKey{nonce, 0xFFFF, 0xFFFF}));
}

void NodeDaemon::process_slot(const SlotKey& key) {
  const auto it = slots_.find(key);
  if (it == slots_.end()) return;  // expired while assembling
  const WireSlot& slot = it->second;
  const std::uint16_t column = std::get<1>(key);
  const std::uint16_t holder_index = std::get<2>(key);
  trace_session_event("slot_processed", std::get<0>(key),
                      {{"column", std::to_string(column)},
                       {"holder", std::to_string(holder_index)}});

  // A pre-assigned key is in local storage under the slot's ring point:
  // the Put landed on this node because responsibility for the key and
  // the package coincide.
  std::optional<core::PeeledLayer> peeled = core::peel(
      slot.meta.config, column, holder_index, slot.assembly,
      [&]() -> const Bytes* {
        const auto stored = store_.find(slot.ring_point);
        return stored == store_.end() ? nullptr : &stored->second;
      });
  if (!peeled.has_value()) {
    ++report_.holders_stuck;
    return;
  }

  const bool terminal = peeled->content.terminal();
  const double at = core::hold_until(slot.meta.config, slot.meta.start_time,
                                     column, terminal, clock_.now());
  if (terminal) {
    clock_.schedule_at(
        at, [this, meta = slot.meta,
             secret = std::move(peeled->content.terminal_payload)]() {
          deliver(meta, secret);
        });
    return;
  }
  clock_.schedule_at(at, [this, meta = slot.meta, column, holder_index,
                          layer = std::move(*peeled)]() {
    send_packages(meta, core::forward_packages(meta.config, meta.session_nonce,
                                               column, holder_index, layer));
  });
}

void NodeDaemon::deliver(const SessionMeta& meta, const Bytes& secret) {
  ++report_.deliveries;
  trace_session_event("deliver", meta.session_nonce);
  api::EmergeEvent event;
  event.session_nonce = meta.session_nonce;
  event.release_time = meta.release_time();
  event.delivery_time = clock_.now();
  event.secret = secret;
  Deliver message;
  message.event = api::encode_emerge_event(event);
  send_message(meta.receiver, message);
}

// -- sender engine ------------------------------------------------------------

void NodeDaemon::handle_submit(Submit&& msg) {
  const auto reject = [this, &msg](const std::string& why) {
    ++report_.submits_rejected;
    SubmitAck ack;
    ack.token = msg.token;
    ack.ok = false;
    ack.error = why;
    send_message(msg.reply_to, ack);
  };

  api::SubmitRequest request;
  try {
    request = api::decode_submit_request(msg.request);
  } catch (const Error&) {
    reject("malformed submit request payload");
    return;
  }
  if (!msg.receiver.valid()) {
    reject("invalid receiver endpoint");
    return;
  }
  const core::SessionConfig config =
      core::with_share_defaults(request.to_config());
  if (const std::optional<std::string> why = core::config_error(config)) {
    reject(*why);
    return;
  }
  if (!(config.holding_period() > config.assembly_delay + kHoldingMargin)) {
    reject("holding period too short for the assembly delay");
    return;
  }
  if (request.message.empty()) {
    reject("empty message");
    return;
  }

  // A private DRBG stream per submit. Ring points are drawn directly: the
  // wire routes by key, so no lookup step is needed to define a slot.
  crypto::Drbg drbg = drbg_.fork();
  const std::uint64_t nonce = drbg.u64();
  std::vector<std::vector<dht::NodeId>> ring_points(config.shape.l);
  for (std::size_t c = 1; c <= config.shape.l; ++c) {
    ring_points[c - 1].resize(core::column_holders(
        config.kind, config.shape, config.carriers_n, c));
    for (dht::NodeId& point : ring_points[c - 1])
      point = dht::NodeId::from_bytes(drbg.bytes(dht::kIdBytes));
  }
  core::SenderPlan plan =
      core::plan_sender(config, ring_points, request.message, drbg);
  if (plan.onion.size() + 256 > kMaxFramePayload) {
    reject("message too large for one wire frame");
    return;
  }

  SubmitJob& job = jobs_[nonce];
  job.meta.session_nonce = nonce;
  job.meta.start_time = clock_.now();
  job.meta.config = config;
  job.meta.receiver = msg.receiver;
  job.onion = std::move(plan.onion);
  job.launch_points = std::move(ring_points.front());
  ++report_.submits_accepted;
  trace_session_event("submit_accepted", nonce,
                      {{"l", std::to_string(config.shape.l)},
                       {"k", std::to_string(config.shape.k)}});

  SubmitAck ack;
  ack.token = msg.token;
  ack.ok = true;
  ack.session_nonce = nonce;
  ack.start_time = job.meta.start_time;
  ack.release_time = job.meta.release_time();
  send_message(msg.reply_to, ack);

  // Column-1 packages launch once every Put has been acknowledged (or
  // given up on), so holders never race their own keys.
  for (core::KeyAssignment& key : plan.keys)
    put_layer_key(nonce, key.storage_key, std::move(key.key));
}

void NodeDaemon::put_layer_key(std::uint64_t nonce,
                               const dht::NodeId& storage_key, Bytes value) {
  ++jobs_.at(nonce).pending_puts;

  Put request;
  request.token = next_token();
  request.reply_to = self_.addr;
  request.key = storage_key;
  request.value = std::move(value);
  request.hops_left = config_.max_hops;

  const auto target = [this, storage_key]() -> Endpoint {
    std::optional<Peer> next = route_next_hop(storage_key);
    return next.has_value() ? next->addr : self_.addr;
  };
  send_request(
      request, target(),
      [this, nonce](const WireMessage&) {
        ++report_.keys_put;
        put_settled(nonce);
      },
      [this, nonce]() {
        ++report_.put_failures;
        put_settled(nonce);
      },
      target);
}

void NodeDaemon::put_settled(std::uint64_t nonce) {
  const auto it = jobs_.find(nonce);
  if (it == jobs_.end() || --it->second.pending_puts > 0) return;
  // Every put settled: launch column 1 and forget the job.
  const SubmitJob job = std::move(it->second);
  jobs_.erase(it);
  send_packages(job.meta, core::launch_packages(nonce, job.launch_points,
                                                job.onion));
}

}  // namespace emergence::service
