#include "emerge/protocol.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/serial.hpp"
#include "emerge/session_dispatcher.hpp"

namespace emergence::core {
namespace {

constexpr std::uint8_t kMsgPackage = 1;

}  // namespace

Bytes encode_protocol_package(std::uint64_t session_nonce, std::uint16_t column,
                              std::uint16_t holder_index, BytesView onion,
                              const std::vector<crypto::Share>& shares) {
  BinaryWriter w;
  w.u8(kMsgPackage);
  w.u64(session_nonce);
  w.u16(column);
  w.u16(holder_index);
  w.u16(static_cast<std::uint16_t>(shares.size()));
  for (const crypto::Share& s : shares) w.blob(crypto::share_to_bytes(s));
  w.blob(onion);
  return w.take();
}

ProtocolPackage decode_protocol_package(BytesView payload) {
  BinaryReader r(payload);
  require(r.u8() == kMsgPackage,
          "decode_protocol_package: wrong message type");
  ProtocolPackage pkg;
  pkg.session_nonce = r.u64();
  pkg.column = r.u16();
  pkg.holder_index = r.u16();
  const std::uint16_t count = r.u16();
  pkg.shares.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i)
    pkg.shares.push_back(crypto::share_from_bytes(r.blob()));
  pkg.onion = r.blob();
  r.expect_done();
  return pkg;
}

std::optional<std::uint64_t> peek_session_nonce(BytesView payload) {
  // Lives next to encode_protocol_package/decode_protocol_package so the wire prefix (u8
  // kMsgPackage, u64 nonce) has exactly one home.
  if (payload.size() < 9 || payload[0] != kMsgPackage) return std::nullopt;
  BinaryReader r(payload);
  r.u8();
  return r.u64();
}

// -- the protocol core --------------------------------------------------------

namespace {

/// Disjoint/joint pre-assign every column's layer keys at ts; the share
/// scheme only column 1's (later keys travel as shares with the onion).
bool key_preassigned(const SessionConfig& config, std::size_t column) {
  return config.kind != SchemeKind::kShare || column == 1;
}

}  // namespace

SessionConfig with_share_defaults(SessionConfig config) {
  const std::size_t k = config.shape.k;
  if (config.kind != SchemeKind::kShare) {
    config.carriers_n = k;
  } else if (config.carriers_n == 0) {
    config.carriers_n = k + 1;
  }
  if (config.threshold_m == 0) config.threshold_m = k;
  return config;
}

std::optional<std::string> config_error(const SessionConfig& config) {
  if (config.shape.k < 1 || config.shape.l < 1)
    return "degenerate path shape (need k >= 1 and l >= 1)";
  if (config.kind == SchemeKind::kShare &&
      (config.carriers_n < config.shape.k || config.threshold_m < 1 ||
       config.threshold_m > config.carriers_n))
    return "invalid share-scheme parameters (need carriers_n >= k and "
           "1 <= threshold_m <= carriers_n)";
  return std::nullopt;
}

LayerKeyId layer_key_id(const SessionConfig& config, std::uint16_t column,
                        std::uint16_t holder) {
  if (config.kind != SchemeKind::kShare && holder < config.shape.k)
    return LayerKeyId{column, LayerKeyId::kSharedHolder};
  return LayerKeyId{column, holder};
}

SenderPlan plan_sender(const SessionConfig& config,
                       const std::vector<std::vector<dht::NodeId>>& ring_points,
                       BytesView terminal_payload, crypto::Drbg& drbg) {
  const std::size_t l = ring_points.size();
  const auto key_id = [&config](std::size_t column, std::size_t holder) {
    return layer_key_id(config, static_cast<std::uint16_t>(column),
                        static_cast<std::uint16_t>(holder));
  };

  // Layer keys: one shared onion key per column for the pre-assigned
  // schemes, an individual key per holder for the share scheme.
  std::map<LayerKeyId, crypto::SymmetricKey> layer_keys;
  for (std::size_t c = 1; c <= l; ++c) {
    for (std::size_t h = 0; h < ring_points[c - 1].size(); ++h) {
      const LayerKeyId id = key_id(c, h);
      if (layer_keys.find(id) == layer_keys.end())
        layer_keys[id] = crypto::SymmetricKey::from_bytes(drbg.bytes(32));
    }
  }

  std::vector<ColumnBuildSpec> specs(l);
  for (std::size_t c = 1; c <= l; ++c) {
    ColumnBuildSpec& spec = specs[c - 1];
    const std::size_t holders = ring_points[c - 1].size();
    const bool terminal = (c == l);
    spec.holder_keys.reserve(holders);
    spec.envelopes.resize(holders);

    // Share scheme: every key of column c+1 is split into `holders` shares
    // with threshold m; share h goes into holder h's envelope.
    std::vector<std::vector<crypto::Share>> next_key_shares;  // [target][src]
    if (config.kind == SchemeKind::kShare && !terminal) {
      next_key_shares.resize(ring_points[c].size());
      for (std::size_t t = 0; t < next_key_shares.size(); ++t) {
        next_key_shares[t] = crypto::shamir_split(
            layer_keys.at(key_id(c + 1, t)).to_bytes(), config.threshold_m,
            holders, drbg);
      }
    }

    for (std::size_t h = 0; h < holders; ++h) {
      spec.holder_keys.push_back(layer_keys.at(key_id(c, h)));
      EnvelopeContent& env = spec.envelopes[h];
      if (terminal) {
        env.terminal_payload.assign(terminal_payload.begin(),
                                    terminal_payload.end());
        continue;
      }
      // Next hops are ring positions: forwarding re-resolves them through
      // the DHT, so a dead holder's slot is served by its successor.
      const auto& next_points = ring_points[c];  // column c+1
      if (config.kind == SchemeKind::kDisjoint) {
        env.next_hops.push_back(next_points[h]);
      } else {
        env.next_hops = next_points;
      }
      for (std::size_t t = 0; t < next_key_shares.size(); ++t) {
        env.shares.push_back(TargetedShare{static_cast<std::uint16_t>(t),
                                           next_key_shares[t][h]});
      }
    }
  }

  SenderPlan plan;
  plan.onion = build_onion(specs, drbg, config.backend);
  for (std::size_t c = 1; c <= l && key_preassigned(config, c); ++c) {
    for (std::size_t h = 0; h < ring_points[c - 1].size(); ++h) {
      plan.keys.push_back(KeyAssignment{
          static_cast<std::uint16_t>(c), static_cast<std::uint16_t>(h),
          ring_points[c - 1][h], layer_keys.at(key_id(c, h)).to_bytes()});
    }
  }
  return plan;
}

std::vector<OutgoingPackage> launch_packages(
    std::uint64_t session_nonce, const std::vector<dht::NodeId>& column1_points,
    BytesView onion) {
  std::vector<OutgoingPackage> out;
  out.reserve(column1_points.size());
  for (std::size_t h = 0; h < column1_points.size(); ++h) {
    out.push_back(OutgoingPackage{
        column1_points[h],
        encode_protocol_package(session_nonce, 1,
                                static_cast<std::uint16_t>(h), onion, {})});
  }
  return out;
}

bool HolderSlot::assemble(ProtocolPackage&& package) {
  if (onion.empty()) onion = std::move(package.onion);
  for (crypto::Share& share : package.shares) {
    const bool dup = std::any_of(
        shares.begin(), shares.end(),
        [&](const crypto::Share& s) { return s.index == share.index; });
    if (!dup) shares.push_back(std::move(share));
  }
  if (processing_scheduled) return false;
  processing_scheduled = true;
  return true;
}

std::optional<PeeledLayer> peel(
    const SessionConfig& config, std::uint16_t column,
    std::uint16_t holder_index, const HolderSlot& slot,
    const std::function<const Bytes*()>& load_stored_key) {
  crypto::SymmetricKey key{};
  if (key_preassigned(config, column)) {
    const Bytes* stored = load_stored_key();
    if (stored == nullptr || stored->size() != 32) return std::nullopt;
    key = crypto::SymmetricKey::from_bytes(*stored);
  } else {
    if (slot.shares.size() < config.threshold_m) return std::nullopt;
    try {
      key = crypto::SymmetricKey::from_bytes(
          crypto::shamir_combine(slot.shares, config.threshold_m));
    } catch (const Error&) {
      return std::nullopt;
    }
  }

  PeeledLayer peeled;
  try {
    const ColumnOnion onion = parse_column_onion(slot.onion);
    peeled.content = open_envelope(key, onion.envelope_for(holder_index),
                                   column, config.backend);
    // The transport key in the envelope unwraps the sealed inner onion.
    if (!peeled.content.terminal()) {
      peeled.inner = unwrap_inner(peeled.content.inner_key, onion.inner,
                                  column, config.backend);
    }
  } catch (const Error&) {
    return std::nullopt;
  }
  return peeled;
}

double hold_until(const SessionConfig& config, double start_time,
                  std::uint16_t column, bool terminal, double now) {
  const double deadline =
      terminal ? start_time + config.emerging_time
               : start_time + static_cast<double>(column) *
                                  config.holding_period();
  return std::max(now, deadline);
}

std::vector<OutgoingPackage> forward_packages(const SessionConfig& config,
                                              std::uint64_t session_nonce,
                                              std::uint16_t column,
                                              std::uint16_t holder_index,
                                              const PeeledLayer& peeled) {
  const std::uint16_t next_column = static_cast<std::uint16_t>(column + 1);
  const std::vector<dht::NodeId>& hops = peeled.content.next_hops;
  std::vector<OutgoingPackage> out;
  out.reserve(hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const std::uint16_t target = config.kind == SchemeKind::kDisjoint
                                     ? holder_index
                                     : static_cast<std::uint16_t>(i);
    std::vector<crypto::Share> shares;
    for (const TargetedShare& ts : peeled.content.shares) {
      if (ts.target_index == target) shares.push_back(ts.share);
    }
    out.push_back(OutgoingPackage{
        hops[i], encode_protocol_package(session_nonce, next_column, target,
                                         peeled.inner, shares)});
  }
  return out;
}

// -- TimedReleaseSession ------------------------------------------------------

namespace {

const SessionArgs& checked_args(const SessionArgs& args) {
  require(args.network != nullptr, "TimedReleaseSession: null network");
  require(args.cloud != nullptr, "TimedReleaseSession: null cloud store");
  require(args.dispatcher != nullptr, "TimedReleaseSession: null dispatcher");
  return args;
}

}  // namespace

TimedReleaseSession::TimedReleaseSession(const SessionArgs& raw_args)
    : network_(*checked_args(raw_args).network),
      cloud_(*raw_args.cloud),
      adversary_(raw_args.adversary),
      config_(with_share_defaults(raw_args.config)),
      dispatcher_(*raw_args.dispatcher),
      drbg_(raw_args.seed) {
  require(&dispatcher_.network_ == &network_,
          "TimedReleaseSession: dispatcher serves another network");
  if (const std::optional<std::string> why = config_error(config_))
    throw PreconditionError("TimedReleaseSession: " + *why);
  require(holding_period() > config_.assembly_delay +
                                 network_.max_message_latency() * 4,
          "TimedReleaseSession: holding period too short for the network");
}

TimedReleaseSession::~TimedReleaseSession() {
  // Deregister without network cleanup: a world being torn down wholesale
  // does not need erase traffic, only the dispatcher's pointers must go.
  if (retired_) return;
  for (const auto& [storage_key, layer_id] : storage_key_to_layer_) {
    (void)layer_id;
    dispatcher_.deregister_storage_key(storage_key);
  }
  if (sent_) dispatcher_.deregister_session(session_nonce_);
}

void TimedReleaseSession::retire() {
  if (retired_ || !sent_) return;
  retired_ = true;
  for (const auto& [storage_key, layer_id] : storage_key_to_layer_) {
    (void)layer_id;
    network_.erase(storage_key);
    dispatcher_.deregister_storage_key(storage_key);
  }
  dispatcher_.deregister_session(session_nonce_);
}

cloud::BlobId TimedReleaseSession::send(BytesView message,
                                        const std::string& receiver_token) {
  require(!sent_, "TimedReleaseSession::send called twice");
  sent_ = true;
  start_time_ = network_.simulator().now();
  session_nonce_ = drbg_.u64();
  dispatcher_.register_session(session_nonce_, this);

  // 1. Encrypt the message and hand the ciphertext to the cloud.
  secret_key_ = drbg_.bytes(32);
  const crypto::SymmetricKey msg_key =
      crypto::SymmetricKey::from_bytes(secret_key_);
  const Bytes nonce = drbg_.bytes(12);
  const Bytes ciphertext = crypto::aead_seal(
      msg_key, nonce, message, bytes_of("emergence/message"), config_.backend);
  blob_id_ = cloud_.upload(ciphertext, receiver_token);

  // 2. Pseudo-randomly select holders through DHT lookups.
  layout_ = build_path_layout(network_, config_.kind, config_.shape,
                              config_.carriers_n, drbg_);

  // 3. Layer keys, next-column shares and the onion around the secret key.
  SenderPlan plan =
      plan_sender(config_, layout_.ring_points, secret_key_, drbg_);

  // 4. Pre-assign keys, launch the first column.
  assign_keys_at_start(std::move(plan.keys));
  for (OutgoingPackage& out : launch_packages(
           session_nonce_, layout_.ring_points[0], plan.onion)) {
    network_.send_message_routed(out.ring_point, out.ring_point,
                                 std::move(out.package));
    ++report_.packages_sent;
  }
  return blob_id_;
}

void TimedReleaseSession::assign_keys_at_start(
    std::vector<KeyAssignment> keys) {
  // Replica repairs of stored layer keys must also count as exposure
  // (paper §III-D: the replacement node learns the key): the per-key
  // dispatcher registration below routes those observations here.
  for (KeyAssignment& assignment : keys) {
    // Storing under the slot's ring point (not a hash of a session-unique
    // tuple) makes replica repair push copies along the same successor
    // chain that serves the slot's packages after the original holder
    // dies. An earlier revision hashed a session-unique tuple instead,
    // which scattered repairs to nodes unrelated to the slot — replacements
    // could never reconstruct, inflating drop rates under churn far beyond
    // the renewal model; the e2e cross-validation sweep flags exactly this
    // class of divergence. Ring points are drbg-derived, so the placement
    // is also reproducible from seeds alone.
    const dht::NodeId& holder =
        layout_.columns[assignment.column - 1][assignment.holder];
    storage_key_to_layer_[assignment.storage_key] =
        layer_key_id(config_, assignment.column, assignment.holder);
    dispatcher_.register_storage_key(assignment.storage_key, this);

    if (!network_.store_on(holder, assignment.storage_key,
                           std::move(assignment.key)))
      continue;  // holder died before assignment
    ++report_.key_assignments;
  }
}

void TimedReleaseSession::handle_package_message(const dht::NodeId& to,
                                                 BytesView payload) {
  ProtocolPackage pkg;
  try {
    pkg = decode_protocol_package(payload);
  } catch (const Error&) {
    ++report_.malformed_packages;
    return;
  }
  if (pkg.session_nonce != session_nonce_) return;  // dispatcher misroute
  on_package(to, std::move(pkg));
}

void TimedReleaseSession::observe_store(const dht::NodeId& node,
                                        const dht::NodeId& key,
                                        BytesView value) {
  auto it = storage_key_to_layer_.find(key);
  if (it == storage_key_to_layer_.end()) return;
  if (adversary_ != nullptr && adversary_->is_malicious(node) &&
      value.size() == 32) {
    adversary_->observe_key(it->second, crypto::SymmetricKey::from_bytes(value),
                            network_.simulator().now());
  }
}

void TimedReleaseSession::on_package(const dht::NodeId& node,
                                     ProtocolPackage&& pkg) {
  const std::uint16_t column = pkg.column;
  const std::uint16_t holder_index = pkg.holder_index;
  if (adversary_ != nullptr && adversary_->is_malicious(node)) {
    const sim::Time now = network_.simulator().now();
    adversary_->observe_package(pkg.onion, now);
    const LayerKeyId my_key = layer_key_id(config_, column, holder_index);
    for (const crypto::Share& s : pkg.shares)
      adversary_->observe_share(my_key, s, now);
    if (adversary_->mode() == AttackMode::kDropping) {
      ++report_.packages_dropped_malicious;
      return;
    }
  }

  HolderState& state = holders_[{column, holder_index}];
  if (state.slot.assemble(std::move(pkg))) {
    state.current_node = node;
    network_.simulator().schedule_in(
        config_.assembly_delay,
        [this, column, holder_index]() { process_holder(column, holder_index); });
  }
  ++report_.packages_delivered;
}

void TimedReleaseSession::process_holder(std::uint16_t column,
                                         std::uint16_t holder_index) {
  const HolderState& state = holders_[{column, holder_index}];
  const dht::NodeId holder = state.current_node;
  if (!network_.is_alive(holder)) return;  // died while assembling

  // A pre-assigned key lives in DHT storage under the slot's ring point.
  SharedBytes stored;
  std::optional<PeeledLayer> peeled =
      peel(config_, column, holder_index, state.slot, [&]() -> const Bytes* {
        stored = network_.load_from(
            holder, layout_.ring_points[column - 1][holder_index]);
        return stored.get();
      });
  if (!peeled.has_value()) {
    ++report_.holders_stuck;  // key lost to churn, shares short, bad crypto
    return;
  }

  const sim::Time now = network_.simulator().now();
  const bool terminal = peeled->content.terminal();
  const double at = hold_until(config_, start_time_, column, terminal, now);
  if (terminal) {
    // A covert malicious terminal holder sees the secret one holding period
    // early (the leak the paper's strict Rr metric excludes; see docs/design-notes.md §2).
    if (adversary_ != nullptr && adversary_->is_malicious(holder))
      adversary_->observe_secret(peeled->content.terminal_payload, now);
    network_.simulator().schedule_at(
        at, [this, holder_index,
             secret = std::move(peeled->content.terminal_payload)]() {
          deliver_to_receiver(holder_index, secret);
        });
    return;
  }
  network_.simulator().schedule_at(
      at, [this, column, holder_index, layer = std::move(*peeled)]() {
        forward_from(column, holder_index, layer);
      });
}

void TimedReleaseSession::forward_from(std::uint16_t column,
                                       std::uint16_t holder_index,
                                       const PeeledLayer& peeled) {
  // The in-RAM package dies with the node that held it.
  const dht::NodeId holder = holders_[{column, holder_index}].current_node;
  if (!network_.is_alive(holder)) return;  // died while holding

  for (OutgoingPackage& out : forward_packages(
           config_, session_nonce_, column, holder_index, peeled)) {
    network_.send_message_routed(holder, out.ring_point,
                                 std::move(out.package));
    ++report_.packages_sent;
  }
}

void TimedReleaseSession::deliver_to_receiver(std::uint16_t holder_index,
                                              const Bytes& secret) {
  const std::uint16_t terminal =
      static_cast<std::uint16_t>(config_.shape.l);
  const dht::NodeId holder = holders_[{terminal, holder_index}].current_node;
  if (!network_.is_alive(holder)) return;  // died before tr
  ++report_.deliveries;
  if (!released_secret_.has_value()) {
    released_secret_ = secret;
    first_delivery_ = network_.simulator().now();
  }
}

void TimedReleaseSession::refresh_adversary_exposure() {
  if (adversary_ == nullptr) return;
  const sim::Time now = network_.simulator().now();
  for (const auto& [storage_key, layer_id] : storage_key_to_layer_) {
    // The key may be replicated; scan the holders recorded in the layout
    // plus any node currently storing it is impractical to enumerate, so we
    // check the canonical holder for this (column, holder) slot.
    const std::size_t column = layer_id.column;
    for (std::size_t h = 0; h < layout_.holders_in_column(column); ++h) {
      const dht::NodeId& holder = layout_.columns[column - 1][h];
      if (!adversary_->is_malicious(holder)) continue;
      const SharedBytes stored = network_.load_from(holder, storage_key);
      if (stored != nullptr && stored->size() == 32) {
        adversary_->observe_key(layer_id,
                                crypto::SymmetricKey::from_bytes(*stored),
                                now);
      }
    }
  }
}

std::optional<Bytes> TimedReleaseSession::receiver_decrypt(
    const std::string& receiver_token) {
  if (!released_secret_.has_value()) return std::nullopt;
  const cloud::DownloadResult blob = cloud_.download(blob_id_, receiver_token);
  if (blob.status != cloud::CloudStatus::kOk) return std::nullopt;
  try {
    const crypto::SymmetricKey key =
        crypto::SymmetricKey::from_bytes(*released_secret_);
    return crypto::aead_open(key, blob.ciphertext,
                             bytes_of("emergence/message"), config_.backend);
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace emergence::core
