// The end-to-end timed-release protocol over the Chord DHT (paper Fig. 1).
//
// One TimedReleaseSession orchestrates a single self-emerging message:
//
//   sender                           DHT                         receiver
//     | encrypt msg, upload to cloud  |                              |
//     | build paths + onions          |                              |
//     | ts: assign layer keys,        |                              |
//     |     send column-1 packages -> | holders peel/hold/forward    |
//     |                               | ... l columns, th each ...   |
//     |                               | tr: terminal holders ------> | secret
//     |                               |                              | decrypt
//
// The protocol itself — share defaults, layer-key ids, the sender's onion
// plan and the holder's assemble/peel/forward step — is the engine-agnostic
// core declared below, next to the package codec. TimedReleaseSession runs
// it over the simulated DHT (SessionDispatcher-routed messages + simulator
// events; malicious holders report to the Adversary and, in dropping mode,
// break the chain); service::NodeDaemon runs the same core over the UDP
// wire.
// The session instance must outlive the simulation run that drives it
// (see docs/architecture.md, "Ownership rule"). Protocol phases: PAPER.md
// §III; scheme taxonomy: PAPER.md §III-A..D.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cloud/cloud_store.hpp"
#include "crypto/aead.hpp"
#include "crypto/drbg.hpp"
#include "dht/network.hpp"
#include "emerge/adversary.hpp"
#include "emerge/onion.hpp"
#include "emerge/path.hpp"
#include "emerge/types.hpp"

namespace emergence::core {

class SessionDispatcher;

/// Static protocol parameters for one session.
struct SessionConfig {
  SchemeKind kind = SchemeKind::kJoint;
  PathShape shape{2, 3};
  std::size_t carriers_n = 0;    ///< share scheme: holders per column (0 = k+1)
  std::size_t threshold_m = 0;   ///< share scheme: Shamir threshold (0 = k)
  double emerging_time = 3600.0;  ///< T in seconds (virtual or wall-clock)
  /// Delay a holder waits after the first package arrives before processing,
  /// letting all shares of a column assemble (network latency << th).
  double assembly_delay = 1.0;
  crypto::CipherBackend backend = crypto::CipherBackend::kChaCha20;

  /// th = T / l.
  double holding_period() const {
    return emerging_time / static_cast<double>(shape.l);
  }
};

/// One holder package on the wire: the unit a holder receives at each hop.
/// This codec is the single home of the package byte layout — the in-process
/// session uses it over the simulated DHT and the `emerged` daemon carries
/// the exact same bytes inside its UDP frames, so a package captured from
/// either world decodes in the other.
struct ProtocolPackage {
  std::uint64_t session_nonce = 0;
  std::uint16_t column = 0;
  std::uint16_t holder_index = 0;
  std::vector<crypto::Share> shares;  ///< share-scheme key shares, may be empty
  Bytes onion;                        ///< serialized ColumnOnion for this hop
};

Bytes encode_protocol_package(std::uint64_t session_nonce, std::uint16_t column,
                              std::uint16_t holder_index, BytesView onion,
                              const std::vector<crypto::Share>& shares);
/// Throws CodecError / PreconditionError on malformed payloads.
ProtocolPackage decode_protocol_package(BytesView payload);

// -- the protocol core --------------------------------------------------------
// Every protocol decision, made once for both engines. TimedReleaseSession
// (simulated DHT) and service::NodeDaemon (UDP wire) supply only their
// substrate: how a slot's node is reached, where a layer key is stored and
// loaded from, the clock, and their adversary hooks, counters and traces.

/// The share defaults, one home: carriers_n 0 -> k+1 for the share scheme
/// (every other scheme staffs k holders per column, so carriers_n becomes
/// k) and threshold_m 0 -> k.
SessionConfig with_share_defaults(SessionConfig config);

/// Why `config` (defaults applied) cannot run — a zero k or l, fewer share
/// carriers than onion slots, or a threshold outside [1, carriers_n] — or
/// nullopt when it can.
std::optional<std::string> config_error(const SessionConfig& config);

/// Layer-key id of holder `holder` in `column`. Pre-assigned-key schemes:
/// the k onion slots of a column share K_c (paper §III-B/C). Share scheme:
/// every holder owns an individual key — a shared slot key would let a
/// single malicious onion slot (which reconstructs that key from the n
/// shares addressed to it) open all k slot envelopes and harvest k shares
/// of every next-column key, collapsing the per-column Shamir threshold
/// whenever m <= k. The e2e cross-validation harness flagged exactly that
/// cascade against Algorithm 1's per-column threshold model.
LayerKeyId layer_key_id(const SessionConfig& config, std::uint16_t column,
                        std::uint16_t holder);

/// One layer key the sender pre-assigns at ts. The storage key IS the
/// slot's ring point, so responsibility for the stored key migrates under
/// churn exactly like responsibility for the packages routed to the slot.
struct KeyAssignment {
  std::uint16_t column = 0;
  std::uint16_t holder = 0;
  dht::NodeId storage_key;
  Bytes key;
};

/// The sender's setup: the column-1 onion plus the layer keys to store.
struct SenderPlan {
  Bytes onion;
  /// Disjoint/joint pre-assign every column's keys; the share scheme only
  /// column 1's (later keys travel as shares inside the envelopes).
  std::vector<KeyAssignment> keys;
};

/// Draws the layer keys, splits every next-column key of the share scheme
/// into Shamir shares (threshold m, one per holder of the column), fills
/// each holder's envelope (next hops = the next column's ring points; the
/// disjoint scheme's holder h forwards only to slot h) and seals the whole
/// onion around `terminal_payload`. `ring_points[c][h]` defines slot
/// (c+1, h). All randomness comes from `drbg`, in that order.
SenderPlan plan_sender(const SessionConfig& config,
                       const std::vector<std::vector<dht::NodeId>>& ring_points,
                       BytesView terminal_payload, crypto::Drbg& drbg);

/// A package leaving the sender or a holder for the slot at `ring_point`.
struct OutgoingPackage {
  dht::NodeId ring_point;
  Bytes package;  ///< encode_protocol_package bytes
};

/// The sender's launch at ts: one column-1 package per slot, no shares.
std::vector<OutgoingPackage> launch_packages(
    std::uint64_t session_nonce, const std::vector<dht::NodeId>& column1_points,
    BytesView onion);

/// What one holder slot has assembled: the first onion to arrive and every
/// distinct share addressed to it.
struct HolderSlot {
  Bytes onion;
  std::vector<crypto::Share> shares;
  bool processing_scheduled = false;

  /// Folds an arriving package in. True exactly once, for the first
  /// package: the caller then schedules the peel assembly_delay later.
  bool assemble(ProtocolPackage&& package);
};

/// A peeled slot: the holder's envelope plus, for a non-terminal column,
/// the unwrapped onion it forwards.
struct PeeledLayer {
  EnvelopeContent content;
  Bytes inner;  ///< empty at the terminal column
};

/// The holder's peel. The layer key is the stored pre-assigned key when
/// the column's keys were pre-assigned (`load_stored_key` returns it, or
/// nullptr when the slot's node holds none), otherwise the Shamir
/// combination of the slot's shares. nullopt = stuck: key missing or not
/// 32 bytes, fewer than m shares, or an envelope or inner onion that does
/// not open under the key.
std::optional<PeeledLayer> peel(
    const SessionConfig& config, std::uint16_t column,
    std::uint16_t holder_index, const HolderSlot& slot,
    const std::function<const Bytes*()>& load_stored_key);

/// When a peeled holder acts: a terminal holder delivers at tr = ts + T,
/// any other forwards at ts + column * th. Both are absolute, so per-column
/// overheads are absorbed inside each hold; a package that arrived past its
/// deadline acts at `now` instead (hop-local lateness).
double hold_until(const SessionConfig& config, double start_time,
                  std::uint16_t column, bool terminal, double now);

/// The holder's forward fan-out: one package per next hop, addressed to the
/// next column's slot (the holder's own index for the disjoint scheme, the
/// hop's position otherwise) and carrying the shares targeted at it.
std::vector<OutgoingPackage> forward_packages(const SessionConfig& config,
                                              std::uint64_t session_nonce,
                                              std::uint16_t column,
                                              std::uint16_t holder_index,
                                              const PeeledLayer& peeled);

/// Counters exposed for tests and examples.
struct SessionReport {
  std::uint64_t packages_sent = 0;
  std::uint64_t packages_delivered = 0;
  std::uint64_t packages_dropped_malicious = 0;
  /// Packages carrying this session's nonce that failed to decode (payloads
  /// with no nonce at all are the dispatcher's malformed_packages()).
  std::uint64_t malformed_packages = 0;
  std::uint64_t holders_stuck = 0;  ///< could not reconstruct a layer key
  std::uint64_t key_assignments = 0;
  std::uint64_t deliveries = 0;  ///< terminal deliveries to the receiver
};

/// Everything a TimedReleaseSession needs, as one named-field aggregate.
struct SessionArgs {
  dht::Network* network = nullptr;      ///< required
  cloud::CloudStore* cloud = nullptr;   ///< required
  Adversary* adversary = nullptr;       ///< nullptr = no attack
  SessionConfig config;
  std::uint64_t seed = 0;
  /// Required: routes the network's packages and store observations to
  /// the session by nonce / storage key (session_dispatcher.hpp). It must
  /// be built on `network` and outlive the session.
  SessionDispatcher* dispatcher = nullptr;
};

/// One self-emerging message through the DHT.
class TimedReleaseSession {
 public:
  /// `args.network`, `args.cloud` and `args.dispatcher` are required
  /// (PreconditionError otherwise); everything else has usable defaults,
  /// and the share defaults are applied (with_share_defaults).
  /// The session schedules simulator events that capture `this`, so it
  /// must outlive every event it scheduled (docs/architecture.md,
  /// "Ownership rule").
  explicit TimedReleaseSession(const SessionArgs& args);
  ~TimedReleaseSession();

  TimedReleaseSession(const TimedReleaseSession&) = delete;
  TimedReleaseSession& operator=(const TimedReleaseSession&) = delete;

  /// Ends the session's tenancy on the network: erases its pre-assigned
  /// layer keys from DHT storage (so long-lived worlds don't accumulate
  /// dead keys into replica-maintenance scans) and deregisters from the
  /// dispatcher (late packages become counted strays). Call once the
  /// session is past tr and its events have drained; the fleet does this
  /// before recycling the slot. Idempotent.
  void retire();

  /// Encrypts and uploads `message`, builds paths/onions and launches the
  /// protocol at the current virtual time ts. Returns the cloud blob id.
  cloud::BlobId send(BytesView message, const std::string& receiver_token);

  // -- observation ------------------------------------------------------------

  double start_time() const { return start_time_; }
  double release_time() const { return start_time_ + config_.emerging_time; }
  /// th = T / l. Timing contract: hop schedules are anchored to *absolute*
  /// times — column c forwards at exactly ts + c*th and the terminal column
  /// delivers at exactly tr — so per-column overheads (assembly_delay plus
  /// message latency) are absorbed inside each hold instead of accumulating
  /// into an l*(assembly_delay + latency) drift past tr. The constructor
  /// precondition th > assembly_delay + 4*max_latency (max_latency = the
  /// transport's single-attempt bound L) guarantees every column finishes
  /// processing before its forwarding deadline; under it, and whenever the
  /// transport guarantees_exact_delivery (no partition window, retry ladder
  /// + L + assembly inside th), first_delivery_time() == release_time()
  /// exactly (bit-equal doubles; regression-tested for l in {1, 3, 6} in
  /// tests/test_protocol.cpp and under nonzero-latency transports in
  /// tests/test_protocol_properties.cpp). Packages a lossy or partitioned
  /// transport lands past a deadline are clamped to now and propagate
  /// hop-local lateness bounded by TransportModel::reap_slack.
  double holding_period() const { return config_.holding_period(); }

  /// True once at least one terminal holder delivered the secret at tr.
  bool secret_released() const { return released_secret_.has_value(); }
  std::optional<sim::Time> first_delivery_time() const {
    return first_delivery_;
  }
  const std::optional<Bytes>& released_secret() const {
    return released_secret_;
  }

  /// Receiver-side: downloads the ciphertext and decrypts it with the
  /// released secret. Returns nullopt before release.
  std::optional<Bytes> receiver_decrypt(const std::string& receiver_token);

  /// Reports every pre-assigned layer key currently stored on a malicious
  /// node to the adversary. Key assignment happens inside send(); callers
  /// that mark coalition nodes afterwards (tests, examples) use this to
  /// model an adversary whose nodes were compromised all along.
  void refresh_adversary_exposure();

  const PathLayout& layout() const { return layout_; }
  const SessionReport& report() const { return report_; }
  const SessionConfig& config() const { return config_; }
  /// The wire nonce stamped on every package of this session (0 before
  /// send()). Lets callers correlate dispatcher traffic, wire frames and
  /// api::EmergeEvents with the session that produced them.
  std::uint64_t session_nonce() const { return session_nonce_; }

 private:
  friend class SessionDispatcher;

  struct HolderState {
    HolderSlot slot;
    /// The node occupying this holder slot when the first package arrived;
    /// the in-RAM package dies with it (ring responsibility migrates, held
    /// state does not).
    dht::NodeId current_node;
  };

  void assign_keys_at_start(std::vector<KeyAssignment> keys);
  /// Dispatcher entry points: a package addressed to this session's nonce,
  /// and a store observation for one of its registered storage keys.
  void handle_package_message(const dht::NodeId& to, BytesView payload);
  void observe_store(const dht::NodeId& node, const dht::NodeId& key,
                     BytesView value);
  void on_package(const dht::NodeId& node, ProtocolPackage&& pkg);
  void process_holder(std::uint16_t column, std::uint16_t holder_index);
  void forward_from(std::uint16_t column, std::uint16_t holder_index,
                    const PeeledLayer& peeled);
  void deliver_to_receiver(std::uint16_t holder_index, const Bytes& secret);

  dht::Network& network_;
  cloud::CloudStore& cloud_;
  Adversary* adversary_;
  SessionConfig config_;
  SessionDispatcher& dispatcher_;
  bool retired_ = false;
  crypto::Drbg drbg_;

  PathLayout layout_;
  /// Maps a pre-assigned layer key's DHT storage key — the holder slot's
  /// ring point (KeyAssignment) — back to its layer-key id, so
  /// the store-observer can count replica repairs and join pulls of stored
  /// keys as exposure.
  std::map<dht::NodeId, LayerKeyId> storage_key_to_layer_;

  Bytes secret_key_;  ///< the message key routed through the DHT
  std::uint64_t session_nonce_ = 0;  ///< distinguishes concurrent sessions
  cloud::BlobId blob_id_;
  double start_time_ = 0.0;
  bool sent_ = false;

  std::map<std::pair<std::uint16_t, std::uint16_t>, HolderState> holders_;
  std::optional<Bytes> released_secret_;
  std::optional<sim::Time> first_delivery_;
  SessionReport report_;
};

}  // namespace emergence::core
