// The emergence API facade: one sender/receiver surface for both engines.
//
// Everything above this header speaks in two small serializable values:
//
//   SubmitRequest  — "release this message to that receiver after T",
//                    plus the protocol shape (scheme, k x l, share
//                    parameters, cipher backend) and the sender's seed.
//   EmergeEvent    — "the secret emerged": session nonce, scheduled tr,
//                    actual delivery time, and the released secret.
//
// Client is the abstract sender/receiver endpoint. LocalClient binds it to
// an in-process TimedReleaseSession over the simulated DHT (deterministic,
// virtual time); service::WireClient binds the *same* interface to the
// `emerged` daemon's UDP wire (wall-clock time). Code written against
// Client — tests, benches, the submit tool — runs unchanged on either.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "cloud/cloud_store.hpp"
#include "emerge/protocol.hpp"

namespace emergence::core {
class SessionDispatcher;
}

namespace emergence::api {

/// Everything one timed-release submission carries, engine-independent.
/// Serializable: the wire submit command is exactly these bytes inside a
/// frame, so a request captured from the simulator replays on the wire.
struct SubmitRequest {
  Bytes message;               ///< plaintext to self-emerge
  std::string receiver_token;  ///< cloud download capability
  core::SchemeKind scheme = core::SchemeKind::kJoint;
  core::PathShape shape{2, 3};
  std::size_t carriers_n = 0;   ///< share scheme: holders per column (0 = k+1)
  std::size_t threshold_m = 0;  ///< share scheme: Shamir threshold (0 = k)
  double emerging_time = 120.0;  ///< T in seconds (virtual or wall-clock)
  double assembly_delay = 1.0;
  crypto::CipherBackend backend = crypto::CipherBackend::kChaCha20;
  std::uint64_t seed = 1;  ///< sender-side DRBG seed

  /// The SessionConfig this request describes; both engines apply the
  /// share defaults to it (core::with_share_defaults).
  core::SessionConfig to_config() const;
};

Bytes encode_submit_request(const SubmitRequest& req);
/// Throws CodecError / PreconditionError on malformed payloads.
SubmitRequest decode_submit_request(BytesView payload);

/// What submit() hands back immediately: enough to correlate the session
/// and to know when to expect the secret.
struct SubmitReceipt {
  std::uint64_t session_nonce = 0;
  cloud::BlobId blob_id;
  double start_time = 0.0;    ///< ts on the engine's clock
  double release_time = 0.0;  ///< tr = ts + T
};

/// The emergence itself: delivered to the receiver at tr.
struct EmergeEvent {
  std::uint64_t session_nonce = 0;
  double release_time = 0.0;   ///< scheduled tr
  double delivery_time = 0.0;  ///< when the first terminal holder delivered
  Bytes secret;                ///< the released message key
};

Bytes encode_emerge_event(const EmergeEvent& event);
/// Throws CodecError / PreconditionError on malformed payloads.
EmergeEvent decode_emerge_event(BytesView payload);

/// The sender/receiver endpoint both engines implement. Time advances
/// outside this interface — the simulator via run_until, the wire via real
/// clocks — so poll() is non-blocking by contract.
class Client {
 public:
  virtual ~Client() = default;

  /// Launches one timed-release session. Throws PreconditionError on
  /// invalid shape/threshold combinations (same checks as the session).
  virtual SubmitReceipt submit(const SubmitRequest& request) = 0;

  /// The emergence for `session_nonce`, once the secret has been released;
  /// nullopt before tr (or for unknown nonces).
  virtual std::optional<EmergeEvent> poll(std::uint64_t session_nonce) = 0;
};

/// Client bound to the in-process engine: every submit() builds a
/// TimedReleaseSession on the given world and launches it at the current
/// virtual time. The caller advances the simulator; poll() surfaces the
/// EmergeEvent once the session's terminal holders have delivered.
class LocalClient final : public Client {
 public:
  /// `dispatcher` is required (PreconditionError on null), exactly as on
  /// the session. All referents must outlive the client.
  LocalClient(dht::Network& network, cloud::CloudStore& cloud,
              core::SessionDispatcher* dispatcher);

  SubmitReceipt submit(const SubmitRequest& request) override;
  std::optional<EmergeEvent> poll(std::uint64_t session_nonce) override;

  /// Receiver-side: the decrypted message for an emerged session, nullopt
  /// before release. (Wire receivers decrypt locally from the EmergeEvent
  /// secret; in-process the session already holds the ciphertext path.)
  std::optional<Bytes> receiver_decrypt(std::uint64_t session_nonce,
                                        const std::string& receiver_token);

  /// Access to a submitted session (e.g. for report() counters).
  core::TimedReleaseSession* find(std::uint64_t session_nonce);

 private:
  dht::Network& network_;
  cloud::CloudStore& cloud_;
  core::SessionDispatcher* dispatcher_;
  std::map<std::uint64_t, std::unique_ptr<core::TimedReleaseSession>>
      sessions_;
};

}  // namespace emergence::api
