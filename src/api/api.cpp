#include "api/api.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"
#include "common/serial.hpp"

namespace emergence::api {
namespace {

// Doubles travel as their IEEE-754 bit pattern: round-trips are exactly
// byte-identical, which the wire property tests pin.
void write_f64(BinaryWriter& w, double value) {
  w.u64(std::bit_cast<std::uint64_t>(value));
}

double read_f64(BinaryReader& r) { return std::bit_cast<double>(r.u64()); }

core::SchemeKind scheme_from_u8(std::uint8_t raw) {
  switch (raw) {
    case static_cast<std::uint8_t>(core::SchemeKind::kCentralized):
      return core::SchemeKind::kCentralized;
    case static_cast<std::uint8_t>(core::SchemeKind::kDisjoint):
      return core::SchemeKind::kDisjoint;
    case static_cast<std::uint8_t>(core::SchemeKind::kJoint):
      return core::SchemeKind::kJoint;
    case static_cast<std::uint8_t>(core::SchemeKind::kShare):
      return core::SchemeKind::kShare;
    default:
      throw PreconditionError("decode_submit_request: unknown scheme");
  }
}

crypto::CipherBackend backend_from_u8(std::uint8_t raw) {
  switch (raw) {
    case static_cast<std::uint8_t>(crypto::CipherBackend::kChaCha20):
      return crypto::CipherBackend::kChaCha20;
    case static_cast<std::uint8_t>(crypto::CipherBackend::kAes256Ctr):
      return crypto::CipherBackend::kAes256Ctr;
    default:
      throw PreconditionError("decode_submit_request: unknown cipher backend");
  }
}

}  // namespace

core::SessionConfig SubmitRequest::to_config() const {
  core::SessionConfig config;
  config.kind = scheme;
  config.shape = shape;
  config.carriers_n = carriers_n;
  config.threshold_m = threshold_m;
  config.emerging_time = emerging_time;
  config.assembly_delay = assembly_delay;
  config.backend = backend;
  return config;
}

Bytes encode_submit_request(const SubmitRequest& req) {
  BinaryWriter w;
  w.blob(req.message);
  w.str(req.receiver_token);
  w.u8(static_cast<std::uint8_t>(req.scheme));
  w.u16(static_cast<std::uint16_t>(req.shape.k));
  w.u16(static_cast<std::uint16_t>(req.shape.l));
  w.u16(static_cast<std::uint16_t>(req.carriers_n));
  w.u16(static_cast<std::uint16_t>(req.threshold_m));
  write_f64(w, req.emerging_time);
  write_f64(w, req.assembly_delay);
  w.u8(static_cast<std::uint8_t>(req.backend));
  w.u64(req.seed);
  return w.take();
}

SubmitRequest decode_submit_request(BytesView payload) {
  BinaryReader r(payload);
  SubmitRequest req;
  req.message = r.blob();
  req.receiver_token = r.str();
  req.scheme = scheme_from_u8(r.u8());
  req.shape.k = r.u16();
  req.shape.l = r.u16();
  req.carriers_n = r.u16();
  req.threshold_m = r.u16();
  req.emerging_time = read_f64(r);
  req.assembly_delay = read_f64(r);
  req.backend = backend_from_u8(r.u8());
  req.seed = r.u64();
  r.expect_done();
  return req;
}

Bytes encode_emerge_event(const EmergeEvent& event) {
  BinaryWriter w;
  w.u64(event.session_nonce);
  write_f64(w, event.release_time);
  write_f64(w, event.delivery_time);
  w.blob(event.secret);
  return w.take();
}

EmergeEvent decode_emerge_event(BytesView payload) {
  BinaryReader r(payload);
  EmergeEvent event;
  event.session_nonce = r.u64();
  event.release_time = read_f64(r);
  event.delivery_time = read_f64(r);
  event.secret = r.blob();
  r.expect_done();
  return event;
}

// -- LocalClient --------------------------------------------------------------

LocalClient::LocalClient(dht::Network& network, cloud::CloudStore& cloud,
                         core::SessionDispatcher* dispatcher)
    : network_(network), cloud_(cloud), dispatcher_(dispatcher) {
  require(dispatcher != nullptr, "LocalClient: null dispatcher");
}

SubmitReceipt LocalClient::submit(const SubmitRequest& request) {
  core::SessionArgs args;
  args.network = &network_;
  args.cloud = &cloud_;
  args.dispatcher = dispatcher_;
  args.config = request.to_config();
  args.seed = request.seed;
  auto session = std::make_unique<core::TimedReleaseSession>(args);
  SubmitReceipt receipt;
  receipt.blob_id = session->send(request.message, request.receiver_token);
  receipt.session_nonce = session->session_nonce();
  receipt.start_time = session->start_time();
  receipt.release_time = session->release_time();
  sessions_.emplace(receipt.session_nonce, std::move(session));
  return receipt;
}

std::optional<EmergeEvent> LocalClient::poll(std::uint64_t session_nonce) {
  core::TimedReleaseSession* session = find(session_nonce);
  if (session == nullptr || !session->secret_released()) return std::nullopt;
  EmergeEvent event;
  event.session_nonce = session_nonce;
  event.release_time = session->release_time();
  event.delivery_time = *session->first_delivery_time();
  event.secret = *session->released_secret();
  return event;
}

std::optional<Bytes> LocalClient::receiver_decrypt(
    std::uint64_t session_nonce, const std::string& receiver_token) {
  core::TimedReleaseSession* session = find(session_nonce);
  if (session == nullptr) return std::nullopt;
  return session->receiver_decrypt(receiver_token);
}

core::TimedReleaseSession* LocalClient::find(std::uint64_t session_nonce) {
  auto it = sessions_.find(session_nonce);
  return it == sessions_.end() ? nullptr : it->second.get();
}

}  // namespace emergence::api
