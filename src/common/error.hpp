// Exception hierarchy for the emergence library.
//
// All library errors derive from emergence::Error so callers can catch one
// type at the API boundary. Sub-types distinguish programmer errors
// (precondition violations surfaced during development) from data errors
// (malformed or tampered wire bytes) and protocol errors (a peer or the
// simulated network misbehaved).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace emergence {

/// Root of the library's exception hierarchy.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  using Error::Error;
};

/// Serialized bytes failed to parse or failed authentication.
class CodecError : public Error {
 public:
  using Error::Error;
};

/// Cryptographic operation failed (bad MAC, not enough shares, ...).
class CryptoError : public Error {
 public:
  using Error::Error;
};

/// A protocol-level invariant was violated by a peer or the environment.
class ProtocolError : public Error {
 public:
  using Error::Error;
};

/// Throws PreconditionError with `msg` when `cond` is false. A check that
/// passes builds no std::string, even for a literal message.
inline void require(bool cond, std::string_view msg) {
  if (!cond) throw PreconditionError(std::string(msg));
}

}  // namespace emergence
