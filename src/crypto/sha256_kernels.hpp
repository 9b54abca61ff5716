// The SHA-256 compression kernels behind Sha256. Internal to crypto/:
// Sha256 picks one on first use, and the tests call both to compare them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace emergence::crypto::sha256_kernels {

using State = std::array<std::uint32_t, 8>;

/// Compresses `blocks` consecutive 64-byte blocks at `data` into `state`.
using Compress = void (*)(State& state, const std::uint8_t* data,
                          std::size_t blocks);

/// The FIPS 180-4 loop: the reference the SHA-NI kernel is tested against,
/// and the only kernel on CPUs without SHA extensions.
void portable(State& state, const std::uint8_t* data, std::size_t blocks);

/// The x86-64 SHA extensions kernel, or nullptr when the CPU does not report
/// SHA, SSSE3 and SSE4.1 (always nullptr on other architectures).
Compress sha_ni();

}  // namespace emergence::crypto::sha256_kernels
