#include "crypto/sha256.hpp"

#include <cstring>

#include "common/error.hpp"
#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace emergence::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace sha256_kernels {
namespace {

void portable_block(State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
// Intel's SHA extensions schedule (Gulley et al., "Intel SHA Extensions",
// 2013). sha256rnds2 runs two rounds on the state held as ABEF and CDGH;
// sha256msg1/msg2 extend the message schedule four words at a time, in a
// ring of four registers.
__attribute__((target("sha,sse4.1"))) void sha_ni_blocks(
    State& state, const std::uint8_t* data, std::size_t blocks) {
  // Loads each big-endian message word into a little-endian lane.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                 // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);               // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);       // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);            // CDGH

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& cur = w[i % 4];
      if (i < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byte_swap);
      }
      __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   &kRoundConstants[static_cast<std::size_t>(4 * i)])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (i >= 3 && i < 15) {
        __m128i& next = w[(i + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (i >= 1 && i < 13) {
        __m128i& later = w[(i + 3) % 4];
        later = _mm_sha256msg1_epu32(later, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);                // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);               // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(cdgh, tmp, 8));     // HGFE
}

#endif

}  // namespace

void portable(State& state, const std::uint8_t* data, std::size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize)
    portable_block(state, data);
}

Compress sha_ni() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return nullptr;
  const bool ssse3_sse41 = (ecx & bit_SSSE3) && (ecx & bit_SSE4_1);
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return nullptr;
  return ssse3_sse41 && (ebx & bit_SHA) ? &sha_ni_blocks : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace sha256_kernels

namespace {

// Chosen once, on the first hash. Unlike a namespace-scope variable, a
// function-local static is set before its first use, even when that use is
// another translation unit's static initializer.
void compress(sha256_kernels::State& state, const std::uint8_t* data,
              std::size_t blocks) {
  static const sha256_kernels::Compress kernel = [] {
    const sha256_kernels::Compress fast = sha256_kernels::sha_ni();
    return fast ? fast : &sha256_kernels::portable;
  }();
  kernel(state, data, blocks);
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(BytesView data) {
  require(!finalized_, "Sha256::update after finalize");
  // An empty view may carry a null data(), which memcpy must never see.
  if (data.empty()) return;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == kBlockSize) {
      compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / kBlockSize;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += blocks * kBlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finalize() {
  require(!finalized_, "Sha256::finalize called twice");
  finalized_ = true;

  // The buffered bytes, 0x80, zero padding and the big-endian bit length:
  // one block, or two when fewer than 9 bytes are left after the buffer.
  std::array<std::uint8_t, kBlockSize * 2> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? kBlockSize : 2 * kBlockSize;
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i)
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  compress(state_, tail.data(), tail_len / kBlockSize);

  std::array<std::uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Bytes sha256(BytesView data) {
  Sha256 h;
  h.update(data);
  const auto digest = h.finalize();
  return Bytes(digest.begin(), digest.end());
}

}  // namespace emergence::crypto
