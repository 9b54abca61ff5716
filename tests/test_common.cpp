// Unit tests for the common utilities: checks, bytes, hex, serialization,
// RNG, binomial math and statistics accumulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numeric>
#include <set>
#include <vector>

#include "common/binomial.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "common/stats.hpp"

namespace {
// Every operator new this binary makes, so a test can show a path makes none.
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// All three out of line, so GCC's -Wmismatched-new-delete never sees an
// inlined malloc() or free() paired with the other side's operator.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace emergence {
namespace {

// -- require ------------------------------------------------------------------

TEST(Require, PassingCheckDoesNotAllocate) {
  // The message is longer than libstdc++'s 15-character inline string
  // buffer, so building a std::string from it would allocate.
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i)
    require(true, "a passing check builds no message");
  EXPECT_EQ(g_allocations.load() - before, 0u);
  try {
    require(false, "a passing check builds no message");
    ADD_FAILURE() << "require(false, ...) did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "a passing check builds no message");
  }
}

// -- bytes --------------------------------------------------------------------

TEST(Bytes, RoundTripThroughString) {
  const Bytes b = bytes_of("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(string_of(b), "hello");
}

TEST(Bytes, ConcatJoinsBuffers) {
  const Bytes a = bytes_of("ab");
  const Bytes b = bytes_of("cd");
  EXPECT_EQ(string_of(concat(a, b)), "abcd");
}

TEST(Bytes, ConcatWithEmpty) {
  const Bytes a = bytes_of("ab");
  const Bytes empty;
  EXPECT_EQ(string_of(concat(a, empty)), "ab");
  EXPECT_EQ(string_of(concat(empty, a)), "ab");
}

TEST(Bytes, AppendExtendsInPlace) {
  Bytes a = bytes_of("ab");
  append(a, bytes_of("cd"));
  EXPECT_EQ(string_of(a), "abcd");
}

TEST(Bytes, ConstantTimeEqualAgreesWithEquality) {
  EXPECT_TRUE(constant_time_equal(bytes_of("same"), bytes_of("same")));
  EXPECT_FALSE(constant_time_equal(bytes_of("same"), bytes_of("sbme")));
  EXPECT_FALSE(constant_time_equal(bytes_of("same"), bytes_of("samee")));
  EXPECT_TRUE(constant_time_equal(Bytes{}, Bytes{}));
}

TEST(Bytes, XorIntoFlipsBits) {
  Bytes a = {0xff, 0x00, 0xaa};
  const Bytes b = {0x0f, 0xf0, 0xaa};
  xor_into(a, b);
  EXPECT_EQ(a, (Bytes{0xf0, 0xf0, 0x00}));
}

TEST(Bytes, XorIntoSizeMismatchThrows) {
  Bytes a = {1, 2};
  const Bytes b = {1};
  EXPECT_THROW(xor_into(a, b), PreconditionError);
}

// -- hex ----------------------------------------------------------------------

TEST(Hex, EncodesLowercase) {
  EXPECT_EQ(to_hex(Bytes{0x00, 0xff, 0x1a}), "00ff1a");
}

TEST(Hex, DecodeIsInverse) {
  const Bytes original = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(from_hex(to_hex(original)), original);
}

TEST(Hex, DecodeAcceptsUppercase) {
  EXPECT_EQ(from_hex("DEADBEEF"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, OddLengthThrows) { EXPECT_THROW(from_hex("abc"), CodecError); }

TEST(Hex, InvalidDigitThrows) { EXPECT_THROW(from_hex("zz"), CodecError); }

TEST(Hex, EmptyIsEmpty) {
  EXPECT_EQ(to_hex(Bytes{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

// -- serialization ------------------------------------------------------------

TEST(Serial, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.str("text");
  w.blob(Bytes{9, 9, 9});

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.str(), "text");
  EXPECT_EQ(r.blob(), (Bytes{9, 9, 9}));
  EXPECT_TRUE(r.done());
}

TEST(Serial, LittleEndianLayout) {
  BinaryWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{0x04, 0x03, 0x02, 0x01}));
}

TEST(Serial, TruncatedReadThrows) {
  BinaryWriter w;
  w.u16(7);
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.u32(), CodecError);
}

TEST(Serial, TruncatedBlobThrows) {
  BinaryWriter w;
  w.u32(100);  // claims 100 bytes follow, none do
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.blob(), CodecError);
}

TEST(Serial, ExpectDoneDetectsTrailingBytes) {
  BinaryWriter w;
  w.u8(1);
  w.u8(2);
  BinaryReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.expect_done(), CodecError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Serial, EmptyBlobRoundTrips) {
  BinaryWriter w;
  w.blob(Bytes{});
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.blob().empty());
}

// -- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.bits() == b.bits());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformEmptyRangeThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(5, 4), PreconditionError);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyNearP) {
  Rng rng(7);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / trials, 5.0, 0.15);
}

TEST(Rng, ExponentialRequiresPositiveMean) {
  Rng rng(11);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  const auto sample = rng.sample_without_replacement(100, 40);
  EXPECT_EQ(sample.size(), 40u);
  const std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWholePopulation) {
  Rng rng(3);
  const auto sample = rng.sample_without_replacement(10, 10);
  const std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), PreconditionError);
}

TEST(Rng, SampleIsApproximatelyUniform) {
  Rng rng(5);
  std::vector<int> counts(20, 0);
  for (int trial = 0; trial < 4000; ++trial) {
    for (auto v : rng.sample_without_replacement(20, 5)) ++counts[v];
  }
  // Each element is chosen with probability 5/20 = 0.25 per trial.
  for (int c : counts) EXPECT_NEAR(c / 4000.0, 0.25, 0.04);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng b(42);
  Rng child_b = b.fork();
  // Same parent seed -> same child stream.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child.bits(), child_b.bits());
}

TEST(Rng, ForkByStreamIdIsDeterministic) {
  const Rng a(42);
  const Rng b(42);
  Rng child_a = a.fork(7);
  Rng child_b = b.fork(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child_a.bits(), child_b.bits());
}

TEST(Rng, ForkByStreamIdIgnoresEngineState) {
  // Counter-based: the child stream is a function of (seed, stream_id) only,
  // so drawing from the parent first must not change it. This is what lets
  // sweep shards fork run i from any thread in any order.
  Rng drained(42);
  for (int i = 0; i < 1000; ++i) drained.bits();
  const Rng fresh(42);
  Rng child_drained = drained.fork(3);
  Rng child_fresh = fresh.fork(3);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(child_drained.bits(), child_fresh.bits());
}

TEST(Rng, ForkStreamsDifferFromParentAndEachOther) {
  const Rng parent(0x5eed);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  Rng p(0x5eed);
  int a_eq_b = 0, a_eq_p = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.bits(), vb = b.bits(), vp = p.bits();
    a_eq_b += (va == vb);
    a_eq_p += (va == vp);
  }
  EXPECT_EQ(a_eq_b, 0);
  EXPECT_EQ(a_eq_p, 0);
}

TEST(Rng, ForkStreamsNoPrefixCollisionsAcross10kStreams) {
  // The first 64 draws of 10000 forked streams must all be distinct: any
  // repeated value across streams would hint at correlated child seeds.
  // (640k draws from a 2^64 space collide with probability ~1e-8; the seed
  // is fixed, so this is deterministic.)
  const Rng parent(0x5eed);
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 10000; ++stream) {
    Rng child = parent.fork(stream);
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(seen.insert(child.bits()).second)
          << "collision in stream " << stream << " draw " << i;
    }
  }
}

TEST(Rng, ForkStreamsFirstDrawUniform) {
  // Chi-square sanity bound on the first uniform real of 10k streams over
  // 20 equiprobable bins: E = 500 per bin, df = 19. 60 is far beyond the
  // 99.9th percentile (~43.8) — a generous bound that still catches any
  // gross seeding bias.
  const Rng parent(123);
  std::vector<int> bins(20, 0);
  const int streams = 10000;
  for (int stream = 0; stream < streams; ++stream) {
    Rng child = parent.fork(static_cast<std::uint64_t>(stream));
    const double u = child.real();
    ++bins[std::min(static_cast<std::size_t>(u * 20.0), std::size_t{19})];
  }
  const double expected = streams / 20.0;
  double chi2 = 0.0;
  for (int count : bins) {
    const double d = count - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 60.0);
}

TEST(Rng, ForkStreamsChanceFrequencyNearP) {
  // Across streams (one Bernoulli draw per stream) the hit rate must track
  // p — independence across forked streams, not just within one.
  const Rng parent(99);
  int hits = 0;
  const int streams = 20000;
  for (int stream = 0; stream < streams; ++stream) {
    Rng child = parent.fork(static_cast<std::uint64_t>(stream));
    hits += child.chance(0.3);
  }
  EXPECT_NEAR(static_cast<double>(hits) / streams, 0.3, 0.02);
}

TEST(Rng, SeedAccessorReturnsConstructionSeed) {
  EXPECT_EQ(Rng(42).seed(), 42u);
  EXPECT_EQ(Rng(7).fork(1).seed(), Rng(7).fork(1).seed());
}

TEST(Rng, BytesLengthAndDeterminism) {
  Rng a(9), b(9);
  EXPECT_EQ(a.bytes(33).size(), 33u);
  EXPECT_EQ(Rng(9).bytes(16), Rng(9).bytes(16));
  (void)b;
}

// -- binomial -----------------------------------------------------------------

double exact_tail(int n, int m, double p) {
  // Direct summation with exact binomial coefficients (small n only).
  double sum = 0.0;
  for (int k = m; k <= n; ++k) {
    double coeff = 1.0;
    for (int i = 0; i < k; ++i)
      coeff = coeff * static_cast<double>(n - i) / static_cast<double>(i + 1);
    sum += coeff * std::pow(p, k) * std::pow(1 - p, n - k);
  }
  return sum;
}

TEST(Binomial, LogChooseKnownValues) {
  EXPECT_NEAR(std::exp(log_choose(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(10, 5)), 252.0, 1e-6);
  EXPECT_NEAR(std::exp(log_choose(7, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::exp(log_choose(7, 7)), 1.0, 1e-12);
}

TEST(Binomial, PmfSumsToOne) {
  for (double p : {0.1, 0.42, 0.9}) {
    double sum = 0.0;
    for (int k = 0; k <= 30; ++k) sum += binom_pmf(30, k, p);
    EXPECT_NEAR(sum, 1.0, 1e-10) << "p=" << p;
  }
}

TEST(Binomial, TailMatchesExactSmallN) {
  for (int n : {1, 5, 12}) {
    for (double p : {0.05, 0.3, 0.5, 0.8}) {
      for (int m = 0; m <= n; ++m) {
        EXPECT_NEAR(binom_tail_ge(n, m, p), exact_tail(n, m, p), 1e-9)
            << "n=" << n << " m=" << m << " p=" << p;
      }
    }
  }
}

TEST(Binomial, TailBoundaryCases) {
  EXPECT_DOUBLE_EQ(binom_tail_ge(10, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binom_tail_ge(10, 11, 0.3), 0.0);
  EXPECT_DOUBLE_EQ(binom_tail_ge(10, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binom_tail_ge(10, 5, 1.0), 1.0);
}

TEST(Binomial, TableMatchesPointwiseTail) {
  const std::size_t n = 200;
  const double p = 0.23;
  const auto table = binom_tail_table(n, p);
  ASSERT_EQ(table.size(), n + 2);
  for (std::size_t m = 0; m <= n; m += 13) {
    EXPECT_NEAR(table[m], binom_tail_ge(n, m, p), 1e-9) << "m=" << m;
  }
  EXPECT_DOUBLE_EQ(table[n + 1], 0.0);
}

TEST(Binomial, TableLargeNIsMonotone) {
  const auto table = binom_tail_table(5000, 0.31);
  for (std::size_t m = 0; m + 1 < table.size(); ++m)
    EXPECT_GE(table[m] + 1e-12, table[m + 1]);
  EXPECT_NEAR(table[0], 1.0, 1e-12);
}

TEST(Binomial, PowHelpers) {
  EXPECT_DOUBLE_EQ(pow_one_minus(0.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(pow_one_minus(1.0, 10), 0.0);
  EXPECT_NEAR(pow_one_minus(0.3, 4), std::pow(0.7, 4), 1e-12);
  EXPECT_DOUBLE_EQ(one_minus_pow_one_minus(0.0, 5), 0.0);
  EXPECT_DOUBLE_EQ(one_minus_pow_one_minus(1.0, 5), 1.0);
  EXPECT_NEAR(one_minus_pow_one_minus(0.2, 3), 1 - std::pow(0.8, 3), 1e-12);
}

TEST(Binomial, PowHelpersStableForTinyX) {
  // 1-(1-x)^k ≈ kx for tiny x; naive arithmetic would lose this entirely.
  const double x = 1e-14;
  EXPECT_NEAR(one_minus_pow_one_minus(x, 100) / (100 * x), 1.0, 1e-6);
}

// -- stats --------------------------------------------------------------------

TEST(Stats, RateStatCountsSuccesses) {
  RateStat r;
  for (int i = 0; i < 10; ++i) r.add(i < 3);
  EXPECT_EQ(r.trials(), 10u);
  EXPECT_EQ(r.successes(), 3u);
  EXPECT_NEAR(r.rate(), 0.3, 1e-12);
  EXPECT_GT(r.stderr_rate(), 0.0);
}

TEST(Stats, RateStatDegenerateRates) {
  RateStat r;
  EXPECT_EQ(r.rate(), 0.0);
  r.add(true);
  EXPECT_EQ(r.rate(), 1.0);
  EXPECT_EQ(r.stderr_rate(), 0.0);
}

TEST(Stats, RateStatMergeIsExact) {
  RateStat a, b, serial;
  for (int i = 0; i < 10; ++i) {
    a.add(i % 3 == 0);
    serial.add(i % 3 == 0);
  }
  for (int i = 0; i < 17; ++i) {
    b.add(i % 2 == 0);
    serial.add(i % 2 == 0);
  }
  a.merge(b);
  EXPECT_EQ(a.trials(), serial.trials());
  EXPECT_EQ(a.successes(), serial.successes());
  EXPECT_EQ(a.rate(), serial.rate());            // exact, not NEAR
  EXPECT_EQ(a.stderr_rate(), serial.stderr_rate());
}

TEST(Stats, RateStatMergeWithEmpty) {
  RateStat filled, empty;
  filled.add(true);
  filled.add(false);
  filled.merge(empty);
  EXPECT_EQ(filled.trials(), 2u);
  empty.merge(filled);
  EXPECT_EQ(empty.trials(), 2u);
  EXPECT_EQ(empty.successes(), 1u);
}

TEST(Stats, Histogram64PercentilesAreNearestRank) {
  Histogram64 h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(0.5), 0);
  for (std::int64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.percentile(0.0), 1);
  EXPECT_EQ(h.percentile(0.5), 50);
  EXPECT_EQ(h.percentile(0.99), 99);
  EXPECT_EQ(h.percentile(1.0), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Clamped out-of-range quantiles.
  EXPECT_EQ(h.percentile(-1.0), 1);
  EXPECT_EQ(h.percentile(2.0), 100);
}

TEST(Stats, Histogram64WeightedAddAndNegativeKeys) {
  Histogram64 h;
  h.add(-5, 3);
  h.add(7, 1);
  h.add(7, 2);
  h.add(0, 0);  // zero weight is a no-op
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 7);
  EXPECT_EQ(h.percentile(0.5), -5);
  EXPECT_EQ(h.percentile(0.51), 7);
}

TEST(Stats, Histogram64MergeIsExactAndOrderFree) {
  Histogram64 a, b, serial;
  Rng rng(0x60D);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t key = static_cast<std::int64_t>(rng.uniform(0, 40));
    (i % 2 == 0 ? a : b).add(key);
    serial.add(key);
  }
  Histogram64 ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.bins(), serial.bins());
  EXPECT_EQ(ba.bins(), serial.bins());
  EXPECT_EQ(ab.count(), serial.count());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(ab.percentile(q), serial.percentile(q));
    EXPECT_EQ(ba.percentile(q), serial.percentile(q));
  }
}

}  // namespace
}  // namespace emergence
