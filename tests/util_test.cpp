// Unit tests for util: checksum, RNG, time, byte codec, flags, seed derivation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "util/byte_io.hpp"
#include "util/checksum.hpp"
#include "util/flags.hpp"
#include "util/random.hpp"
#include "util/shard_seeder.hpp"
#include "util/time.hpp"

namespace reorder::util {
namespace {

// ---------- InternetChecksum ----------

TEST(Checksum, Rfc1071ReferenceVector) {
  // The classic example from RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> fold: ddf0 + 2 = ddf2 -> ~ = 220d.
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, EmptyBufferIsAllOnes) {
  EXPECT_EQ(internet_checksum({}), 0xffff);
}

TEST(Checksum, OddLength) {
  const std::vector<std::uint8_t> data{0xab};
  // One byte pads to ab00; ~ab00 = 54ff.
  EXPECT_EQ(internet_checksum(data), 0x54ff);
}

TEST(Checksum, VerifiesToZeroWhenEmbedded) {
  // A buffer whose checksum field is filled must re-checksum to 0.
  std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x40,
                                 0x00, 0x40, 0x06, 0x00, 0x00};
  const std::uint16_t sum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum & 0xff);
  EXPECT_EQ(internet_checksum(data), 0);
}

// Straight byte-pair accumulation — the implementation before the unrolled
// word loop, kept as the differential reference.
std::uint16_t reference_checksum(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint16_t>((static_cast<std::uint16_t>(data[i]) << 8) | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint16_t>(data[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

TEST(Checksum, UnrolledMatchesReferenceOverRandomLengthsAndOffsets) {
  Rng rng{97};
  std::vector<std::uint8_t> data(4096);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t off = static_cast<std::size_t>(rng.below(512));
    const std::size_t len =
        static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(data.size() - off)));
    const auto view = std::span{data}.subspan(off, len);
    EXPECT_EQ(internet_checksum(view), reference_checksum(view))
        << "off=" << off << " len=" << len;
  }
}

TEST(Checksum, UnrolledMatchesReferenceUnderOddChunkedUpdates) {
  Rng rng{131};
  std::vector<std::uint8_t> data(2048);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = 1 + static_cast<std::size_t>(rng.below(2047));
    const auto view = std::span{data}.subspan(0, len);
    InternetChecksum c;
    std::size_t off = 0;
    while (off < len) {
      // Deliberately odd-biased chunk sizes to exercise the dangling-byte
      // carry between updates.
      const std::size_t n = std::min<std::size_t>(1 + rng.below(33), len - off);
      c.update(view.subspan(off, n));
      off += n;
    }
    EXPECT_EQ(c.finish(), reference_checksum(view)) << "len=" << len;
  }
}

TEST(Checksum, IncrementalMatchesOneShotAcrossChunkings) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 37);
  const std::uint16_t expect = internet_checksum(data);
  for (std::size_t chunk : {1u, 2u, 3u, 5u, 16u, 64u, 255u}) {
    InternetChecksum c;
    for (std::size_t off = 0; off < data.size(); off += chunk) {
      const std::size_t n = std::min(chunk, data.size() - off);
      c.update(std::span{data}.subspan(off, n));
    }
    EXPECT_EQ(c.finish(), expect) << "chunk=" << chunk;
  }
}

// ---------- Rng ----------

TEST(Rng, DeterministicForSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng{7};
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 65536ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng{9};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01HalfOpen) {
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

class RngBernoulliRate : public ::testing::TestWithParam<double> {};

TEST_P(RngBernoulliRate, EmpiricalRateNearP) {
  const double p = GetParam();
  Rng rng{17};
  const int n = 40000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, p, 4.0 * std::sqrt(p * (1 - p) / n) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RngBernoulliRate,
                         ::testing::Values(0.01, 0.03, 0.05, 0.10, 0.15, 0.40, 0.5, 0.9));

TEST(Rng, ExponentialMean) {
  Rng rng{19};
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng{23};
  const int n = 50000;
  double sum = 0;
  double sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, SplitIndependentStreams) {
  Rng parent{31};
  Rng child = parent.split();
  // The child stream must not simply mirror the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---------- Duration / TimePoint ----------

TEST(Time, DurationFactoriesAndAccessors) {
  EXPECT_EQ(Duration::micros(250).ns(), 250'000);
  EXPECT_EQ(Duration::millis(3).us(), 3'000);
  EXPECT_EQ(Duration::seconds(2).ms(), 2'000);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).seconds_f(), 1.5);
}

TEST(Time, FromSecondsRounds) {
  EXPECT_EQ(Duration::from_seconds_f(1e-9).ns(), 1);
  EXPECT_EQ(Duration::from_seconds_f(2.5e-6).ns(), 2500);
}

TEST(Time, Arithmetic) {
  const auto a = Duration::millis(5);
  const auto b = Duration::micros(500);
  EXPECT_EQ((a + b).us(), 5500);
  EXPECT_EQ((a - b).us(), 4500);
  EXPECT_EQ((a * 3).ms(), 15);
  EXPECT_EQ((a / 5).ms(), 1);
  EXPECT_EQ((-a).ms(), -5);
  EXPECT_TRUE(b < a);
  EXPECT_TRUE(Duration::nanos(0).is_zero());
  EXPECT_TRUE((-a).is_negative());
}

TEST(Time, TimePointArithmetic) {
  const auto t0 = TimePoint::epoch();
  const auto t1 = t0 + Duration::millis(10);
  EXPECT_EQ((t1 - t0).ms(), 10);
  EXPECT_EQ((t1 - Duration::millis(4)).ns(), Duration::millis(6).ns());
  EXPECT_TRUE(t0 < t1);
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(Duration::nanos(12).to_string(), "12ns");
  EXPECT_EQ(Duration::micros(250).to_string(), "250us");
  EXPECT_NE(Duration::millis(3).to_string().find("ms"), std::string::npos);
  EXPECT_NE(Duration::seconds(2).to_string().find("s"), std::string::npos);
}

// ---------- ByteWriter / ByteReader ----------

TEST(ByteIo, RoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w{buf};
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  const std::vector<std::uint8_t> tail{1, 2, 3};
  w.bytes(tail);
  ASSERT_EQ(buf.size(), 10u);

  ByteReader r{buf};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  const auto rest = r.bytes(3);
  EXPECT_EQ(rest[2], 3);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, NetworkByteOrder) {
  std::vector<std::uint8_t> buf;
  ByteWriter w{buf};
  w.u16(0x0102);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(ByteIo, UnderrunThrows) {
  const std::vector<std::uint8_t> buf{1, 2};
  ByteReader r{buf};
  r.u16();
  // GCC 12 flags the (never-executed) read past the buffer on the path
  // after the bounds check throws; the warning is a false positive here —
  // provoking that throw is the whole point of this test.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
  EXPECT_THROW(r.u8(), ParseError);
#pragma GCC diagnostic pop
}

TEST(ByteIo, PatchU16) {
  std::vector<std::uint8_t> buf;
  ByteWriter w{buf};
  w.u16(0);
  w.u16(0x5555);
  w.patch_u16(0, 0xbeef);
  ByteReader r{buf};
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u16(), 0x5555);
}

TEST(ByteIo, SkipAndPosition) {
  const std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  ByteReader r{buf};
  r.skip(2);
  EXPECT_EQ(r.position(), 2u);
  EXPECT_EQ(r.u8(), 3);
  EXPECT_THROW(r.skip(5), ParseError);
}

// ---------- Flags ----------

TEST(Flags, ParsesAllKinds) {
  Flags flags{"t", "test"};
  std::int64_t n = 5;
  double d = 0.5;
  std::string s = "x";
  bool b = false;
  flags.add_i64("count", &n, "a count");
  flags.add_double("rate", &d, "a rate");
  flags.add_string("name", &s, "a name");
  flags.add_bool("verbose", &b, "verbosity");

  const char* argv[] = {"prog", "--count=7", "--rate", "0.25", "--name=abc", "--verbose", "pos"};
  ASSERT_TRUE(flags.parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(n, 7);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_EQ(s, "abc");
  EXPECT_TRUE(b);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(Flags, NoPrefixDisablesBool) {
  Flags flags{"t", "test"};
  bool b = true;
  flags.add_bool("color", &b, "color");
  const char* argv[] = {"prog", "--no-color"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(b);
}

TEST(Flags, RejectsUnknownAndBadValues) {
  Flags flags{"t", "test"};
  std::int64_t n = 0;
  flags.add_i64("n", &n, "n");
  const char* bad1[] = {"prog", "--bogus=1"};
  Flags unknown{"t", "d"};
  EXPECT_FALSE(unknown.parse(2, const_cast<char**>(bad1)));
  const char* bad2[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(bad2)));
}

TEST(Flags, UsageMentionsFlagsAndDefaults) {
  Flags flags{"prog", "demo"};
  std::int64_t n = 42;
  flags.add_i64("answer", &n, "the answer");
  const auto usage = flags.usage();
  EXPECT_NE(usage.find("--answer"), std::string::npos);
  EXPECT_NE(usage.find("42"), std::string::npos);
}

TEST(ShardSeeder, DerivationIsPureAndDecorrelated) {
  const ShardSeeder seeder{42};
  const TargetSeeds a0 = seeder.target(0);
  const TargetSeeds a0_again = ShardSeeder{42}.target(0);
  EXPECT_EQ(a0.host_seed, a0_again.host_seed);
  EXPECT_EQ(a0.forward_tag, a0_again.forward_tag);

  // Neighbouring indices and lanes must not collide (the avalanche is
  // doing its job).
  std::set<std::uint64_t> streams;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const TargetSeeds s = seeder.target(i);
    streams.insert(s.host_seed);
    streams.insert(s.forward_tag);
    streams.insert(s.reverse_tag);
  }
  EXPECT_EQ(streams.size(), 3u * 64u);

  // The splitmix64 finalizer is an on-disk contract (recorded seeds must
  // replay across versions): pin a known vector.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
}

}  // namespace
}  // namespace reorder::util
