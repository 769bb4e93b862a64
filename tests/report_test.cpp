// Tests for the report layer: the JSON writer's bytes (pinned as literals,
// and against printf over a million doubles), the JSON value (dump/parse
// round-trips, over every record type a survey and its checkpoint write
// too), the table emitter, the streaming JsonlResultSink, and the golden
// round-trip the benches rely on — JSONL written during a survey, parsed
// back, reproducing the aggregate rates exactly.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/survey_testbed.hpp"
#include "report/builders.hpp"
#include "report/sinks.hpp"
#include "report/table.hpp"
#include "service/survey_service.hpp"
#include "util/fault_injector.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::report {
namespace {

using util::Duration;

// ---------------------------------------------------------------- Json

TEST(Json, ScalarsDumpCompactly) {
  EXPECT_EQ(Json{}.dump(), "null");
  EXPECT_EQ(Json{true}.dump(), "true");
  EXPECT_EQ(Json{false}.dump(), "false");
  EXPECT_EQ(Json{42}.dump(), "42");
  EXPECT_EQ(Json{-7}.dump(), "-7");
  EXPECT_EQ(Json{0.5}.dump(), "0.5");
  EXPECT_EQ(Json{"hi"}.dump(), "\"hi\"");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json j = Json::object();
  j.set("z", 1).set("a", 2).set("m", 3);
  EXPECT_EQ(j.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  j.set("a", 9);  // overwrite keeps the slot
  EXPECT_EQ(j.dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(Json, StringsEscape) {
  EXPECT_EQ(Json{"a\"b\\c\nd"}.dump(), "\"a\\\"b\\\\c\\nd\"");
  const auto parsed = Json::parse("\"a\\\"b\\\\c\\nd\\u0041\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\nd" "A");
}

TEST(Json, ParseRoundTripsNestedValues) {
  Json j = Json::object();
  j.set("name", "survey");
  j.set("ok", true);
  j.set("count", 17);
  j.set("rate", 0.0625);
  Json arr = Json::array();
  arr.push(1).push("two").push(Json{});
  j.set("mixed", std::move(arr));
  Json inner = Json::object();
  inner.set("x", -3.5);
  j.set("nested", std::move(inner));

  const auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), j.dump());
  EXPECT_EQ(parsed->at("count").as_int(), 17);
  EXPECT_DOUBLE_EQ(parsed->at("rate").as_double(), 0.0625);
  EXPECT_EQ(parsed->at("mixed").size(), 3u);
  EXPECT_TRUE(parsed->at("mixed").at(2).is_null());
  EXPECT_DOUBLE_EQ(parsed->at("nested").at("x").as_double(), -3.5);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
  // Tokens from_chars would happily read but JSON's grammar has no
  // numbers for.
  EXPECT_FALSE(Json::parse("inf").has_value());
  EXPECT_FALSE(Json::parse("-inf").has_value());
  EXPECT_FALSE(Json::parse("nan").has_value());
  // A \u escape must consume exactly four hex digits.
  EXPECT_FALSE(Json::parse("\"\\u12x4\"").has_value());
  // Nesting a million levels deep: refused at the depth bound instead of
  // recursing until the stack overflows.
  constexpr std::size_t kDeep = 1'000'000;
  EXPECT_FALSE(Json::parse(std::string(kDeep, '[')).has_value());
  std::string deep_object;
  for (std::size_t i = 0; i < kDeep; ++i) deep_object += "{\"a\":";
  EXPECT_FALSE(Json::parse(deep_object).has_value());
}

TEST(Json, ParseAcceptsNestingUpToTheDepthBound) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const auto parsed = Json::parse(nested(Json::kMaxDepth));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), nested(Json::kMaxDepth));
  EXPECT_FALSE(Json::parse(nested(Json::kMaxDepth + 1)).has_value());
}

TEST(Json, TypedAccessorsThrowOnMismatch) {
  EXPECT_THROW(Json{1.0}.as_string(), std::runtime_error);
  EXPECT_THROW(Json{"x"}.as_double(), std::runtime_error);
  EXPECT_THROW(Json{}.at("missing"), std::out_of_range);
}

TEST(Json, IntegerAccessorsRejectNumbersOutsideTheirRange) {
  // Checkpoint headers, record indices and reorder-merge inputs reach
  // these accessors with whatever number the file holds.
  EXPECT_THROW(Json{1e20}.as_u64(), std::runtime_error);
  EXPECT_THROW(Json{1e300}.as_int(), std::runtime_error);
  EXPECT_THROW(Json{-1e300}.as_int(), std::runtime_error);
  EXPECT_THROW(Json{std::numeric_limits<double>::infinity()}.as_u64(), std::runtime_error);
  EXPECT_THROW(Json{std::nan("")}.as_int(), std::runtime_error);
  // Both take exact integers only: a fractional count or plan field is
  // refused, never truncated.
  EXPECT_THROW(Json{-2.75}.as_int(), std::runtime_error);
  EXPECT_THROW(Json{1.9}.as_u64(), std::runtime_error);
  EXPECT_EQ(Json{9007199254740992.0}.as_u64(), 9007199254740992ull);
  EXPECT_EQ(Json{-9223372036854775808.0}.as_int(), INT64_MIN);
  EXPECT_EQ(Json::u64(UINT64_MAX).as_u64(), UINT64_MAX);
  // as_i32() refuses what would wrap: 2^32 + 1 is not 1.
  EXPECT_THROW(Json{std::int64_t{4294967297}}.as_i32(), std::runtime_error);
  EXPECT_THROW(Json{std::int64_t{INT32_MIN} - 1}.as_i32(), std::runtime_error);
  EXPECT_EQ(Json{INT32_MAX}.as_i32(), INT32_MAX);
  EXPECT_EQ(Json{INT32_MIN}.as_i32(), INT32_MIN);
}

TEST(Json, ParseJoinsSurrogatePairsAndRefusesLoneHalves) {
  // An escaped code point past the basic plane is one 4-byte UTF-8
  // sequence, so an escaped and a raw spelling of one name are one name.
  const auto pair = Json::parse("\"\\ud83d\\ude00\"");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->as_string(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(Json::parse("\"host-\\ud83d\\ude00\"")->as_string(),
            Json::parse("\"host-\xF0\x9F\x98\x80\"")->as_string());
  const auto edges = Json::parse("\"\\ud800\\udc00\\udbff\\udfff\"");
  ASSERT_TRUE(edges.has_value());
  EXPECT_EQ(edges->as_string(), "\xF0\x90\x80\x80\xF4\x8F\xBF\xBF");
  // Basic-plane escapes around the surrogate range keep their 3 bytes.
  EXPECT_EQ(Json::parse("\"\\ud7ff\\ue000\"")->as_string(), "\xED\x9F\xBF\xEE\x80\x80");
  // A half without its partner is not a character: refused, never
  // encoded as invalid UTF-8.
  for (const char* bad : {"\"\\ud800\"", "\"\\udc00\"", "\"\\ude00\\ud83d\"", "\"\\ud83dx\"",
                          "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\"", "\"\\ud83d\\\"",
                          "\"\\ud83d\\u12\""}) {
    EXPECT_FALSE(Json::parse(bad).has_value()) << bad;
  }
}

// --------------------------------------------------------- JsonWriter

/// What JsonWriter renders for one value.
template <typename Write>
std::string written(Write&& write) {
  std::string out;
  JsonWriter w{out};
  write(w);
  return out;
}

TEST(JsonWriter, NumbersKeepTheTreeDumpsBytes) {
  // Each literal is what Json::dump() printed before JsonWriter existed:
  // the integer form below 9e15, "%.17g" at and above it and for every
  // fraction, null for what JSON cannot spell.
  const std::vector<std::pair<double, std::string>> cases = {
      {0.0, "0"},
      {-0.0, "0"},
      {9e15 - 1, "8999999999999999"},
      {-(9e15 - 1), "-8999999999999999"},
      {9e15, "9000000000000000"},
      {-9e15, "-9000000000000000"},
      {9007199254740992.0, "9007199254740992"},
      {1e16, "10000000000000000"},
      {9223372036854775808.0, "9.2233720368547758e+18"},
      {0.1, "0.10000000000000001"},
      {1.0 / 3, "0.33333333333333331"},
      {5e-324, "4.9406564584124654e-324"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {std::nan(""), "null"},
      {std::numeric_limits<double>::infinity(), "null"},
      {-std::numeric_limits<double>::infinity(), "null"},
  };
  for (const auto& [d, want] : cases) {
    EXPECT_EQ(Json{d}.dump(), want) << want;
    EXPECT_EQ(written([&](JsonWriter& w) { w.number(d); }), want) << want;
  }
  // Integers follow the rule of the double they convert to.
  EXPECT_EQ(written([](JsonWriter& w) { w.number(std::int64_t{9'000'000'000'000'000}); }),
            "9000000000000000");
  EXPECT_EQ(written([](JsonWriter& w) { w.number(std::int64_t{INT64_MAX}); }),
            "9.2233720368547758e+18");
  EXPECT_EQ(written([](JsonWriter& w) { w.number(std::uint64_t{UINT64_MAX}); }),
            "1.8446744073709552e+19");
  EXPECT_EQ(Json{std::uint64_t{UINT64_MAX}}.dump(), "1.8446744073709552e+19");
  // u64 is lossless: a number up to 2^53, a decimal string past it.
  EXPECT_EQ(Json::u64(9007199254740992ull).dump(), "9007199254740992");
  EXPECT_EQ(Json::u64(9007199254740993ull).dump(), "\"9007199254740993\"");
  EXPECT_EQ(written([](JsonWriter& w) { w.u64(9007199254740993ull); }), "\"9007199254740993\"");
  EXPECT_EQ(written([](JsonWriter& w) { w.u64(UINT64_MAX); }), "\"18446744073709551615\"");
}

TEST(JsonWriter, StringsKeepTheTreeDumpsEscapes) {
  std::string control;
  for (int c = 1; c < 0x20; ++c) control += static_cast<char>(c);
  const std::string control_escaped =
      "\"\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r"
      "\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019"
      "\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\"";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {control, control_escaped},
      {std::string{"a\0b", 3}, "\"a\\u0000b\""},
      {"\"\\\x7f", "\"\\\"\\\\\x7f\""},
      {"h\xC3\xA9llo \xE2\x82\xAC \xF0\x9F\x98\x80",
       "\"h\xC3\xA9llo \xE2\x82\xAC \xF0\x9F\x98\x80\""},
      {"", "\"\""},
  };
  for (const auto& [s, want] : cases) {
    EXPECT_EQ(Json{s}.dump(), want);
    EXPECT_EQ(written([&](JsonWriter& w) { w.string(s); }), want);
    // And the parser reads each one back to the same bytes.
    EXPECT_EQ(Json::parse(want)->as_string(), s);
  }
  // Keys escape by the same rule.
  EXPECT_EQ(written([](JsonWriter& w) { w.begin_object().key("a\"b").null().end_object(); }),
            "{\"a\\\"b\":null}");
}

TEST(JsonWriter, PlacesCommasInNestedContainers) {
  const std::string text = written([](JsonWriter& w) {
    w.begin_object().key("a").begin_array().number(1).begin_array().end_array();
    w.begin_object().end_object().string("x").end_array();
    w.key("b").begin_object().key("c").boolean(false).key("d").null().end_object();
    w.key("e").number(0.5).end_object();
  });
  EXPECT_EQ(text, R"({"a":[1,[],{},"x"],"b":{"c":false,"d":null},"e":0.5})");
  EXPECT_EQ(Json::parse(text)->dump(), text);
  // A rendering that is not one value is a defect rendered() reports.
  EXPECT_THROW(Json::rendered([](JsonWriter& w) { w.number(1).number(2); }), std::logic_error);
}

TEST(JsonWriter, FractionsMatchPrintfOverAMillionSeededDoubles) {
  // to_chars with a precision is defined as printf's conversion; check
  // that this library's agrees with "%.17g" where the writer uses it.
  // A quarter of the draws are raw bit patterns (every exponent, NaNs and
  // subnormals included); the rest are what the records carry: rates of
  // small counts, fractions in [0, 1), and integers on both sides of the
  // 9e15 switch to "%.17g".
  constexpr std::uint64_t kDraws = 1'000'000;
  std::size_t fractions = 0;
  std::string got;
  char want[32];
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t bits = util::splitmix64(0x5eed0000 + i);
    double d = 0;
    switch (i % 4) {
      case 0: std::memcpy(&d, &bits, sizeof d); break;
      case 1:
        d = static_cast<double>(bits & 0xFFFF) / static_cast<double>(1 + ((bits >> 16) & 0xFFFF));
        break;
      case 2: d = static_cast<double>(bits >> 11) * 0x1p-53; break;
      default: d = static_cast<double>(bits >> 10); break;
    }
    if (!std::isfinite(d)) {
      std::snprintf(want, sizeof want, "null");
    } else if (d == std::floor(d) && std::fabs(d) < 9e15) {
      std::snprintf(want, sizeof want, "%lld", static_cast<long long>(d));
    } else {
      std::snprintf(want, sizeof want, "%.17g", d);
      ++fractions;
    }
    got.clear();
    JsonWriter{got}.number(d);
    ASSERT_EQ(got, want) << "draw " << i;
  }
  EXPECT_GT(fractions, kDraws / 2);
}

// ------------------------------------------------------------- Jsonl

TEST(Jsonl, WriteThenReadBack) {
  std::ostringstream out;
  JsonlWriter writer{out};
  Json a = Json::object();
  a.set("i", 1);
  writer.write(a);
  Json b = Json::object();
  b.set("i", 2);
  writer.write(b);
  EXPECT_EQ(writer.lines_written(), 2u);

  const auto lines = read_jsonl_text(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("i").as_int(), 1);
  EXPECT_EQ(lines[1].at("i").as_int(), 2);
}

TEST(Jsonl, BlankLinesSkippedMalformedThrows) {
  EXPECT_EQ(read_jsonl_text("\n  \n{\"a\":1}\n\n").size(), 1u);
  EXPECT_THROW(read_jsonl_text("{\"a\":1}\nnot json\n"), std::runtime_error);
}

// ------------------------------------------------------------- Table

TEST(Table, AlignsColumnsUnderHeaders) {
  Table t = Table::with_headers({"name", "count"});
  t.row({"alpha", "1"});
  t.row({"b", "1234"});
  EXPECT_EQ(t.to_string(),
            "name   count\n"
            "------------\n"
            "alpha      1\n"
            "b       1234\n");
}

TEST(Table, PadsShortRowsRejectsLongOnes) {
  Table t = Table::with_headers({"a", "b"});
  t.row({"only"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_THROW(t.row({"1", "2", "3"}), std::invalid_argument);
}

TEST(Table, CellFormatters) {
  EXPECT_EQ(fixed(0.12345, 3), "0.123");
  EXPECT_EQ(signed_fixed(0.02, 2), "+0.02");
  EXPECT_EQ(signed_fixed(-0.02, 2), "-0.02");
  EXPECT_EQ(percent(0.125, 1), "12.5");
  EXPECT_EQ(integer(-42), "-42");
}

// ------------------------------------- the golden JSONL round trip

core::SurveyTestbedConfig round_trip_config() {
  core::SurveyTestbedConfig cfg;
  cfg.seed = 77;
  const double swap[] = {0.3, 0.0};
  for (int i = 0; i < 2; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = swap[i];
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    cfg.targets.push_back(std::move(target));
  }
  return cfg;
}

TEST(JsonlResultSink, RoundTripReproducesAggregateRates) {
  core::SurveyTestbed bed{round_trip_config()};
  core::SurveyEngine engine{bed.loop()};
  bed.populate(engine);

  std::ostringstream out;
  JsonlWriter writer{out};
  JsonlResultSink sink{writer};
  engine.add_sink(sink);

  core::TestRunConfig run;
  run.samples = 12;
  engine.run(run, 3, Duration::millis(100));
  ASSERT_GT(writer.lines_written(), 0u);

  // Parse the stream back and rebuild per-(target, test) aggregates from
  // the measurement lines alone.
  const auto lines = read_jsonl_text(out.str());
  std::map<std::pair<std::string, std::string>, core::ReorderEstimate> fwd;
  std::map<std::pair<std::string, std::string>, core::ReorderEstimate> rev;
  std::size_t measurement_lines = 0;
  std::size_t sample_lines = 0;
  std::size_t samples_declared = 0;
  for (const auto& line : lines) {
    const std::string& type = line.at("type").as_string();
    if (type == "sample") {
      ++sample_lines;
      continue;
    }
    if (type != "measurement") continue;
    ++measurement_lines;
    samples_declared += static_cast<std::size_t>(line.at("samples").as_int());
    if (!line.at("admissible").as_bool()) continue;
    const std::pair<std::string, std::string> key{line.at("target").as_string(),
                                                  line.at("test").as_string()};
    fwd[key] += estimate_from_json(line.at("fwd"));
    rev[key] += estimate_from_json(line.at("rev"));
  }
  EXPECT_EQ(measurement_lines, engine.measurements().size());
  EXPECT_EQ(sample_lines, samples_declared);

  // The parsed-back aggregates reproduce the engine's, rate for rate.
  for (const auto& [key, estimate] : fwd) {
    const auto want = engine.metrics().aggregate(key.first, key.second, true);
    EXPECT_EQ(estimate.in_order, want.in_order) << key.first << "/" << key.second;
    EXPECT_EQ(estimate.reordered, want.reordered);
    EXPECT_EQ(estimate.rate().has_value(), want.rate().has_value());
    if (want.rate().has_value()) {
      EXPECT_DOUBLE_EQ(*estimate.rate(), *want.rate());
    }
  }
  for (const auto& [key, estimate] : rev) {
    const auto want = engine.metrics().aggregate(key.first, key.second, false);
    EXPECT_EQ(estimate.reordered, want.reordered);
    if (want.rate().has_value()) {
      EXPECT_DOUBLE_EQ(*estimate.rate(), *want.rate());
    }
  }

  // Lifecycle lines bracket the stream.
  EXPECT_EQ(lines.front().at("type").as_string(), "survey_begin");
  EXPECT_EQ(lines.back().at("type").as_string(), "survey_end");
  EXPECT_EQ(static_cast<std::size_t>(lines.back().at("measurements").as_int()),
            engine.measurements().size());
}

TEST(JsonlResultSink, EstimateCountsMustBeUnsignedIntegers) {
  // reorder-merge inputs and checkpoint records reach estimate_from_json
  // with whatever the file holds: -1 must not wrap to 2^64 - 1, nor 2.5
  // truncate to 2.
  for (const std::string bad : {"-1", "2.5"}) {
    const auto j = Json::parse(R"({"in_order":)" + bad + R"(,"reordered":0,"ambiguous":0,"lost":0})");
    ASSERT_TRUE(j.has_value()) << bad;
    EXPECT_THROW(estimate_from_json(*j), std::runtime_error) << bad;
  }
}

TEST(Json, EveryRecordTheSurveyAndItsCheckpointWriteRoundTrips) {
  // One target per canonical scenario, plus one whose world always fails,
  // so the run ends degraded (survey_end's failure tail, participation).
  std::vector<core::SurveyTargetConfig> fleet;
  for (const std::string& name : core::scenarios::names()) {
    const core::ScenarioSpec spec = core::scenarios::by_name(name);
    core::SurveyTargetConfig target;
    target.name = name;
    target.remote = spec.testbed.remote;
    target.backends = spec.testbed.backends;
    target.forward = spec.testbed.forward;
    target.reverse = spec.testbed.reverse;
    target.tests = spec.tests;
    fleet.push_back(std::move(target));
  }
  core::SurveyTargetConfig failing;
  failing.name = "failing";
  fleet.push_back(failing);
  util::FaultInjector faults{17};
  faults.arm({"shard/" + std::to_string(fleet.size() - 1) + "/run",
              util::FaultInjector::Mode::kThrow, 1.0, 0, true});

  const std::string path = testing::TempDir() + "report_test_round_trip.ckpt";
  std::remove(path.c_str());
  service::SurveyServiceConfig cfg;
  cfg.seed = 5;
  cfg.workers = 2;
  cfg.run.samples = 6;
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 1;
  cfg.checkpoint_path = path;
  service::SurveyService service{cfg};
  service.admit(fleet);
  service.drain();
  ASSERT_EQ(service.failed_target_indices(), std::vector<std::size_t>{fleet.size() - 1});

  std::ostringstream text;
  JsonlWriter writer{text};
  service.emit_jsonl(writer);
  writer.write(service.snapshot().to_json());
  service.stop();
  {
    std::ifstream checkpoint{path, std::ios::binary};
    text << checkpoint.rdbuf();
  }
  std::remove(path.c_str());

  // The one renderer and the one parser agree on every line written.
  std::set<std::string> types;
  std::istringstream lines{text.str()};
  for (std::string line; std::getline(lines, line);) {
    const std::optional<Json> parsed = Json::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->dump(), line);
    types.insert(parsed->at("type").as_string());
  }
  EXPECT_EQ(types, (std::set<std::string>{"checkpoint_header", "measurement", "metrics",
                                          "participation", "sample", "service_snapshot",
                                          "shard_done", "survey_begin", "survey_end"}));
}

TEST(JsonlResultSink, ADegradedSurveyEndAndItsParticipationKeepTheirBytes) {
  // No CLI run degrades, so the output-identity comparison never sees
  // these two records: their bytes, as the tree renderer wrote them, are
  // pinned here. The absentee's name needs an escape.
  core::SurveyTargetConfig ok;
  ok.name = "ok";
  ok.forward.swap_probability = 0.2;
  ok.remote.behavior.immediate_ack_on_hole_fill = true;
  ok.tests = {core::TestSpec{"syn"}};
  core::SurveyTargetConfig failing;
  failing.name = "fail\"ing";
  util::FaultInjector faults{17};
  faults.arm({"shard/1/run", util::FaultInjector::Mode::kThrow, 1.0, 0, true});
  service::SurveyServiceConfig cfg;
  cfg.seed = 5;
  cfg.workers = 1;
  cfg.run.samples = 4;
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 1;
  service::SurveyService service{cfg};
  service.admit({ok, failing});
  service.drain();

  std::ostringstream text;
  JsonlWriter writer{text};
  service.emit_jsonl(writer);
  std::map<std::string, std::string> by_type;
  std::istringstream lines{text.str()};
  for (std::string line; std::getline(lines, line);) {
    by_type[Json::parse(line)->at("type").as_string()] = line;
  }
  EXPECT_EQ(by_type["survey_end"],
            R"({"type":"survey_end","targets":1,"rounds":1,"measurements":1,"at_ns":1160069120,)"
            R"("degraded":true,"failed_shards":1,"failed_targets":["fail\"ing"]})");
  EXPECT_EQ(by_type["participation"],
            R"({"type":"participation","targets":[{"target":"ok","participated":true},)"
            R"({"target":"fail\"ing","participated":false}]})");
}

// ----------------------------------------------------------- builders

TEST(Builders, RateCdfReportCountsAndRenders) {
  RateCdfReport cdf{{0.0, 0.1}};
  cdf.add_path(0.0, 0.0);
  cdf.add_path(0.2, 0.05);
  EXPECT_EQ(cdf.paths(), 2u);
  EXPECT_EQ(cdf.paths_with_reordering(), 1);
  const Table t = cdf.table();
  EXPECT_EQ(t.rows(), 2u);

  std::ostringstream out;
  JsonlWriter writer{out};
  cdf.emit_jsonl(writer);
  const auto lines = read_jsonl_text(out.str());
  ASSERT_EQ(lines.size(), 3u);  // 2 thresholds + summary
  EXPECT_DOUBLE_EQ(lines[0].at("fwd_cdf").as_double(), 0.5);
  EXPECT_EQ(lines.back().at("type").as_string(), "summary");
  EXPECT_EQ(lines.back().at("paths").as_int(), 2);
}

TEST(Builders, TimeDomainReportDecimatesTableNotJsonl) {
  core::TimeDomainProfile profile;
  for (int us = 0; us <= 6; us += 2) {
    profile.add(Duration::micros(us), core::Ordering::kInOrder);
  }
  TimeDomainReport report{std::move(profile), /*table_every_us=*/4};
  EXPECT_EQ(report.table().rows(), 2u);  // 0us and 4us only

  std::ostringstream out;
  JsonlWriter writer{out};
  report.emit_jsonl(writer);
  const auto lines = read_jsonl_text(out.str());
  EXPECT_EQ(lines.size(), 5u);  // every point + summary
}

TEST(Builders, PairDifferenceReportAccumulates) {
  PairDifferenceReport report;
  report.add("single", "syn", true, true);
  report.add("single", "syn", true, false);
  report.add("single", "syn", false, true);
  ASSERT_EQ(report.pairs().size(), 1u);
  EXPECT_EQ(report.pairs()[0].fwd_supported, 1);
  EXPECT_EQ(report.pairs()[0].fwd_total, 2);
  EXPECT_EQ(report.pairs()[0].rev_total, 1);
  EXPECT_EQ(report.table().rows(), 1u);
}

TEST(Builders, ValidationReportSummaryMatchesPaperAccounting) {
  ValidationReport report;
  // Two-way test, one forward mismatch.
  ValidationReport::Row a;
  a.test = "syn";
  a.fwd_p = 0.05;
  a.rev_p = 0.05;
  a.cmp.reported_fwd = 6;
  a.cmp.actual_fwd = 5;
  a.cmp.fwd_mismatches = 1;
  a.cmp.verified_samples = 200;
  report.add(a);
  // One-way (data transfer) row, clean.
  ValidationReport::Row b;
  b.test = "data-transfer";
  b.rev_p = 0.10;
  b.cmp.reported_rev = 9;
  b.cmp.actual_rev = 9;
  b.cmp.verified_samples = 50;
  report.add(b);

  const auto s = report.summary(/*samples_per_two_way_test=*/100);
  EXPECT_EQ(s.tests_run, 2);
  EXPECT_EQ(s.fwd_discrepant_tests, 1);
  EXPECT_EQ(s.rev_discrepant_tests, 0);
  EXPECT_EQ(s.total_samples, 250);  // 2*100 two-way + 50 verified one-way
  EXPECT_EQ(s.mismatched_samples, 1);
  ASSERT_TRUE(s.confirmed_fraction().has_value());
  EXPECT_NEAR(*s.confirmed_fraction(), 1.0 - 1.0 / 250.0, 1e-12);

  EXPECT_EQ(report.table().rows(), 2u);
}

}  // namespace
}  // namespace reorder::report
