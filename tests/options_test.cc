// Option tables (DESIGN.md §10): every StormOptions and MarketplaceOptions
// field must mean the same thing as an fvsim flag, a scenario key, a capture
// blob line and a snapshot fingerprint input.

#include <cmath>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/cluster/marketplace.h"
#include "src/sim/options.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

// Changes one field by the smallest step its type allows: doubles by
// std::nextafter, integers by one stored unit, bools and enums to another
// value, strings to another allowed name, schedules by one entry.
template <typename Opts>
void Nudge(const OptionField<Opts>& f, Opts* opts) {
  void* v = f.member(*opts);
  const OptionCodec* c = f.codec;
  if (c == CodecFor<double>()) {
    double& d = *static_cast<double*>(v);
    d = std::nextafter(d, d < f.limits.hi ? INFINITY : -INFINITY);
  } else if (c == CodecFor<int>()) {
    int& i = *static_cast<int*>(v);
    i = i < f.limits.hi ? i + 1 : i - 1;
  } else if (c == CodecFor<int64_t>()) {
    ++*static_cast<int64_t*>(v);
  } else if (c == CodecFor<uint64_t>()) {
    ++*static_cast<uint64_t*>(v);
  } else if (c == CodecFor<bool>()) {
    bool& b = *static_cast<bool*>(v);
    b = !b;
  } else if (c == EnumCodec()) {
    uint8_t& e = *static_cast<uint8_t*>(v);
    e = e == 0 ? 1 : 0;
  } else if (c == CodecFor<std::string>()) {
    std::string& s = *static_cast<std::string*>(v);
    const std::string choices = f.limits.choices;
    s = choices.substr(0, choices.find('|')) == s ? choices.substr(choices.find('|') + 1) : "x";
  } else {
    const std::string entry = std::string(c->metavar).rfind("a-b", 0) == 0 ? "0-1@1-2.5" : "1@2.5";
    const std::string text = c->format(v, f.limits);
    ASSERT_EQ(c->parse(text.empty() ? entry : text + "," + entry, f.limits, v), "") << f.name;
  }
}

template <typename Opts>
Opts ReadAll(const OptionTable<Opts>& table, KeyValues& kv) {
  Opts opts;
  ReadOptions(table, kv, &opts);
  EXPECT_TRUE(kv.Finish()) << kv.error();
  return opts;
}

// flag -> struct -> capture blob -> struct -> scenario key -> struct.
template <typename Opts>
void ExpectEveryFieldRoundTrips(const OptionTable<Opts>& table, const char* tag) {
  for (const OptionField<Opts>& f : table) {
    Opts want;
    Nudge(f, &want);
    std::string flag = std::string("--") + f.name + "=" + f.codec->format(f.Of(want), f.limits);
    for (char& ch : flag) ch = ch == '_' ? '-' : ch;
    char* argv[] = {flag.data()};
    KeyValues flags(KeyValues::Style::kFlags);
    flags.AddArgs(1, argv);
    const Opts from_flag = ReadAll(table, flags);

    KeyValues blob;
    blob.AddLines(FormatOptions(table, from_flag));
    const Opts from_blob = ReadAll(table, blob);

    KeyValues scenario;
    scenario.AddFlatJson(std::string("{\"") + f.name + "\": \"" +
                         f.codec->format(f.Of(from_blob), f.limits) + "\"}");
    const Opts from_key = ReadAll(table, scenario);

    EXPECT_EQ(FormatOptions(table, from_key), FormatOptions(table, want)) << f.name;
    EXPECT_EQ(OptionsFingerprint(tag, table, from_key), OptionsFingerprint(tag, table, want))
        << f.name;
  }
}

template <typename Opts>
void ExpectEveryFieldChangesTheFingerprint(const OptionTable<Opts>& table, const char* tag) {
  const uint64_t base = OptionsFingerprint(tag, table, Opts{});
  for (const OptionField<Opts>& f : table) {
    Opts changed;
    Nudge(f, &changed);
    EXPECT_NE(OptionsFingerprint(tag, table, changed), base) << f.name;
  }
}

TEST(OptionTablesTest, EveryStormFieldRoundTripsThroughFlagBlobAndScenarioKey) {
  ExpectEveryFieldRoundTrips(StormOptionTable(), "storm-v2");
}

TEST(OptionTablesTest, EveryClusterFieldRoundTripsThroughFlagBlobAndScenarioKey) {
  ExpectEveryFieldRoundTrips(MarketplaceOptionTable(), "marketplace-v2");
}

TEST(OptionTablesTest, EveryStormFieldChangesTheFingerprint) {
  ExpectEveryFieldChangesTheFingerprint(StormOptionTable(), "storm-v2");
}

TEST(OptionTablesTest, EveryClusterFieldChangesTheFingerprint) {
  ExpectEveryFieldChangesTheFingerprint(MarketplaceOptionTable(), "marketplace-v2");
}

TEST(OptionTablesTest, FaultScheduleRoundsFractionalMillisecondsToTheNearestNanosecond) {
  std::string flag = "--fault-crash=0@2.7,3@0.0000006";
  char* argv[] = {flag.data()};
  KeyValues flags(KeyValues::Style::kFlags);
  flags.AddArgs(1, argv);
  const MarketplaceOptions mo = ReadAll(MarketplaceOptionTable(), flags);
  ASSERT_EQ(mo.faults.crashes.size(), 2u);
  EXPECT_EQ(mo.faults.crashes[0].node, 0);
  EXPECT_EQ(mo.faults.crashes[0].at, 2'700'000);
  EXPECT_EQ(mo.faults.crashes[1].at, 1);

  const OptionField<MarketplaceOptions>* crash = nullptr;
  for (const OptionField<MarketplaceOptions>& f : MarketplaceOptionTable()) {
    if (std::string(f.name) == "fault_crash") crash = &f;
  }
  ASSERT_NE(crash, nullptr);
  MarketplaceOptions scratch;
  for (const char* bad : {"0@x", "0@", "@2", "0@2,", "0@2@3", "-1@2", "0@-2", "0-1@2"}) {
    EXPECT_NE(crash->codec->parse(bad, crash->limits, crash->member(scratch)), "") << bad;
  }
  EXPECT_TRUE(scratch.faults.crashes.empty());
}

TEST(OptionTablesTest, StrictParsingNamesTheKeyAndRefusesPartialNumbers) {
  const struct {
    const char* json;
    const char* error;
  } kRows[] = {
      {R"({"nodes": "12abc"})", "key 'nodes': '12abc' is not an integer"},
      {R"({"nodes": 1.5})", "key 'nodes': '1.5' is not an integer"},
      {R"({"nodes": 99999999999})", "key 'nodes': '99999999999' is too large"},
      {R"({"remote_frac": "0.5x"})", "key 'remote_frac': '0.5x' is not a number"},
      {R"({"topology": "torus"})", "key 'topology': 'torus' is not one of mesh|fat-tree"},
      {R"({"streams": 257})", "key 'streams': 257 is out of range [1, 256]"},
      {R"({"fault_drop": true})", "key 'fault_drop': 'true' is not a number"},
      {R"({"acesses": 5})", "unknown key 'acesses'"},
      {R"({"nodes": 4, "nodes": 5})", "key 'nodes' is given twice"},
  };
  for (const auto& row : kRows) {
    KeyValues kv;
    kv.AddFlatJson(row.json);
    StormOptions so;
    ReadOptions(StormOptionTable(), kv, &so);
    EXPECT_FALSE(kv.Finish(Validate(so))) << row.json;
    EXPECT_EQ(kv.error(), row.error) << row.json;
  }
}

TEST(OptionTablesTest, StormAccountsForEveryAccessAtTheStreamLimit) {
  StormOptions so;
  so.num_nodes = 4;
  so.streams_per_node = 256;
  so.accesses_per_stream = 2;
  so.cache_slots = 0;
  ASSERT_EQ(Validate(so), "");
  const StormResult r = RunStorm(so, 1);
  EXPECT_EQ(r.totals.local_accesses + r.totals.cache_hits + r.totals.remote_reads +
                r.totals.remote_writes,
            4u * 256u * 2u);
  EXPECT_EQ(r.totals.failures, 0u);

  so.streams_per_node = 257;
  EXPECT_EQ(Validate(so), "streams: 257 is out of range [1, 256]");
  EXPECT_DEATH(RunStorm(so, 1), "FV_CHECK failed");
}

TEST(OptionTablesTest, ValidateRefusesFaultsOnMissingNodes) {
  MarketplaceOptions mo;
  mo.num_nodes = 6;
  mo.faults.crashes.push_back({6, Millis(1)});
  EXPECT_EQ(Validate(mo), "fault_crash: no node 6");
  StormOptions so;
  so.num_nodes = 4;
  so.crash_node = 4;
  EXPECT_EQ(Validate(so), "crash_node: no such node");
}

}  // namespace
}  // namespace fragvisor
