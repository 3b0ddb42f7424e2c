// Fleet telemetry plane suite.
//
// The load-bearing claims, in order:
//   1. Merge property — folding per-shard deltas into the hub reproduces
//      EXACTLY what one shared registry would have recorded (counters and
//      histogram buckets bit-equal; merge is associative, commutative, and
//      has the empty delta as identity; overflow saturates).
//   2. Exactly-once — however the fault injector mangles the wire (drops,
//      duplicates, lost acks, outages), the hub's per-source dedup table
//      plus byte-identical frame retries mean no frame is ever counted
//      twice: at quiescence the fleet aggregate equals the single-process
//      ground truth, to the counter.
//   3. The plane's own machinery — frame codec hardening, shipper retry
//      protocol, window ring, SLO burn-rate edges, JSON escaping — behaves
//      as specified, including under concurrent report/scrape (TSan lane).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tc/cloud/fault_injector.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/rng.h"
#include "tc/fleet/fleet.h"
#include "tc/obs/flight_recorder.h"
#include "tc/obs/metrics.h"
#include "tc/obs/telemetry.h"
#include "tc/rpc/wire_harness.h"

namespace tc {
namespace {

using cloud::CloudInfrastructure;
using cloud::NetworkFaultConfig;
using cloud::NetworkFaultInjector;
using fleet::FleetOptions;
using fleet::FleetReport;
using obs::DecodeTelemetryFrame;
using obs::DeltaSince;
using obs::DeltaToSnapshot;
using obs::EncodeTelemetryFrame;
using obs::HistogramSnapshot;
using obs::MergeDelta;
using obs::MetricRegistry;
using obs::RegistrySnapshot;
using obs::SaturatingAdd;
using obs::TelemetryDelta;
using obs::TelemetryFrame;
using obs::TelemetryHub;
using obs::TelemetryShipper;

#define SKIP_IF_WIRE_LEG_IMPOSSIBLE()                           \
  do {                                                          \
    if (const char* reason = rpc::WireHarness::SkipReason()) {  \
      GTEST_SKIP() << reason;                                   \
    }                                                           \
  } while (false)

// Structural equality helpers: histogram snapshots compare bucket-for-
// bucket (the merge property is exact, not approximate).
void ExpectHistogramsEqual(const HistogramSnapshot& a,
                           const HistogramSnapshot& b,
                           const std::string& label) {
  EXPECT_EQ(a.count, b.count) << label;
  EXPECT_EQ(a.sum, b.sum) << label;
  EXPECT_EQ(a.max, b.max) << label;
  ASSERT_EQ(a.buckets.size(), b.buckets.size()) << label;
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << label << " bucket " << i;
  }
}

void ExpectDeltasEqual(const TelemetryDelta& a, const TelemetryDelta& b,
                       const std::string& label) {
  EXPECT_EQ(a.counters, b.counters) << label;
  EXPECT_EQ(a.gauges, b.gauges) << label;
  ASSERT_EQ(a.histograms.size(), b.histograms.size()) << label;
  for (const auto& [name, ha] : a.histograms) {
    auto it = b.histograms.find(name);
    ASSERT_NE(it, b.histograms.end()) << label << " missing " << name;
    EXPECT_EQ(ha.sum, it->second.sum) << label << " " << name;
    EXPECT_EQ(ha.max, it->second.max) << label << " " << name;
    EXPECT_EQ(ha.buckets, it->second.buckets) << label << " " << name;
  }
}

// ---------------------------------------------------------------------------
// Merge property
// ---------------------------------------------------------------------------

TEST(TelemetryMergeTest, ShardDeltasMergeToTheWhole) {
  // K shard registries record disjoint slices of one value stream; one
  // "whole" registry records every value. merge(shard deltas) must equal
  // the whole registry's delta exactly.
  constexpr size_t kShards = 7;
  std::vector<MetricRegistry> shards(kShards);
  MetricRegistry whole;
  Rng rng(4242);
  for (int i = 0; i < 5000; ++i) {
    const size_t shard = rng.NextBelow(kShards);
    const uint64_t latency = rng.NextBelow(1u << 20);
    shards[shard].GetCounter("ops").Increment();
    whole.GetCounter("ops").Increment();
    shards[shard].GetHistogram("lat_us").Record(latency);
    whole.GetHistogram("lat_us").Record(latency);
    if (i % 3 == 0) {
      shards[shard].GetCounter("writes").Increment(shard + 1);
      whole.GetCounter("writes").Increment(shard + 1);
    }
  }
  TelemetryDelta merged;
  RegistrySnapshot empty;
  for (size_t s = 0; s < kShards; ++s) {
    MergeDelta(&merged, shards[s].Delta(empty));
  }
  ExpectDeltasEqual(merged, whole.Delta(empty), "shards-vs-whole");

  // And the expanded snapshot agrees with the whole registry's snapshot.
  RegistrySnapshot from_merge = DeltaToSnapshot(merged);
  RegistrySnapshot direct = whole.Snapshot();
  for (const auto& [name, h] : direct.histograms) {
    ExpectHistogramsEqual(from_merge.histograms.at(name), h, name);
  }
  EXPECT_EQ(from_merge.counters, direct.counters);
}

TEST(TelemetryMergeTest, MergeIsAssociativeAndCommutative) {
  MetricRegistry r1, r2, r3;
  RegistrySnapshot empty;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    r1.GetHistogram("h").Record(rng.NextBelow(1000));
    r2.GetHistogram("h").Record(rng.NextBelow(100000));
    r3.GetHistogram("h").Record(rng.NextBelow(10));
    r1.GetCounter("c").Increment(2);
    r2.GetCounter("c2").Increment();
    r3.GetCounter("c").Increment();
  }
  const TelemetryDelta a = r1.Delta(empty);
  const TelemetryDelta b = r2.Delta(empty);
  const TelemetryDelta c = r3.Delta(empty);

  TelemetryDelta ab_c;          // (a + b) + c
  MergeDelta(&ab_c, a);
  MergeDelta(&ab_c, b);
  MergeDelta(&ab_c, c);
  TelemetryDelta bc;            // a + (b + c)
  MergeDelta(&bc, b);
  MergeDelta(&bc, c);
  TelemetryDelta a_bc = a;
  MergeDelta(&a_bc, bc);
  ExpectDeltasEqual(ab_c, a_bc, "associativity");

  TelemetryDelta cba;           // c + b + a
  MergeDelta(&cba, c);
  MergeDelta(&cba, b);
  MergeDelta(&cba, a);
  ExpectDeltasEqual(ab_c, cba, "commutativity");
}

TEST(TelemetryMergeTest, EmptyDeltaIsTheMergeIdentity) {
  MetricRegistry r;
  r.GetCounter("c").Increment(9);
  r.GetHistogram("h").Record(123);
  r.GetGauge("g").Set(-4);
  RegistrySnapshot empty;
  const TelemetryDelta d = r.Delta(empty);

  TelemetryDelta left;  // empty + d
  MergeDelta(&left, TelemetryDelta{});
  MergeDelta(&left, d);
  ExpectDeltasEqual(left, d, "left identity");

  TelemetryDelta right = d;  // d + empty
  MergeDelta(&right, TelemetryDelta{});
  ExpectDeltasEqual(right, d, "right identity");

  // No-change registry => empty delta (nothing ships).
  EXPECT_TRUE(r.Delta(r.Snapshot()).empty());
}

TEST(TelemetryMergeTest, OverflowSaturatesInsteadOfWrapping) {
  EXPECT_EQ(SaturatingAdd(~0ull, 1), ~0ull);
  EXPECT_EQ(SaturatingAdd(~0ull - 1, 5), ~0ull);
  EXPECT_EQ(SaturatingAdd(3, 4), 7u);

  TelemetryDelta a, b;
  a.counters["c"] = ~0ull - 2;
  b.counters["c"] = 100;
  a.histograms["h"].sum = ~0ull - 1;
  a.histograms["h"].buckets = {{5, ~0ull - 1}};
  b.histograms["h"].sum = 50;
  b.histograms["h"].buckets = {{5, 50}};
  MergeDelta(&a, b);
  EXPECT_EQ(a.counters["c"], ~0ull);
  EXPECT_EQ(a.histograms["h"].sum, ~0ull);
  ASSERT_EQ(a.histograms["h"].buckets.size(), 1u);
  EXPECT_EQ(a.histograms["h"].buckets[0].second, ~0ull);
  EXPECT_EQ(a.histograms["h"].Count(), ~0ull);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TelemetryFrame SampleFrame() {
  MetricRegistry r;
  r.GetCounter("tcell.puts").Increment(17);
  r.GetCounter("weird \"name\"\n").Increment(3);
  r.GetGauge(obs::kDegradedGaugeName).Set(1);
  r.GetGauge("negative").Set(-123456);
  for (uint64_t v : {0ull, 1ull, 7ull, 900ull, 1ull << 20, ~0ull >> 3}) {
    r.GetHistogram("tcell.put_batch_us").Record(v);
  }
  TelemetryFrame frame;
  frame.source = "fleet/cell3";
  frame.seq = 42;
  frame.delta = r.Delta(RegistrySnapshot{});
  return frame;
}

TEST(TelemetryCodecTest, RoundTripsExactly) {
  const TelemetryFrame frame = SampleFrame();
  auto decoded = DecodeTelemetryFrame(EncodeTelemetryFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->source, frame.source);
  EXPECT_EQ(decoded->seq, frame.seq);
  ExpectDeltasEqual(decoded->delta, frame.delta, "roundtrip");
}

TEST(TelemetryCodecTest, EveryTruncationFailsCleanly) {
  const Bytes encoded = EncodeTelemetryFrame(SampleFrame());
  for (size_t len = 0; len < encoded.size(); ++len) {
    Bytes prefix(encoded.begin(), encoded.begin() + len);
    auto decoded = DecodeTelemetryFrame(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(TelemetryCodecTest, BitFlipFuzzNeverCrashesOrOverreads) {
  const Bytes encoded = EncodeTelemetryFrame(SampleFrame());
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes mutated = encoded;
    const size_t flips = 1 + rng.NextBelow(8);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    // Must return (ok or error), never crash; a successful decode must
    // still satisfy the frame invariants the decoder enforces.
    auto decoded = DecodeTelemetryFrame(mutated);
    if (decoded.ok()) {
      EXPECT_FALSE(decoded->source.empty());
      EXPECT_GE(decoded->seq, 1u);
      for (const auto& [name, h] : decoded->delta.histograms) {
        for (const auto& [index, count] : h.buckets) {
          EXPECT_LT(index, obs::Histogram::kBucketCount);
          EXPECT_GT(count, 0u);
        }
      }
    }
  }
}

TEST(TelemetryCodecTest, RejectsMalformedFrames) {
  TelemetryFrame frame = SampleFrame();
  frame.source.clear();
  EXPECT_FALSE(DecodeTelemetryFrame(EncodeTelemetryFrame(frame)).ok());
  frame = SampleFrame();
  frame.seq = 0;
  EXPECT_FALSE(DecodeTelemetryFrame(EncodeTelemetryFrame(frame)).ok());
  // Trailing garbage after a valid frame.
  Bytes padded = EncodeTelemetryFrame(SampleFrame());
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeTelemetryFrame(padded).ok());
}

// ---------------------------------------------------------------------------
// Shipper protocol
// ---------------------------------------------------------------------------

TEST(TelemetryShipperTest, RetriesAreByteIdenticalUntilAcked) {
  MetricRegistry r;
  TelemetryShipper shipper(&r, "cell-a");
  TelemetryFrame frame;
  EXPECT_FALSE(shipper.BuildFrame(&frame));  // Nothing recorded yet.

  r.GetCounter("ops").Increment(5);
  ASSERT_TRUE(shipper.BuildFrame(&frame));
  EXPECT_EQ(frame.seq, 1u);
  const Bytes first = EncodeTelemetryFrame(frame);

  // More traffic lands while the frame is in flight; a retry must still
  // ship the SAME bytes (the hub dedups by (source, seq)).
  r.GetCounter("ops").Increment(7);
  TelemetryFrame retry;
  ASSERT_TRUE(shipper.BuildFrame(&retry));
  EXPECT_EQ(EncodeTelemetryFrame(retry), first);
  EXPECT_TRUE(shipper.pending());

  shipper.Acked(99);  // Wrong seq: ignored.
  EXPECT_TRUE(shipper.pending());
  shipper.Acked(1);
  EXPECT_FALSE(shipper.pending());

  // The next frame carries exactly the traffic that arrived in flight.
  TelemetryFrame second;
  ASSERT_TRUE(shipper.BuildFrame(&second));
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(second.delta.counters.at("ops"), 7u);
  shipper.Acked(2);
  EXPECT_EQ(shipper.frames_acked(), 2u);
  EXPECT_FALSE(shipper.BuildFrame(&second));  // Fully drained.
}

// ---------------------------------------------------------------------------
// Hub: dedup, windows, SLOs
// ---------------------------------------------------------------------------

TelemetryFrame CounterFrame(const std::string& source, uint64_t seq,
                            uint64_t ops) {
  TelemetryFrame f;
  f.source = source;
  f.seq = seq;
  f.delta.counters["ops"] = ops;
  return f;
}

TEST(TelemetryHubTest, DuplicatesAreReackedNotReapplied) {
  TelemetryHub hub;
  auto first = hub.Report(CounterFrame("a", 1, 10));
  EXPECT_TRUE(first.applied);
  EXPECT_EQ(first.last_seq, 1u);

  // The same frame redelivered (lost ack, network duplicate): re-acked,
  // not applied — the aggregate must not move.
  for (int i = 0; i < 3; ++i) {
    auto dup = hub.Report(CounterFrame("a", 1, 10));
    EXPECT_TRUE(dup.status.ok());
    EXPECT_FALSE(dup.applied);
    EXPECT_TRUE(dup.duplicate);
    EXPECT_EQ(dup.last_seq, 1u);
  }
  EXPECT_EQ(hub.Aggregate().counters.at("ops"), 10u);
  EXPECT_EQ(hub.stats().applied, 1u);
  EXPECT_EQ(hub.stats().duplicates, 3u);

  // A gap (seq 2 lost forever, 3 arrives) applies and is counted.
  auto gap = hub.Report(CounterFrame("a", 4, 5));
  EXPECT_TRUE(gap.applied);
  EXPECT_EQ(hub.stats().seq_gaps, 1u);
  EXPECT_EQ(hub.Aggregate().counters.at("ops"), 15u);
  // Per-source isolation: another source's seq 1 is fresh.
  EXPECT_TRUE(hub.Report(CounterFrame("b", 1, 1)).applied);
  EXPECT_EQ(hub.stats().sources, 2u);
  EXPECT_EQ(hub.SourceSeqs().at("a"), 4u);
  EXPECT_EQ(hub.SourceSeqs().at("b"), 1u);
}

TEST(TelemetryHubTest, UndecodableFrameIsDefinitiveCorruption) {
  TelemetryHub hub;
  Bytes garbage = {0x7f, 0x00, 0x01};
  auto out = hub.ReportEncoded(garbage);
  EXPECT_FALSE(out.status.ok());
  EXPECT_FALSE(out.status.IsTransient());
  EXPECT_EQ(hub.stats().decode_errors, 1u);
  EXPECT_EQ(hub.stats().reports, 0u);
}

TEST(TelemetryHubTest, WindowsSealGaugeAggregatesAndRotate) {
  TelemetryHub hub(TelemetryHub::Options{.ring_capacity = 4});
  // Three sources publish gauges; the window sums the latest per source.
  for (uint64_t s = 1; s <= 3; ++s) {
    TelemetryFrame f;
    f.source = "cell" + std::to_string(s);
    f.seq = 1;
    f.delta.gauges[obs::kDegradedGaugeName] = (s == 2) ? 1 : 0;
    f.delta.gauges[obs::kOutboxDepthGaugeName] = static_cast<int64_t>(s);
    f.delta.counters["ops"] = s;
    ASSERT_TRUE(hub.Report(f).applied);
  }
  obs::TelemetryWindow w = hub.AdvanceWindow(1000);
  EXPECT_EQ(w.window_id, 1u);
  EXPECT_EQ(w.reports, 3u);
  EXPECT_EQ(w.degraded_cells, 1);
  EXPECT_EQ(w.outbox_depth, 6);
  EXPECT_EQ(w.counters.at("ops"), 6u);

  // Next window: no traffic => empty flows, but gauges persist (state).
  obs::TelemetryWindow w2 = hub.AdvanceWindow(2000);
  EXPECT_EQ(w2.window_id, 2u);
  EXPECT_EQ(w2.reports, 0u);
  EXPECT_EQ(w2.counters.count("ops"), 0u);
  EXPECT_EQ(w2.degraded_cells, 1);
  EXPECT_EQ(w2.t_start_us, 1000u);
  EXPECT_EQ(w2.t_end_us, 2000u);

  // Ring evicts oldest-first at capacity, ids stay monotone.
  for (uint64_t i = 3; i <= 7; ++i) hub.AdvanceWindow(i * 1000);
  auto windows = hub.Windows();
  ASSERT_EQ(windows.size(), 4u);
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].window_id, 4u + i);
  }
  EXPECT_EQ(hub.stats().windows_sealed, 7u);
}

TEST(TelemetrySloTest, LatencyBurnRateFiresOnRisingEdgeOnly) {
  obs::FlightRecorder::Global().Clear();
  TelemetryHub hub;
  obs::SloConfig slo;
  slo.name = "put-p99";
  slo.histogram = "put_us";
  slo.quantile = 0.99;        // 1% error budget.
  slo.target_us = 1000;
  slo.windows = 3;
  slo.burn_threshold = 2.0;   // Fires at >= 2% of samples over target.
  hub.AddSlo(slo);

  auto window_with = [&](uint64_t seq, uint64_t fast, uint64_t slow) {
    MetricRegistry r;
    for (uint64_t i = 0; i < fast; ++i) r.GetHistogram("put_us").Record(10);
    for (uint64_t i = 0; i < slow; ++i) {
      r.GetHistogram("put_us").Record(50000);
    }
    TelemetryFrame f;
    f.source = "cell";
    f.seq = seq;
    f.delta = r.Delta(RegistrySnapshot{});
    ASSERT_TRUE(hub.Report(f).applied);
  };

  // Healthy window: 1000 fast, 1 slow => burn 0.1% / 1% = 0.1.
  window_with(1, 1000, 1);
  hub.AdvanceWindow(1000);
  auto statuses = hub.SloStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_FALSE(statuses[0].firing);
  EXPECT_EQ(statuses[0].fires, 0u);

  // Budget-burning window: 50% bad in this window, 51/1101 ≈ 4.6% over
  // the trailing three => burn ≈ 4.6 >= 2: rising edge fires the flight
  // recorder exactly once.
  const uint64_t dumps_before = obs::FlightRecorder::Global().total_triggers();
  window_with(2, 50, 50);
  hub.AdvanceWindow(2000);
  statuses = hub.SloStatuses();
  EXPECT_TRUE(statuses[0].firing);
  EXPECT_GE(statuses[0].burn_rate, 2.0);
  EXPECT_EQ(statuses[0].fires, 1u);
  EXPECT_EQ(obs::FlightRecorder::Global().total_triggers(), dumps_before + 1);
  bool found = false;
  for (const auto& dump : obs::FlightRecorder::Global().Dumps()) {
    if (dump.reason == "slo:put-p99") found = true;
  }
  EXPECT_TRUE(found);

  // Still burning: no new fire (edge-triggered, not level-triggered).
  window_with(3, 90, 10);
  hub.AdvanceWindow(3000);
  EXPECT_EQ(hub.SloStatuses()[0].fires, 1u);
  EXPECT_EQ(obs::FlightRecorder::Global().total_triggers(), dumps_before + 1);

  // Recovery: bad windows age out of the trailing evaluation, it re-arms.
  for (uint64_t seq = 4; seq <= 7; ++seq) {
    window_with(seq, 1000, 0);
    hub.AdvanceWindow(seq * 1000);
  }
  EXPECT_FALSE(hub.SloStatuses()[0].firing);
  EXPECT_EQ(hub.stats().slo_fires, 1u);
}

TEST(TelemetrySloTest, AvailabilityShapeCountsGoodOverTotal) {
  TelemetryHub hub;
  obs::SloConfig slo;
  slo.name = "get-availability";
  slo.good_counter = "gets_ok";
  slo.total_counter = "gets";
  slo.availability = 0.99;  // 1% budget.
  slo.windows = 2;
  slo.burn_threshold = 2.0;
  hub.AddSlo(slo);

  TelemetryFrame f;
  f.source = "cell";
  f.seq = 1;
  f.delta.counters["gets"] = 100;
  f.delta.counters["gets_ok"] = 95;  // 5% bad => burn 5.
  ASSERT_TRUE(hub.Report(f).applied);
  hub.AdvanceWindow(1000);
  auto statuses = hub.SloStatuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].firing);
  EXPECT_EQ(statuses[0].samples, 100u);
  EXPECT_EQ(statuses[0].bad, 5u);
  EXPECT_NEAR(statuses[0].burn_rate, 5.0, 1e-9);
}

// ---------------------------------------------------------------------------
// JSON escaping (satellite regression) + scrape schema basics
// ---------------------------------------------------------------------------

TEST(TelemetryJsonTest, EscapesHostileNamesEverywhere) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::JsonEscape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
  EXPECT_EQ(obs::JsonEscape("plain"), "plain");

  // A hostile metric name must come out escaped in every export surface.
  MetricRegistry r;
  r.GetCounter("bad\"name\n").Increment();
  const std::string json = r.ToJson();
  EXPECT_NE(json.find("bad\\\"name\\n"), std::string::npos) << json;
  EXPECT_EQ(json.find("bad\"name"), std::string::npos) << json;

  TelemetryHub hub;
  TelemetryFrame f;
  f.source = "cell\"quoted";
  f.seq = 1;
  f.delta.counters["evil\\counter\t"] = 3;
  ASSERT_TRUE(hub.Report(f).applied);
  hub.AdvanceWindow(1000);
  const std::string scrape = hub.ScrapeJson();
  EXPECT_NE(scrape.find("cell\\\"quoted"), std::string::npos) << scrape;
  EXPECT_NE(scrape.find("evil\\\\counter\\t"), std::string::npos) << scrape;
}

TEST(TelemetryJsonTest, ScrapeCarriesTheWholePlane) {
  TelemetryHub hub;
  {
    MetricRegistry r;
    r.GetCounter("ops").Increment(10);
    for (uint64_t v = 1; v <= 100; ++v) r.GetHistogram("lat_us").Record(v);
    TelemetryFrame f;
    f.source = "a";
    f.seq = 1;
    f.delta = r.Delta(RegistrySnapshot{});
    ASSERT_TRUE(hub.Report(f).applied);
  }
  obs::SloConfig slo;
  slo.name = "s";
  slo.good_counter = "ok";
  slo.total_counter = "ops";
  slo.availability = 0.9;
  hub.AddSlo(slo);
  hub.AdvanceWindow(1000);
  const std::string json = hub.ScrapeJson();
  for (const char* key :
       {"\"stats\"", "\"seqs\"", "\"aggregate\"", "\"windows\"", "\"slos\"",
        "\"p50\"", "\"p95\"", "\"p99\"", "\"reports\"", "\"burn_rate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  EXPECT_FALSE(hub.FleetReportText().empty());
}

// ---------------------------------------------------------------------------
// Chaos: fleet shipping under faults == single-process ground truth
// ---------------------------------------------------------------------------

// The acceptance criterion: K cells ship telemetry through the (possibly
// real-TCP) RPC surface with the fault injector mangling every op class;
// at quiescence the hub's fleet aggregate must equal the shared ground-
// truth registry the cells mirrored every record into — counters to the
// unit, histograms bucket-for-bucket. Any double-count (a retried frame
// applied twice) or loss (an acked frame dropped) breaks the equality.
void RunTelemetryChaos(size_t cells, double rate, uint64_t seed) {
  CloudInfrastructure cloud;
  NetworkFaultConfig config = NetworkFaultConfig::Lossy(rate, seed);
  config.delay_prob = rate;
  NetworkFaultInjector injector(config);
  cloud.set_fault_injector(&injector);
  rpc::WireHarness wire(&cloud);

  MetricRegistry ground_truth;
  FleetOptions options;
  options.cells = cells;
  options.threads = 8;
  options.rounds_per_cell = 8;
  options.put_batch = 2;
  options.gets_per_round = 2;
  options.docs_per_cell = 8;
  options.payload_bytes = 64;
  options.seed = seed;
  options.transport = wire.transport();
  options.telemetry = true;
  options.telemetry_every_rounds = 2;
  options.telemetry_ground_truth = &ground_truth;

  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  const std::string label = "cells=" + std::to_string(cells) +
                            " rate=" + std::to_string(rate) +
                            " seed=" + std::to_string(seed);
  ASSERT_TRUE(report.ok()) << label << ": " << report.status().ToString();
  ASSERT_EQ(report->cells_failed, 0u) << label;
  EXPECT_EQ(report->telemetry_unshipped, 0u) << label;
  EXPECT_GT(report->telemetry_frames, 0u) << label;

  TelemetryHub& hub = cloud.telemetry_hub();
  const RegistrySnapshot fleet = hub.Aggregate();
  const RegistrySnapshot truth = ground_truth.Snapshot();

  // Exact op counts: every tcell.* counter matches to the unit.
  ASSERT_FALSE(truth.counters.empty()) << label;
  for (const auto& [name, value] : truth.counters) {
    auto it = fleet.counters.find(name);
    if (it == fleet.counters.end()) {
      // A never-incremented counter ships no delta (the empty delta is
      // the merge identity): absent from the hub and zero are the same
      // fact in the telemetry plane.
      EXPECT_EQ(value, 0u) << label << " missing " << name;
      continue;
    }
    EXPECT_EQ(it->second, value)
        << label << " " << name << "\nfault schedule:\n"
        << injector.FormatSchedule();
  }
  for (const auto& [name, value] : fleet.counters) {
    EXPECT_EQ(truth.counters.count(name), 1u)
        << label << " extra counter " << name;
  }
  // Latency distributions: bucket-for-bucket equality (the mirror records
  // the identical values, so even "within bucket resolution" collapses to
  // exact equality here).
  ASSERT_FALSE(truth.histograms.empty()) << label;
  for (const auto& [name, h] : truth.histograms) {
    auto it = fleet.histograms.find(name);
    ASSERT_NE(it, fleet.histograms.end()) << label << " missing " << name;
    ExpectHistogramsEqual(it->second, h, label + " " + name);
  }

  // Zero double-counting, restated on the hub's own books: every acked
  // frame was applied exactly once.
  const TelemetryHub::Stats stats = hub.stats();
  EXPECT_EQ(stats.applied, report->telemetry_frames) << label;
  EXPECT_EQ(stats.decode_errors, 0u) << label;
  // Settled fleet: no cell still degraded, no outbox backlog.
  auto degraded = fleet.gauges.find(obs::kDegradedGaugeName);
  if (degraded != fleet.gauges.end()) {
    EXPECT_EQ(degraded->second, 0) << label;
  }
  auto outbox = fleet.gauges.find(obs::kOutboxDepthGaugeName);
  if (outbox != fleet.gauges.end() && report->converged) {
    EXPECT_EQ(outbox->second, 0) << label;
  }
}

TEST(TelemetryChaosTest, AggregateMatchesGroundTruthUnderFaultSweep) {
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  for (double rate : {0.05, 0.25}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      RunTelemetryChaos(16, rate, seed);
    }
  }
}

TEST(TelemetryChaosTest, K64FleetAt25PercentFaultsCountsExactly) {
  // The headline configuration: 64 cells, 25% per-attempt fault rate.
  // Over TC_TRANSPORT=socket (the telemetry_test_wire leg) every frame
  // crosses real loopback TCP.
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  RunTelemetryChaos(64, 0.25, 20260810);
}

TEST(TelemetryChaosTest, CleanWireShipsEverythingOnce) {
  // No injector: every frame applies first try; dedup never engages.
  SKIP_IF_WIRE_LEG_IMPOSSIBLE();
  CloudInfrastructure cloud;
  rpc::WireHarness wire(&cloud);
  MetricRegistry ground_truth;
  FleetOptions options;
  options.cells = 8;
  options.threads = 4;
  options.rounds_per_cell = 6;
  options.docs_per_cell = 8;
  options.transport = wire.transport();
  options.telemetry = true;
  options.telemetry_every_rounds = 3;
  options.telemetry_ground_truth = &ground_truth;
  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const TelemetryHub::Stats stats = cloud.telemetry_hub().stats();
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_EQ(stats.seq_gaps, 0u);
  EXPECT_EQ(stats.applied, report->telemetry_frames);
  auto truth_counters = ground_truth.Snapshot().counters;
  // Never-incremented counters ship no delta; drop them before the exact
  // map comparison (absent == 0 in the telemetry plane).
  std::erase_if(truth_counters,
                [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(cloud.telemetry_hub().Aggregate().counters, truth_counters);
}

TEST(TelemetryChaosTest, CleanInProcessRunShipsExactly) {
  // No injector and no wire: every cell still ships through its channel,
  // here over the in-process transport, and the aggregate is exact.
  CloudInfrastructure cloud;
  MetricRegistry ground_truth;
  FleetOptions options;
  options.cells = 4;
  options.threads = 4;
  options.rounds_per_cell = 5;
  options.docs_per_cell = 8;
  options.telemetry = true;
  options.telemetry_every_rounds = 2;
  options.telemetry_ground_truth = &ground_truth;
  fleet::FleetRunner runner(&cloud, options);
  auto report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->telemetry_unshipped, 0u);
  EXPECT_EQ(report->retries, 0u);
  EXPECT_EQ(cloud.telemetry_hub().stats().duplicates, 0u);
  auto truth_counters = ground_truth.Snapshot().counters;
  // Never-incremented counters ship no delta; drop them before the exact
  // map comparison (absent == 0 in the telemetry plane).
  std::erase_if(truth_counters,
                [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(cloud.telemetry_hub().Aggregate().counters, truth_counters);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan lane): report and scrape race freely
// ---------------------------------------------------------------------------

TEST(TelemetryConcurrencyTest, ReportScrapeAndAdvanceRace) {
  TelemetryHub hub(TelemetryHub::Options{.ring_capacity = 8});
  obs::SloConfig slo;
  slo.name = "lat";
  slo.histogram = "h";
  slo.target_us = 100;
  hub.AddSlo(slo);

  constexpr int kReporters = 4;
  constexpr uint64_t kFramesEach = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReporters; ++t) {
    threads.emplace_back([&hub, t] {
      MetricRegistry r;
      RegistrySnapshot baseline;
      const std::string source = "cell" + std::to_string(t);
      for (uint64_t seq = 1; seq <= kFramesEach; ++seq) {
        r.GetCounter("ops").Increment();
        r.GetHistogram("h").Record(seq % 500);
        RegistrySnapshot now = r.Snapshot();
        TelemetryFrame f;
        f.source = source;
        f.seq = seq;
        f.delta = DeltaSince(now, baseline);
        baseline = std::move(now);
        auto out = hub.Report(f);
        ASSERT_TRUE(out.applied) << source << " seq " << seq;
        if (seq % 3 == 0) hub.Report(f);  // Deliberate duplicate.
      }
    });
  }
  std::thread scraper([&hub, &stop] {
    uint64_t advanced = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::string json = hub.ScrapeJson();
      ASSERT_FALSE(json.empty());
      hub.Aggregate();
      hub.AdvanceWindow(++advanced * 1000);
      hub.SloStatuses();
    }
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  const RegistrySnapshot agg = hub.Aggregate();
  EXPECT_EQ(agg.counters.at("ops"), kReporters * kFramesEach);
  EXPECT_EQ(agg.histograms.at("h").count, kReporters * kFramesEach);
  const TelemetryHub::Stats stats = hub.stats();
  EXPECT_EQ(stats.applied, kReporters * kFramesEach);
  EXPECT_GT(stats.duplicates, 0u);
}

}  // namespace
}  // namespace tc
