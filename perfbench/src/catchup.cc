// `catchup` — a secure-token cell (64 KiB RAM budget, 16 MiB flash) with
// the same loopback socket setup as `vault`, cut off from its provider by
// NetworkFaultInjector::ForceOutage. While cut off it stores 300 documents
// of 256 B, each deferred into the LogStore-journaled outbox; then the
// outage lifts and one CatchUp() drains the outbox, read-back-verifies
// every document and republishes the manifest. The storage layer and the
// net outbox/retry layers do the work: the working set exceeds the
// store's index RAM budget, so lookups fall back to log scans.
//
// One cycle takes several seconds, so a run repeats whole cycles (each on
// a fresh stack) until --seconds have passed. The traced run traces and
// takes its per-layer metrics from the first cycle.
#include "cells.h"
#include "tc/common/rng.h"

namespace perfbench {

namespace {

constexpr size_t kDocBytes = 256;
constexpr int kDocsPerCycle = 300;
constexpr int kSetupsPerCycle = 3;

}  // namespace

Outcome RunCatchup(const RunOptions& opt) {
  Outcome out;
  InitMetrics(&out);
  std::vector<double> setup_s, store_us, fetch_us, drain_docs_s;
  std::vector<double> store_traced, store_untraced;
  double stored_ratio = 0;
  Clock::time_point t_start = Clock::now();
  for (int cycle = 0; cycle == 0 || SecondsSince(t_start) < opt.seconds;
       ++cycle) {
    const bool trace_cycle = opt.trace && cycle == 0;
    Tracer::SetEnabled(trace_cycle);
    double cycle_setup = 0;
    auto made = CreateTimed(tc::tee::DeviceClass::kSecureToken, opt.seed,
                            kSetupsPerCycle, &cycle_setup);
    if (!made.ok()) {
      out.CheckFailed("set-up: " + made.status().ToString());
      return out;
    }
    setup_s.push_back(cycle_setup);
    CellStack& st = **made;
    RegistryDelta reg;
    CellCounters at_start = CellCounters::Read(st);
    CellOps ops;

    st.injector.ForceOutage(true);
    std::vector<std::pair<std::string, int>> ids;  // (doc id, payload)
    tc::Rng trace_coin(opt.seed + 1);
    for (int i = 0; i < kDocsPerCycle; ++i) {
      const bool traced = trace_cycle && trace_coin.NextBelow(2) == 0;
      tc::Bytes payload = Payload(opt.seed, i, kDocBytes);
      double inner0 = traced ? TeeStorageUs() : 0;
      Clock::time_point t0 = Clock::now();
      tc::Result<std::string> id = [&] {
        Span span("cell", "store", traced);
        return st.cell->StoreDocument(Tag("note ", i), "offline",
                                      payload, st.owner_policy);
      }();
      double us = UsBetween(t0, Clock::now());
      ++out.attempted;
      ++ops.stores;
      if (traced) {
        ops.store_inner_us += TeeStorageUs() - inner0;
        ++ops.traced_stores;
      }
      if (!id.ok()) {
        ++out.failed;
        continue;
      }
      ids.emplace_back(*id, i);
      store_us.push_back(us);
      if (trace_cycle) (traced ? store_traced : store_untraced).push_back(us);
      if (st.cell->outbox_pending() != ids.size()) {
        out.CheckFailed("a store made while cut off was not deferred");
      }
    }
    if (!st.cell->degraded()) {
      out.CheckFailed("cell not degraded while cut off");
    }

    st.injector.ForceOutage(false);
    Clock::time_point t0 = Clock::now();
    tc::Status drained = [&] {
      Span span("cell", "catch_up", trace_cycle);
      return st.cell->CatchUp();
    }();
    double drain_s = SecondsSince(t0);
    ++out.attempted;
    if (!drained.ok()) {
      ++out.failed;
      out.CheckFailed("CatchUp: " + drained.ToString());
    }
    drain_docs_s.push_back(ids.size() / drain_s);
    if (st.cell->outbox_pending() != 0) {
      out.CheckFailed("outbox not empty after CatchUp");
    }
    if (st.cell->degraded()) out.CheckFailed("cell still degraded");

    for (size_t i = 0; i < ids.size(); ++i) {
      const bool traced = trace_cycle && trace_coin.NextBelow(2) == 0;
      double inner0 = traced ? TeeStorageUs() : 0;
      t0 = Clock::now();
      tc::Result<tc::Bytes> got = [&] {
        Span span("cell", "fetch", traced);
        return st.cell->FetchDocument(ids[i].first);
      }();
      double us = UsBetween(t0, Clock::now());
      ++out.attempted;
      ++ops.fetches;
      if (traced) {
        ops.fetch_inner_us += TeeStorageUs() - inner0;
        ++ops.traced_fetches;
      }
      if (!got.ok()) {
        ++out.failed;
        continue;
      }
      if (*got != Payload(opt.seed, ids[i].second, kDocBytes)) {
        out.CheckFailed("drained document " + ids[i].first +
                        " reads back wrong");
      }
      fetch_us.push_back(us);
    }
    reg.Finish();
    CellCounters delta = CellCounters::Read(st).Minus(at_start);
    stored_ratio = double(st.cloud.blob_store().total_bytes()) /
                   (double(ids.size()) * kDocBytes);

    if (trace_cycle) {
      Tracer::SetEnabled(false);
      SetCellCountLayers(&out, delta, ops.stores,
                         ids.size() * kDocBytes,
                         st.cell->store().device()->geometry().page_size);
      SetLayer(&out, "obs.trace_overhead_frac",
               Median(store_traced) / Median(store_untraced) - 1);
      Tracer::SetEnabled(true);
      RunProbes(&out, kDocBytes, &st);
      Tracer::SetEnabled(false);
      out.spans = Tracer::Take();
      SetCellLayers(&out, reg, delta, st, out.spans, ops);
      out.registry_json = reg.ToJson();
    }
  }

  SetE2e(&out, "setup_s", Median(setup_s));
  SetE2e(&out, "write_p50_us", Quantile(store_us, 0.5));
  SetE2e(&out, "read_p50_us", Quantile(fetch_us, 0.5));
  SetE2e(&out, "read_p99_us",
         WindowedQuantile(fetch_us, 0.99, kDocsPerCycle));
  SetE2e(&out, "throughput_ops_s", Median(drain_docs_s));
  SetE2e(&out, "stored_bytes_per_user_byte", stored_ratio);
  for (double v : drain_docs_s) out.Line("catchup cycle drained %.2f docs/s", v);
  out.Line("catchup degraded_store_p50_us = %.1f us  degraded_store_p99_us = "
           "%.1f us  (n=%zu)",
           out.e2e["write_p50_us"].value,
           WindowedQuantile(store_us, 0.99, kDocsPerCycle), store_us.size());
  out.Line("catchup catchup_docs_s = %.2f docs/s (median of %zu cycles)",
           out.e2e["throughput_ops_s"].value, drain_docs_s.size());
  out.Line("catchup fetch_after_p50_us = %.1f us  fetch_after_p99_us = %.1f "
           "us  stored_bytes_per_user_byte = %.4f",
           out.e2e["read_p50_us"].value, out.e2e["read_p99_us"].value,
           stored_ratio);
  return out;
}

}  // namespace perfbench
