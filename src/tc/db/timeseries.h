#ifndef TC_DB_TIMESERIES_H_
#define TC_DB_TIMESERIES_H_

#include <map>
#include <string>
#include <vector>

#include "tc/common/clock.h"
#include "tc/common/result.h"
#include "tc/storage/log_store.h"

namespace tc::db {

/// One sensor reading: integer value (e.g. watts, centi-degrees,
/// road-pricing cents) at a timestamp.
struct Reading {
  Timestamp time;
  int64_t value;
  friend bool operator==(const Reading&, const Reading&) = default;
};

/// Aggregate of one time window (the unit the gateway externalizes:
/// 15-minute aggregates to household members, daily to the social game,
/// monthly to the provider).
struct WindowAggregate {
  Timestamp window_start;
  uint64_t count = 0;
  double sum = 0;
  double mean = 0;
  int64_t min = 0;
  int64_t max = 0;
};

/// Append-optimized time-series storage over the LogStore.
///
/// The Linky feed is 1 Hz — 86 400 readings/day — so raw rows would drown a
/// small flash chip. Readings are batched into chunks of `chunk_size`,
/// delta-encoded (varint time deltas, zigzag value deltas), which
/// compresses smooth load curves by roughly an order of magnitude. Each
/// series keeps a small in-RAM directory of (chunk, first/last timestamp)
/// so range queries touch only overlapping chunks.
///
/// Appends must be in non-decreasing time order per series (sensor streams
/// are); out-of-order appends are rejected.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(storage::LogStore* store, size_t chunk_size = 512);

  /// Buffers one reading; the chunk is persisted when full (or on Flush).
  Status Append(const std::string& series, Timestamp t, int64_t value);

  /// Persists the partial chunk of `series`.
  Status Flush(const std::string& series);
  /// Persists all partial chunks.
  Status FlushAll();

  /// All readings with t0 <= time < t1, in time order.
  Result<std::vector<Reading>> Range(const std::string& series, Timestamp t0,
                                     Timestamp t1);

  /// Epoch-aligned windowed aggregates over [t0, t1); empty windows are
  /// omitted.
  Result<std::vector<WindowAggregate>> Windowed(const std::string& series,
                                                Timestamp t0, Timestamp t1,
                                                Timestamp window_seconds);

  /// Total number of persisted + buffered readings of a series.
  uint64_t Count(const std::string& series) const;

  /// Called by Database recovery with each persisted chunk key; reloads the
  /// chunk directory entry.
  Status RestoreChunk(const std::string& key, const Bytes& data);

  /// Storage key of chunk `n` of `series`.
  static std::string ChunkKey(const std::string& series, uint64_t chunk_no);

  static Bytes EncodeChunk(const std::vector<Reading>& readings);
  static Result<std::vector<Reading>> DecodeChunk(const Bytes& data);

 private:
  struct ChunkInfo {
    uint64_t chunk_no;
    Timestamp first;
    Timestamp last;
    uint32_t count;
  };
  struct SeriesState {
    std::vector<ChunkInfo> chunks;   // Sorted by chunk_no.
    std::vector<Reading> buffer;     // Partial chunk, not yet persisted.
    uint64_t next_chunk_no = 0;
    Timestamp last_time = INT64_MIN;
    uint64_t persisted_count = 0;
  };

  Status PersistBuffer(const std::string& series, SeriesState& state);

  storage::LogStore* store_;
  size_t chunk_size_;
  std::map<std::string, SeriesState> series_;
};

}  // namespace tc::db

#endif  // TC_DB_TIMESERIES_H_
