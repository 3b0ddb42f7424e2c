#ifndef TC_DB_DATABASE_H_
#define TC_DB_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tc/common/result.h"
#include "tc/db/keyword_index.h"
#include "tc/db/table.h"
#include "tc/db/timeseries.h"
#include "tc/storage/log_store.h"

namespace tc::db {

/// The embedded personal datastore of one trusted cell: a catalog of
/// schema-checked tables, a time-series store for sensor feeds, and a
/// keyword index over document metadata — all multiplexed onto a single
/// LogStore (hence a single encrypted flash image).
///
/// Key-space layout on the LogStore:
///   "m/<table>"            table schema (catalog)
///   "r/<table>/<id>"       table rows
///   "s/<series>/<chunk>"   time-series chunks
///   "k/<term>"             keyword posting list head: the open tail, plus
///                          a trailer (chunk count, largest sealed id) once
///                          the list has overflowed
///   "k/<term>/<i>"         sealed posting list chunks (terms are
///                          alphanumeric, so these never collide with heads)
///   "x/..."             reserved for the cell layer (sync state etc.)
class Database {
 public:
  /// Opens the catalog, restoring tables, series directories and row-id
  /// sets from the store (one sequential pass).
  static Result<std::unique_ptr<Database>> Open(storage::LogStore* store);

  Result<Table*> CreateTable(const std::string& name, Schema schema);
  Result<Table*> GetTable(const std::string& name);
  /// Drops the table's rows and catalog entry.
  Status DropTable(const std::string& name);

  TimeSeriesStore& timeseries() { return timeseries_; }
  KeywordIndex& keywords() { return keywords_; }
  storage::LogStore* store() { return store_; }

  /// Flushes buffered time-series chunks and the store's write buffer.
  Status Flush();

 private:
  explicit Database(storage::LogStore* store);
  Status Recover();

  storage::LogStore* store_;
  TimeSeriesStore timeseries_;
  KeywordIndex keywords_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace tc::db

#endif  // TC_DB_DATABASE_H_
