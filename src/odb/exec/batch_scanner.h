#ifndef ODEVIEW_ODB_EXEC_BATCH_SCANNER_H_
#define ODEVIEW_ODB_EXEC_BATCH_SCANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "odb/database.h"
#include "odb/object_record.h"
#include "odb/oid.h"
#include "odb/value.h"

namespace ode::odb::exec {

/// Records decoded per scan batch. Sized so a batch of lab-sized
/// objects stays cache-resident while still amortizing the heap's
/// lock round-trip and page fetches.
inline constexpr size_t kDefaultBatchSize = 1024;

/// One decoded batch: parallel arrays, ascending local id.
struct RowBatch {
  ClusterId cluster = 0;
  std::vector<uint64_t> locals;
  std::vector<uint32_t> versions;
  std::vector<Value> values;
  uint64_t skipped_fields = 0;  ///< decodes avoided by the mask
  uint64_t arena_bytes = 0;     ///< raw record bytes behind this batch

  size_t size() const { return locals.size(); }
  void clear() {
    locals.clear();
    versions.clear();
    values.clear();
    skipped_fields = 0;
    arena_bytes = 0;
  }
};

/// Streams one cluster in decoded batches, ascending id. Each batch is
/// one `Database::ScanRawRecords` lock round-trip; records are decoded
/// under the projection mask, so attributes outside it cost a skip,
/// not a materialization.
class BatchScanner {
 public:
  /// `mask` (optional, not owned, must outlive the scanner) selects the
  /// top-level attributes to materialize; null decodes fully.
  BatchScanner(Database* db, std::string class_name,
               const ProjectionMask* mask,
               size_t batch_size = kDefaultBatchSize);

  /// Fills `*batch` with the next run of records. Returns false when
  /// the cluster is exhausted (batch left empty).
  Result<bool> Next(RowBatch* batch);

 private:
  Database* db_;
  std::string class_name_;
  uint64_t cursor_ = 0;  ///< last id delivered (exclusive lower bound)
  const ProjectionMask* mask_;
  size_t batch_size_;
  bool done_ = false;
  /// Reused across `Next` calls: the raw read appends into its arena,
  /// so a warm scan allocates nothing per batch.
  RawRecordBatch raw_;
};

}  // namespace ode::odb::exec

#endif  // ODEVIEW_ODB_EXEC_BATCH_SCANNER_H_
